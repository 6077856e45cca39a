"""The three benchmark workloads and the checks on their outputs.

Each workload is one ``fbmsde`` subcommand on a fixed configuration whose
master seed is the benchmark's ``--seed``.  Why each was chosen:

* ``converge-mr`` -- the criterion-5 strong-order ladder (mean-reverting,
  200 paths, levels 2^4..2^9 against 2^13, circulant sampler) on a process
  pool.  The solver dominates; it is the only workload that uses the pool,
  ``subsample``, the sup-error step and the bootstrap.
* ``moments-as`` -- the criterion-7 Ait-Sahalia moment and modulus probe
  (2^11 steps x 500 paths, p = 4).  More bracketing and bisection per step
  than mean-reverting and no pool: a solver shortcut tuned to the convex
  mean-reverting drift must not cost anything here.
* ``simulate-chol`` -- a full per-node trajectory CSV (mean-reverting,
  2^12 steps x 50 paths, Cholesky sampler).  Sampler set-up and CSV
  formatting dominate and the solver is a minor share; it is the only
  workload that consumes the per-step residual and iteration records and
  ``lamperti_inverse``.

Steps and paths live in the configuration, never in CLI overrides, so the
digest in every output names the run exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 20260809
# A path-batched solver moves roots by about 1.4e-9 relative; a wrong root
# moves them by far more than this.
REFERENCE_RTOL = 1e-6
REFERENCE_FILE = Path(__file__).with_name("reference.json")
# simulate-chol keeps every REFERENCE_STRIDE-th node of each path, the last
# node included.  An error in any root carries forward along the path almost
# undamped over this many steps, so it still shows at the next kept node.
REFERENCE_STRIDE = 64

MEAN_REVERTING = {
    "model": "mean_reverting", "a1": 1.0, "a2": 1.0, "gamma": 0.7,
    "sigma": 0.5, "y0": 1.0, "hurst": 0.7,
}
AIT_SAHALIA = {
    "model": "ait_sahalia", "a_m1": 1.0, "a0": 1.0, "a1": 1.0, "a2": 1.0,
    "r": 3.0, "rho": 1.5, "sigma": 0.5, "y0": 1.0, "hurst": 0.7,
}
TOL_ABS = 1e-12
TOL_REL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    model: dict
    scheme: dict
    experiment: dict
    steps: int  # implicit steps solved by one run
    ref_steps: int | None  # step count of the reference grid, if any
    extract: Callable[[Path], dict]  # the values compared at the reference seed
    sanity: Callable[[Path, "Workload"], list]  # checks that hold at any seed
    uses_pool: bool = False  # spreads over every CPU through --threads
    reference: dict | None = field(default=None, compare=False)

    def config(self, seed: int) -> dict:
        return {
            "seed": seed,
            "model": self.model,
            "scheme": self.scheme,
            "experiment": self.experiment,
        }

    def argv(self, config_path: Path, out_dir: Path, threads: int) -> list:
        args = [self.subcommand, "--config", str(config_path), "--threads", str(threads)]
        if self.subcommand == "simulate":
            return args + ["--out", str(out_dir / "simulate.csv")]
        return args + ["--out-dir", str(out_dir)]

    def check(self, out_dir: Path, seed: int) -> list:
        """Problems found in one run's outputs; empty when they are correct."""
        try:
            problems = self.sanity(out_dir, self)
            if problems or self.reference is None or seed != self.reference["seed"]:
                return problems
            return compare(self.extract(out_dir), self.reference["values"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]


def compare(actual: dict, expected: dict, path: str = "") -> list:
    """Leaves of ``actual`` that differ from ``expected`` beyond REFERENCE_RTOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            return [f"{path or '.'}: keys differ from the reference"]
        return [p for k in expected for p in compare(actual[k], expected[k], f"{path}/{k}")]
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    if a.shape != e.shape:
        return [f"{path}: shape {a.shape} != reference {e.shape}"]
    bad = ~np.isclose(a, e, rtol=REFERENCE_RTOL, atol=0.0)
    if bad.any():
        i = int(np.flatnonzero(bad.ravel())[0])
        return [
            f"{path}: {int(bad.sum())} value(s) off the reference, first at "
            f"{i}: {a.ravel()[i]!r} != {e.ravel()[i]!r}"
        ]
    return []


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# --- converge -------------------------------------------------------------


def _converge_extract(out_dir: Path) -> dict:
    report = _read_json(out_dir / "report.json")
    return {
        "errors": {str(lv["k"]): {kind: est["e"] for kind, est in lv["errors"].items()}
                   for lv in report["levels"]},
        "observed": report["order_band"]["observed"],
    }


def _converge_sanity(out_dir: Path, w: Workload) -> list:
    report = _read_json(out_dir / "report.json")
    problems = []
    if report["passed"] is not True:
        problems.append("report.json: passed is not true")
    if report["incomplete"] is not False or report["failures"]:
        problems.append(f"report.json: failed paths {report['failures']}")
    levels = [lv["k"] for lv in report["levels"]]
    expected = list(range(w.experiment["k_min"], w.experiment["k_max"] + 1))
    if levels != expected:
        problems.append(f"report.json: levels {levels} != {expected}")
    values = _converge_extract(out_dir)
    flat = [e for kinds in values["errors"].values() for e in kinds.values()]
    if not all(math.isfinite(e) and e > 0.0 for e in flat + [values["observed"]]):
        problems.append("report.json: non-finite or non-positive estimate")
    return problems


# --- moments --------------------------------------------------------------


def _moments_extract(out_dir: Path) -> dict:
    probe = _read_json(out_dir / "probe.json")
    return {
        "negative_moments": probe["negative_moments"],
        "positive_moments": probe["positive_moments"],
        "modulus_ratios": probe["modulus_ratios"],
    }


def _moments_sanity(out_dir: Path, w: Workload) -> list:
    probe = _read_json(out_dir / "probe.json")
    values = _moments_extract(out_dir)
    flat = (
        list(values["negative_moments"].values())
        + list(values["positive_moments"].values())
        + list(values["modulus_ratios"])
    )
    problems = []
    if not flat or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in flat):
        problems.append("probe.json: missing or non-finite value")
    if (probe["steps"], probe["paths"]) != (w.scheme["steps"], w.experiment["paths"]):
        problems.append("probe.json: steps/paths differ from the configuration")
    return problems


# --- simulate -------------------------------------------------------------

SIMULATE_HEADER = "path_index,node_index,time,x_value,y_value,residual,iterations"


def _simulate_table(out_dir: Path) -> np.ndarray:
    path = out_dir / "simulate.csv"
    with open(path, encoding="utf-8") as handle:
        handle.readline()
        if handle.readline().strip() != SIMULATE_HEADER:
            raise ValueError(f"{path.name}: unexpected header")
        return np.loadtxt(handle, delimiter=",", ndmin=2)


def _simulate_extract(out_dir: Path) -> dict:
    table = _simulate_table(out_dir)
    kept = table[table[:, 1] % REFERENCE_STRIDE == 0]
    return {"x_value": kept[:, 3].tolist(), "y_value": kept[:, 4].tolist()}


def _simulate_sanity(out_dir: Path, w: Workload) -> list:
    table = _simulate_table(out_dir)
    steps, paths = w.scheme["steps"], w.experiment["paths"]
    problems = []
    if table.shape != (paths * (steps + 1), 7):
        problems.append(f"simulate.csv: shape {table.shape}, want {paths * (steps + 1)} rows")
        return problems
    x, residual = table[:, 3], table[:, 5]
    if not np.all(x > 0.0):
        problems.append(f"simulate.csv: {int(np.sum(~(x > 0.0)))} non-positive x_value")
    if not np.all(np.abs(residual) <= TOL_ABS + TOL_REL * x):
        problems.append("simulate.csv: residual above the solver tolerance")
    if not np.all(np.isfinite(table[:, 4])):
        problems.append("simulate.csv: non-finite y_value")
    return problems


# --- the workloads --------------------------------------------------------


def converge_mr(paths=200, k_min=4, k_max=9, k_ref=13) -> Workload:
    return Workload(
        name="converge-mr",
        subcommand="converge",
        model=MEAN_REVERTING,
        scheme={"tol_abs": TOL_ABS, "tol_rel": TOL_REL, "method": "circulant"},
        experiment={"paths": paths, "p": 2.0, "k_min": k_min, "k_max": k_max, "k_ref": k_ref},
        steps=paths * (2**k_ref + sum(2**k for k in range(k_min, k_max + 1))),
        ref_steps=2**k_ref,
        extract=_converge_extract,
        sanity=_converge_sanity,
        uses_pool=True,
    )


def moments_as(steps=2**11, paths=500) -> Workload:
    return Workload(
        name="moments-as",
        subcommand="moments",
        model=AIT_SAHALIA,
        scheme={"steps": steps},
        experiment={"paths": paths, "p_list": [4.0]},
        steps=steps * paths,
        ref_steps=None,
        extract=_moments_extract,
        sanity=_moments_sanity,
    )


def simulate_chol(steps=2**12, paths=50) -> Workload:
    return Workload(
        name="simulate-chol",
        subcommand="simulate",
        model=MEAN_REVERTING,
        scheme={"steps": steps, "tol_abs": TOL_ABS, "tol_rel": TOL_REL, "method": "cholesky"},
        experiment={"paths": paths},
        steps=steps * paths,
        ref_steps=None,
        extract=_simulate_extract,
        sanity=_simulate_sanity,
    )


def _with_reference(w: Workload) -> Workload:
    if not REFERENCE_FILE.exists():
        return w
    recorded = _read_json(REFERENCE_FILE)
    if w.name not in recorded["values"]:
        return w
    return replace(w, reference={"seed": recorded["seed"], "values": recorded["values"][w.name]})


WORKLOADS = {w.name: _with_reference(w) for w in (converge_mr(), moments_as(), simulate_chol())}

"""Self-test of the benchmark harness on tiny versions of the workloads.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload, at a size that runs in about a second, it checks that

* the untraced and the traced run go through ``run.run_workload`` correctly
  and print every metric BENCHMARK.json declares, by name with its unit;
* the output check accepts the run's own outputs as a reference, and rejects
  them once a value is nudged by 1e-4 relative or made invalid.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from dataclasses import replace

import run
from workloads import DEFAULT_SEED, REFERENCE_STRIDE, converge_mr, moments_as, simulate_chol

# The workloads at a size that runs in about a second.
TINY = {
    w.name: w
    for w in (
        converge_mr(paths=16, k_min=2, k_max=4, k_ref=8),
        moments_as(steps=2**6, paths=8),
        simulate_chol(steps=2**6, paths=4),
    )
}
TINY_SCALING = (("circulant", 64, 4), ("cholesky", 64, 4))
NUDGE = 1.0 + 1e-4


def declared_units() -> tuple:
    """(end-to-end, per-layer) units from BENCHMARK.json, the latter for TINY_SCALING."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    full_table = run.scaling_units(run.SCALING)
    layer = {m["name"]: m["unit"] for m in spec["per_layer"] if m["name"] not in full_table}
    if {**run.PER_LAYER, **full_table} != {m["name"]: m["unit"] for m in spec["per_layer"]}:
        raise SystemExit("BENCHMARK.json per_layer differs from run.py")
    return e2e, {**layer, **run.scaling_units(TINY_SCALING)}


def _edit_json(path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def _edit_csv(path, column: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    row = lines[2 + REFERENCE_STRIDE].split(",")  # path 0, first kept node after 0
    row[column] = repr(edit(float(row[column])))
    lines[2 + REFERENCE_STRIDE] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _nudge_level(report):
    report["levels"][0]["errors"]["y_interp"]["e"] *= NUDGE


def _fail_band(report):
    report["passed"] = False


def _nudge_moment(probe):
    key = next(iter(probe["negative_moments"]))
    probe["negative_moments"][key] *= NUDGE


def _non_finite_ratio(probe):
    probe["modulus_ratios"][0] = float("inf")


# workload -> [(what, perturb(out_dir))]; each must make the check fail.
PERTURBATIONS = {
    "converge-mr": [
        ("nudged error estimate", lambda d: _edit_json(d / "report.json", _nudge_level)),
        ("failed order band", lambda d: _edit_json(d / "report.json", _fail_band)),
    ],
    "moments-as": [
        ("nudged moment", lambda d: _edit_json(d / "probe.json", _nudge_moment)),
        ("non-finite ratio", lambda d: _edit_json(d / "probe.json", _non_finite_ratio)),
    ],
    "simulate-chol": [
        ("nudged x_value", lambda d: _edit_csv(d / "simulate.csv", 3, lambda x: x * NUDGE)),
        ("negative x_value", lambda d: _edit_csv(d / "simulate.csv", 3, lambda x: -x)),
        ("residual above tolerance", lambda d: _edit_csv(d / "simulate.csv", 5, lambda r: 1e-6)),
    ],
}


def check_metrics(w, trace: bool, units: dict, failures: list) -> None:
    result = run.run_workload(w, DEFAULT_SEED, 0.5, trace, TINY_SCALING, run.WORK / "selftest")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        run.report(w.name, result)
    lines = set(printed.getvalue().splitlines())
    label = f"{w.name} trace={int(trace)}"
    if not result["correct"]:
        failures.append(f"{label}: run not correct: {result['samples']}")
    if set(result["metrics"]) != set(units):
        failures.append(f"{label}: metrics {sorted(result['metrics'])} != {sorted(units)}")
    for name, unit in units.items():
        entry = result["metrics"].get(name)
        if entry is None or f"{w.name} {name} {entry['value']:.6g} {unit}" not in lines:
            failures.append(f"{label}: {name} not printed with unit {unit}")


def check_rejects(w, failures: list) -> None:
    work = run.WORK / "selftest" / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "config.json").write_text(json.dumps(w.config(DEFAULT_SEED)), encoding="utf-8")
        sample, _ = run.run_once(w, DEFAULT_SEED, work, work / "out", 1, trace=False)
        if sample["problems"]:
            failures.append(f"{w.name}: clean run rejected: {sample['problems']}")
            return
        pristine = {p.name: p.read_bytes() for p in (work / "out").iterdir()}
        checked = replace(w, reference={"seed": DEFAULT_SEED, "values": w.extract(work / "out")})
        if checked.check(work / "out", DEFAULT_SEED):
            failures.append(f"{w.name}: output rejected against its own reference")
        for what, perturb in PERTURBATIONS[w.name]:
            perturb(work / "out")
            if not checked.check(work / "out", DEFAULT_SEED):
                failures.append(f"{w.name}: check accepted a {what}")
            for name, data in pristine.items():
                (work / "out" / name).write_bytes(data)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    e2e_units, layer_units = declared_units()
    failures: list = []
    try:
        for w in TINY.values():
            check_metrics(w, False, e2e_units, failures)
            check_metrics(w, True, layer_units, failures)
            check_rejects(w, failures)
    finally:
        shutil.rmtree(run.WORK / "selftest", ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {len(failures)} failure(s) over {len(TINY)} workloads")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

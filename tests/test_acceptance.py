"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The whole module takes a couple of minutes on a laptop; the dominant costs are
the two strong-order experiments (criteria 5 and 6) and the reproducibility
rerun of criterion 5's plan through the CLI (criterion 9).
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from fbmsde.convergence import ExperimentPlan, ProbePlan, moment_probe, run_strong_error
from fbmsde.drifts import AitSahaliaModel, MeanRevertingModel
from fbmsde.fbm import (
    CholeskySampler,
    CirculantSampler,
    Hurst,
    TimeGrid,
    path_values,
    subsample,
)
from fbmsde.solver import SchemeConfig, SolverSettings, integrate

from oracles import as_drift, cir_implicit_root, implicit_step, mr_drift

SEED = 20260809
README = Path(__file__).resolve().parents[1] / "README.md"

MR_MODEL = MeanRevertingModel(a1=1.0, a2=1.0, gamma=0.7, sigma=0.5, y0=1.0, hurst=0.7)
AS_MODEL = AitSahaliaModel(
    a_m1=1.0, a0=1.0, a1=1.0, a2=1.0, r=3.0, rho=1.5, sigma=0.5, y0=1.0, hurst=0.7
)


def ladder_plan(model) -> ExperimentPlan:
    return ExperimentPlan(
        model=model, horizon=1.0, p=2.0, k_min=4, k_max=9, k_ref=13,
        paths=200, master_seed=SEED,
    )


@contextmanager
def criterion(number: int, description: str):
    detail: dict = {}
    try:
        yield detail
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    extra = f" [{detail['note']}]" if "note" in detail else ""
    print(f"ACCEPTANCE {number} PASS: {description}{extra}")


def mean_and_se(x: np.ndarray):
    return float(np.mean(x)), float(np.std(x, ddof=1) / np.sqrt(len(x)))


def terminal_statistics(values: np.ndarray):
    """Var(B_1), then Var(B_0.5) and Cov(B_0.5, B_1) each with its standard error."""
    mid, end = values[:, values.shape[1] // 2], values[:, -1]
    return float(end.var()), mean_and_se(mid * mid), mean_and_se(mid * end)


def test_criterion_1_generator_fidelity():
    with criterion(1, "fBM generator fidelity (Cholesky and circulant)") as detail:
        start = time.perf_counter()
        m, grid = 20000, TimeGrid(1.0, 512)
        notes = []
        for name, cls in (("cholesky", CholeskySampler), ("circulant", CirculantSampler)):
            sampler = cls(Hurst(0.7), grid)
            values = np.stack(
                [path_values(sampler.sample(SEED, i)) for i in range(m)]
            )
            var_end, (var_mid, var_mid_se), (cov, cov_se) = terminal_statistics(values)
            assert 0.95 <= var_end <= 1.05
            assert abs(cov - 0.5) <= 3.0 * cov_se  # R_H(0.5, 1.0) = 0.5 at H = 0.7
            # the two above hold at every H; Var(B_0.5) = 0.5^(2H) does not
            var_mid_dev = (var_mid - 0.5**1.4) / var_mid_se
            assert abs(var_mid_dev) <= 3.0
            notes.append(
                f"{name}: Var(B_1)={var_end:.4f}, Cov dev={abs(cov - 0.5) / cov_se:.2f} SE, "
                f"Var(B_0.5) dev={var_mid_dev:+.2f} SE"
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        detail["note"] = "; ".join(notes) + f"; {elapsed:.1f}s"


def test_criterion_2_implicit_step_oracle():
    with criterion(2, "implicit step matches the quadratic closed form") as detail:
        drift, _ = mr_drift(1.0, 1.0, 0.5)
        rng = np.random.default_rng(SEED)
        start = time.perf_counter()
        worst_root, worst_res = 0.0, 0.0
        tight = SolverSettings(1e-14, 1e-14)
        for _ in range(1000):
            h = 10.0 ** rng.uniform(-4.0, -0.5)
            c = rng.uniform(-3.0, 3.0)
            root, residual, _ = implicit_step(drift, h, c, tight)
            worst_root = max(worst_root, abs(root - cir_implicit_root(1.0, 1.0, h, c)))
            worst_res = max(worst_res, abs(residual))
        elapsed = time.perf_counter() - start
        assert worst_root <= 1e-10
        assert worst_res <= 1e-12
        assert elapsed < 1.0
        detail["note"] = (
            f"worst |root err|={worst_root:.2e}, worst residual={worst_res:.2e}, "
            f"{elapsed * 1e3:.0f}ms"
        )


def test_criterion_3_unique_root_brute_force():
    with criterion(3, "dense sign scan finds exactly one positive root") as detail:
        rng = np.random.default_rng(SEED + 3)
        grid = np.geomspace(1e-8, 1e8, 10_000)
        start = time.perf_counter()
        for trial in range(1000):
            if trial % 2 == 0:
                drift, cert = mr_drift(
                    rng.uniform(0.2, 3.0), rng.uniform(-1.0, 3.0),
                    rng.uniform(0.5, 0.85),
                )
            else:
                rho = rng.uniform(1.2, 2.5)
                r = max(min(2.0, rho) + 1.0, 2.0 * rho - 1.0) + rng.uniform(0.05, 2.0)
                drift, cert = as_drift(
                    rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0),
                    rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0), r, rho,
                )
            cap = min(cert.h0, 0.5)
            if cert.K > 0.0:
                cap = min(cap, 1.0 / cert.K)
            h = rng.uniform(0.1, 0.95) * cap
            c = rng.uniform(-5.0, 5.0)
            with np.errstate(over="ignore"):
                g = drift.value(grid) * h - grid + c
            changes = np.nonzero(np.diff(np.sign(g)) != 0)[0]
            assert len(changes) == 1
            root, _, _ = implicit_step(drift, h, c)
            assert grid[changes[0]] <= root <= grid[changes[0] + 1]
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        detail["note"] = f"1000 triples, {elapsed:.1f}s"


def test_criterion_4_positivity_sweep():
    with criterion(4, "zero nonpositive iterates under violent noise") as detail:
        model = AitSahaliaModel(
            a_m1=1.0, a0=1.0, a1=1.0, a2=1.0, r=3.0, rho=1.5,
            sigma=2.0, y0=1.0, hurst=0.7,
        )
        drift = model.drift()[0]
        steps, paths = 2**8, 400
        sampler = CirculantSampler(Hurst(0.7), TimeGrid(1.0, steps))
        config = SchemeConfig(
            drift, TimeGrid(1.0, steps), sigma=model.sigma_x, x0=model.x0
        )
        noise = np.stack([sampler.sample(SEED, i) for i in range(paths)])
        # a lost path is recorded in failures, never raised
        sol = integrate(config, noise)
        assert sol.failures == {}
        total_steps = sol.iterations.size
        minimum = float(sol.values.min())
        assert total_steps >= 100_000
        assert minimum > 0.0
        detail["note"] = f"{total_steps} steps, min iterate {minimum:.4e}"


def readme_order(model: str) -> str:
    """The fitted order in the row of README's "Measured convergence orders"
    table whose model cell starts with ``model``."""
    section = README.read_text().split("## Measured convergence orders\n")[1]
    section = section.split("\n## ")[0]
    [row] = [line for line in section.splitlines() if line.startswith(f"| {model}")]
    return row.strip(" |").rsplit("|", 1)[1].strip()


def test_criterion_5_strong_order_mean_reverting():
    with criterion(5, "mean-reverting strong order within [0.55, 0.85]") as detail:
        report = run_strong_error(ladder_plan(MR_MODEL))
        assert not report.incomplete
        slope = report.fits["y_interp"]["sqrt_log"].slope
        assert 0.55 <= slope <= 0.85
        assert report.trend_ok
        assert f"{slope:.3f}" == readme_order("mean-reverting")
        detail["note"] = f"log-corrected slope {slope:.4f} (target H = 0.7)"


def test_criterion_6_strong_order_ait_sahalia():
    with criterion(6, "Ait-Sahalia strong order at least 0.25") as detail:
        report = run_strong_error(ladder_plan(AS_MODEL))
        assert not report.incomplete
        slope = report.fits["y_interp"]["log"].slope
        target = (2.0 * 0.7 - 1.0) * min(1.0 / (1.5 - 1.0), 1.0)
        assert slope >= target - 0.15
        assert report.trend_ok
        assert f"{slope:.3f}" == readme_order("Ait-Sahalia")
        detail["note"] = f"log-corrected slope {slope:.4f} (target {target:.2f}, lower band 0.25)"


def test_criterion_7_negative_moment_stability():
    with criterion(7, "E sup X^-4 stable under grid doubling") as detail:
        start = time.perf_counter()
        coarse = moment_probe(ProbePlan(AS_MODEL, 1.0, 2**10, 500, [4.0], SEED))
        fine = moment_probe(ProbePlan(AS_MODEL, 1.0, 2**11, 500, [4.0], SEED))
        elapsed = time.perf_counter() - start
        a, b = coarse.negative_moments[4.0], fine.negative_moments[4.0]
        change = abs(b - a) / a
        assert np.isfinite(a) and np.isfinite(b)
        assert change <= 0.20
        assert elapsed < 120.0
        detail["note"] = f"{a:.4f} -> {b:.4f}, change {change:.2%}, {elapsed:.0f}s"


def test_criterion_8_coupling_exactness():
    with criterion(8, "coarse increments are bitwise block sums") as detail:
        path = CirculantSampler(Hurst(0.7), TimeGrid(1.0, 2**13)).sample(SEED, 0)
        for factor in (2, 2**4, 2**9):
            expected = path.reshape(-1, factor).sum(axis=1)
            assert subsample(path, factor).tobytes() == expected.tobytes()
        assert np.array_equal(np.cumsum(path), path_values(path)[1:])
        detail["note"] = "factors 2, 16, 512 on a 2^13-step path"


def test_criterion_9_thread_count_reproducibility(tmp_path):
    with criterion(9, "report.json byte-identical for --threads 1 and 8") as detail:
        config = {
            "seed": SEED,
            "model": {
                "model": "mean_reverting", "a1": 1.0, "a2": 1.0, "gamma": 0.7,
                "sigma": 0.5, "y0": 1.0, "hurst": 0.7,
            },
            "experiment": {"paths": 200, "p": 2.0, "k_min": 4, "k_max": 9, "k_ref": 13},
        }
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps(config))
        reports = {}
        for threads in (1, 8):
            out_dir = tmp_path / f"threads{threads}"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "fbmsde", "converge",
                    "--config", str(cfg_path), "--out-dir", str(out_dir),
                    "--threads", str(threads),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            reports[threads] = (out_dir / "report.json").read_bytes()
        assert reports[1] == reports[8]
        parsed = json.loads(reports[1])
        assert parsed["passed"] is True
        detail["note"] = f"{len(reports[1])} bytes, passed=true"

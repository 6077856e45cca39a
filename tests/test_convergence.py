"""Order fitting, coupled ladders, moment probes."""

import concurrent.futures
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fbmsde.convergence as convergence
from fbmsde.convergence import (
    BOOTSTRAP_RESAMPLES,
    BLOCK_PATH_STEPS,
    CHUNK_PATH_STEPS,
    ERROR_KINDS,
    ExperimentPlan,
    LevelEstimate,
    OrderFit,
    ProbePlan,
    _bootstrap_stderr,
    _chunks,
    _draw_chunk,
    _monotone_trend,
    _raise_first_failure,
    _sup_errors,
    _targets,
    critical_horizon,
    fit_order,
    moment_probe,
    run_strong_error,
)
from fbmsde.drifts import AitSahaliaModel, MeanRevertingModel
from fbmsde.errors import IntegrationError, ParameterError
from fbmsde.fbm import CirculantSampler, Hurst, TimeGrid, make_sampler
from fbmsde.solver import SchemeConfig, integrate, integrate_blocks

from oracles import ode_trajectory

MR_MODEL = MeanRevertingModel(a1=1.0, a2=1.0, gamma=0.7, sigma=0.5, y0=1.0, hurst=0.7)
AS_MODEL = AitSahaliaModel(
    a_m1=1.0, a0=1.0, a1=1.0, a2=1.0, r=3.0, rho=1.5, sigma=0.5, y0=1.0, hurst=0.7
)


def small_plan(**overrides):
    kwargs = dict(
        model=MR_MODEL, horizon=1.0, p=2.0, k_min=3, k_max=5, k_ref=8,
        paths=12, master_seed=101,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


class TestFitOrder:
    def test_exact_power_law(self):
        h = 2.0 ** -np.arange(3, 10)
        rows = [(hv, hv**0.7) for hv in h]
        fit = fit_order(rows, "none")
        assert abs(fit.slope - 0.7) <= 1e-12
        assert fit.slope_stderr <= 1e-12

    def test_sqrt_log_correction_cancels(self):
        h = 2.0 ** -np.arange(3, 10)
        rows = [(hv, hv**0.7 * np.sqrt(np.log1p(1.0 / hv))) for hv in h]
        fit = fit_order(rows, "sqrt_log")
        assert abs(fit.slope - 0.7) <= 1e-12

    def test_log_correction_cancels(self):
        h = 2.0 ** -np.arange(3, 10)
        rows = [(hv, hv**0.4 * np.log1p(1.0 / hv)) for hv in h]
        fit = fit_order(rows, "log")
        assert abs(fit.slope - 0.4) <= 1e-12

    def test_constant_gives_zero_slope(self):
        rows = [(h, 3.0) for h in (0.1, 0.05, 0.025, 0.0125)]
        assert abs(fit_order(rows, "none").slope) <= 1e-13

    def test_usage_errors(self):
        with pytest.raises(ParameterError):
            fit_order([(0.1, 1.0), (0.05, 0.5)], "none")
        with pytest.raises(ParameterError):
            fit_order([(0.1, 1.0), (0.05, 0.5), (0.025, 0.0)], "none")
        with pytest.raises(ParameterError):
            fit_order([(0.1, 1.0)] * 3, "cube_log")


class TestPlanValidation:
    def test_reference_gap_enforced(self):
        with pytest.raises(ParameterError, match="k_ref"):
            small_plan(k_ref=7)

    def test_at_least_three_levels(self):
        with pytest.raises(ParameterError, match="3 ladder levels"):
            small_plan(k_min=4, k_max=5)

    def test_coarsest_step_bound_enforced(self):
        blocked = MeanRevertingModel(
            a1=1.0, a2=-8.0, gamma=0.7, sigma=0.5, y0=1.0, hurst=0.7
        )  # h0 = 1/(8 * 0.3) ~ 0.417 < 0.5 = h at k_min = 1
        with pytest.raises(ParameterError, match="h0"):
            small_plan(model=blocked, k_min=1, k_max=3, k_ref=6)

    def test_every_level_scheme_carries_the_model_and_its_grid(self):
        plan = small_plan(model=AS_MODEL, horizon=0.5)
        drift = AS_MODEL.drift()[0]
        for k in (*plan.levels, plan.k_ref):
            scheme = plan.scheme(k)
            assert scheme.drift is drift
            assert scheme.grid == TimeGrid(0.5, 2**k)
            assert scheme.solver is plan.solver

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_moment_order_must_be_finite(self, p):
        with pytest.raises(ParameterError, match="finite"):
            small_plan(p=p)

    def test_both_plans_refuse_a_broken_rule_alike(self):
        # one rule, one error type and one message, whichever plan checks it
        builds = (
            lambda horizon=1.0, method="circulant": ExperimentPlan(
                MR_MODEL, horizon, 2.0, 2, 4, 7, 4, 7, method=method),
            lambda horizon=1.0, method="circulant": ProbePlan(
                MR_MODEL, horizon, 16, 2, [2.0], 1, method=method),
        )
        method_text = "method: must be 'circulant' or 'cholesky', got 'fft'"
        for build in builds:
            with pytest.raises(ParameterError) as excinfo:
                build(horizon=-1.0)
            assert str(excinfo.value) == "horizon: must be a finite number > 0, got -1.0"
            with pytest.raises(ParameterError) as excinfo:
                build(method="fft")
            assert str(excinfo.value) == method_text
        with pytest.raises(ParameterError) as excinfo:
            make_sampler("fft", 0.7, TimeGrid(1.0, 16))
        assert str(excinfo.value) == method_text

    def test_critical_regime_warns_on_long_horizon(self):
        cir = MeanRevertingModel(1.0, 1.0, 0.5, 0.5, 1.0, 0.7)
        with pytest.warns(UserWarning, match="critical"):
            small_plan(model=cir, horizon=2.0)

    def test_standard_regime_quiet(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            small_plan(horizon=2.0)


class TestSupErrors:
    def test_self_comparison_is_zero(self):
        drift = MR_MODEL.drift()[0]
        steps = 64
        noise = CirculantSampler(Hurst(0.7), TimeGrid(1.0, steps)).sample(1, 0)
        sol = integrate(
            SchemeConfig(drift, TimeGrid(1.0, steps), sigma=MR_MODEL.sigma_x, x0=1.0),
            noise,
        )
        l_exp = MR_MODEL.inverse_exponent
        work = np.empty(2 * steps)
        errs = _sup_errors(sol.values, sol.values, sol.values**l_exp, 1, l_exp, 0, work)
        assert not errs.any()


class TestChunks:
    def test_path_step_budget(self):
        # the converge ladder at a 2^13 reference and the moments probe
        assert _chunks(200, 2**13) == [(0, 100), (100, 200)]
        assert _chunks(200, 2**13, workers=2) == [(0, 100), (100, 200)]
        assert _chunks(500, 2**11) == [(0, 500)]
        sizes = [b - a for a, b in _chunks(200, 2**14)]
        assert sum(sizes) == 200 and max(sizes) - min(sizes) <= 1
        assert max(sizes) <= 64
        # every worker gets a chunk, but never an empty one
        assert _chunks(200, 2**13, workers=4) == [(0, 50), (50, 100), (100, 150), (150, 200)]
        assert _chunks(500, 2**11, workers=3) == [(0, 166), (166, 333), (333, 500)]
        assert _chunks(2, 2**4, workers=8) == [(0, 1), (1, 2)]

    def test_long_paths_get_one_path_each(self):
        assert _chunks(3, 2 * CHUNK_PATH_STEPS) == [(0, 1), (1, 2), (2, 3)]


def test_chunk_draw_temporaries_do_not_grow_with_the_chunk():
    # the ladder's factors at a 2^13 reference, levels 2^4..2^9
    sampler = make_sampler("circulant", 0.7, TimeGrid(1.0, 2**13))
    factors = [1] + [2 ** (13 - k) for k in range(4, 10)]

    def excess(paths):
        tracemalloc.start()
        try:
            noise = _draw_chunk(sampler, 5, 0, paths, factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(increments.nbytes for increments in noise.values())

    assert excess(400) - excess(50) < 2**20


def test_blocks_free_their_solver_records_before_the_next_solve():
    # 500 paths of 2^9 steps: four blocks of 131 steps
    steps, paths = 2**9, 500
    sampler = make_sampler("circulant", 0.7, TimeGrid(1.0, steps))
    noise = sampler.sample(3, range(paths))
    config = SchemeConfig.for_model(MR_MODEL, TimeGrid(1.0, steps))
    block = BLOCK_PATH_STEPS // paths
    tracemalloc.start()
    try:
        for _, values in integrate_blocks(config, noise, block, {}):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # in units of one block's nodes: the one node buffer every block is
    # written into, the common-step scratch rows (0.24) and the solves'
    # temporaries measured 1.5; with fresh node, residual and iteration
    # arrays per block, 3.7
    assert peak < 1.7 * paths * (block + 1) * 8


def test_moment_probe_holds_one_block_set_beyond_its_noise(monkeypatch):
    # 500 paths of 2^9 steps: four blocks of 131 steps, 32-node tails
    steps, paths = 2**9, 500
    block = BLOCK_PATH_STEPS // paths
    make_sampler_ = convergence.make_sampler
    after_draw = {}

    class Sampler:
        def __init__(self, *args):
            self.inner = make_sampler_(*args)

        def sample(self, *args):
            noise = self.inner.sample(*args)
            after_draw["held"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            return noise

    monkeypatch.setattr(convergence, "make_sampler", Sampler)
    tracemalloc.start()
    try:
        moment_probe(ProbePlan(AS_MODEL, 1.0, steps, paths, [2.0, 4.0], 11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # in units of one block's nodes, beyond what the draw left held: the
    # solver's node buffer (1.0), the probe's extended block (1.24), the
    # common-step scratch rows (0.24) and the tiled modulus fold measured
    # 3.2; with fresh solver records per block, the concatenated extended
    # block and the untiled fold, 6.7
    assert peak - after_draw["held"] < 3.6 * paths * (block + 1) * 8


def test_ladder_chunk_frees_the_levels_noise_before_the_reference(monkeypatch):
    # a converge-mr worker's 100-path chunk, levels 2^4..2^9, against a 2^12
    # reference: blocks of 512 reference steps
    plan = small_plan(k_min=4, k_max=9, k_ref=12, paths=100)
    block = 512
    draw = convergence._draw_chunk
    after_draw = {}

    def traced(*args):
        noise = draw(*args)
        after_draw["held"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return noise

    monkeypatch.setattr(convergence, "_draw_chunk", traced)
    tracemalloc.start()
    try:
        convergence._ladder_chunk(plan, 0, plan.paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # in units of one reference block's nodes, beyond what the draw left
    # held: the levels' nodes (1.98), the reference's block buffers and the
    # solves' temporaries, less the levels' noise (1.97) freed before the
    # reference starts, measured 4.8; with the levels' noise held to the
    # chunk's end, 6.8
    assert peak - after_draw["held"] < 5.6 * plan.paths * (block + 1) * 8


_WORKER_IMPORTS = r"""
import os, sys
import fbmsde.convergence as convergence
from fbmsde.convergence import ExperimentPlan, run_strong_error
from fbmsde.drifts import MeanRevertingModel

ladder_chunk = convergence._ladder_chunk

def traced(plan, start, stop):
    before = set(sys.modules)
    errors, failures = ladder_chunk(plan, start, stop)
    line = " ".join([str(os.getpid()), *sorted(set(sys.modules) - before)])
    os.write(1, f"{line}\n".encode())  # one write: the workers share the pipe
    return errors, failures

convergence._ladder_chunk = traced
convergence._available_cpus = lambda: 2
model = MeanRevertingModel(a1=1.0, a2=1.0, gamma=0.7, sigma=0.5, y0=1.0, hurst=0.7)
plan = ExperimentPlan(
    model=model, horizon=1.0, p=2.0, k_min=2, k_max=4, k_ref=7, paths=4,
    master_seed=7, method=sys.argv[1],
)
print(os.getpid(), flush=True)
run_strong_error(plan, workers=2)
"""


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only forked workers inherit the parent's modules",
)
@pytest.mark.parametrize("method", ["circulant", "cholesky"])
def test_ladder_workers_import_nothing(method):
    # a fresh interpreter: this one has loaded numpy.random already.  Each
    # worker prints its pid and the modules its chunks imported; without
    # the preload they import numpy.random, secrets, hmac and base64, and
    # numpy.fft with the circulant sampler.
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER_IMPORTS, method],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(convergence.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    parent, *chunks = [line.split() for line in proc.stdout.splitlines()]
    assert len(chunks) == 2 and all(pid != parent[0] for pid, *_ in chunks)
    assert [imported for _, *imported in chunks] == [[], []]


class TestBootstrap:
    @pytest.mark.parametrize("n", [2, 199, 200, 1001])
    def test_streamed_resamples_match_one_shot_draw(self, n):
        values = np.random.default_rng(n).gamma(2.0, size=n)
        streamed = _bootstrap_stderr(values, 2.0, np.random.default_rng(5))
        draws = np.random.default_rng(5).integers(0, n, size=(BOOTSTRAP_RESAMPLES, n))
        one_shot = float(np.std(np.mean(values[draws] ** 2.0, axis=1) ** 0.5, ddof=1))
        assert streamed == one_shot


class TestStrongError:
    def test_report_is_deterministic(self):
        a = run_strong_error(small_plan())
        b = run_strong_error(small_plan())
        assert a.to_dict() == b.to_dict()

    def test_workers_do_not_change_report(self):
        a = run_strong_error(small_plan(), workers=1)
        b = run_strong_error(small_plan(), workers=3)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("cpus, pool", [(1, None), (3, 3)])
    def test_pool_is_capped_at_the_usable_cpus(self, monkeypatch, cpus, pool):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        report = run_strong_error(small_plan(), workers=8)
        assert sizes == ([] if pool is None else [pool])
        assert report.to_dict() == run_strong_error(small_plan()).to_dict()

    def test_errors_decrease_and_orders_look_right(self):
        report = run_strong_error(small_plan(paths=30))
        es = [lv.errors["y_interp"]["e"] for lv in report.levels]
        assert es[0] > es[-1]
        assert report.trend_ok
        assert not report.incomplete
        # loose sanity band at this tiny scale; the acceptance suite pins the
        # real one
        slope = report.fits["y_interp"]["sqrt_log"].slope
        assert 0.3 <= slope <= 1.2

    def test_keep_paths_round_trip(self):
        report = run_strong_error(small_plan())
        paths, errors = report.per_path_errors
        assert paths.tolist() == list(range(12))
        assert errors.shape == (3, len(ERROR_KINDS), 12)
        stored = errors[0, ERROR_KINDS.index("y_interp")]
        recomputed = report.levels[0].errors["y_interp"]["e"]
        assert recomputed == pytest.approx(
            float(np.mean(stored**2.0) ** 0.5), rel=1e-12
        )


def test_first_failure_names_the_lowest_failed_path():
    # rows in the order they failed: row 3 before row 1
    failures = {
        3: IntegrationError("fails at step 2", step=2),
        1: IntegrationError("fails at step 9", step=9),
    }
    with pytest.raises(IntegrationError, match=r"^path 11: fails at step 9$") as excinfo:
        _raise_first_failure(failures, 10)
    assert excinfo.value.step == 9
    _raise_first_failure({}, 10)  # no failed row, nothing raised


class TestVerdict:
    @pytest.mark.parametrize(
        "family, mode, offset, passed",
        [
            ("mr", "two_sided", 0.149, True),
            ("mr", "two_sided", -0.149, True),
            ("mr", "two_sided", 0.151, False),
            ("mr", "two_sided", -0.151, False),
            ("as", "lower", -0.149, True),
            ("as", "lower", -0.151, False),
            ("as", "lower", 1.0, True),
        ],
    )
    def test_order_band_passes_within_its_tolerance(
        self, monkeypatch, family, mode, offset, passed
    ):
        model = {"mr": MR_MODEL, "as": AS_MODEL}[family]
        # every fit reads the target's slope moved by ``offset``
        slope = _targets(model)["y_interp"] + offset
        fit = OrderFit(slope=slope, intercept=0.0, slope_stderr=0.0)
        monkeypatch.setattr(convergence, "fit_order", lambda rows, correction: fit)
        report = run_strong_error(small_plan(model=model))
        band = report.order_band
        assert (band["mode"], band["tolerance"], band["observed"]) == (mode, 0.15, slope)
        assert band["passed"] is passed and report.passed is passed

    @pytest.mark.parametrize(
        "errors, ok",
        [
            ([0.4, 0.2, 0.1, 0.05], True),
            ([0.4, 0.5, 0.1, 0.05], True),
            ([0.4, 0.5, 0.1, 0.2], False),
            ([0.4, 0.5, 0.6, 0.7], False),
            # a rise within two combined stderrs is no inversion
            ([0.4, 0.42, 0.44, 0.46], True),
        ],
        ids=["zero", "one", "two-apart", "three", "within-noise"],
    )
    def test_trend_allows_one_inversion(self, errors, ok):
        levels = [
            LevelEstimate(k, 2**k, 2.0**-k, errors={"y_interp": {"e": e, "stderr": 0.01}})
            for k, e in enumerate(errors, start=3)
        ]
        assert _monotone_trend(levels, "y_interp") is ok

    def test_report_carries_a_failed_trend(self, monkeypatch):
        # every path's error grows as the grid refines: two inversions in
        # three levels, with no spread to hide them
        def rising(plan, start, stop):
            shape = (len(plan.levels), len(ERROR_KINDS), stop - start)
            growth = np.arange(1.0, len(plan.levels) + 1.0)[:, None, None]
            return np.broadcast_to(growth, shape).copy(), {}

        monkeypatch.setattr(convergence, "_ladder_chunk", rising)
        report = run_strong_error(small_plan())
        assert [lv.errors["y_interp"]["e"] for lv in report.levels] == [1.0, 2.0, 3.0]
        assert report.trend_ok is False and report.to_dict()["trend_ok"] is False


class TestMomentProbe:
    def test_estimates_stable_under_refinement(self):
        coarse = moment_probe(ProbePlan(AS_MODEL, 1.0, 256, 60, [4.0], 5))
        fine = moment_probe(ProbePlan(AS_MODEL, 1.0, 512, 60, [4.0], 5))
        a, b = coarse.negative_moments[4.0], fine.negative_moments[4.0]
        assert np.isfinite(a) and np.isfinite(b)
        assert abs(b - a) / a <= 0.2

    def test_modulus_ratio_bounded_on_ladder(self):
        probe = moment_probe(ProbePlan(AS_MODEL, 1.0, 1024, 40, [2.0], 9, ladder_rungs=6))
        ratios = np.asarray(probe.modulus_ratios)
        assert np.all(np.isfinite(ratios)) and np.all(ratios > 0.0)
        # flat profile: no growth trend as h -> 0 over the tested ladder
        assert ratios.max() <= 1.5 * ratios.min()
        assert ratios[0] <= 1.2 * ratios[1:].max()

    def test_degenerate_noise_matches_ode(self):
        model = MeanRevertingModel(
            a1=1.0, a2=1.0, gamma=0.7, sigma=1e-3, y0=10.0, hurst=0.7
        )
        probe = moment_probe(ProbePlan(model, 1.0, 1024, 40, [4.0], 5))
        oracle = ode_trajectory(model.drift()[0].value, model.x0, 1.0, 1024)
        det_neg = float(np.max(oracle**-4.0))
        det_pos = float(np.max(oracle**4.0))
        assert probe.negative_moments[4.0] == pytest.approx(det_neg, rel=0.02)
        assert probe.positive_moments[4.0] == pytest.approx(det_pos, rel=0.02)

    def test_critical_regime_warns(self):
        cir = MeanRevertingModel(1.0, 1.0, 0.5, 0.5, 1.0, 0.7)
        with pytest.warns(UserWarning, match="critical"):
            moment_probe(ProbePlan(cir, 1.0, 64, 4, [4.0], 1))

    def test_usage_errors(self):
        with pytest.raises(ParameterError):
            moment_probe(ProbePlan(AS_MODEL, 1.0, 64, 4, [], 1))
        with pytest.raises(ParameterError):
            moment_probe(ProbePlan(AS_MODEL, 1.0, 64, 4, [-1.0], 1))
        # a NaN order once gave a NaN moment, an infinite one an inf or 0
        for p in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="finite"):
                moment_probe(ProbePlan(AS_MODEL, 1.0, 64, 4, [2.0, p], 1))
        # a repeated order would fold twice into one moment
        with pytest.raises(ParameterError, match="duplicate order 2.0"):
            moment_probe(ProbePlan(AS_MODEL, 1.0, 64, 4, [2, 4.0, 2.0], 1))

    def test_rung_count_below_one_is_refused(self):
        # the probe is handed the requested count and clamps it itself
        for rungs in (0, -3):
            with pytest.raises(ParameterError, match=f"ladder_rungs: .*got {rungs}"):
                moment_probe(ProbePlan(AS_MODEL, 1.0, 64, 4, [2.0], 1, ladder_rungs=rungs))
        plan = ProbePlan(AS_MODEL, 1.0, 2, 4, [2.0], 1, ladder_rungs=6)
        assert moment_probe(plan).modulus_ratios == ()

    def test_unknown_method_is_refused_by_the_plan(self):
        # refused where the plan is built, before any sampler is made
        with pytest.raises(ParameterError, match="^method: must be 'circulant' or 'cholesky'"):
            ProbePlan(AS_MODEL, 1.0, 16, 2, [2.0], 1, method="fft")


class TestCriticalHorizon:
    def test_monotone_in_p(self):
        cert = MeanRevertingModel(1.0, 1.0, 0.5, 0.5, 1.0, 0.7).drift()[1]
        t2 = critical_horizon(cert, 0.7, 2.0)
        t8 = critical_horizon(cert, 0.7, 8.0)
        assert 0.0 < t8 < t2

    def test_positive_k_does_not_overflow(self):
        # mean-reverting, gamma 1/2, a2 < 0: the critical regime with K > 0,
        # where exp(K T) overflows at the astronomically large test horizon
        model = MeanRevertingModel(2.648, -4.362, 0.5, 0.325, 1.482, 0.736)
        cert = model.drift()[1]
        assert cert.alpha_regime == "critical" and cert.K > 0.0
        t = critical_horizon(cert, 0.736, 4.0)
        assert 0.0 < t < math.inf
        log_rhs = math.log(max(5.0, cert.q) * 0.736) + 0.472 * math.log(t) + cert.K * t
        assert log_rhs == pytest.approx(math.log(cert.h1_min), abs=1e-9)

    def test_crossing_matches_definition(self):
        cert = MeanRevertingModel(1.0, 1.0, 0.5, 0.5, 1.0, 0.7).drift()[1]
        t = critical_horizon(cert, 0.7, 2.0)
        factor = max(3.0, cert.q) * 0.7
        assert factor * t ** (2 * 0.7 - 1.0) == pytest.approx(cert.h1_min, rel=1e-9)

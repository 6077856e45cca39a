"""Property tests of the path-batched implicit solver and its chunked callers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fbmsde.convergence as convergence
from fbmsde.convergence import (
    ExperimentPlan,
    _ladder_moduli,
    moment_probe,
    reference_bias_check,
    run_strong_error,
)
from fbmsde.drifts import (
    AitSahaliaModel,
    DriftFn,
    MeanRevertingModel,
    mean_reverting_drift,
)
from fbmsde.errors import IntegrationError
from fbmsde.solver import SchemeConfig, SolverSettings, _solve, integrate

from oracles import cir_implicit_root, implicit_step, window_modulus

MR_MODEL = MeanRevertingModel(a1=1.0, a2=1.0, gamma=0.7, sigma=0.5, y0=1.0, hurst=0.7)
AS_MODEL = AitSahaliaModel(
    a_m1=1.0, a0=1.0, a1=1.0, a2=1.0, r=3.0, rho=1.5, sigma=0.5, y0=1.0, hurst=0.7
)


@settings(max_examples=60, deadline=None)
@given(
    a1=st.floats(0.1, 5.0),
    a2=st.floats(-1.0, 5.0, allow_subnormal=False),
    h_frac=st.floats(1e-6, 0.9),
    shifts=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
)
def test_batched_roots_match_quadratic_oracle(a1, a2, h_frac, shifts):
    drift, cert = mean_reverting_drift(a1, a2, 0.5)
    h = h_frac * min(cert.h0, 10.0)
    c = np.array(shifts)
    # g = B(x) h - x + c is only resolved to a few ulps of its largest term
    tol_abs, tol_rel = 1e-13 * (1.0 + float(np.max(np.abs(c)))), 1e-13
    hb = np.zeros(c.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        root, residual, _, errors = _solve(
            drift, h, c, SolverSettings(tol_abs, tol_rel), hb
        )
    assert not errors
    assert np.all(np.abs(residual) <= tol_abs + tol_rel * root)
    # the drift term handed to the next step is B(root) h itself
    assert hb.tobytes() == (drift.value(root) * h).tobytes()
    oracle = np.array([cir_implicit_root(a1, a2, h, ci) for ci in shifts])
    # |g'| >= lead turns the residual bound into a root bound; the oracle's
    # c + sqrt(c^2 + ...) cancels to a few ulps of |c| for c << 0
    lead = 1.0 + min(a2, 0.0) * h / 2.0
    bound = (tol_abs + tol_rel * root + 1e-13 * np.abs(c)) / lead
    assert np.all(np.abs(root - oracle) <= bound)


BATCHES = dict(
    seed=st.integers(0, 2**32 - 1),
    paths=st.integers(1, 6),
    steps=st.integers(8, 40),
    model=st.sampled_from([MR_MODEL, AS_MODEL]),
    sigma_scale=st.floats(0.1, 8.0),
)


def _batch(seed, paths, steps, model, sigma_scale):
    noise = np.random.default_rng(seed).standard_normal((paths, steps)) * steps**-0.7
    config = SchemeConfig(
        steps=steps, horizon=1.0, sigma=model.sigma_x * sigma_scale, x0=model.x0
    )
    return noise, config


@settings(max_examples=30, deadline=None)
@given(**BATCHES, data=st.data())
def test_batch_rows_equal_batch_of_one_bitwise(
    seed, paths, steps, model, sigma_scale, data
):
    drift, cert = model.drift()
    noise, config = _batch(seed, paths, steps, model, sigma_scale)
    batch = integrate(drift, config, noise, cert)
    assert not batch.failures
    for i in range(paths):
        one = integrate(drift, config, noise[i], cert)
        assert batch.values[i].tobytes() == one.values.tobytes()
        assert batch.residuals[i].tobytes() == one.residuals.tobytes()
        assert batch.iterations[i].tobytes() == one.iterations.tobytes()
    # resumed in the middle of the run, or streamed in blocks, each solve
    # starts from the same predictor, so the rows are those of the whole run
    split = data.draw(st.integers(1, steps - 1), label="resumed at")
    rest = integrate(drift, config, noise, cert, start=split, initial=batch.values[:, split])
    assert rest.values.tobytes() == batch.values[:, split:].tobytes()
    assert rest.residuals.tobytes() == batch.residuals[:, split:].tobytes()
    assert rest.iterations.tobytes() == batch.iterations[:, split:].tobytes()
    block = data.draw(st.integers(1, steps - 1), label="block")
    failures = {}
    blocks = list(convergence._integrate_blocks(drift, config, cert, noise, block, failures))
    assert not failures
    assert [first for _, first, _ in blocks] == list(range(0, steps, block))
    for rows, first, values in blocks:
        expected = batch.values[rows, first : first + values.shape[1]]
        assert values.tobytes() == expected.tobytes()


@settings(max_examples=30, deadline=None)
@given(**BATCHES)
def test_warm_started_roots_match_cold_start(seed, paths, steps, model, sigma_scale):
    drift, cert = model.drift()
    noise, config = _batch(seed, paths, steps, model, sigma_scale)
    sol = integrate(drift, config, noise, cert)
    assert not sol.failures
    solver = config.solver
    x = sol.values[:, 1:]
    assert np.all(np.abs(sol.residuals) <= solver.tol_abs + solver.tol_rel * x)
    c = sol.values[:, :-1] + config.sigma * noise
    # K = 0, so g' = B' h - 1 <= -1 and |g| at each root bounds its distance
    # to the true root; g itself is only resolved to a few ulps of its terms
    assert cert.K == 0.0
    for i, n in np.ndindex(c.shape):
        cold, cold_residual, _ = implicit_step(drift, config.h, c[i, n], solver)
        bound = (
            abs(sol.residuals[i, n])
            + abs(cold_residual)
            + 1e-14 * (abs(c[i, n]) + x[i, n] + cold)
        )
        assert abs(x[i, n] - cold) <= bound, (i, n)


def test_non_finite_predictor_falls_back_to_the_cold_start():
    # B h overflows at a node of 1e-200, so a run resumed there has no
    # predictor for that row and solves its first step cold
    drift, cert = AS_MODEL.drift()
    config = SchemeConfig.for_model(AS_MODEL, 1.0, 4)
    noise = np.array([[0.3, -0.2, 0.1, 0.05], [0.2, 0.1, -0.3, 0.0]])
    initial = np.array([1e-200, 0.8])
    sol = integrate(drift, config, noise, cert, start=2, initial=initial)
    assert not sol.failures
    c = initial[0] + config.sigma * noise[0, 2]
    root, residual, iterations = implicit_step(drift, config.h, c, config.solver)
    assert (sol.values[0, 1], sol.residuals[0, 0], sol.iterations[0, 0]) == (
        root, residual, iterations
    )


LADDER_PLAN = ExperimentPlan(
    model=MR_MODEL, horizon=1.0, p=2.0, k_min=3, k_max=5, k_ref=8,
    paths=7, master_seed=101,
)


def test_per_path_errors_do_not_depend_on_chunk_size(monkeypatch):
    # each case: the finest grid its chunks are sized for, and its errors
    cases = [
        (
            2**LADDER_PLAN.k_ref,
            lambda: run_strong_error(LADDER_PLAN, keep_paths=True).per_path_errors,
        ),
        (2 ** (LADDER_PLAN.k_ref + 1), lambda: reference_bias_check(LADDER_PLAN)),
    ]
    for steps, errors in cases:
        monkeypatch.undo()
        assert LADDER_PLAN.paths * steps <= convergence.CHUNK_PATH_STEPS
        assert LADDER_PLAN.paths * steps <= convergence.BLOCK_PATH_STEPS
        unchunked = errors()
        # a budget of 1 gives the smallest legal block, one coarsest cell; 672
        # gives blocks of several cells that need not divide the reference
        for budget in (1, 672, convergence.BLOCK_PATH_STEPS):
            monkeypatch.setattr(convergence, "BLOCK_PATH_STEPS", budget)
            for chunk in range(1, 7):
                monkeypatch.setattr(convergence, "CHUNK_PATH_STEPS", chunk * steps)
                assert errors() == unchunked, (steps, budget, chunk)


def test_ladder_drops_only_the_failed_path(monkeypatch):
    p = LADDER_PLAN.p
    clean = run_strong_error(LADDER_PLAN, keep_paths=True).per_path_errors
    draw_chunk = convergence._draw_chunk

    def draw_with_a_nan(sampler, master_seed, start, stop, factors):
        noise = draw_chunk(sampler, master_seed, start, stop, factors)
        noise = {factor: increments.copy() for factor, increments in noise.items()}
        if start <= 3 < stop:
            # the same instant on every grid: step 40 of the 2^8 reference
            for increments in noise.values():
                increments[3 - start, increments.shape[1] * 40 // 2**8] = np.nan
        return noise

    monkeypatch.setattr(convergence, "_draw_chunk", draw_with_a_nan)
    report = run_strong_error(LADDER_PLAN, keep_paths=True)
    assert report.incomplete
    assert report.failures == [[3, 8, 40]]
    kept = report.per_path_errors
    assert kept["paths"] == [0, 1, 2, 4, 5, 6]
    for lv in report.levels:
        for kind, estimate in lv.estimates.items():
            errors = kept["errors"][str(lv.k)][kind]
            clean_errors = clean["errors"][str(lv.k)][kind]
            assert errors == clean_errors[:3] + clean_errors[4:]
            assert estimate["e"] == float(np.mean(np.asarray(errors) ** p) ** (1.0 / p))
    with pytest.raises(IntegrationError, match="path 3 failed"):
        reference_bias_check(LADDER_PLAN)


def test_moment_probe_does_not_depend_on_chunk_size(monkeypatch):
    paths = 7
    # every block size below divides 64 steps but none divides 100; 2 steps
    # have no modulus window, so the smallest block is one step
    for steps in (2, 64, 100):
        monkeypatch.undo()
        args = (AS_MODEL, 1.0, steps, paths, [0.5, 2.0, 4.0], 11)
        assert paths * steps <= convergence.CHUNK_PATH_STEPS
        assert paths * steps <= convergence.BLOCK_PATH_STEPS
        unchunked = repr(moment_probe(*args, ladder_rungs=5))
        # a budget of 1 gives the smallest legal block, the widest window
        for budget in (1, 24 * paths, convergence.BLOCK_PATH_STEPS):
            monkeypatch.setattr(convergence, "BLOCK_PATH_STEPS", budget)
            for chunk in range(1, 7):
                monkeypatch.setattr(convergence, "CHUNK_PATH_STEPS", chunk * steps)
                got = repr(moment_probe(*args, ladder_rungs=5))
                assert got == unchunked, (steps, budget, chunk)


@st.composite
def node_arrays_and_rungs(draw):
    rungs = draw(st.integers(0, 6))
    size = draw(st.integers(2**rungs, 200))
    values = draw(
        arrays(np.float64, size, elements=st.floats(-1e300, 1e300, allow_subnormal=True))
    )
    return values, rungs


@settings(max_examples=200, deadline=None)
@given(node_arrays_and_rungs())
def test_doubling_ladder_matches_sliding_windows_bitwise(case):
    values, rungs = case
    expected = [window_modulus(values, 2**j) for j in range(rungs)]
    got = _ladder_moduli(values, rungs)
    assert np.array(got).tobytes() == np.array(expected).tobytes()


def _capped(x):
    return np.where(x < 5.0, 1.0 / x, np.nan)


CAPPED = DriftFn(_capped, lambda x: -1.0 / x**2, lambda x: 2.0 / x**3, "capped")


@settings(max_examples=25, deadline=None)
@given(paths=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_failed_row_is_recorded_while_the_others_finish(paths, seed, data):
    bad = data.draw(st.integers(0, paths - 1), label="bad row")
    step = data.draw(st.integers(0, 9), label="failing step")
    config = SchemeConfig(steps=10, horizon=0.1, sigma=1.0, x0=1.0)
    noise = 0.01 * np.random.default_rng(seed).standard_normal((paths, 10))
    noise[bad, step] = 10.0  # puts that row's root in the NaN region
    sol = integrate(CAPPED, config, noise)
    assert list(sol.failures) == [bad]
    assert sol.failures[bad].step == step
    assert np.all(np.isnan(sol.values[bad, step + 1 :]))
    with pytest.raises(IntegrationError) as excinfo:
        integrate(CAPPED, config, noise[bad])
    assert excinfo.value.step == step
    for i in range(paths):
        if i != bad:
            one = integrate(CAPPED, config, noise[i])
            assert sol.values[i].tobytes() == one.values.tobytes()
    # resumed from the nodes at any step, the rows and the absolute failing
    # step are those of the unblocked run
    split = data.draw(st.integers(0, step), label="resumed at")
    rest = integrate(CAPPED, config, noise, start=split, initial=sol.values[:, split])
    assert list(rest.failures) == [bad] and rest.failures[bad].step == step
    assert rest.values.tobytes() == sol.values[:, split:].tobytes()
    block = data.draw(st.integers(1, 10), label="block")
    failures = {}
    blocks = list(convergence._integrate_blocks(CAPPED, config, None, noise, block, failures))
    assert list(failures) == [bad] and failures[bad].step == step
    assert [first for _, first, _ in blocks] == list(range(0, 10, block))
    assert blocks[-1][0].tolist() == [i for i in range(paths) if i != bad]
    for rows, first, values in blocks:
        expected = sol.values[rows, first : first + values.shape[1]]
        assert values.tobytes() == expected.tobytes()

"""Property tests of the path-batched implicit solver and its chunked callers."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fbmsde.convergence as convergence
import fbmsde.solver as solver_module
from fbmsde.convergence import (
    ExperimentPlan,
    _fold_moduli,
    _sup_errors,
    moment_probe,
    run_strong_error,
)
from fbmsde.drifts import (
    AitSahaliaModel,
    DriftFn,
    MeanRevertingModel,
    mean_reverting_drift,
)
from fbmsde.errors import IntegrationError
from fbmsde.solver import (
    SchemeConfig,
    SolverSettings,
    _solve,
    integrate,
    integrate_blocks,
)

from oracles import (
    cir_implicit_root,
    gathered_sup_errors,
    implicit_step,
    integrate_stepwise,
    ladder_moduli,
    window_modulus,
)

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
    drift = model.drift()[0]
    noise, config = _batch(seed, paths, steps, model, sigma_scale)
    batch = integrate(drift, config, noise)
    assert not batch.failures
    for i in range(paths):
        one = integrate(drift, config, noise[i])
        assert batch.values[i].tobytes() == one.values.tobytes()
        assert batch.residuals[i].tobytes() == one.residuals.tobytes()
        assert batch.iterations[i].tobytes() == one.iterations.tobytes()
    # streamed in time blocks, each solve starts from the same predictor, so
    # the rows are those of the whole run
    block = data.draw(st.integers(1, steps - 1), label="block")
    _assert_stepwise(_streamed(drift, config, noise, block), _records(batch))


@settings(max_examples=30, deadline=None)
@given(**BATCHES)
def test_warm_started_roots_match_cold_start(seed, paths, steps, model, sigma_scale):
    drift, cert = model.drift()
    noise, config = _batch(seed, paths, steps, model, sigma_scale)
    sol = integrate(drift, config, noise)
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
    # B h overflows at x0 = 1e-200, so the run has no predictor for its first
    # step and solves it cold
    drift = AS_MODEL.drift()[0]
    config = SchemeConfig(steps=4, horizon=1.0, sigma=AS_MODEL.sigma_x, x0=1e-200)
    with np.errstate(over="ignore"):
        assert not np.isfinite(drift.value(np.float64(config.x0)) * config.h)
    noise = np.array([[0.3, -0.2, 0.1, 0.05], [0.2, 0.1, -0.3, 0.0]])
    sol = integrate(drift, config, noise)
    assert not sol.failures
    for row in range(2):
        c = config.x0 + config.sigma * noise[row, 0]
        root, residual, iterations = implicit_step(drift, config.h, c, config.solver)
        assert (sol.values[row, 1], sol.residuals[row, 0], sol.iterations[row, 0]) == (
            root, residual, iterations
        )


LADDER_PLAN = ExperimentPlan(
    model=MR_MODEL, horizon=1.0, p=2.0, k_min=3, k_max=5, k_ref=8,
    paths=7, master_seed=101,
)


def test_per_path_errors_do_not_depend_on_chunk_size(monkeypatch):
    steps = 2**LADDER_PLAN.k_ref
    assert LADDER_PLAN.paths * steps <= convergence.CHUNK_PATH_STEPS
    assert LADDER_PLAN.paths * steps <= convergence.BLOCK_PATH_STEPS

    def errors():
        paths, errors = run_strong_error(LADDER_PLAN).per_path_errors
        return paths.tolist(), errors.tolist()

    unchunked = errors()
    # a budget of 1 gives the smallest legal block, one coarsest cell; 672
    # gives blocks of several cells that need not divide the reference
    for budget in (1, 672, convergence.BLOCK_PATH_STEPS):
        monkeypatch.setattr(convergence, "BLOCK_PATH_STEPS", budget)
        for chunk in range(1, 7):
            monkeypatch.setattr(convergence, "CHUNK_PATH_STEPS", chunk * steps)
            assert errors() == unchunked, (budget, chunk)


def test_ladder_drops_only_the_failed_path(monkeypatch):
    p = LADDER_PLAN.p
    _, clean = run_strong_error(LADDER_PLAN).per_path_errors
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
    report = run_strong_error(LADDER_PLAN)
    assert report.incomplete
    assert report.failures == [[3, 8, 40]]
    paths, kept = report.per_path_errors
    assert paths.tolist() == [0, 1, 2, 4, 5, 6]
    assert kept.tobytes() == np.delete(clean, 3, axis=-1).tobytes()
    for lv, by_kind in zip(report.levels, kept):
        for kind, errors in zip(convergence.ERROR_KINDS, by_kind):
            estimate = lv.estimates[kind]
            assert estimate["e"] == float(np.mean(errors**p) ** (1.0 / p))


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
    got = ladder_moduli(values, rungs)
    assert np.array(got).tobytes() == np.array(expected).tobytes()


def _with_nan_rows(values, rows, data):
    """``values`` with each of ``rows`` NaN from a drawn column on, as a failed path is."""
    for row in rows:
        column = data.draw(st.integers(0, values.shape[1] - 1), label="NaN from")
        values[row, column:] = np.nan
    return values


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 40),
    rungs=st.integers(0, 6),
    extra=st.integers(0, 60),
    margin=st.integers(0, 3),
    tile=st.sampled_from([1, 7, 64, 2**13]),
    data=st.data(),
)
def test_tiled_modulus_fold_matches_the_ladder_oracle_bitwise(
    seed, rows, rungs, extra, margin, tile, data
):
    rng = np.random.default_rng(seed)
    nodes = 2**rungs + extra
    # a column window of a wider buffer, as the probe folds its extended block
    wide = np.exp(rng.standard_normal((rows, nodes + 2 * margin)))
    nan_rows = data.draw(st.lists(st.integers(0, rows - 1), max_size=3), label="NaN rows")
    _with_nan_rows(wide, nan_rows, data)
    values = wide[:, margin : margin + nodes]
    before = np.where(rng.random((rows, rungs)) < 0.5, 0.0, rng.random((rows, rungs)))
    expected = np.maximum(before, ladder_moduli(values, rungs))
    folded = before.copy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(convergence, "MODULUS_TILE_ELEMENTS", tile)
        _fold_moduli(folded, values, rungs)
    assert folded.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    paths=st.integers(1, 6),
    k_ref=st.integers(1, 8),
    data=st.data(),
)
def test_sup_error_fold_matches_the_gathering_oracle_bitwise(seed, paths, k_ref, data):
    # every level factor of a 2^k_ref reference, blocks of any multiple of it
    # (the grid's last block may be shorter), rows that fail at any node
    k = data.draw(st.integers(0, k_ref), label="level")
    factor, steps = 2 ** (k_ref - k), 2**k_ref
    block = factor * data.draw(st.integers(1, 2**k), label="cells per block")
    inverse_exponent = data.draw(st.sampled_from([-4.0, -1.0, 1 / 3, 2.0, 10 / 3]))
    rng = np.random.default_rng(seed)
    ref = np.exp(0.5 * rng.standard_normal((paths, steps + 1)))
    coarse = ref[:, ::factor] * np.exp(0.01 * rng.standard_normal((paths, 2**k + 1)))
    nan_rows = data.draw(st.lists(st.integers(0, paths - 1), max_size=2), label="NaN rows")
    _with_nan_rows(ref, nan_rows, data)
    _with_nan_rows(coarse, nan_rows, data)
    work = np.empty(2 * paths * block)
    got, expected = np.zeros((4, paths)), np.zeros((4, paths))
    for first in range(0, steps, block):
        # a contiguous block of nodes, as the solver yields it
        nodes = ref[:, first : first + block + 1].copy()
        y_nodes = nodes**inverse_exponent
        args = (coarse, nodes, y_nodes, factor, inverse_exponent, first)
        np.maximum(got, _sup_errors(*args, work), out=got)
        np.maximum(expected, gathered_sup_errors(*args), out=expected)
    assert got.tobytes() == expected.tobytes()


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
    # streamed in time blocks, the failed row stays in place, NaN from the
    # same absolute step on, and the other rows are those of the whole run
    block = data.draw(st.integers(1, 10), label="block")
    _assert_stepwise(_streamed(CAPPED, config, noise, block), _records(sol))


def _linear(slope, deriv_scale):
    # B(x) = slope (x - 1), whose reported derivative may be off by a factor:
    # a slope above 1/h makes g increase, so Newton leaves the bracket, and a
    # wrong derivative makes Newton converge only linearly
    return DriftFn(
        lambda x: slope * (x - 1.0),
        lambda x: slope * deriv_scale,
        lambda x: 0.0,
        f"linear {slope} x{deriv_scale}",
    )


COMMON_STEP_DRIFTS = [
    MR_MODEL.drift()[0],
    AS_MODEL.drift()[0],
    _linear(-2.0, 0.5),
    _linear(2.0, 1.0),
    _linear(-2.0, 1.0),
]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    drift=st.sampled_from(COMMON_STEP_DRIFTS),
    log_h=st.floats(-16.0, 0.0),
    tol_rel=st.sampled_from([1e-12, 1e-15]),
    tol_abs=st.sampled_from([1e-12, 1e-300]),
    rows=st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
            st.sampled_from([-1.0, 1.0]),
            st.floats(-20.0, 0.0),
        ),
        min_size=1,
        max_size=12,
    ),
)
# g1 = -g0 / 2: within the tolerance, but not the four-fold decrease
@example(COMMON_STEP_DRIFTS[2], 0.0, 1e-12, 1e-12, [(0.0, 1.0, math.log10(1.5e-12))])
# from the floored predictor, Newton lands on the negative root -0.249
@example(COMMON_STEP_DRIFTS[4], -1.0, 1e-12, 1e-12, [(-3.0, -1.0, math.log10(0.5))])
def test_common_step_is_accepted_exactly_when_the_kernel_takes_it(
    drift, log_h, tol_rel, tol_abs, rows
):
    # one row at a time, from node x with its B(x) h: the common step is
    # accepted exactly when the kernel returns that Newton iterate after one
    # evaluation, and then with the same bits
    h = 10.0**log_h
    solver = SolverSettings(tol_abs=tol_abs, tol_rel=tol_rel)
    for log_x, sign, log_kick in rows:
        x = np.array([10.0**log_x])
        dsigma = np.array([[sign * 10.0**log_kick]])
        rec = np.empty((4, 1, 1))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            hb = np.full(1, drift.value(x) * h)
            hb_out = hb.copy()
            took = solver_module._common_steps(drift, h, solver, x, hb, dsigma, rec)
            root, residual, iterations, errors = _solve(
                drift, h, x + dsigma[:, 0], solver, hb_out
            )
        x1, g1 = rec[2:, :, 0]  # the check overwrites x0 and g0
        kernel_took_it = (
            not errors
            and iterations[0] == 1
            and root.tobytes() == x1.tobytes()
            and residual.tobytes() == g1.tobytes()
        )
        if took:
            # integrate hands on B(x1) h recomputed at the kept node
            assert hb_out.tobytes() == np.asarray(drift.value(x1) * h).tobytes()
        assert took == kernel_took_it, (log_x, sign, log_kick)


def _records(sol):
    """A solution's arrays and failures in the form ``integrate_stepwise`` gives."""
    failures = {row: (err.step, str(err)) for row, err in sol.failures.items()}
    return sol.values, sol.residuals, sol.iterations, failures


def _streamed(drift, config, noise, block):
    """``integrate_blocks``' blocks, checked to tile the grid, joined into one run."""
    failures = {}
    # each block is valid only until the next is requested, so keep copies
    firsts, values, residuals, iterations = zip(*(
        (first, *(arr.copy() for arr in arrays))
        for first, *arrays in integrate_blocks(
            drift, config, noise, block, failures, records=True
        )
    ))
    assert list(firsts) == list(range(0, config.steps, block))
    # each block starts at the nodes the one before ended at
    for before, after in zip(values, values[1:]):
        assert before[:, -1].tobytes() == after[:, 0].tobytes()
    return SimpleNamespace(
        values=np.concatenate([v[:, :-1] for v in values] + [values[-1][:, -1:]], axis=1),
        residuals=np.concatenate(residuals, axis=1),
        iterations=np.concatenate(iterations, axis=1),
        failures=failures,
    )


def _assert_stepwise(sol, expected):
    values, residuals, iterations, failures = expected
    assert sol.values.tobytes() == values.tobytes()
    assert sol.residuals.tobytes() == residuals.tobytes()
    assert np.array_equal(sol.iterations, iterations)
    assert {row: (err.step, str(err)) for row, err in sol.failures.items()} == failures


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    paths=st.integers(1, 8),
    steps=st.integers(2, 256),
    model=st.sampled_from([MR_MODEL, AS_MODEL]),
    horizon=st.sampled_from([0.01, 0.1, 1.0]),
    sigma_scale=st.floats(0.01, 8.0),
    width=st.integers(1, 64),
    elements=st.sampled_from([1, 16, 2**10]),
    max_iter=st.sampled_from([8, 12, 200]),
    data=st.data(),
)
def test_integrate_equals_one_solve_per_step_bitwise(
    seed, paths, steps, model, horizon, sigma_scale, width, elements, max_iter, data
):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_module, "COMMON_WIDTH", width)
        patch.setattr(solver_module, "COMMON_ELEMENTS", elements)
        _check_against_stepwise(
            seed, paths, steps, model, horizon, sigma_scale, max_iter, data
        )


def _check_against_stepwise(seed, paths, steps, model, horizon, sigma_scale, max_iter, data):
    drift, _ = model.drift()
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((paths, steps)) * (horizon / steps) ** 0.7
    # violent noise: huge kicks and NaN, which freeze rows mid-block
    for _ in range(data.draw(st.integers(0, 3), label="kicks")):
        row = data.draw(st.integers(0, paths - 1), label="row")
        step = data.draw(st.integers(0, steps - 1), label="step")
        noise[row, step] = data.draw(
            st.sampled_from([np.nan, 1e3, -1e3, 1e150, -1e150]), label="kick"
        )
    config = SchemeConfig(
        steps=steps, horizon=horizon, sigma=model.sigma_x * sigma_scale, x0=model.x0,
        solver=SolverSettings(max_iter=max_iter),
    )
    whole = integrate_stepwise(drift, config, noise)
    _assert_stepwise(integrate(drift, config, noise), whole)
    # streamed in time blocks, with rows failing in any block
    block = data.draw(st.integers(1, steps), label="block")
    _assert_stepwise(_streamed(drift, config, noise, block), whole)


def test_common_blocks_carry_fine_grids_bitwise(monkeypatch):
    # on a fine grid nearly every step is the common step: blocks grow to the
    # cap, the few failing steps are replayed, and nothing moves a bit
    taken = []
    common_steps = solver_module._common_steps

    def counted(*args):
        took = common_steps(*args)
        taken.append((args[5].shape[1], took))
        return took

    monkeypatch.setattr(solver_module, "_common_steps", counted)
    drift = MR_MODEL.drift()[0]
    config = SchemeConfig.for_model(MR_MODEL, 1.0, 2048)
    noise = np.random.default_rng(5).standard_normal((12, 2048)) * 2048**-0.7
    noise[3, 1000] = 2.0  # a jump that one Newton step does not resolve
    sol = integrate(drift, config, noise)
    _assert_stepwise(sol, integrate_stepwise(drift, config, noise))
    assert sum(took for _, took in taken) > 0.95 * 2048
    assert max(width for width, _ in taken) == solver_module.COMMON_WIDTH
    assert any(took < width for width, took in taken)


def _solver_calls(monkeypatch, run):
    """How often ``run()`` calls the kernel and the common-step block."""
    calls = {}
    for name in ("_solve", "_common_steps"):
        original = getattr(solver_module, name)

        def counted(*args, original=original, name=name):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(solver_module, name, counted)
    run()
    monkeypatch.undo()
    return calls


def test_streamed_blocks_cost_one_whole_run(monkeypatch):
    # the solver's state carries from block to block, so 16 blocks of 128
    # steps make the whole run's kernel solves and common-step blocks
    drift = MR_MODEL.drift()[0]
    config = SchemeConfig.for_model(MR_MODEL, 1.0, 2048)
    noise = np.random.default_rng(5).standard_normal((12, 2048)) * 2048**-0.7
    whole = _solver_calls(monkeypatch, lambda: integrate(drift, config, noise))
    streamed = _solver_calls(
        monkeypatch, lambda: list(integrate_blocks(drift, config, noise, 128, {}))
    )
    assert streamed == whole == {"_solve": 1, "_common_steps": 37}


def test_consumer_of_the_blocks_keeps_its_error_state():
    # the solver ignores overflow and invalid operations only while it works
    # on a block, never while its consumer folds one
    drift = AS_MODEL.drift()[0]
    config = SchemeConfig.for_model(AS_MODEL, 1.0, 64)
    noise = np.random.default_rng(2).standard_normal((3, 64)) * 64**-0.7
    for state in ("raise", "warn"):
        with np.errstate(all=state):
            caller = np.geterr()
            blocks = 0
            for _ in integrate_blocks(drift, config, noise, 16, {}):
                assert np.geterr() == caller
                blocks += 1
            assert blocks == 4

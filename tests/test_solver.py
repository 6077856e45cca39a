"""Implicit-step root solver and backward Euler integration."""

import inspect
import math
import re
import typing

import numpy as np
import pytest

import fbmsde

from fbmsde.drifts import (
    AitSahaliaModel,
    DriftFn,
    MeanRevertingModel,
    lamperti_inverse,
)
from fbmsde.errors import (
    IntegrationError,
    NumericalError,
    ParameterError,
    RootBracketError,
)
from fbmsde.fbm import CirculantSampler, Hurst, TimeGrid
from fbmsde.solver import (
    SchemeConfig,
    SolverSettings,
    _solve,
    integrate,
    integrate_blocks,
)

from oracles import (
    as_drift,
    cir_implicit_root,
    implicit_step,
    interpolate,
    mr_drift,
    ode_trajectory,
)

SEED = 20260809
CIR_DRIFT = mr_drift(1.0, 1.0, 0.5)[0]
TIGHT = SolverSettings(1e-14, 1e-14)


class TestImplicitStep:
    def test_matches_quadratic_oracle(self):
        root, residual, _ = implicit_step(CIR_DRIFT, 0.01, 1.0, TIGHT)
        assert abs(root - cir_implicit_root(1.0, 1.0, 0.01, 1.0)) <= 1e-10
        assert abs(residual) <= 1e-12

    def test_random_oracle_sweep(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            h = 10.0 ** rng.uniform(-4, -0.5)
            c = rng.uniform(-3.0, 3.0)
            root, residual, _ = implicit_step(CIR_DRIFT, h, c, TIGHT)
            assert abs(root - cir_implicit_root(1.0, 1.0, h, c)) <= 1e-10
            assert abs(residual) <= 1e-12

    def test_pure_singular_closed_form(self):
        drift = DriftFn(
            lambda x: 1.0 / x, lambda x: -1.0 / x**2, lambda x: 2.0 / x**3, "1/x"
        )
        root, _, _ = implicit_step(drift, 0.25, 0.0)
        # x (1 - x) ... quadratic: x = (c + sqrt(c^2 + 4h)) / 2 = 0.5
        assert root == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_shift(self):
        values = [implicit_step(CIR_DRIFT, 0.01, c)[0] for c in (-1.0, 0.0, 0.5, 2.0)]
        assert values == sorted(values)
        assert all(v > 0.0 for v in values)

    def test_root_is_positive_under_violent_negative_shift(self):
        root, _, _ = implicit_step(CIR_DRIFT, 0.01, -50.0)
        assert root > 0.0

    def test_bracket_failure_reports_interval(self):
        # strictly negative drift: B(x) h - x + c < 0 for c < 0, no positive root
        drift = DriftFn(
            lambda x: np.full_like(x, -1.0), lambda x: 0.0, lambda x: 0.0,
            "constant_negative",
        )
        with pytest.raises(RootBracketError) as excinfo:
            implicit_step(drift, 0.5, -1.0)
        lo, hi = excinfo.value.interval
        assert lo < hi

    def test_nan_drift_raises_numerical_error(self):
        drift = DriftFn(
            lambda x: np.full_like(x, math.nan), lambda x: 0.0, lambda x: 0.0, "nan_drift"
        )
        with pytest.raises(NumericalError):
            implicit_step(drift, 0.1, 1.0)

    def test_invalid_step_size(self):
        with pytest.raises(ParameterError):
            implicit_step(CIR_DRIFT, 0.0, 1.0)


class TestUniqueness:
    """Brute-force check: the implicit equation has exactly one positive root."""

    GRID = np.geomspace(1e-8, 1e8, 10_000)

    def assert_unique_root(self, drift, cert, h, c):
        with np.errstate(over="ignore"):
            g = drift.value(self.GRID) * h - self.GRID + c
        signs = np.sign(g)
        changes = np.nonzero(np.diff(signs) != 0)[0]
        assert len(changes) == 1
        root, _, _ = implicit_step(drift, h, c)
        cell = changes[0]
        assert self.GRID[cell] <= root <= self.GRID[cell + 1]

    def test_random_triples(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            if rng.random() < 0.5:
                gamma = rng.uniform(0.5, 0.85)
                drift, cert = mr_drift(
                    rng.uniform(0.2, 3.0), rng.uniform(-1.0, 3.0), gamma
                )
            else:
                rho = rng.uniform(1.2, 2.5)
                r = max(min(2.0, rho) + 1.0, 2.0 * rho - 1.0) + rng.uniform(0.05, 2.0)
                drift, cert = as_drift(
                    rng.uniform(0.2, 3.0),
                    rng.uniform(0.2, 3.0),
                    rng.uniform(0.2, 3.0),
                    rng.uniform(0.2, 3.0),
                    r,
                    rho,
                )
            cap = min(cert.h0, 0.5)
            if cert.K > 0.0:
                cap = min(cap, 1.0 / cert.K)
            h = rng.uniform(0.1, 0.95) * cap
            c = rng.uniform(-5.0, 5.0)
            self.assert_unique_root(drift, cert, h, c)


MR_MODEL = MeanRevertingModel(a1=1.0, a2=1.0, gamma=0.7, sigma=0.5, y0=1.0, hurst=0.7)
AS_MODEL = AitSahaliaModel(
    a_m1=1.0, a0=1.0, a1=1.0, a2=1.0, r=3.0, rho=1.5, sigma=0.5, y0=1.0, hurst=0.7
)


def make_solution(steps=64, seed=3, sigma=0.15, x0=1.0, model=MR_MODEL):
    """A batch of one path."""
    drift = model.drift()[0]
    noise = CirculantSampler(Hurst(model.hurst), TimeGrid(1.0, steps)).sample(seed, range(1))
    config = SchemeConfig(drift, TimeGrid(1.0, steps), sigma=sigma, x0=x0)
    return integrate(config, noise)


class TestIntegrate:
    def test_equilibrium_is_fixed_point(self):
        # B(1) = 0 for the square-root family with a1 = a2
        config = SchemeConfig(CIR_DRIFT, TimeGrid(1.0, 64), sigma=1.0, x0=1.0)
        sol = integrate(config, np.zeros((1, 64)))
        assert np.max(np.abs(sol.values - 1.0)) <= 1e-10

    @pytest.mark.parametrize(
        "x0,bound", [(2.0, 2e-3), (0.3, 2e-2)], ids=["from_above", "from_below"]
    )
    def test_zero_noise_monotone_approach(self, x0, bound):
        drift = MR_MODEL.drift()[0]
        steps = 128
        config = SchemeConfig(drift, TimeGrid(1.0, steps), sigma=1.0, x0=x0)
        [values] = integrate(config, np.zeros((1, steps))).values
        diffs = np.diff(values)
        assert np.all(diffs < 0) if x0 > 1.0 else np.all(diffs > 0)
        oracle = ode_trajectory(drift.value, x0, 1.0, steps)
        assert np.max(np.abs(values - oracle)) <= bound

    def test_positivity_under_violent_noise(self):
        model = AitSahaliaModel(
            a_m1=1.0, a0=1.0, a1=1.0, a2=1.0, r=3.0, rho=1.5,
            sigma=2.0, y0=1.0, hurst=0.7,
        )
        drift = model.drift()[0]
        steps = 256
        sampler = CirculantSampler(Hurst(0.7), TimeGrid(1.0, steps))
        config = SchemeConfig(
            drift, TimeGrid(1.0, steps), sigma=model.sigma_x, x0=model.x0
        )
        sol = integrate(config, sampler.sample(41, range(50)))
        assert not sol.failures
        assert sol.values.min() > 0.0

    def test_residual_bound_recorded(self):
        sol = make_solution()
        bound = 1e-12 + 1e-12 * sol.values[:, 1:]
        assert np.all(np.abs(sol.residuals) <= bound)
        assert np.all(sol.iterations >= 0)

    def test_deterministic(self):
        a, b = make_solution(seed=9), make_solution(seed=9)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.residuals, b.residuals)
        assert np.array_equal(a.iterations, b.iterations)

    def test_solutions_compare_and_hash_by_identity(self):
        a, b = make_solution(seed=9), make_solution(seed=9)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2

    def test_dissipative_contraction(self):
        # K = 0 drift: trajectories from different starts never separate
        drift = MR_MODEL.drift()[0]
        steps = 128
        noise = CirculantSampler(Hurst(0.7), TimeGrid(1.0, steps)).sample(5, range(1))
        config_a = SchemeConfig(drift, TimeGrid(1.0, steps), sigma=0.15, x0=1.5)
        config_b = SchemeConfig(drift, TimeGrid(1.0, steps), sigma=0.15, x0=1.0)
        sol_a = integrate(config_a, noise)
        sol_b = integrate(config_b, noise)
        gaps = np.abs(sol_a.values - sol_b.values)
        assert np.all(gaps <= 0.5 + 1e-12)
        assert np.all(np.diff(gaps) <= 1e-12)

    def test_step_bound_enforced(self):
        # K = 0.3 numerically, and h0 = 1/0.3 binds first: h = h0 is refused
        model = MeanRevertingModel(a1=1.0, a2=-1.0, gamma=0.7, sigma=0.5, y0=1.0, hurst=0.7)
        h0 = model.drift()[1].h0
        for horizon in (4.0, h0):
            with pytest.raises(ParameterError) as excinfo:
                SchemeConfig.for_model(model, TimeGrid(horizon, 1))
            assert str(excinfo.value) == (
                f"step size h={horizon:.6g} must stay below the implicit-step bound "
                "h0=3.33333 for the unique-positive-root guarantee"
            )
        assert SchemeConfig.for_model(model, TimeGrid(3.3, 1)).grid.h == 3.3

    def test_scheme_for_a_model_carries_its_drift(self):
        grid = TimeGrid(1.0, 64)
        for model in (MR_MODEL, AS_MODEL):
            scheme = SchemeConfig.for_model(model, grid)
            assert scheme.drift is model.drift()[0]
            assert scheme.grid is grid
            assert (scheme.sigma, scheme.x0) == (model.sigma_x, model.x0)

    def test_noise_length_mismatch(self):
        # only a (paths, 4) batch fits a 4-step grid: one path of 4 steps is
        # refused too, since as a batch of one it is (1, 4)
        config = SchemeConfig(CIR_DRIFT, TimeGrid(1.0, 4), sigma=1.0, x0=1.0)
        for shape in [(5,), (4,), (1, 5), (2, 1, 4)]:
            message = re.escape(f"noise must have shape (paths, 4), got shape {shape}")
            with pytest.raises(ParameterError, match=message):
                integrate(config, np.zeros(shape))
            with pytest.raises(ParameterError, match=message):
                next(integrate_blocks(config, np.zeros(shape), 2, {}))

    def test_failure_annotated_with_step_index(self):
        def capped(x):
            return np.where(x < 5.0, 1.0 / x, math.nan)

        drift = DriftFn(capped, lambda x: -1.0 / x**2, lambda x: 2.0 / x**3, "capped")
        config = SchemeConfig(drift, TimeGrid(0.03, 3), sigma=1.0, x0=1.0)
        # step 1 shifts c, and so the root above it, into the NaN region; the
        # failure is recorded, not raised
        noise = np.array([[0.0, 4.0, 0.0]])
        sol = integrate(config, noise)
        [(row, err)] = sol.failures.items()
        assert (row, err.step) == (0, 1)
        assert isinstance(err, IntegrationError)
        assert str(err) == (
            "implicit step failed at step 1: drift evaluation produced NaN at "
            "x=5.009901951359279 inside the bracket"
        )
        assert isinstance(err.__cause__, NumericalError)
        assert np.isfinite(sol.values[0, :2]).all() and np.isnan(sol.values[0, 2:]).all()
        assert sol.iterations[0, 1:].tolist() == [0, 0]

    def test_batch_files_a_later_failure_under_its_own_row(self):
        # row 0 fails at step 5 and freezes; row 2 fails at step 10, among
        # the rows still integrating, and keeps its own index
        config = SchemeConfig.for_model(AS_MODEL, TimeGrid(1.0, 16))
        noise = CirculantSampler(Hurst(AS_MODEL.hurst), config.grid).sample(SEED, range(4))
        noise = noise.copy()
        noise[0, 5] = noise[2, 10] = np.nan
        sol = integrate(config, noise)
        assert {row: err.step for row, err in sol.failures.items()} == {0: 5, 2: 10}
        assert np.isnan(sol.values[0, 6:]).all() and np.isnan(sol.values[2, 11:]).all()
        assert np.isfinite(sol.values[[1, 3]]).all()

    def test_warm_start_takes_one_evaluation_per_step_on_the_probe(self):
        # the criterion-7 moment probe's size and seed: 500 AS paths of 2^11
        # steps; started cold, the same run averages about 1.54 evaluations
        steps, paths = 2**11, 500
        sampler = CirculantSampler(Hurst(AS_MODEL.hurst), TimeGrid(1.0, steps))
        noise = np.stack([sampler.sample(SEED, i) for i in range(paths)])
        config = SchemeConfig.for_model(AS_MODEL, TimeGrid(1.0, steps))
        sol = integrate(config, noise)
        assert not sol.failures
        assert sol.iterations.mean() <= 1.05
        assert sol.iterations.max() < config.solver.max_iter

    def test_warm_start_needs_no_more_evaluations_under_violent_noise(self):
        # criterion 4's sweep: 400 AS paths of 256 steps at sigma = 2
        model = AitSahaliaModel(
            a_m1=1.0, a0=1.0, a1=1.0, a2=1.0, r=3.0, rho=1.5,
            sigma=2.0, y0=1.0, hurst=0.7,
        )
        steps, paths = 256, 400
        sampler = CirculantSampler(Hurst(0.7), TimeGrid(1.0, steps))
        noise = np.stack([sampler.sample(SEED, i) for i in range(paths)])
        config = SchemeConfig.for_model(model, TimeGrid(1.0, steps))
        sol = integrate(config, noise)
        assert not sol.failures
        # the same recursion with every solve started cold from max(c, 1e-30)
        x, cold = np.full(paths, config.x0), []
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for n in range(steps):
                c = x + config.sigma * noise[:, n]
                x, _, iterations, errors = _solve(
                    config.drift, config.grid.h, c, config.solver, np.zeros(paths)
                )
                assert not errors
                cold.append(iterations)
        assert sol.iterations.max() <= np.max(cold) < config.solver.max_iter

    def test_iteration_counts_take_one_byte_and_equal_wide_counts(self):
        # criterion 4's sweep, whose bracketing solves take up to several
        # evaluations a step; a max_iter past 2^32 never binds, so the same
        # run records its counts in 8 bytes
        model = AitSahaliaModel(
            a_m1=1.0, a0=1.0, a1=1.0, a2=1.0, r=3.0, rho=1.5,
            sigma=2.0, y0=1.0, hurst=0.7,
        )
        steps, paths = 256, 400
        noise = CirculantSampler(Hurst(0.7), TimeGrid(1.0, steps)).sample(SEED, range(paths))
        config = SchemeConfig.for_model(model, TimeGrid(1.0, steps))
        narrow = integrate(config, noise)
        wide = integrate(
            SchemeConfig.for_model(model, TimeGrid(1.0, steps), SolverSettings(max_iter=2**40)),
            noise,
        )
        assert narrow.iterations.dtype == np.uint8
        assert narrow.iterations.nbytes == steps * paths
        assert narrow.values.tobytes() == wide.values.tobytes()
        counts = wide.iterations.astype(np.int64)
        assert np.array_equal(narrow.iterations, counts)
        # sums and maxima of the one-byte counts do not wrap
        assert narrow.iterations.sum() == counts.sum() > 255
        assert narrow.iterations.max() == counts.max() > 1

    @pytest.mark.parametrize(
        "max_iter, dtype", [(8, np.uint8), (255, np.uint8), (256, np.uint16), (300, np.uint16)]
    )
    def test_iteration_count_dtype_holds_max_iter(self, max_iter, dtype):
        config = SchemeConfig(
            CIR_DRIFT, TimeGrid(1.0, 4), 0.5, 1.0, SolverSettings(max_iter=max_iter)
        )
        sol = integrate(config, np.zeros((2, 4)))
        assert sol.iterations.dtype == dtype
        assert np.iinfo(sol.iterations.dtype).max >= max_iter

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SchemeConfig(CIR_DRIFT, TimeGrid(1.0, 0), sigma=1.0, x0=1.0)
        with pytest.raises(ParameterError):
            SchemeConfig(CIR_DRIFT, TimeGrid(1.0, 4), sigma=0.0, x0=1.0)
        with pytest.raises(ParameterError):
            SchemeConfig(CIR_DRIFT, TimeGrid(1.0, 4), sigma=1.0, x0=-1.0)
        with pytest.raises(ParameterError):
            SolverSettings(max_iter=4)

    @pytest.mark.parametrize("field", ["tol_abs", "tol_rel", "bracket_growth"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_solver_settings_reject_non_finite_values(self, field, value):
        # an infinite tolerance accepts the explicit-Euler predictor as every root
        with pytest.raises(ParameterError, match=field.split("_")[0]):
            SolverSettings(**{field: value})


class TestInterpolation:
    # make_solution's grid
    GRID = TimeGrid(1.0, 64)

    def test_exact_at_nodes(self):
        [values] = make_solution().values
        times = self.GRID.times
        for n in (0, 1, 31, 63, 64):
            assert interpolate(self.GRID, values, times[n]) == values[n]

    def test_midpoint_equal_weights(self):
        [values] = make_solution().values
        times = self.GRID.times
        for n in range(self.GRID.steps):
            mid = 0.5 * (times[n] + times[n + 1])
            assert interpolate(self.GRID, values, mid) == (values[n] + values[n + 1]) / 2.0

    def test_affine_in_path_scaling(self):
        [values] = make_solution().values
        t = 0.37
        assert interpolate(self.GRID, values * 2.0, t) == 2.0 * interpolate(
            self.GRID, values, t
        )

    def test_domain_errors(self):
        [values] = make_solution().values
        with pytest.raises(ParameterError):
            interpolate(self.GRID, values, -0.01)
        with pytest.raises(ParameterError):
            interpolate(self.GRID, values, 1.01)

    def test_vectorized_and_callable(self):
        [values] = make_solution().values
        ts = np.linspace(0.0, 1.0, 201)
        assert interpolate(self.GRID, values, ts).shape == ts.shape


class TestLampertiInverse:
    def test_reciprocal_involution(self):
        # rho = 2: Y = X^-1 maps the nodes to their reciprocals
        model = AitSahaliaModel(1.0, 1.0, 1.0, 1.0, 4.0, 2.0, 0.5, 1.0, 0.7)
        assert model.inverse_exponent == -1.0
        sol = make_solution()
        twice = 1.0 / (1.0 / sol.values)
        rebuilt = lamperti_inverse(model, sol.values)
        assert np.all(np.abs(1.0 / rebuilt - sol.values) <= 4 * np.spacing(sol.values))
        assert np.allclose(twice, sol.values, rtol=1e-15)

    def test_square_root_family_inverse_transform(self):
        # gamma = 1/2: Y = X^2 recovers original coordinates at the nodes
        model = MeanRevertingModel(1.0, 1.0, 0.5, 0.5, 1.0, 0.7)
        assert model.inverse_exponent == 2.0
        sol = make_solution(model=model, sigma=model.sigma_x, x0=model.x0)
        y_nodes = lamperti_inverse(model, sol.values)
        assert np.array_equal(y_nodes, sol.values**2)


def test_public_annotations_resolve():
    # every public callable of the package, and every public method of its
    # classes, names only types its module can resolve
    checked = []
    for name in dir(fbmsde):
        obj = getattr(fbmsde, name)
        if name.startswith("_") or not callable(obj):
            continue
        checked.append(obj)
        if inspect.isclass(obj):
            methods = vars(obj).items()
            checked += [
                member
                for key, member in methods
                if inspect.isfunction(member)
                and (key == "__init__" or not key.startswith("_"))
            ]
    assert fbmsde.integrate in checked
    for obj in checked:
        typing.get_type_hints(obj)

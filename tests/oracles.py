"""Independent oracles and test-only references used by the tests.

The first five deliberately avoid the package's own numerics:

* ``cir_implicit_root`` solves the gamma = 1/2 implicit-step equation with
  the explicit quadratic formula (multiply B(x) h - x + c = 0 by x).
* ``ode_trajectory`` integrates dx = B(x) dt with classical RK4 plus step
  halving and Richardson extrapolation, for zero-noise comparisons.
* ``window_modulus`` reduces every sliding window of nodes directly, the
  reference for the moment probe's doubling modulus ladder.
* ``dense_toeplitz_cholesky`` builds the full Toeplitz matrix and factors it
  with LAPACK, the reference for the O(N^2) Schur factorisation.
* ``circulant_increments`` draws one path of a circulant sampler alone: four
  normal draws, the spectrum built from complex arithmetic, one 1-D FFT.  It
  is the bitwise reference for the sampler's batched draw.

The rest are verification helpers that the package itself does not need:

* ``fbm_covariance`` and ``empirical_increment_moment`` are the analytic fBM
  covariance and a Monte Carlo increment moment, for generator validation.
* ``mr_drift`` and ``as_drift`` build a model of each family from its drift
  parameters alone and return its drift and certificate.
* ``lamperti_forward`` maps original coordinates to transformed ones in
  extended precision, the round-trip partner of ``lamperti_inverse``, and
  ``lamperti_inverse_extended`` maps them back in extended precision, the
  reference that ``lamperti_inverse`` is held to.
* ``interpolate`` evaluates the piecewise-linear interpolant of node values.
* ``implicit_step`` solves one implicit step alone, through the solver's
  batched kernel.
* ``integrate_stepwise`` runs the backward Euler recursion with one kernel
  solve per step and no common-step blocks, the bitwise reference for
  ``integrate``.
* ``gathered_sup_errors`` reads the coarse paths at every reference node
  through gathered cell indices and reduces |difference| directly, the
  bitwise reference for the ladder's ``_sup_errors``.
* ``ladder_moduli`` runs the doubling modulus ladder over all rows at once,
  the bitwise reference for the moment probe's tiled ``_fold_moduli``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from fbmsde.drifts import (
    AitSahaliaModel,
    AssumptionCertificate,
    DriftFn,
    MeanRevertingModel,
    ModelSpec,
)
from fbmsde.errors import ParameterError
from fbmsde.fbm import CirculantSampler, Hurst, TimeGrid, as_hurst, mix_seed
from fbmsde.solver import SchemeConfig, SolverSettings, _solve


def cir_implicit_root(a1: float, a2: float, h: float, c: float) -> float:
    """Positive root of ((a1/x - a2 x)/2) h - x + c = 0."""
    lead = 1.0 + a2 * h / 2.0
    return (c + math.sqrt(c * c + 2.0 * a1 * h * lead)) / (2.0 * lead)


def _rk4_path(f, x0: float, horizon: float, n_nodes: int, substeps: int) -> np.ndarray:
    h = horizon / (n_nodes * substeps)
    out = np.empty(n_nodes + 1)
    out[0] = x = x0
    for node in range(n_nodes):
        for _ in range(substeps):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        out[node + 1] = x
    return out


def ode_trajectory(
    f, x0: float, horizon: float, n_nodes: int, tol: float = 1e-10
) -> np.ndarray:
    """Node values of the ODE flow, accurate to ``tol`` via Richardson."""
    substeps = 4
    prev = _rk4_path(f, x0, horizon, n_nodes, substeps)
    while True:
        substeps *= 2
        cur = _rk4_path(f, x0, horizon, n_nodes, substeps)
        if np.max(np.abs(cur - prev)) / 15.0 < tol or substeps > 2**15:
            return cur + (cur - prev) / 15.0
        prev = cur


def window_modulus(values: np.ndarray, window: int) -> float:
    """sup |X_t - X_s| over node pairs at most ``window`` indices apart."""
    view = np.lib.stride_tricks.sliding_window_view(values, window + 1)
    return float(np.max(view.max(axis=1) - view.min(axis=1)))


def dense_toeplitz_cholesky(gamma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the symmetric Toeplitz matrix T[i, j] = gamma[|i - j|]."""
    n = len(gamma)
    index = np.arange(n)
    return np.linalg.cholesky(np.asarray(gamma)[np.abs(index[:, None] - index[None, :])])


def fbm_covariance(t, s, hurst: Hurst | float):
    """Covariance R_H(t, s) = (t^{2H} + s^{2H} - |t - s|^{2H}) / 2.

    Accepts scalars or arrays (broadcast); times must be nonnegative.
    """
    h2 = 2.0 * as_hurst(hurst).value
    ta = np.asarray(t, dtype=float)
    sa = np.asarray(s, dtype=float)
    if np.any(ta < 0.0) or np.any(sa < 0.0):
        raise ParameterError("fbm_covariance requires nonnegative times")
    out = 0.5 * (ta**h2 + sa**h2 - np.abs(ta - sa) ** h2)
    if np.ndim(t) == 0 and np.ndim(s) == 0:
        return float(out)
    return out


def circulant_increments(
    sampler: CirculantSampler, master_seed: int, path_index: int
) -> np.ndarray:
    """Increments of one path drawn alone from the sampler's circulant weights."""
    rng = np.random.default_rng(mix_seed(master_seed, path_index))
    size, half = sampler._width, sampler._half
    xi = np.zeros(size, dtype=complex)
    xi[0] = rng.standard_normal()
    xi[half] = rng.standard_normal()
    if half > 1:
        re_part = rng.standard_normal(half - 1)
        im_part = rng.standard_normal(half - 1)
        interior = (re_part + 1j * im_part) * np.sqrt(0.5)
        xi[1:half] = interior
        xi[half + 1 :] = np.conj(interior[::-1])
    return np.fft.fft(sampler._weights.real * xi).real[: sampler.grid.steps]


def empirical_increment_moment(
    paths: Iterable[np.ndarray] | Sequence[np.ndarray], p: float, lag: int
) -> float:
    """Monte Carlo estimate of E|B_{t + lag*h} - B_t|^p.

    ``paths`` are node values, one array per path on one uniform grid.
    Averages over all start nodes and all paths; the analytic value is
    C(p) * (lag * h)^{pH}, with C(2) = 1, which is what generator validation
    compares against.
    """
    paths = list(paths)
    if len(paths) < 2:
        raise ParameterError("empirical_increment_moment requires at least two paths")
    if p < 1.0:
        raise ParameterError(f"moment order p must be >= 1, got {p}")
    if len({np.shape(path) for path in paths}) > 1:
        raise ParameterError("all paths must share the same grid")
    steps = len(paths[0]) - 1
    lag = int(lag)
    if not (1 <= lag <= steps):
        raise ParameterError(f"lag must lie in [1, {steps}], got {lag}")
    stacked = np.stack(paths)
    diffs = stacked[:, lag:] - stacked[:, :-lag]
    return float(np.mean(np.abs(diffs) ** p))


# The non-drift fields of the models ``mr_drift`` and ``as_drift`` build; the
# family's drift reads none of them, and its alpha >= 1 exceeds 1/H - 1 for
# every admissible H.
_NOISE_FIELDS = {"sigma": 1.0, "y0": 1.0, "hurst": 0.7}


def mr_drift(a1: float, a2: float, gamma: float) -> tuple[DriftFn, AssumptionCertificate]:
    """The drift and certificate of the mean-reverting model with these drift parameters."""
    return MeanRevertingModel(a1, a2, gamma, **_NOISE_FIELDS).drift()


def as_drift(
    a_m1: float, a0: float, a1: float, a2: float, r: float, rho: float
) -> tuple[DriftFn, AssumptionCertificate]:
    """The drift and certificate of the Ait-Sahalia model with these drift parameters."""
    return AitSahaliaModel(a_m1, a0, a1, a2, r, rho, **_NOISE_FIELDS).drift()


def _positive_power(arg, exponent, what: str):
    """``arg ** exponent`` in extended precision, rounded to float64."""
    arr = np.asarray(arg, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ParameterError(f"{what} must be positive and finite")
    # the long double exponent is off by far less than a double's ulp, so
    # |log y| cannot amplify its rounding to an ulp of the result
    out = np.asarray(arr.astype(np.longdouble) ** exponent, dtype=float)
    return float(out) if np.ndim(arg) == 0 else out


def lamperti_forward(model: ModelSpec, y):
    """Map original coordinates to transformed ones: X = Y^m, m = transform exponent."""
    return _positive_power(y, np.longdouble(model.transform_exponent), "y")


def lamperti_inverse_extended(model: ModelSpec, x):
    """Y = X^{1/m} in extended precision, the reference for ``lamperti_inverse``."""
    return _positive_power(x, np.longdouble(1.0) / np.longdouble(model.transform_exponent), "x")


def interpolate(grid: TimeGrid, values: np.ndarray, t):
    """Evaluate the piecewise-linear interpolant of ``values`` on ``grid`` at time(s) t.

    t must lie in [0, T].  Node queries return the node value exactly;
    interior queries use the affine weights (t_{n+1} - t)/h and (t - t_n)/h.
    """
    times = grid.times
    t_arr = np.asarray(t, dtype=float)
    t_max = times[-1]
    if np.any(t_arr < 0.0) or np.any(t_arr > t_max):
        raise ParameterError(
            f"interpolation time outside [0, {t_max!r}]"
        )
    idx = np.clip(
        np.searchsorted(times, t_arr, side="right") - 1, 0, grid.steps - 1
    )
    h = grid.h
    w_hi = (t_arr - times[idx]) / h
    w_lo = (times[idx + 1] - t_arr) / h
    out = w_lo * values[idx] + w_hi * values[idx + 1]
    # exact node hits bypass the weight arithmetic entirely
    at_lo = t_arr == times[idx]
    at_hi = t_arr == times[idx + 1]
    out = np.where(at_lo, values[idx], np.where(at_hi, values[idx + 1], out))
    return float(out) if np.ndim(t) == 0 else out


def implicit_step(
    drift: DriftFn,
    h: float,
    c: float,
    solver: SolverSettings = SolverSettings(),
) -> tuple[float, float, int]:
    """Solve B(x) h - x + c = 0 for the unique positive root.

    Returns ``(root, residual, iterations)`` where ``residual`` is the signed
    value of the equation at the root and ``iterations`` counts function
    evaluations beyond the initial guess.  Raises ``RootBracketError`` when
    no sign change is found (the unique-positive-root hypothesis fails at
    runtime) and ``NumericalError`` on non-finite drift values.  This is the
    batch of one of the kernel ``integrate`` runs, started cold from
    max(c, 1e-30): a lone step has no previous node to predict from.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ParameterError(f"step size must be positive and finite, got {h}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        root, residual, iterations, errors = _solve(
            drift, h, np.array([float(c)]), solver, np.zeros(1)
        )
    if errors:
        raise errors[0]
    return float(root[0]), float(residual[0]), int(iterations[0])


def integrate_stepwise(scheme: SchemeConfig, noise: np.ndarray):
    """The nodes of ``integrate`` for a ``(paths, steps)`` batch, one solve a step.

    Every step solves all live rows with the kernel, each from the predictor
    max(c + B(X_n) h, 1e-30), and the kernel hands B(root) h to the next
    step.  Returns ``(values, residuals, iterations, failures)``, with
    ``failures`` mapping each failed row to ``(step, message)``; a failed
    row's later nodes and residuals are NaN and its later iterations 0.
    The messages are those ``integrate`` gives its ``IntegrationError``.
    """
    drift, paths, steps, h = scheme.drift, noise.shape[0], scheme.grid.steps, scheme.grid.h
    values = np.full((paths, steps + 1), np.nan)
    residuals = np.full((paths, steps), np.nan)
    iterations = np.zeros((paths, steps), dtype=np.int64)
    values[:, 0] = scheme.x0
    rows = np.arange(paths)
    x = values[:, 0].copy()
    failures = {}
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        hb = drift.value(x) * h
        hb = np.where(np.isfinite(hb), hb, 0.0)
        for n in range(steps):
            c = x + scheme.sigma * noise[rows, n]
            x, res, it, errors = _solve(drift, h, c, scheme.solver, hb)
            lost = ~(x > 0.0)
            lost[list(errors)] = True
            for j in np.flatnonzero(lost):
                failures[int(rows[j])] = (
                    n,
                    f"implicit step failed at step {n}: {errors[j]}"
                    if j in errors
                    else f"positivity lost at step {n}: root {float(x[j])!r}",
                )
            keep = ~lost
            rows, x, hb = rows[keep], x[keep], hb[keep]
            values[rows, n + 1] = x
            residuals[rows, n] = res[keep]
            iterations[rows, n] = it[keep]
    return values, residuals, iterations, failures


def gathered_sup_errors(
    coarse: np.ndarray,
    ref: np.ndarray,
    y_ref: np.ndarray,
    factor: int,
    inverse_exponent: float,
    first: int,
) -> np.ndarray:
    """Sup errors of coarse nodes against reference nodes first..first+B.

    The coarse paths are read at every reference node j through cell
    j // factor and weight (j % factor) / factor (the grid's last node as the
    far end of the last cell), and every error is the max of |difference|.
    Returns shape (4, paths): x_interp, x_node, y_interp, y_node.
    """
    n_coarse = coarse.shape[-1] - 1
    j = np.arange(first, first + ref.shape[-1])
    frac = (j % factor) / factor
    cell = np.minimum(j // factor, n_coarse - 1)
    frac = np.where(j // factor == n_coarse, 1.0, frac)
    interp = coarse[..., cell] * (1.0 - frac) + coarse[..., cell + 1] * frac
    nodes = coarse[..., first // factor : j[-1] // factor + 1]
    return np.stack([
        np.max(np.abs(interp - ref), axis=-1),
        np.max(np.abs(nodes - ref[..., ::factor]), axis=-1),
        np.max(np.abs(interp**inverse_exponent - y_ref), axis=-1),
        np.max(np.abs(nodes**inverse_exponent - y_ref[..., ::factor]), axis=-1),
    ])


def ladder_moduli(values: np.ndarray, rungs: int) -> np.ndarray:
    """sup |X_t - X_s| over node pairs at most 2^j indices apart, j < ``rungs``.

    Reduces along the last axis, so ``values`` of shape (..., n) gives shape
    (..., rungs): the running max and min over windows of 2w + 1 nodes are
    those of two overlapping windows of w + 1 nodes.
    """
    hi = lo = values
    width = 0
    out = np.empty(values.shape[:-1] + (rungs,))
    for j in range(rungs):
        shift = max(width, 1)
        hi = np.maximum(hi[..., :-shift], hi[..., shift:])
        lo = np.minimum(lo[..., :-shift], lo[..., shift:])
        width += shift
        out[..., j] = np.max(hi - lo, axis=-1)
    return out

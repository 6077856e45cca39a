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
* ``lamperti_forward`` maps original coordinates to transformed ones in
  extended precision, the round-trip partner of ``lamperti_inverse``.
* ``interpolate`` evaluates a solution's piecewise-linear interpolant.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from fbmsde.drifts import ModelSpec, _positive_power
from fbmsde.errors import ParameterError, UsageError
from fbmsde.fbm import CirculantSampler, FbmPath, Hurst, as_hurst, mix_seed
from fbmsde.solver import SolutionPath


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
    size, half = sampler._size, sampler._half
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
    paths: Iterable[FbmPath] | Sequence[FbmPath], p: float, lag: int
) -> float:
    """Monte Carlo estimate of E|B_{t + lag*h} - B_t|^p.

    Averages over all start nodes and all paths; the analytic value is
    C(p) * (lag * h)^{pH}, with C(2) = 1, which is what generator validation
    compares against.
    """
    paths = list(paths)
    if len(paths) < 2:
        raise UsageError("empirical_increment_moment requires at least two paths")
    if p < 1.0:
        raise UsageError(f"moment order p must be >= 1, got {p}")
    grid, hurst = paths[0].grid, paths[0].hurst
    for path in paths[1:]:
        if path.grid != grid or path.hurst != hurst:
            raise UsageError("all paths must share the same grid and Hurst parameter")
    lag = int(lag)
    if not (1 <= lag <= grid.steps):
        raise UsageError(f"lag must lie in [1, {grid.steps}], got {lag}")
    stacked = np.stack([path.values for path in paths])
    diffs = stacked[:, lag:] - stacked[:, :-lag]
    return float(np.mean(np.abs(diffs) ** p))


def lamperti_forward(model: ModelSpec, y):
    """Map original coordinates to transformed ones: X = Y^m, m = transform exponent."""
    return _positive_power(y, np.longdouble(model.transform_exponent), "y")


def interpolate(path: SolutionPath, t):
    """Evaluate the piecewise-linear interpolant at time(s) t in [0, T].

    Node queries return the node value exactly; interior queries use the
    affine weights (t_{n+1} - t)/h and (t - t_n)/h.
    """
    times = path.grid.times
    values = path.values
    t_arr = np.asarray(t, dtype=float)
    t_max = times[-1]
    if np.any(t_arr < 0.0) or np.any(t_arr > t_max):
        raise ParameterError(
            f"interpolation time outside [0, {t_max!r}]"
        )
    idx = np.clip(
        np.searchsorted(times, t_arr, side="right") - 1, 0, path.grid.steps - 1
    )
    h = path.grid.h
    w_hi = (t_arr - times[idx]) / h
    w_lo = (times[idx + 1] - t_arr) / h
    out = w_lo * values[idx] + w_hi * values[idx + 1]
    # exact node hits bypass the weight arithmetic entirely
    at_lo = t_arr == times[idx]
    at_hi = t_arr == times[idx + 1]
    out = np.where(at_lo, values[idx], np.where(at_hi, values[idx + 1], out))
    return float(out) if np.ndim(t) == 0 else out

"""Independent oracles used by the tests.

These deliberately avoid the package's own numerics:

* ``cir_implicit_root`` solves the gamma = 1/2 implicit-step equation with
  the explicit quadratic formula (multiply B(x) h - x + c = 0 by x).
* ``ode_trajectory`` integrates dx = B(x) dt with classical RK4 plus step
  halving and Richardson extrapolation, for zero-noise comparisons.
* ``window_modulus`` reduces every sliding window of nodes directly, the
  reference for the moment probe's doubling modulus ladder.
* ``dense_toeplitz_cholesky`` builds the full Toeplitz matrix and factors it
  with LAPACK, the reference for the O(N^2) Schur factorisation.
"""

from __future__ import annotations

import math

import numpy as np


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

"""Exact-in-distribution sampling of fractional Brownian motion on uniform grids.

A fractional Brownian motion (fBM) with Hurst parameter ``H`` is the centered
Gaussian process with covariance

    R_H(t, s) = (t^{2H} + s^{2H} - |t - s|^{2H}) / 2.

Only the long-memory regime ``1/2 < H < 1`` is supported.  Two exact samplers
are provided:

``CholeskySampler``
    Factors the Toeplitz covariance of the increment process (fractional
    Gaussian noise) once with the Schur algorithm, then draws each path as
    ``L @ z``.  O(N^2) setup and O(N^2) per path; the factor is stored as
    column panels below the diagonal only.  The reference method for
    cross-validation.

``CirculantSampler``
    Davies-Harte style circulant embedding of the increment covariance,
    diagonalized by the FFT.  O(N log N) per path, the workhorse for fine
    grids.

Both samplers draw the increment vector first.  ``sample`` takes one path
index or a ``range`` of them; a range gives one :class:`FbmPath` whose arrays
carry a leading path axis.  Node values are built lazily, on first use, by a
sequential cumulative sum, so ``np.cumsum(path.increments, axis=-1)``
reproduces ``path.values[..., 1:]`` bitwise for every freshly generated path.

Reproducibility contract: each path is drawn from its own PCG64 generator
seeded with ``mix_seed(master_seed, path_index)``, and every path runs the
same fixed sequence of numerical calls on rows of the same length.  A path is
therefore the same bit pattern whether it is drawn alone or in a batch of any
size, and regardless of scheduling or how many worker threads/processes the
caller uses.

:func:`make_sampler` builds either sampler from its method name.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmbeddingError,
    FactorizationError,
    NumericalError,
    ParameterError,
    UsageError,
)

__all__ = [
    "Hurst",
    "TimeGrid",
    "FbmPath",
    "mix_seed",
    "CholeskySampler",
    "CirculantSampler",
    "make_sampler",
    "subsample",
]

# SplitMix64 finalizer constants (Steele, Lea, Flood 2014).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

# Relative tolerance for clamping tiny negative circulant eigenvalues, which
# are rounding noise: the embedding is nonnegative definite in exact
# arithmetic for H in (1/2, 1).
EIGENVALUE_CLAMP_REL = 1e-10

# Columns per panel of the Cholesky factor.  Panels store only the rows on and
# below their first column, so the zero upper triangle costs at most half a
# panel's square; each path draw is one matrix-vector product per panel.
PANEL_WIDTH = 256

# Embedding elements per FFT of the circulant sampler.  A batch is drawn in
# sub-batches of about this many elements through buffers reused across the
# batch, so a draw's temporaries (about 5 MB) do not grow with the batch.
SUB_BATCH_ELEMENTS = 2**17


def mix_seed(master_seed: int, path_index: int) -> int:
    """Derive the per-path RNG seed from a master seed and a path index.

    The SplitMix64 finalizer is applied to
    ``master_seed + (path_index + 1) * 0x9E3779B97F4A7C15`` (mod 2^64).  The
    mix is counter based: any path's seed is computable without touching its
    predecessors, which is what makes parallel batch generation deterministic.
    """
    if path_index < 0:
        raise UsageError(f"path_index must be nonnegative, got {path_index}")
    z = (int(master_seed) + (int(path_index) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class Hurst:
    """Hurst parameter restricted to the long-memory regime (1/2, 1)."""

    value: float

    def __post_init__(self):
        v = self.value
        if not (0.5 < v < 1.0):
            raise ParameterError(
                f"Hurst parameter must lie strictly inside (1/2, 1), got {v}"
            )


def as_hurst(hurst: "Hurst | float") -> Hurst:
    """Coerce a float to :class:`Hurst`, validating the admissible range."""
    return hurst if isinstance(hurst, Hurst) else Hurst(float(hurst))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_n = n * horizon / steps for n = 0..steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ParameterError(f"steps must be >= 1, got {self.steps}")

    @property
    def h(self) -> float:
        return self.horizon / self.steps

    @cached_property
    def times(self) -> np.ndarray:
        t = np.arange(self.steps + 1, dtype=float) * self.h
        t.setflags(write=False)
        return t


@dataclass(frozen=True)
class FbmPath:
    """One realized fBM path, or a batch of them, on a uniform grid.

    ``increments`` has shape (steps,) for one path and (paths, steps) for a
    batch, whose ``path_index`` is then the range of path indices it holds.
    ``values`` holds the nodes along the last axis, ``steps + 1`` of them
    starting at 0.0; it is built on first use, as the row-wise cumulative sum
    of the increments or, for a path subsampled from ``source``, as every
    factor-th node of the source.  Arrays are read-only: a path is an
    immutable value object, safe to share across threads.  ``master_seed``
    and ``path_index`` record the draw's provenance.
    """

    grid: TimeGrid
    hurst: Hurst
    increments: np.ndarray
    master_seed: int
    path_index: int | range
    source: FbmPath | None = None

    def __post_init__(self):
        n = self.grid.steps
        shape = self.increments.shape
        batch = isinstance(self.path_index, range)
        expected = (len(self.path_index), n) if batch else (n,)
        if shape != expected:
            raise UsageError(f"increments must have shape {expected}, got {shape}")
        if self.source is not None and self.source.grid.steps % n != 0:
            raise UsageError(
                f"a {n}-step path cannot subsample a {self.source.grid.steps}-step source"
            )

    @cached_property
    def values(self) -> np.ndarray:
        if self.source is not None:
            factor = self.source.grid.steps // self.grid.steps
            return self.source.values[..., ::factor]
        values = np.empty(self.increments.shape[:-1] + (self.grid.steps + 1,))
        values[..., 0] = 0.0
        np.cumsum(self.increments, axis=-1, out=values[..., 1:])
        return _read_only(values)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _indices(path_index: int | range) -> range:
    """The path indices one ``sample`` call draws."""
    if isinstance(path_index, range):
        return path_index
    index = operator.index(path_index)
    return range(index, index + 1)


def _check_finite(increments: np.ndarray) -> None:
    if not np.isfinite(increments).all():
        raise NumericalError("fBM path contains non-finite values")


def _batch_path(
    grid: TimeGrid,
    hurst: Hurst,
    increments: np.ndarray,
    master_seed: int,
    path_index: int | range,
) -> FbmPath:
    """The path of ``sample(master_seed, path_index)`` from its increment rows."""
    _read_only(increments)
    if not isinstance(path_index, range):
        path_index = operator.index(path_index)
        increments = increments[0]
    return FbmPath(grid, hurst, increments, master_seed, path_index)


def _fgn_autocovariance(hurst: Hurst, h: float, lags: int) -> np.ndarray:
    """Autocovariance of the increment sequence at lags 0..lags-1.

    gamma(k) = h^{2H} * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}) / 2.
    """
    k = np.arange(lags, dtype=float)
    two_h = 2.0 * hurst.value
    gamma = 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)
    return gamma * h**two_h


def _toeplitz_cholesky(gamma: np.ndarray) -> list[np.ndarray]:
    """Lower Cholesky factor of the SPD Toeplitz matrix with first column ``gamma``.

    The Schur (generator) algorithm runs in O(N^2): the displacement
    ``T - Z T Z^T = x x^T - y y^T`` with ``x = gamma / sqrt(gamma[0])`` and
    ``y = x`` except ``y[0] = 0`` is carried from column to column.  For
    column ``k`` the previous column, shifted down one row, becomes ``x``,
    ``y`` drops its first entry, and a hyperbolic rotation with
    ``rho = y[0] / x[0]`` zeroes ``y[0]``; the rotated ``x`` is ``L[k:, k]``
    and ``y`` is downdated from it in the "mixed" form, which is stable for
    SPD Toeplitz matrices (Bojanczyk, Brent, de Hoog & Sweet 1995).

    The factor is returned as column panels: panel ``p`` holds
    ``L[j:, j:j + PANEL_WIDTH]`` with ``j = p * PANEL_WIDTH``, F-ordered.
    Raises :class:`FactorizationError` naming the 1-based pivot at which the
    matrix is not positive definite; a NaN fails at the first pivot it reaches.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[0]
    if not gamma[0] > 0.0:
        raise FactorizationError(
            f"Toeplitz Cholesky factorization: leading entry {gamma[0]!r} is not "
            "positive (pivot 1)",
            pivot=1,
        )
    panels = [
        np.zeros((n - j, min(PANEL_WIDTH, n - j)), order="F")
        for j in range(0, n, PANEL_WIDTH)
    ]
    column = panels[0][:, 0]
    np.divide(gamma, math.sqrt(gamma[0]), out=column)
    y = column.copy()
    y[0] = 0.0
    for k in range(1, n):
        x = column[:-1]
        y = y[1:]
        rho = y[0] / x[0]
        if not -1.0 < rho < 1.0:
            raise FactorizationError(
                "Toeplitz Cholesky factorization lost positive definiteness at "
                f"pivot {k + 1} (reflection coefficient {rho!r})",
                pivot=k + 1,
            )
        c = math.sqrt((1.0 - rho) * (1.0 + rho))
        local = k % PANEL_WIDTH
        column = panels[k // PANEL_WIDTH][local:, local]
        np.multiply(y, rho, out=column)
        np.subtract(x, column, out=column)
        column /= c
        y *= c
        y -= rho * column
    return [_read_only(panel) for panel in panels]


class CholeskySampler:
    """Exact fBM sampler from the Cholesky factor of the increment covariance.

    The increment (fractional Gaussian noise) covariance is Toeplitz and, for
    H in (1/2, 1), positive definite; its lower factor ``L`` is computed once
    at construction, in O(N^2), by :func:`_toeplitz_cholesky`, and kept as
    column panels that store no part of the zero upper triangle.  Each path
    draws ``z ~ N(0, I)`` and sets the increments to ``L @ z``, summed as one
    matrix-vector product per panel, so node values carry exactly the
    covariance R_H on the grid.

    The draw is the same fixed sequence of calls on the same shapes for every
    path; paths are never batched into one matrix product, whose rounding
    can depend on the batch, so a path is bitwise the same whether it is
    drawn alone or among others, in any process.

    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(self, hurst: Hurst | float, grid: TimeGrid):
        self.hurst = as_hurst(hurst)
        self.grid = grid
        gamma = _fgn_autocovariance(self.hurst, grid.h, grid.steps)
        self._panels = _toeplitz_cholesky(gamma)

    def sample(self, master_seed: int, path_index: int | range = 0) -> FbmPath:
        """Path ``path_index``, or the batch of the paths in a range of them."""
        indices = _indices(path_index)
        steps = self.grid.steps
        increments = np.zeros((len(indices), steps))
        z = np.empty(steps)
        for row, index in zip(increments, indices):
            np.random.default_rng(mix_seed(master_seed, index)).standard_normal(out=z)
            for p, panel in enumerate(self._panels):
                j = p * PANEL_WIDTH
                row[j:] += panel @ z[j : j + panel.shape[1]]
            _check_finite(row)
        return _batch_path(self.grid, self.hurst, increments, master_seed, path_index)


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


class CirculantSampler:
    """Exact O(N log N) fBM sampler via circulant embedding of the increments.

    The N x N Toeplitz increment covariance is embedded in a circulant of size
    ``M = next_pow2(2N)`` whose first row carries the true autocovariances up
    to lag M/2, mirrored:

        row = [gamma(0), ..., gamma(M/2), gamma(M/2 - 1), ..., gamma(1)].

    Any such extension leaves the law of the first N increments unchanged, so
    rounding M up to a power of two for the FFT is purely a speed choice.  In
    exact arithmetic the circulant eigenvalues are nonnegative for H in
    (1/2, 1); eigenvalues within ``EIGENVALUE_CLAMP_REL * max(eig)`` of zero
    are clamped to zero as rounding noise, anything more negative raises
    :class:`EmbeddingError` with the worst offender.

    Per path, ``M`` standard normals are drawn in a fixed, documented order
    (the two real modes first, then the real and imaginary interior blocks)
    and combined in the frequency domain; the first N entries of the real part
    of the transform are the increments.  A batch is drawn in sub-batches of
    about ``SUB_BATCH_ELEMENTS`` embedding elements, one FFT along the last
    axis each, in buffers reused from one sub-batch to the next.
    """

    def __init__(self, hurst: Hurst | float, grid: TimeGrid):
        self.hurst = as_hurst(hurst)
        self.grid = grid
        size = _next_pow2(max(2 * grid.steps, 2))
        half = size // 2
        gamma = _fgn_autocovariance(self.hurst, grid.h, half + 1)
        row = np.empty(size)
        row[: half + 1] = gamma
        row[half + 1 :] = gamma[1:half][::-1]
        eigs = np.fft.fft(row).real
        tol = EIGENVALUE_CLAMP_REL * float(eigs.max())
        most_negative = float(eigs.min())
        if most_negative < -tol:
            raise EmbeddingError(
                "circulant embedding is not nonnegative definite: most negative "
                f"eigenvalue {most_negative:.6e} exceeds clamp tolerance {tol:.6e}",
                most_negative=most_negative,
                tolerance=tol,
            )
        self._size = size
        self._half = half
        # complex, so that scaling xi is one complex product with no cast
        weights = np.sqrt(np.where(eigs < 0.0, 0.0, eigs) / size)
        self._weights = _read_only(weights.astype(complex))

    def sample(self, master_seed: int, path_index: int | range = 0) -> FbmPath:
        """Path ``path_index``, or the batch of the paths in a range of them."""
        indices = _indices(path_index)
        size, half, steps = self._size, self._half, self.grid.steps
        rows = max(1, min(len(indices), SUB_BATCH_ELEMENTS // size))
        normals = np.empty((rows, size))
        xi = np.empty((rows, size), dtype=complex)
        scale = np.sqrt(0.5)
        increments = np.empty((len(indices), steps))
        for first in range(0, len(indices), rows):
            out = increments[first : first + rows]
            z, x = normals[: len(out)], xi[: len(out)]
            for row, index in zip(z, indices[first : first + rows]):
                np.random.default_rng(mix_seed(master_seed, index)).standard_normal(out=row)
            # xi = [z0, s * (re + i im), z1, s * conj(re + i im) reversed] with
            # s = sqrt(1/2), re = z[2:half + 1] and im = z[half + 1:]
            x.real[:, 0], x.real[:, half] = z[:, 0], z[:, 1]
            x.imag[:, 0] = x.imag[:, half] = 0.0
            np.multiply(z[:, 2 : half + 1], scale, out=x.real[:, 1:half])
            np.multiply(z[:, half + 1 :], scale, out=x.imag[:, 1:half])
            x.real[:, half + 1 :] = x.real[:, half - 1 : 0 : -1]
            np.negative(x.imag[:, half - 1 : 0 : -1], out=x.imag[:, half + 1 :])
            x *= self._weights
            out[:] = np.fft.fft(x, axis=-1).real[:, :steps]
            _check_finite(out)
        return _batch_path(self.grid, self.hurst, increments, master_seed, path_index)


def make_sampler(
    method: str, hurst: Hurst | float, grid: TimeGrid
) -> CholeskySampler | CirculantSampler:
    """The fBM sampler named by ``method``: ``"cholesky"`` or ``"circulant"``."""
    if method == "cholesky":
        return CholeskySampler(hurst, grid)
    if method == "circulant":
        return CirculantSampler(hurst, grid)
    raise UsageError(f"unknown fBM sampler method {method!r}")


def block_sums(increments: np.ndarray, factor: int) -> np.ndarray:
    """Sum consecutive blocks of ``factor`` increments along the last axis.

    Each block is reduced by numpy's deterministic pairwise summation over the
    contiguous block, always in the same order, so results are reproducible
    bit for bit, and each row of a batch sums exactly as it would alone.
    """
    n = increments.shape[-1]
    if factor < 1 or n % factor != 0:
        raise UsageError(f"block factor {factor} does not divide {n} increments")
    return increments.reshape(increments.shape[:-1] + (-1, factor)).sum(axis=-1)


def subsample(path: FbmPath, factor: int) -> FbmPath:
    """Restrict a path, or every path of a batch, to every ``factor``-th node.

    The horizon stays the same.  Node values are read from the source path by
    index, hence bitwise equal to it at shared nodes.  Increments are block sums
    of the source increments (see :func:`block_sums`), which is the coupling
    used by step-ladder experiments.  The two arrays are each exact with
    respect to the source; their mutual cumulative-sum identity holds only up
    to rounding because block summation reassociates additions.
    """
    factor = int(factor)
    if factor < 1:
        raise UsageError(f"subsample factor must be >= 1, got {factor}")
    if path.grid.steps % factor != 0:
        raise UsageError(
            f"subsample factor {factor} does not divide step count {path.grid.steps}"
        )
    if factor == 1:
        return path
    coarse = TimeGrid(path.grid.horizon, path.grid.steps // factor)
    return FbmPath(
        coarse,
        path.hurst,
        _read_only(block_sums(path.increments, factor)),
        path.master_seed,
        path.path_index,
        source=path,
    )

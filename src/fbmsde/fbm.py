"""Exact-in-distribution sampling of fractional Brownian motion on uniform grids.

A fractional Brownian motion (fBM) with Hurst parameter ``H`` is the centered
Gaussian process with covariance

    R_H(t, s) = (t^{2H} + s^{2H} - |t - s|^{2H}) / 2.

Only the long-memory regime ``1/2 < H < 1`` is supported.  Two exact samplers
are provided:

``CholeskySampler``
    Draws each path as ``L @ z`` with ``L`` the lower Cholesky factor of the
    Toeplitz covariance of the increment process (fractional Gaussian noise),
    generated one column panel at a time by the Schur algorithm.  O(N^2) per
    path.  On small grids the panels are kept; on larger ones each ``sample``
    call regenerates them, O(N^2) once per call, so the sampler holds O(N)
    state.  The reference method for cross-validation.

``CirculantSampler``
    Davies-Harte style circulant embedding of the increment covariance,
    diagonalized by the FFT.  O(N log N) per path, the workhorse for fine
    grids.

Each sampler is a different linear map applied to the same i.i.d. normal
draw: both share one ``sample`` loop, which states the draw contract, and
each maps rows of normals to rows of increments.  A draw is its read-only
array of increments, the only view of the path the scheme needs;
:func:`path_values` builds node values from it by a sequential cumulative
sum, so ``np.cumsum(increments, axis=-1)`` reproduces
``path_values(increments)[..., 1:]`` bitwise.  :func:`subsample` block-sums
increments onto a coarser grid.

``SAMPLERS`` maps each method name to its sampler class, ``DEFAULT_SAMPLER``
names the one a run uses when none is named, and :func:`make_sampler` builds
the sampler a name picks.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmbeddingError,
    FactorizationError,
    NumericalError,
    UsageError,
    require,
)

__all__ = [
    "Hurst",
    "TimeGrid",
    "SEED_LIMIT",
    "mix_seed",
    "CholeskySampler",
    "CirculantSampler",
    "SAMPLERS",
    "DEFAULT_SAMPLER",
    "METHOD_RULE",
    "make_sampler",
    "path_values",
    "subsample",
]

# SplitMix64 finalizer constants (Steele, Lea, Flood 2014).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
# Master seeds lie in [0, SEED_LIMIT): the mix works mod 2^64, so a seed
# outside would draw the same paths as its residue under another digest.
SEED_LIMIT = 1 << 64

# Relative tolerance for clamping tiny negative circulant eigenvalues, which
# are rounding noise: the embedding is nonnegative definite in exact
# arithmetic for H in (1/2, 1).
EIGENVALUE_CLAMP_REL = 1e-10

# Most columns per panel of the Cholesky factor.  Panels hold only the rows on
# and below their first column, so the zero upper triangle costs at most half
# a panel's square; each path draw is one matrix-vector product per panel.
PANEL_WIDTH = 256

# Doubles in the one (N, width) buffer the panels are generated into: 2 MB.
# The width is PANEL_WIDTH up to 1024 steps and PANEL_DOUBLES // N past it
# (64 at 2^12 steps, 32 at 2^13), so the buffer stays at 2 MB up to 2^17
# steps; past that it keeps two columns, 16 bytes per step.  Narrow panels
# draw fine grids no slower, since each GEMV is still long; on small grids
# they would only add calls to one-path draws.
PANEL_DOUBLES = 2**18

# Most doubles of Cholesky panels a sampler keeps: 8 MB, the size of one
# chunk's noise at ``convergence.CHUNK_PATH_STEPS``, reached at about 1350
# steps.  Up to it the panels are generated once, so one-path draws on small
# grids stay cheap; beyond it every ``sample`` call regenerates them, so the
# factor's N^2 / 2 doubles are never held.
KEPT_PANEL_DOUBLES = 2**20

# Embedding elements per sub-batch of a circulant draw (see
# ``_ExactSampler.sample``).  Its reused normals, xi and FFT output take 40
# bytes per element, about 1.3 MB for any batch size, so they add little to
# a draw's peak memory beyond its output.  Each path is one FFT row however many rows a
# sub-batch has, so 2^15 elements (8 paths of 2^11 steps, 2 of 2^13) draw
# about as fast as larger sub-batches.  A Cholesky draw is one batch, so its
# panels are generated once per call.
SUB_BATCH_ELEMENTS = 2**15


def mix_seed(master_seed: int, path_index: int) -> int:
    """Derive the per-path RNG seed from a master seed and a path index.

    The SplitMix64 finalizer is applied to
    ``master_seed + (path_index + 1) * 0x9E3779B97F4A7C15`` (mod 2^64), for a
    master seed in [0, 2^64).  The mix is counter based: any path's seed is
    computable without touching its predecessors, which is what makes
    parallel batch generation deterministic.
    """
    if not 0 <= int(master_seed) < SEED_LIMIT:
        raise UsageError(f"master seed must lie in [0, 2^64), got {master_seed}")
    if path_index < 0:
        raise UsageError(f"path_index must be nonnegative, got {path_index}")
    z = (int(master_seed) + (int(path_index) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class Hurst:
    """Hurst parameter restricted to the long-memory regime (1/2, 1)."""

    rules = (("hurst", "must lie in (0.5, 1), got {hurst}", lambda hurst: 0.5 < hurst < 1.0),)
    value: float

    def __post_init__(self):
        require(self.rules, {"hurst": self.value})


def as_hurst(hurst: "Hurst | float") -> Hurst:
    """Coerce a float to :class:`Hurst`, validating the admissible range."""
    return hurst if isinstance(hurst, Hurst) else Hurst(float(hurst))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_n = n * horizon / steps for n = 0..steps."""

    rules = (
        ("horizon", "must be a finite number > 0, got {horizon}",
         lambda horizon: 0.0 < horizon < math.inf),
        ("steps", "must be an integer >= 1, got {steps}", lambda steps: steps >= 1),
    )
    horizon: float
    steps: int

    def __post_init__(self):
        require(self.rules, vars(self))

    @property
    def h(self) -> float:
        return self.horizon / self.steps

    @cached_property
    def times(self) -> np.ndarray:
        t = np.arange(self.steps + 1, dtype=float) * self.h
        t.setflags(write=False)
        return t


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _fgn_autocovariance(hurst: Hurst, h: float, lags: int) -> np.ndarray:
    """Autocovariance of the increment sequence at lags 0..lags-1.

    gamma(k) = h^{2H} * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}) / 2.
    """
    k = np.arange(lags, dtype=float)
    two_h = 2.0 * hurst.value
    gamma = 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)
    return gamma * h**two_h


def _toeplitz_cholesky(gamma: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Column panels of the lower Cholesky factor of an SPD Toeplitz matrix.

    ``gamma`` is the matrix's first column.  The Schur (generator) algorithm
    runs in O(N^2) from O(N) state: the displacement
    ``T - Z T Z^T = x x^T - y y^T`` with ``x = gamma / sqrt(gamma[0])`` and
    ``y = x`` except ``y[0] = 0`` is carried from column to column.  For
    column ``k`` the previous column, shifted down one row, becomes ``x``,
    ``y`` drops its first entry, and a hyperbolic rotation with
    ``rho = y[0] / x[0]`` zeroes ``y[0]``; the rotated ``x`` is ``L[k:, k]``
    and ``y`` is downdated from it in the "mixed" form, which is stable for
    SPD Toeplitz matrices (Bojanczyk, Brent, de Hoog & Sweet 1995).

    Yields ``(j, panel)`` with ``panel = L[j:, j:j + width]`` for
    ``j = 0, width, ...``, as it is completed, ``width`` being
    :func:`_panel_width` of N.  Every panel is a read-only view of one
    F-ordered (N, width) buffer, which the next panel overwrites: copy a
    panel to keep it.  Raises
    :class:`FactorizationError` naming the 1-based pivot at which the matrix
    is not positive definite, once the panels before it have been yielded; a
    NaN fails at the first pivot it reaches.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[0]
    if not gamma[0] > 0.0:
        raise FactorizationError(
            f"Toeplitz Cholesky factorization: leading entry {gamma[0]!r} is not "
            "positive (pivot 1)",
            pivot=1,
        )
    width = _panel_width(n)
    # column ``local`` of the panel at ``j`` fills rows local..n-j-1, so rows
    # above it are never written and stay the panel's zero upper triangle
    buffer = np.zeros((n, min(width, n)), order="F")
    column = buffer[:, 0]
    np.divide(gamma, math.sqrt(gamma[0]), out=column)
    y = column.copy()
    y[0] = 0.0
    for k in range(1, n):
        local = k % width
        if not local:
            yield k - width, _read_only(buffer[: n - k + width])
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
        column = buffer[local : n - k + local, local]
        np.multiply(y, rho, out=column)
        np.subtract(x, column, out=column)
        column /= c
        y *= c
        y -= rho * column
    j = (n - 1) // width * width
    yield j, _read_only(buffer[: n - j, : n - j])


def _panel_width(n: int) -> int:
    """Columns per Cholesky panel of an N-step grid: a PANEL_DOUBLES buffer.

    At least two: :func:`_toeplitz_cholesky` reads each column's predecessor
    while it writes the column, so the two must not share a buffer column.
    """
    return max(2, min(PANEL_WIDTH, PANEL_DOUBLES // n))


class _ExactSampler:
    """The draw shared by both exact samplers.

    A subclass sets ``hurst``, ``grid`` and ``_width``, the number of standard
    normals one path's increments are made from, and maps rows of normals to
    rows of increments in ``_increments(normals, out, *workspace)``.
    """

    def sample(self, master_seed: int, path_index: int | range = 0) -> np.ndarray:
        """The read-only increments of path ``path_index``, or of a range of paths.

        An int gives shape (steps,); a range gives shape (paths, steps), row
        ``i`` holding path ``path_index[i]``.

        Draw contract: each path draws its ``_width`` normals from its own
        PCG64 generator seeded with ``mix_seed(master_seed, path_index)``, and
        every path runs the same fixed sequence of numerical calls on rows of
        the same length, so it has the same bits alone or in a batch of any
        size, in any process.  A batch is drawn in sub-batches of
        ``_sub_batch_rows`` paths through buffers reused from one to the next,
        and each sub-batch is checked for non-finite values
        (:class:`NumericalError`).
        """
        batch = isinstance(path_index, range)
        if not batch:
            path_index = operator.index(path_index)
        indices = path_index if batch else range(path_index, path_index + 1)
        rows = self._sub_batch_rows(len(indices))
        normals = np.empty((rows, self._width))
        workspace = self._workspace(rows)
        increments = np.empty((len(indices), self.grid.steps))
        for first in range(0, len(indices), rows):
            out = increments[first : first + rows]
            z = normals[: len(out)]
            for row, index in zip(z, indices[first : first + rows]):
                np.random.default_rng(mix_seed(master_seed, index)).standard_normal(out=row)
            self._increments(z, out, *workspace)
            if not np.isfinite(out).all():
                raise NumericalError("fBM path contains non-finite values")
        return _read_only(increments if batch else increments[0])

    def _sub_batch_rows(self, paths: int) -> int:
        """Paths per sub-batch of a draw of ``paths`` paths: the whole batch.

        At least one, so that an empty range draws an empty batch.
        """
        return max(1, paths)

    def _workspace(self, rows: int) -> tuple:
        """Buffers that ``_increments`` reuses across one draw's sub-batches."""
        return ()


class CholeskySampler(_ExactSampler):
    """Exact fBM sampler from the Cholesky factor of the increment covariance.

    The increment (fractional Gaussian noise) covariance is Toeplitz and, for
    H in (1/2, 1), positive definite.  Each path draws ``z ~ N(0, I)`` and
    sets the increments to ``L @ z`` with ``L`` its lower factor, summed as
    one matrix-vector product per column panel of ``L``, so node values carry
    exactly the covariance R_H on the grid.

    The sampler holds the covariance's first column.  A draw is one batch: the
    panels come from :func:`_toeplitz_cholesky`, each applied to every row of
    the batch before the next is generated, so no more than one panel is held
    at a time.  When all panels fit in ``KEPT_PANEL_DOUBLES`` they are instead
    generated once, at construction, and kept.  A covariance that is not
    positive definite raises :class:`FactorizationError` when the panels are
    generated: at construction if they are kept, else from ``sample``.

    Instances are immutable after construction and safe to share across
    threads: each draw's panel buffer belongs to that draw.
    """

    def __init__(self, hurst: Hurst | float, grid: TimeGrid):
        self.hurst = as_hurst(hurst)
        self.grid = grid
        n = self._width = grid.steps
        self._gamma = _read_only(_fgn_autocovariance(self.hurst, grid.h, n))
        width = _panel_width(n)
        doubles = sum((n - j) * min(width, n - j) for j in range(0, n, width))
        self._kept = None
        if doubles <= KEPT_PANEL_DOUBLES:
            self._kept = [
                (j, _read_only(panel.copy(order="F")))
                for j, panel in _toeplitz_cholesky(self._gamma)
            ]

    def _increments(self, normals: np.ndarray, out: np.ndarray) -> None:
        """``out[i] = L @ normals[i]`` for every row, panel-major.

        Each panel in turn takes its product with every row, so the products
        that share a panel run back to back.  A row still runs the same GEMV
        calls on the same shapes in the same panel order; rows are never
        batched into one matrix product, whose rounding can depend on the batch.
        """
        out[:] = 0.0
        panels = self._kept or _toeplitz_cholesky(self._gamma)
        for j, panel in panels:
            for row, normal in zip(out, normals[:, j : j + panel.shape[1]]):
                row[j:] += panel @ normal


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


class CirculantSampler(_ExactSampler):
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
    of the transform are the increments.
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
        self._width = size
        self._half = half
        # complex, so that scaling xi is one complex product with no cast
        weights = np.sqrt(np.where(eigs < 0.0, 0.0, eigs) / size)
        self._weights = _read_only(weights.astype(complex))

    def _sub_batch_rows(self, paths: int) -> int:
        return max(1, min(paths, SUB_BATCH_ELEMENTS // self._width))

    def _workspace(self, rows: int) -> tuple:
        return (np.empty((rows, self._width), dtype=complex),)

    def _increments(self, z: np.ndarray, out: np.ndarray, xi: np.ndarray) -> None:
        """The increment rows of the normals ``z``: one FFT along the last axis."""
        half, x = self._half, xi[: len(z)]
        # xi = [z0, s * (re + i im), z1, s * conj(re + i im) reversed] with
        # s = sqrt(1/2), re = z[2:half + 1] and im = z[half + 1:]
        scale = np.sqrt(0.5)
        x.real[:, 0], x.real[:, half] = z[:, 0], z[:, 1]
        x.imag[:, 0] = x.imag[:, half] = 0.0
        np.multiply(z[:, 2 : half + 1], scale, out=x.real[:, 1:half])
        np.multiply(z[:, half + 1 :], scale, out=x.imag[:, 1:half])
        x.real[:, half + 1 :] = x.real[:, half - 1 : 0 : -1]
        np.negative(x.imag[:, half - 1 : 0 : -1], out=x.imag[:, half + 1 :])
        x *= self._weights
        out[:] = np.fft.fft(x, axis=-1).real[:, : out.shape[1]]


# The exact samplers by method name: the values ``scheme.method`` and
# ``fbm --method`` accept, in the order the method rule lists them.
SAMPLERS = {"circulant": CirculantSampler, "cholesky": CholeskySampler}
# The method a run samples with when none is named.
DEFAULT_SAMPLER = "circulant"
# The one rule on a method name, read by ``make_sampler``, the ladder's plan
# and the config; any JSON value gets this text.
METHOD_RULE = (
    "method",
    f"must be {' or '.join(map(repr, SAMPLERS))}, got {{method!r}}",
    lambda method: isinstance(method, str) and method in SAMPLERS,
)


def make_sampler(
    method: str, hurst: Hurst | float, grid: TimeGrid
) -> CholeskySampler | CirculantSampler:
    """The fBM sampler that ``SAMPLERS`` names ``method``."""
    require((METHOD_RULE,), {"method": method}, UsageError)
    return SAMPLERS[method](hurst, grid)


def path_values(increments: np.ndarray) -> np.ndarray:
    """Read-only node values of paths with these increments along the last axis.

    ``steps + 1`` nodes starting at 0.0, built by a sequential cumulative sum.
    """
    values = np.empty(increments.shape[:-1] + (increments.shape[-1] + 1,))
    values[..., 0] = 0.0
    np.cumsum(increments, axis=-1, out=values[..., 1:])
    return _read_only(values)


def subsample(increments: np.ndarray, factor: int) -> np.ndarray:
    """Increments on the grid of every ``factor``-th node, along the last axis.

    The horizon stays the same.  Each coarse increment is the sum of a block
    of ``factor`` fine ones, the coupling used by step-ladder experiments,
    reduced by numpy's deterministic pairwise summation over the contiguous
    block, so results are reproducible bit for bit and each row of a batch
    sums exactly as it would alone.  The result is read-only, and is
    ``increments`` itself for a factor of one.  Block summation reassociates
    additions, so the coarse node values match the fine ones at shared nodes
    only up to rounding.
    """
    factor = int(factor)
    n = increments.shape[-1]
    if factor < 1:
        raise UsageError(f"subsample factor must be >= 1, got {factor}")
    if n % factor != 0:
        raise UsageError(f"subsample factor {factor} does not divide {n} increments")
    if factor == 1:
        return increments
    return _read_only(increments.reshape(increments.shape[:-1] + (-1, factor)).sum(axis=-1))

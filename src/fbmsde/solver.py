"""Drift-implicit (backward) Euler scheme with a path-batched root solver.

One step of the scheme solves

    X_{n+1} = X_n + B(X_{n+1}) h + sigma * dB_{n+1},

i.e. the scalar equation  g(x) = B(x) h - x + c = 0  with
c = X_n + sigma * dB_{n+1}.  For the drifts handled here g decreases through
zero on (0, inf) and blows up at 0+, so the unique root is positive for every
real c whenever h is below the certificate's h0; implicitness is what makes
the scheme positivity preserving.

A :class:`SchemeConfig` holds everything an integration reads: the drift,
the time grid, sigma, x0 and the root-solver settings.
:meth:`SchemeConfig.for_model` builds it from a model's drift and is the one
place that checks h < h0, and h < 1/K when K > 0.  :func:`integrate` and
:func:`integrate_blocks` take a scheme and the noise, and no drift of their
own, so a step is never taken with a drift the scheme was not checked for.

One kernel solves that equation for a whole array of paths at once.  Every
row starts Newton from the explicit Euler predictor c + B(X_n) h, floored at
1e-30, or from max(c, 1e-30) where B(X_n) h is not finite, which only a
run's initial nodes can give (a root's is finite with its residual).  The
predictor costs nothing: the round that accepted X_n as the previous step's
root evaluated B(X_n) h, and the kernel hands it back with the root.
Every row keeps its own bracket [lo, hi] with g(lo) > 0 >= g(hi), where
lo = 0 and hi = inf mark an end not found yet.  A Newton step is taken only
when it lands strictly inside the bracket, and kept only if it cuts |g| at
least four-fold; otherwise the row's next evaluation is a fallback: a Newton
step in (log x, asinh g) if that lands inside the bracket, else expansion
while hi is unknown, shrinkage while lo is unknown, and bisection once both
are known, all geometric.  Expansion and shrinkage go on until the bracket
has both ends.  An evaluation that gives NaN is a rejected step: the row goes
back to its last finite point and next tries the geometric midpoint towards
the NaN.  A warm predictor that gives NaN is retried at the cold start, and
only a row with no finite point to go back to fails on a NaN.  Convergence
is declared on the residual test |g(x)| <= tol_abs + tol_rel * x.  Only rows that have not converged are
iterated, and no value of one row enters another row's arithmetic, so a
path's result does not depend on the batch it was solved in.

Almost every step is the common step: the predictor is not yet a root, one
Newton step from it lands inside the bracket, and it cuts |g| four-fold and
meets the tolerance, so the kernel stops after its second evaluation.
The integrator takes steps speculatively through that common step alone,
a short block of steps at a time with the kernel's own arithmetic, and checks
the whole block at once with the kernel's tests.  Steps up to the first one
where any row fails a test are kept; that step is replayed through the
kernel from the kept nodes.  Every output is therefore bit for bit what one
kernel solve per step gives.  :func:`integrate_blocks` streams the grid in
time blocks, carrying the solver's state from one to the next, and
:func:`integrate` is its one block that spans the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .drifts import DriftFn, ModelSpec
from .errors import (
    IntegrationError,
    NumericalError,
    ParameterError,
    RootBracketError,
    require,
)
from .fbm import TimeGrid

__all__ = [
    "SolverSettings",
    "SchemeConfig",
    "SolutionPath",
    "integrate",
]

X_FLOOR = 1e-30
BRACKET_CEILING = 1e300
BRACKET_FLOOR = 1e-300
# A Newton step is kept only if it cuts |g| at least this much.  Far left of
# the root g behaves like x^-alpha, where Newton only gains a factor
# 1 + 1/alpha in x per step while still reducing |g| (by at most 1/e);
# geometric expansion gains a factor bracket_growth per step instead.
NEWTON_MIN_DECREASE = 0.25
# Common steps are taken in blocks of at most COMMON_WIDTH steps, and at most
# COMMON_ELEMENTS path-steps, so the block's four scratch rows stay small
# whatever the path count.
COMMON_WIDTH = 64
COMMON_ELEMENTS = 2**12


@dataclass(frozen=True)
class SolverSettings:
    """Settings of the implicit step's root solve.

    A root x is accepted when |B(x) h - x + c| <= tol_abs + tol_rel * x;
    ``max_iter`` caps the drift evaluations per step and ``bracket_growth``
    is the smallest factor by which bracket expansion and shrinkage move.
    """

    rules = (
        ("tol_abs", "must be a finite number > 0, got {tol_abs}",
         lambda tol_abs: 0.0 < tol_abs < math.inf),
        ("tol_rel", "must be a finite number > 0, got {tol_rel}",
         lambda tol_rel: 0.0 < tol_rel < math.inf),
        ("max_iter", "must be an integer >= 8, got {max_iter}", lambda max_iter: max_iter >= 8),
        ("bracket_growth", "must be a finite number > 1, got {bracket_growth}",
         lambda bracket_growth: 1.0 < bracket_growth < math.inf),
    )
    tol_abs: float = 1e-12
    tol_rel: float = 1e-12
    max_iter: int = 200
    bracket_growth: float = 2.0

    def __post_init__(self):
        require(self.rules, vars(self))


@dataclass(frozen=True)
class SchemeConfig:
    """Everything one integration reads: the drift, the grid, sigma, x0 and the solver.

    The implicit step is well posed only while the grid's h stays below the
    drift certificate's h0, and below 1/K when K > 0.  :meth:`for_model`
    refuses any other h, so a scheme built for a model carries that model's
    drift and is admissible by construction.  A scheme built directly from
    a :class:`DriftFn` is not checked.
    """

    rules = (
        ("sigma", "must be nonzero", lambda sigma: sigma != 0.0),
        ("x0", "must be positive, got {x0}", lambda x0: x0 > 0.0),
    )
    drift: DriftFn
    grid: TimeGrid
    sigma: float
    x0: float
    solver: SolverSettings = SolverSettings()

    def __post_init__(self):
        require(self.rules, vars(self))

    @classmethod
    def for_model(
        cls, model: ModelSpec, grid: TimeGrid, solver: SolverSettings = SolverSettings()
    ) -> SchemeConfig:
        """The scheme for ``model``'s Lamperti-transformed equation on ``grid``.

        Raises :class:`ParameterError` unless h < h0 and, when K > 0, h < 1/K.
        """
        drift, cert = model.drift()
        h = grid.h
        if not h < cert.h0:
            raise ParameterError(
                f"step size h={h:.6g} must stay below the implicit-step bound "
                f"h0={cert.h0:.6g} for the unique-positive-root guarantee"
            )
        if cert.K > 0.0 and not h < 1.0 / cert.K:
            raise ParameterError(f"step size h={h:.6g} must stay below 1/K={1.0 / cert.K:.6g}")
        return cls(drift, grid, model.sigma_x, model.x0, solver)


@dataclass(frozen=True, eq=False)
class SolutionPath:
    """Discrete trajectories of the scheme plus per-step solver records.

    For one path ``values`` has length steps + 1 with values[0] = x0 and
    every node strictly positive; ``residuals[n]`` and ``iterations[n]``
    describe the root solve that produced values[n + 1].  ``iterations``
    has the smallest unsigned dtype that holds the solver's ``max_iter``
    (one byte at the default 200).  For a batch the
    arrays gain a leading path axis.  ``failures`` maps the row of each
    batch path whose integration failed to its :class:`IntegrationError`;
    such a row is frozen at the failing step, and its later nodes and
    residuals are NaN and its later iteration counts 0.  Immutable after
    construction; compares and hashes by identity.
    """

    values: np.ndarray
    residuals: np.ndarray
    iterations: np.ndarray
    failures: dict = field(default_factory=dict)


def _bracket_error(start: float, lo: float, hi: float) -> RootBracketError:
    """No sign change on the range a one-sided bracket covered from ``start``."""
    searched = (start, lo) if hi == math.inf else (hi, start)
    return RootBracketError(
        "no sign change of B(x) h - x + c found on "
        f"[{searched[0]:.3e}, {searched[1]:.3e}]; the implicit step equation "
        "appears to lack a positive root (unique-positive-root hypothesis)",
        interval=searched,
    )


def _nan_error(x) -> NumericalError:
    return NumericalError(
        f"drift evaluation produced NaN at x={float(x)!r} inside the bracket"
    )


def _solve(drift, h, c, solver, hb):
    """Solve B(x) h - x + c = 0 for every entry of the 1-D array ``c``.

    Each row starts from the explicit Euler predictor max(c + hb, 1e-30),
    where the array ``hb`` holds the finite B(X_n) h at each row's previous
    node; zeros give the cold start max(c, 1e-30).  On every row that
    converges, ``hb`` is overwritten with B(root) h, the next step's drift
    term, which is finite because the residual is.  Returns ``(root,
    residual, iterations, errors)``: three per-row arrays and a dict that
    maps each row that failed to its
    :class:`NumericalError`; the arrays hold meaningless values at those
    rows.  Run it under an ``np.errstate`` that ignores overflow, division
    and invalid operations: infinities near the ends of the search range are
    exactly what bracketing needs, and a NaN is rejected or reported per row.

    Each round evaluates g once on every row still iterating.  The common
    round, in which every row took a Newton step that cut |g| enough, skips
    the fallback and failure bookkeeping.  It gives the bits the general
    round would give, so it is there for speed alone, and it pays for itself
    where plain solves are frequent: on the coarse levels (2^4 to 2^9 steps)
    of a 100-path mean-reverting ladder chunk, about half of whose steps are
    plain solves, a copy without it wrote the same nodes in 0.097-0.100 s
    against 0.069-0.078 s (medians of 15 runs, one CPU of a 2-vCPU VM).
    """
    value, deriv = drift.value, drift.deriv1
    tol_abs, tol_rel = solver.tol_abs, solver.tol_rel
    max_iter, growth = solver.max_iter, solver.bracket_growth
    count = np.count_nonzero
    size = c.size
    root = np.empty(size)
    residual = np.empty(size)
    iterations = np.empty(size, dtype=np.int64)
    errors: dict[int, NumericalError] = {}
    idx = None  # rows still iterating, None while that is all of them
    x, cc = c + hb, c
    np.maximum(x, X_FLOOR, out=x)
    newton = redo = None
    all_newton = False
    for k in range(max_iter + 1):
        hx = value(x) * h
        if not isinstance(hx, np.ndarray):  # a drift that returned a scalar
            hx = np.full(x.shape, hx)
        gx = hx - x + cc
        agx = np.abs(gx)
        reject = retry = None
        if newton is not None:
            kept = agx <= NEWTON_MIN_DECREASE * a_old  # False on NaN
            if not all_newton:
                reject = newton & ~kept
            elif count(kept) < x.size:
                reject = ~kept
        failed = None
        if k == 0:
            done = agx <= tol_abs + tol_rel * x
            n_done = count(done)
            nan = np.isnan(gx)
            positive = gx > 0.0
            lo = np.where(positive, x, 0.0)
            hi = np.where(positive, np.inf, x)
            if count(nan):
                # a warm predictor that gave NaN is retried at the cold start,
                # with neither bracket end known; a cold start that did fails
                midpoint = np.maximum(cc, X_FLOOR)
                retry = nan & (x != midpoint)
                failed = nan & ~retry
                for j in failed.nonzero()[0]:
                    errors[int(j)] = _nan_error(x[j])
                hi[retry] = np.inf
        elif all_newton and reject is None:
            done = agx <= tol_abs + tol_rel * x
            n_done = count(done)
            if n_done == x.size:
                rows = slice(None) if idx is None else idx
                root[rows], residual[rows], hb[rows], iterations[rows] = (
                    x, gx, hx, k
                )
                break
            positive = gx > 0.0
            np.copyto(lo, x, where=positive)
            np.copyto(hi, x, where=~positive)
        else:
            nan = np.isnan(gx)
            positive = gx > 0.0
            np.copyto(lo, x, where=positive)
            np.copyto(hi, x, where=~(positive | nan))
            lost = None
            if count(nan):
                # A NaN is a rejected step: the row goes back to its last
                # finite point and next tries the geometric midpoint towards
                # the NaN, so each further NaN halves the log-distance.  A row
                # with no finite point yet fails.
                lost = nan & np.isnan(g_old)
                for j in lost.nonzero()[0]:
                    errors[int(j if idx is None else idx[j])] = _nan_error(x[j])
                retry, midpoint = nan & ~lost, np.sqrt(x_old) * np.sqrt(x)
                reject = nan if reject is None else reject | nan
            if reject is not None:
                x = np.where(reject, x_old, x)
                gx = np.where(reject, g_old, gx)
                agx = np.where(reject, a_old, agx)
            # expansion and shrinkage go on until the bracket has both ends
            redo = ~newton & ((lo == 0.0) | (hi == np.inf))
            if reject is not None:
                redo |= reject
            if not count(redo):
                redo = None
            done = agx <= tol_abs + tol_rel * x
            n_done = count(done)
            stuck = ~done & (hi - lo <= np.spacing(lo))
            for j in stuck.nonzero()[0]:
                errors[int(j if idx is None else idx[j])] = NumericalError(
                    f"root isolated to machine precision at x={float(x[j])!r} but "
                    f"the residual {float(gx[j]):.3e} misses the tolerance "
                    f"{tol_abs + tol_rel * float(x[j]):.3e}"
                )
            failed = stuck if lost is None else stuck | lost
        if k == max_iter:
            spent = ~done if failed is None else ~(done | failed)
            for j in spent.nonzero()[0]:
                lo_j, hi_j = float(lo[j]), float(hi[j])
                errors[int(j if idx is None else idx[j])] = (
                    _bracket_error(max(float(cc[j]), X_FLOOR), lo_j, hi_j)
                    if lo_j == 0.0 or hi_j == math.inf
                    else NumericalError(
                        f"implicit step did not converge within max_iter={max_iter} "
                        f"(bracket [{lo_j:.6e}, {hi_j:.6e}], residual "
                        f"{float(gx[j]):.3e})"
                    )
                )
            rows = done.nonzero()[0]
            if idx is not None:
                rows = idx[rows]
            root[rows], residual[rows], hb[rows], iterations[rows] = (
                x[done], gx[done], hx[done], k
            )
            break
        if failed is not None and count(failed):
            done_or_failed = done | failed
        else:
            done_or_failed = done if n_done else None
        if done_or_failed is not None:
            j = done.nonzero()[0]
            rows = j if idx is None else idx[j]
            root[rows], residual[rows], hb[rows], iterations[rows] = (
                x[j], gx[j], hx[j], k
            )
            j = (~done_or_failed).nonzero()[0]
            if not j.size:
                break
            idx = j if idx is None else idx[j]
            x, hx, gx, agx, cc, lo, hi = x[j], hx[j], gx[j], agx[j], cc[j], lo[j], hi[j]
            if redo is not None:
                redo = redo[j]
            if retry is not None:
                retry, midpoint = retry[j], midpoint[j]

        slope = deriv(x) * h - 1.0
        trial = x - gx / slope
        newton = (lo < trial) & (trial < hi)  # False on NaN
        if redo is not None:
            newton &= ~redo
        if retry is not None:
            newton &= ~retry
        all_newton = count(newton) == x.size
        if not all_newton:
            # First fallback: a Newton step in (log x, asinh g).  Both the
            # power law near 0 and the linear tail are straight lines there,
            # so it crosses decades where plain Newton crawls or overshoots.
            trial = np.where(
                newton,
                trial,
                x * np.exp(np.arcsinh(gx) * np.hypot(1.0, gx) / (-x * slope)),
            )
            # Last resort: expansion and shrinkage at least double the
            # log-distance from the start, so a root 30 decades away takes
            # about 7 steps, not 100; bisection halves the bracket in log x,
            # or in x once the log midpoint rounds onto an end.
            start = np.maximum(cc, X_FLOOR)
            mid = np.sqrt(lo) * np.sqrt(hi)
            mid = np.where((lo < mid) & (mid < hi), mid, 0.5 * (lo + hi))
            trial = np.where(
                (lo < trial) & (trial < hi),
                trial,
                np.where(
                    hi == np.inf,
                    np.minimum(lo * np.maximum(growth, lo / start), BRACKET_CEILING),
                    np.where(
                        lo == 0.0,
                        np.maximum(hi / np.maximum(growth, start / hi), BRACKET_FLOOR),
                        mid,
                    ),
                ),
            )
            if retry is not None:
                trial = np.where(retry, midpoint, trial)
        x_old, g_old, a_old = x, gx, agx
        x = trial
    return root, residual, iterations, errors


def _common_steps(drift, h, solver, x, hb, dsigma, rec):
    """Take the common step for every column of ``dsigma`` and check them all.

    From nodes ``x`` with drift terms ``hb``, step i takes the predictor
    x0 = max(c + hb, 1e-30) with c = x + dsigma[:, i], evaluates g0 there,
    takes one Newton step to x1 and evaluates g1 and B(x1) h, with exactly
    the arithmetic of :func:`_solve`; x1 and B(x1) h are the next step's
    nodes and drift terms.  ``rec`` holds, per step, the rows x0, g0, x1 and
    g1.  Returns the number of leading steps at which every row passed the
    tests under which :func:`_solve` ends its second round with that root:
    not done at the predictor, the Newton step strictly inside the bracket,
    |g1| <= |g0| / 4, and |g1| <= tol_abs + tol_rel * x1.  For those steps
    the x1 and g1 rows hold exactly the root and residual ``_solve``
    returns; the check overwrites the x0 and g0 rows, and the rest of
    ``rec`` is meaningless.  Each row of ``rec`` is contiguous, so every
    drift evaluation sees the same memory layout as in ``_solve``.
    """
    value, deriv = drift.value, drift.deriv1
    x0s, g0s, x1s, g1s = rec
    for i in range(dsigma.shape[1]):
        c = x + dsigma[:, i]
        x0 = np.add(c, hb, out=x0s[i])
        np.maximum(x0, X_FLOOR, out=x0)
        g0 = np.subtract(value(x0) * h, x0, out=g0s[i])
        g0 += c
        slope = deriv(x0) * h - 1.0
        x = np.subtract(x0, g0 / slope, out=x1s[i])
        hb = value(x) * h
        g1 = np.subtract(hb, x, out=g1s[i])
        g1 += c
    # The kernel's tests, in place over the x0 and g0 rows.  Its bracket
    # after the predictor is [x0, inf) where g0 > 0, else (0, x0]; x1 = inf
    # needs no test, since g1 is then not finite and fails the four-fold
    # decrease, and a NaN fails every comparison.
    tol_abs, tol_rel = solver.tol_abs, solver.tol_rel
    ok = np.where(g0s > 0.0, x1s > x0s, x1s < x0s)
    ok &= x1s > 0.0
    a0 = np.abs(g0s, out=g0s)
    tol = np.multiply(x0s, tol_rel, out=x0s)
    tol += tol_abs
    ok &= a0 > tol  # not done at the predictor
    a1 = np.abs(g1s, out=x0s)
    ok &= a1 <= np.multiply(a0, NEWTON_MIN_DECREASE, out=a0)
    tol = np.multiply(x1s, tol_rel, out=g0s)
    tol += tol_abs
    ok &= a1 <= tol
    passed = ok.all(axis=1)
    return int(passed.argmin()) if not passed.all() else passed.size


def integrate(scheme: SchemeConfig, noise: np.ndarray) -> SolutionPath:
    """Run the backward Euler recursion of ``scheme`` for one path or a batch.

    ``noise`` holds the driving increments dB_1..dB_N (unscaled; the noise
    intensity comes from ``scheme.sigma``), shape ``(steps,)`` for one path
    or ``(paths, steps)`` for a batch, on ``scheme.grid``.  One path is the
    batch of one: a failed step raises :class:`IntegrationError`.  In a batch
    a failed path is frozen and recorded in ``failures`` while the other
    paths go on.  The step size is not checked here: the scheme carries its
    drift, and :meth:`SchemeConfig.for_model` builds only admissible schemes.
    A pure function of its arguments, row by row: a path's trajectory is bit
    for bit the same in any batch.  This is the one block of
    :func:`integrate_blocks` that spans the grid.
    """
    noise = np.asarray(noise, dtype=float)
    failures: dict[int, IntegrationError] = {}
    [(_, values, residuals, iters)] = integrate_blocks(
        scheme, noise, scheme.grid.steps, failures, records=True
    )
    for arr in (values, residuals, iters):
        arr.setflags(write=False)
    if noise.ndim == 1:
        if failures:
            raise failures[0]
        values, residuals, iters = values[0], residuals[0], iters[0]
    return SolutionPath(values, residuals, iters, failures)


def integrate_blocks(
    scheme: SchemeConfig,
    noise: np.ndarray,
    block: int,
    failures: dict,
    *,
    records: bool = False,
):
    """Run the backward Euler recursion of ``scheme`` over its grid in time blocks.

    ``noise`` is as for :func:`integrate`, and as there the step size is not
    checked: the scheme carries its drift, checked by
    :meth:`SchemeConfig.for_model`.  Yields ``(first, values)`` for each block of ``block`` steps
    (the last may be shorter), with a leading path axis: ``values`` holds nodes
    first..first+B.  With ``records`` it yields ``(first, values, residuals,
    iterations)``, where ``residuals`` and ``iterations`` describe the
    solves of steps first..first+B-1 as in :class:`SolutionPath`.  A row
    whose integration fails is recorded in ``failures`` (row -> its
    :class:`IntegrationError`, which names the absolute step) and stays in
    place, frozen at the failing step as in :class:`SolutionPath`.  The
    nodes, their B(X_n) h, the live rows, the common-step schedule and its
    scratch rows carry from block to block, so the blocks are one run's
    arrays bit for bit, at one run's cost.

    One set of C-contiguous block arrays is allocated for the generator's
    lifetime and every block is written into it: a yielded block is valid
    until the next one is requested, and a caller that keeps a block copies
    it first.

    Each step's solve starts from the explicit Euler predictor
    X_n + sigma * dB_{n+1} + B(X_n) h.  The solve of the step before hands
    back B(X_n) h; the first step computes it at x0.

    Steps are taken in short blocks of the common step (predictor, one Newton
    step, the drift at the new node), at most ``COMMON_WIDTH`` steps and
    ``COMMON_ELEMENTS`` path-steps wide, and each block is checked at once
    with exactly the tests under which ``_solve`` would return that Newton
    iterate after one evaluation.  The block is kept up to the first step
    where any row fails them; that step is replayed through ``_solve`` from
    the kept nodes and their B(X_n) h, and so is every step whose failure or
    positivity loss freezes a row.  Which steps go which way changes the
    cost, never a bit of the result.
    """
    noise = np.asarray(noise, dtype=float)
    drift, solver, steps, h = scheme.drift, scheme.solver, scheme.grid.steps, scheme.grid.h
    if noise.ndim not in (1, 2) or noise.shape[-1] != steps:
        raise ParameterError(
            f"noise must have shape ({steps},) or (paths, {steps}), got shape {noise.shape}"
        )
    batch = noise.reshape(-1, steps)
    paths = batch.shape[0]
    sigma = scheme.sigma
    # the common-step blocks' rows, allocated before the block arrays: the
    # other order raised the moment probe's peak RSS by about 0.5 MB
    cap = max(1, min(COMMON_WIDTH, COMMON_ELEMENTS // paths))
    scratch = np.empty((4, cap, paths))
    # Each block array is the leading part of one flat buffer, so a short
    # last block is C-contiguous too: the callers' elementwise powers then
    # run the loops they run on a whole array.
    most = min(block, steps)
    node_buf = np.empty(paths * (most + 1))
    if records:
        residual_buf = np.empty(paths * most)
        iter_buf = np.empty(paths * most, np.min_scalar_type(solver.max_iter))
    x = np.full(paths, scheme.x0)
    live = slice(None)  # rows still integrating
    # B(X_n) h, the predictor's drift term, which each solve overwrites with
    # the next.  A node where it is not finite has no predictor: that row
    # starts cold.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        hb = drift.value(x) * h
    hb = np.where(np.isfinite(hb), hb, np.zeros(paths))
    # A block of ``width`` common steps is tried once the last plain solve
    # looked common (``ready``); the width doubles while whole blocks pass and
    # halves when one fails.  A block that fails at its first step, or a
    # plain solve that did not look common, waits ``gap`` plain steps before
    # the next look, doubling the gap each time, so coarse grids, where the
    # common step rarely holds for every row, spend almost nothing on it.
    width, ready, wait, gap = 1, False, 1, 1

    # entered per block, never held across a yield: the consumer folds each
    # block under its own error state
    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def take(start, steps):
        """Steps start..start+steps-1 of every row, from the carried state."""
        nonlocal x, hb, live, width, ready, wait, gap
        # a row that fails stays NaN, and its iteration counts 0, from the
        # failing step on: only live rows are written
        values = node_buf[: paths * (steps + 1)].reshape(paths, steps + 1)
        values.fill(np.nan)
        if records:
            residuals = residual_buf[: paths * steps].reshape(paths, steps)
            residuals.fill(np.nan)
            iters = iter_buf[: paths * steps].reshape(paths, steps)
            iters.fill(0)
        values[live, 0] = x
        n = 0
        while n < steps and x.size:
            if ready:
                span = min(width, steps - n)
                dsigma = sigma * batch[live, start + n : start + n + span]
                rec = scratch[:, :span, : x.size]
                took = _common_steps(drift, h, solver, x, hb, dsigma, rec)
                if took:
                    x1s, g1s = rec[2:]
                    values[live, n + 1 : n + 1 + took] = x1s[:took].T
                    if records:
                        residuals[live, n : n + took] = g1s[:took].T
                        iters[live, n : n + took] = 1
                    x = x1s[took - 1].copy()
                    # B(x) h again, bit for bit what the block computed there
                    hb = np.multiply(drift.value(x), h, out=np.empty_like(x))
                    n += took
                if took == span:
                    width = min(2 * width, cap)
                    continue
                width = max(width // 2, 1)
                if took:
                    wait, gap = 1, 1
                else:
                    wait, gap = gap, 2 * gap
                ready = False
            # the plain step: one solve of step n through the full kernel
            c = x + sigma * batch[live, start + n]
            x, res, it, errors = _solve(drift, h, c, solver, hb)
            positive = x > 0.0
            if errors or np.count_nonzero(positive) < x.size:
                lost = ~positive
                rows = np.arange(paths)[live]
                step = start + n
                for j in sorted(errors.keys() | set(np.flatnonzero(lost).tolist())):
                    if j in errors:
                        err = IntegrationError(
                            f"implicit step failed at step {step}: {errors[j]}",
                            step=step,
                        )
                        err.__cause__ = errors[j]
                    else:
                        err = IntegrationError(
                            f"positivity lost at step {step}: root {float(x[j])!r}",
                            step=step,
                        )
                    failures[int(rows[j])] = err
                    lost[j] = True
                keep = ~lost
                live, x, res, it = rows[keep], x[keep], res[keep], it[keep]
                hb = hb[keep]
                if not x.size:
                    break
            values[live, n + 1] = x
            if records:
                residuals[live, n] = res
                iters[live, n] = it
            n += 1
            wait -= 1
            if wait <= 0:
                # no row needed more than one evaluation after the predictor
                ready = it.max() <= 1
                if not ready:
                    wait, gap = gap, 2 * gap
        return (values, residuals, iters) if records else (values,)

    for first in range(0, steps, block):
        yield (first, *take(first, min(block, steps - first)))

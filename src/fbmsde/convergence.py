"""Strong-convergence experiments on coupled step ladders.

One experiment generates, per path, a single fine fBM realization at the
reference level 2^k_ref, integrates the implicit scheme there, then re-runs
the scheme at each coarser level 2^k using block-summed increments of the
same realization.  Errors are sup norms over the reference nodes:

* ``x_interp``  sup_t |X^{h_k}(t) - X^{ref}(t)| with the coarse path read
  through its piecewise-linear interpolant (carries the sqrt-log factor),
* ``x_node``    max over shared nodes of the raw node difference,
* ``y_interp``/``y_node``  the same after mapping X back to original
  coordinates through Y = X^l.

Per level, the L^p estimate is (mean over paths of e^p)^{1/p} with a
bootstrap standard error; empirical orders come from least squares on
log e vs log h, optionally after dividing out the logarithmic correction
sqrt(log(1 + 1/h)) (positive-power transforms) or log(1 + 1/h)
(negative-power transforms).

Everything is deterministic given the plan: paths are seeded by
``mix_seed(master_seed, path_index)`` and aggregation folds results in path
order, so the report is identical for any worker count.  Paths are integrated
in chunks through the path-batched solver, and the reference in time blocks
streamed from it: a chunk holds its noise and one block of solver arrays,
and the sup errors are folded into running maxima block by block.  Chunk
boundaries depend on the worker count, but the solver never mixes values
across paths, carries its state from block to block, and max is an exact
reduction, so neither chunks, blocks nor the worker count move any number.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .drifts import ModelSpec
from .errors import FbmsdeError, IntegrationError, NumericalError, ParameterError, require
from .fbm import DEFAULT_SAMPLER, METHOD_RULE, TimeGrid, make_sampler, mix_seed, subsample
from .solver import SchemeConfig, SolverSettings, integrate, integrate_blocks

__all__ = [
    "ExperimentPlan",
    "LevelEstimate",
    "OrderFit",
    "ConvergenceReport",
    "MomentProbe",
    "ProbePlan",
    "run_strong_error",
    "fit_order",
    "moment_probe",
    "modulus_rungs",
    "critical_horizon",
]

ERROR_KINDS = ("x_interp", "x_node", "y_interp", "y_node")
BOOTSTRAP_RESAMPLES = 1000
# Resamples drawn per block; the blocks concatenate to the same index stream
# as one draw of all resamples, without its resamples x paths index matrix.
BOOTSTRAP_BLOCK = 100
# Path-steps drawn as one chunk of paths.  The batched solver's cost per step
# is mostly fixed overhead, so wider chunks are faster.  A chunk holds its
# noise, 8 bytes per path-step (8 MB at this budget), plus one block: it gives
# 100-path chunks for a 200-path ladder at a 2^13 reference and one 500-path
# chunk for a 500-path probe at 2^11 steps.
CHUNK_PATH_STEPS = 2**20
# Path-steps of one time block of a chunk.  The solver writes every block's
# nodes, 8 bytes per path-step (0.5 MB), into one buffer, and each caller
# folds them through buffers of its own allocated once per chunk: the
# ladder's reference y-values and two sup-error scratch blocks, the probe's
# block with the modulus ladder's tail in front.
BLOCK_PATH_STEPS = 2**16
# Nodes per row tile of the modulus ladder's fold: its shrinking max and min
# arrays, their successors and their difference, 8 bytes per node each,
# stay near 0.3 MB.
MODULUS_TILE_ELEMENTS = 2**13
# Path index reserved for the bootstrap RNG stream; far above any real path.
BOOTSTRAP_STREAM = 1 << 62
# Default admissible horizon for critical (alpha = 1) models at p <= 2.
CRITICAL_HORIZON_DEFAULT = 1.0


@dataclass(frozen=True)
class ExperimentPlan:
    """A coupled step-ladder experiment: levels 2^k_min .. 2^k_max against 2^k_ref.

    ``rules`` holds the plan's rules as the (key, message, test) entries of
    ``errors.broken_rules``: the grid's horizon rule, the fit's three ladder
    levels, the reference gap that keeps its bias negligible, two paths for
    the bootstrap, and the method rule.  :meth:`scheme` builds the model's
    scheme on a level's grid; the constructor builds it at k_min, the
    coarsest level, so a plan whose step is not admissible is refused before
    any path is drawn.
    """

    rules = (
        TimeGrid.rules[0],  # horizon
        ("p", "must be a finite number >= 1, got {p}", lambda p: 1.0 <= p < math.inf),
        ("k_min", "must be an integer >= 1, got {k_min}", lambda k_min: k_min >= 1),
        ("k_max", "order fits need at least 3 ladder levels (k_max >= k_min + 2), "
         "got k_min={k_min}, k_max={k_max}", lambda k_min, k_max: k_max >= k_min + 2),
        ("k_ref", "must be at least k_max + 3 to keep the reference bias negligible, "
         "got k_ref={k_ref}, k_max={k_max}", lambda k_max, k_ref: k_ref >= k_max + 3),
        ("paths", "must be an integer >= 2, got {paths}", lambda paths: paths >= 2),
        METHOD_RULE,
    )
    model: ModelSpec
    horizon: float
    p: float
    k_min: int
    k_max: int
    k_ref: int
    paths: int
    master_seed: int
    method: str = DEFAULT_SAMPLER
    solver: SolverSettings = SolverSettings()

    def __post_init__(self):
        require(self.rules, vars(self))
        self.scheme(self.k_min)  # the coarsest level's step must be admissible
        if self.model.drift()[1].alpha_regime == "critical" and (
            self.horizon > CRITICAL_HORIZON_DEFAULT or self.p > 2.0
        ):
            warnings.warn(
                "critical-regime model (alpha = 1): the convergence guarantee "
                f"holds only for small horizons; T={self.horizon}, p={self.p} "
                f"exceeds the default window T<={CRITICAL_HORIZON_DEFAULT}, p<=2",
                stacklevel=3,  # the line that builds the plan, past its __init__
            )

    @property
    def levels(self) -> list[int]:
        return list(range(self.k_min, self.k_max + 1))

    def scheme(self, k: int) -> SchemeConfig:
        """The model's scheme on the 2^k-step grid over [0, horizon]."""
        return SchemeConfig.for_model(self.model, TimeGrid(self.horizon, 2**k), self.solver)


@dataclass(frozen=True)
class LevelEstimate:
    k: int
    steps: int
    h: float
    errors: dict  # kind -> {"e": float, "stderr": float}


@dataclass(frozen=True)
class OrderFit:
    slope: float
    intercept: float
    slope_stderr: float


@dataclass(frozen=True)
class ConvergenceReport:
    plan: dict
    levels: list[LevelEstimate]
    fits: dict  # kind -> {correction_name: OrderFit}
    targets: dict  # kind -> float
    order_band: dict  # {"kind", "mode", "tolerance", "target", "observed", "passed"}
    trend_ok: bool
    incomplete: bool
    failures: list
    # (kept path indices, errors with axes (level, kind, kept path))
    per_path_errors: tuple[np.ndarray, np.ndarray]

    @property
    def passed(self) -> bool:
        return bool(self.order_band["passed"]) and not self.incomplete

    def to_dict(self) -> dict:
        """Every field but the per-path errors, and ``passed``."""
        report = asdict(self)
        del report["per_path_errors"]
        return {**report, "passed": self.passed}


def _log_correction(h: np.ndarray, name: str) -> np.ndarray:
    if name == "none":
        return np.ones_like(h)
    if name == "sqrt_log":
        return np.sqrt(np.log1p(1.0 / h))
    if name == "log":
        return np.log1p(1.0 / h)
    raise ParameterError(f"unknown correction {name!r}")


def fit_order(levels: Iterable[tuple[float, float]], correction: str = "none") -> OrderFit:
    """Least-squares slope of log(e / corr(h)) against log h.

    ``levels`` yields (h, e) pairs; at least three are required and all error
    estimates must be positive.  The fit is unweighted, and the slope
    standard error is the usual OLS one.
    """
    rows = list(levels)
    if len(rows) < 3:
        raise ParameterError(f"order fit needs at least 3 levels, got {len(rows)}")
    h, e = np.array(rows, dtype=float).T
    if np.any(e <= 0.0):
        raise ParameterError("order fit requires strictly positive error estimates")
    x = np.log(h)
    y = np.log(e / _log_correction(h, correction))
    n = x.size
    x_bar, y_bar = x.mean(), y.mean()
    sxx = float(np.sum((x - x_bar) ** 2))
    slope = float(np.sum((x - x_bar) * (y - y_bar)) / sxx)
    intercept = y_bar - slope * x_bar
    resid = y - (intercept + slope * x)
    variance = float(np.sum(resid**2)) / max(n - 2, 1)
    return OrderFit(
        slope=slope,
        intercept=float(intercept),
        slope_stderr=math.sqrt(variance / sxx),
    )


def _available_cpus() -> int:
    """The number of CPUs this process may run on (its affinity, where known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(paths: int, steps: int, workers: int = 1) -> list[tuple[int, int]]:
    """Path ranges [start, stop) of near-equal size for paths of ``steps`` steps.

    Each chunk holds at most ``CHUNK_PATH_STEPS // steps`` paths, and at least
    one, and there are at least ``min(workers, paths)`` chunks, so that every
    worker gets one.
    """
    count = max(-(-paths // max(1, CHUNK_PATH_STEPS // steps)), min(workers, paths))
    bounds = [paths * i // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _draw_chunk(
    sampler, master_seed: int, start: int, stop: int, factors: Iterable[int]
) -> dict[int, np.ndarray]:
    """Increments of paths start..stop-1 coarsened by each block factor.

    The paths are drawn as one batch, each from its own seed and bitwise as a
    single draw would be, and coarsened with :func:`subsample`; the result
    maps each factor to a read-only (paths, steps / factor) array.
    """
    noise = sampler.sample(master_seed, range(start, stop))
    return {f: subsample(noise, f) for f in factors}


def _raise_first_failure(failures: dict, start: int) -> None:
    """Abort on the lowest failed row of a chunk starting at path ``start``."""
    if failures:
        row = min(failures)
        err = failures[row]
        raise IntegrationError(f"path {start + row}: {err}", step=err.step) from err


def _max_abs(d: np.ndarray, axis) -> np.ndarray:
    """max |d| over ``axis``, without an array of |d|."""
    return np.maximum(d.max(axis=axis), -d.min(axis=axis))


def _sup_errors(
    coarse: np.ndarray,
    ref: np.ndarray,
    y_ref: np.ndarray,
    factor: int,
    inverse_exponent: float,
    first: int,
    work: np.ndarray,
) -> np.ndarray:
    """Sup-norm errors of coarse paths' nodes against reference nodes.

    ``coarse`` holds every node of the coarse paths and ``ref`` reference
    nodes first..first+B along the last axis, with ``first`` and B multiples
    of ``factor``; ``y_ref`` is ``ref ** inverse_exponent``, which the
    caller computes once for all the levels it compares.  ``work`` is flat
    scratch of at least twice B entries per path, which the caller reuses
    for every level and block.  Returns the maxima over those
    reference nodes with shape (len(ERROR_KINDS), paths), one row per kind
    in ``ERROR_KINDS`` order.
    """
    lead, steps = ref.shape[:-1], ref.shape[-1] - 1
    cells = steps // factor
    size = math.prod(lead) * steps
    # The reference nodes before the block's last one, as (cell, sub-node):
    # sub-node s of a coarse cell lies s / factor of the way across it, and
    # the coarse path's piecewise-linear read there weighs the cell's two
    # ends by 1 - s / factor and s / factor.  Sub-node 0 is the coarse node
    # itself, exactly, and so is the block's last reference node, so the
    # node errors cover that last column.
    shape = lead + (cells, factor)
    ends = coarse[..., first // factor : first // factor + cells + 1, np.newaxis]
    weight = np.arange(factor) / factor
    interp = np.multiply(ends[..., :-1, :], 1.0 - weight, out=work[:size].reshape(shape))
    diff = np.multiply(ends[..., 1:, :], weight, out=work[size : 2 * size].reshape(shape))
    interp += diff
    cells_axes = (-2, -1)
    np.subtract(interp, ref[..., :steps].reshape(shape), out=diff)
    x_interp = _max_abs(diff, cells_axes)
    np.power(interp, inverse_exponent, out=interp)
    np.subtract(interp, y_ref[..., :steps].reshape(shape), out=diff)
    y_interp = _max_abs(diff, cells_axes)
    nodes = ends[..., 0]
    x_node = _max_abs(nodes - ref[..., ::factor], -1)
    y_node = _max_abs(nodes**inverse_exponent - y_ref[..., ::factor], -1)
    return np.stack([
        np.maximum(x_interp, x_node),
        x_node,
        np.maximum(y_interp, y_node),
        y_node,
    ])


def _ladder_chunk(
    plan: ExperimentPlan, start: int, stop: int
) -> tuple[np.ndarray, dict[int, tuple]]:
    """Errors of every ladder level against the 2^k_ref reference.

    Covers paths start..stop-1 and returns ``(errors, failures)``.
    ``errors`` has shape (len(plan.levels), len(ERROR_KINDS), paths): the
    sup errors of each level against the reference, per kind and path.
    ``failures`` maps each failed row to (path, level, step), naming the
    reference if the row failed there, else its lowest failing level; a
    failed row's errors are meaningless.  The noise is drawn once at the
    reference and block-summed to every level.  Each level is integrated
    once as one batch, and only its nodes are kept; the reference is then
    integrated in time blocks of about ``BLOCK_PATH_STEPS`` path-steps, a
    multiple of the coarsest factor so that every block holds a node of
    every level, and each block is folded into the running per-path sup
    errors.
    """
    reference = plan.scheme(plan.k_ref)
    sampler = make_sampler(plan.method, plan.model.hurst, reference.grid)
    factors = {k: 2 ** (plan.k_ref - k) for k in (plan.k_ref, *plan.levels)}
    noise = _draw_chunk(sampler, plan.master_seed, start, stop, factors.values())
    l_exp = plan.model.inverse_exponent
    size = stop - start
    level_failures: dict[int, tuple] = {}
    coarse = []  # every node of every row, per level
    for k in plan.levels:
        sol = integrate(plan.scheme(k), noise[factors[k]])
        for row, err in sol.failures.items():
            level_failures.setdefault(row, (start + row, k, err.step))
        coarse.append(sol.values)
    ref_noise = noise[factors[plan.k_ref]]
    # the last level's residuals and iterations and the levels' noise are
    # never read again: free them before the reference allocates its blocks
    del sol, noise
    ref_failures: dict = {}
    errors = np.zeros((len(plan.levels), len(ERROR_KINDS), size))
    coarsest = factors[plan.k_min]
    block = min(max(1, BLOCK_PATH_STEPS // (size * coarsest)) * coarsest, 2**plan.k_ref)
    blocks = integrate_blocks(reference, ref_noise, block, ref_failures)
    # reused by every block and level: the reference's y-values, and the
    # scratch of ``_sup_errors``
    y_buf = np.empty(size * (block + 1))
    work = np.empty(2 * size * block)
    for first, values in blocks:
        y_values = np.power(values, l_exp, out=y_buf[: values.size].reshape(values.shape))
        for k, nodes, running in zip(plan.levels, coarse, errors):
            block_errors = _sup_errors(nodes, values, y_values, factors[k], l_exp, first, work)
            np.maximum(running, block_errors, out=running)
    failures = {
        row: (start + row, plan.k_ref, err.step) for row, err in ref_failures.items()
    }
    for row, failure in level_failures.items():
        failures.setdefault(row, failure)
    return errors, failures


def _p_mean(values: np.ndarray, p: float) -> float:
    return float(np.mean(values**p) ** (1.0 / p))


def _bootstrap_stderr(values: np.ndarray, p: float, rng: np.random.Generator) -> float:
    n = values.size
    stats = np.empty(BOOTSTRAP_RESAMPLES)
    for first in range(0, BOOTSTRAP_RESAMPLES, BOOTSTRAP_BLOCK):
        block = stats[first : first + BOOTSTRAP_BLOCK]
        draws = rng.integers(0, n, size=(block.size, n))
        block[:] = np.mean(values[draws] ** p, axis=1) ** (1.0 / p)
    return float(np.std(stats, ddof=1))


def _y_correction(model: ModelSpec) -> str:
    return "sqrt_log" if model.inverse_exponent > 0.0 else "log"


def _targets(model: ModelSpec) -> dict:
    hurst = model.hurst
    l_abs = abs(model.inverse_exponent)
    if model.inverse_exponent > 0.0:
        y_target = hurst * min(l_abs, 1.0)
    else:
        y_target = (2.0 * hurst - 1.0) * min(l_abs, 1.0)
    return {
        "x_interp": hurst,
        "x_node": hurst,
        "y_interp": y_target,
        "y_node": y_target,
    }


def run_strong_error(plan: ExperimentPlan, workers: int = 1) -> ConvergenceReport:
    """Execute the coupled ladder experiment and fit empirical orders.

    Paths are processed in chunks sized for the reference grid, at least
    one per worker (see :func:`_chunks`), by a process pool when
    ``workers > 1``; ``workers`` is capped at :func:`_available_cpus`, since
    more processes than CPUs only add overhead.  Results are folded in path
    order either way, so the report does not depend on the pool size.
    Failed paths are recorded as (path, level, step) triples and excluded
    from the aggregates, marking the report incomplete; when every path
    fails there is nothing to report and :class:`NumericalError` names the
    failures.
    """
    workers = min(workers, _available_cpus())
    starts, stops = zip(*_chunks(plan.paths, 2**plan.k_ref, workers))
    if workers > 1:
        # imported here: the pool's modules (multiprocessing, socket, logging,
        # subprocess) would otherwise load into every command.  The samplers'
        # numpy.random and numpy.fft are imported before the fork, so that
        # the workers share the parent's pages of them instead of each
        # importing its own copy on its first draw; a single process imports
        # them on that draw.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        from numpy import fft, random  # noqa: F401

        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(starts))) as pool:
                chunks = list(pool.map(_ladder_chunk, [plan] * len(starts), starts, stops))
        except BrokenProcessPool as exc:
            raise FbmsdeError(
                "a ladder worker process died before returning its paths "
                f"(killed by a signal or out of memory?): {exc}"
            ) from exc
    else:
        chunks = list(map(_ladder_chunk, [plan] * len(starts), starts, stops))
    chunk_errors, chunk_failures = zip(*chunks)
    failures = [by_row[row] for by_row in chunk_failures for row in sorted(by_row)]
    if len(failures) == plan.paths:
        raise NumericalError(
            f"all {plan.paths} paths failed, so no error estimate exists; "
            f"failed (path, level, step): {[list(f) for f in failures]}"
        )
    kept = np.ones(plan.paths, dtype=bool)
    kept[[path for path, _, _ in failures]] = False
    errors = np.concatenate(chunk_errors, axis=-1)[..., kept]

    boot_rng = np.random.default_rng(mix_seed(plan.master_seed, BOOTSTRAP_STREAM))
    levels: list[LevelEstimate] = []
    for k, by_kind in zip(plan.levels, errors):
        grid = plan.scheme(k).grid
        estimates = {}
        for kind, e in zip(ERROR_KINDS, by_kind):
            mean, stderr = _p_mean(e, plan.p), _bootstrap_stderr(e, plan.p, boot_rng)
            # a large p can take e^p out of float range, to 0.0 or inf
            if not (0.0 < mean < math.inf and math.isfinite(stderr)):
                raise NumericalError(
                    f"level {k} {kind}: the p={plan.p} error estimate is {mean!r} with "
                    f"bootstrap stderr {stderr!r}; an order fit needs a finite "
                    "positive estimate and a finite stderr"
                )
            estimates[kind] = {"e": mean, "stderr": stderr}
        levels.append(LevelEstimate(k=k, steps=grid.steps, h=grid.h, errors=estimates))

    fits: dict[str, dict[str, OrderFit]] = {}
    y_corr = _y_correction(plan.model)
    for kind in ERROR_KINDS:
        rows = [(lv.h, lv.errors[kind]["e"]) for lv in levels]
        corr = y_corr if kind.startswith("y") else "sqrt_log"
        fits[kind] = {
            "none": fit_order(rows, "none"),
            corr: fit_order(rows, corr),
        }

    targets = _targets(plan.model)
    corrected = fits["y_interp"][y_corr].slope
    band_tol = 0.15
    if plan.model.inverse_exponent > 0.0:
        passed = abs(corrected - targets["y_interp"]) <= band_tol
        mode = "two_sided"
    else:
        # the theoretical rate is an upper bound on the error, so only
        # undershoot fails
        passed = corrected >= targets["y_interp"] - band_tol
        mode = "lower"
    order_band = {
        "kind": "y_interp",
        "correction": y_corr,
        "mode": mode,
        "tolerance": band_tol,
        "target": targets["y_interp"],
        "observed": corrected,
        "passed": bool(passed),
    }

    trend_ok = _monotone_trend(levels, "y_interp")

    return ConvergenceReport(
        plan=_plan_dict(plan),
        levels=levels,
        fits=fits,
        targets=targets,
        order_band=order_band,
        trend_ok=trend_ok,
        incomplete=bool(failures),
        failures=[list(f) for f in failures],
        per_path_errors=(np.flatnonzero(kept), errors),
    )


def _monotone_trend(levels: list[LevelEstimate], kind: str) -> bool:
    """Errors should fall as the grid refines; one statistical inversion is allowed."""
    inversions = 0
    for prev, cur in zip(levels, levels[1:]):
        e_prev, se_prev = prev.errors[kind]["e"], prev.errors[kind]["stderr"]
        e_cur, se_cur = cur.errors[kind]["e"], cur.errors[kind]["stderr"]
        if e_cur > e_prev + 2.0 * math.hypot(se_prev, se_cur):
            inversions += 1
    return inversions <= 1


def _plan_dict(plan: ExperimentPlan) -> dict:
    """The plan's fields, its model's family among them, except the solver settings."""
    block = asdict(plan)
    del block["solver"]
    block["model"]["family"] = plan.model.family
    return block


# ---------------------------------------------------------------------------
# Moment and modulus probes
# ---------------------------------------------------------------------------


def _repeated_order(p_list) -> str:
    return f"duplicate order {next(p for i, p in enumerate(p_list) if p in p_list[:i])}"


@dataclass(frozen=True)
class ProbePlan:
    """A moment and modulus probe: ``paths`` paths of ``steps`` steps over [0, horizon].

    ``rules`` holds the probe's rules as the (key, message, test) entries of
    ``errors.broken_rules``: the grid's horizon and step rules, the path
    count, the orders, the rung count and the method rule.  The orders are
    checked as floats: 2 and 2.0 are one order, which would fold twice into
    one moment.  ``simulate`` reads these rules too.  The constructor takes
    ``p_list`` as floats, raises :class:`ParameterError` for a broken rule,
    builds the scheme, which refuses a step that is not admissible (also
    :class:`ParameterError`), and warns when a critical-regime model's
    horizon exceeds the window of its largest order, all before any path is
    drawn.
    """

    rules = (
        *TimeGrid.rules,
        ("paths", "must be an integer >= 1, got {paths}", lambda paths: paths >= 1),
        ("p_list", "must be a non-empty list of positive finite numbers",
         lambda p_list: bool(p_list) and all(0.0 < p < math.inf for p in p_list)),
        ("p_list", _repeated_order, lambda p_list: len(set(p_list)) == len(p_list)),
        ("ladder_rungs", "must be an integer >= 1, got {ladder_rungs}",
         lambda ladder_rungs: ladder_rungs >= 1),
        METHOD_RULE,
    )
    model: ModelSpec
    horizon: float
    steps: int
    paths: int
    p_list: tuple[float, ...]
    master_seed: int
    ladder_rungs: int = 6
    method: str = DEFAULT_SAMPLER
    solver: SolverSettings = SolverSettings()

    def __post_init__(self):
        object.__setattr__(self, "p_list", tuple(float(p) for p in self.p_list))
        require(self.rules, vars(self))
        self.scheme()  # the step must be admissible
        cert = self.model.drift()[1]
        if cert.alpha_regime == "critical":
            p_max = max(self.p_list)
            t_admissible = critical_horizon(cert, self.model.hurst, p_max)
            if self.horizon > t_admissible:
                warnings.warn(
                    f"critical-regime model: negative moments of order {p_max} "
                    f"are only guaranteed up to T~{t_admissible:.4g}, got T={self.horizon}",
                    stacklevel=3,  # the line that builds the plan, past its __init__
                )

    def scheme(self) -> SchemeConfig:
        """The model's scheme on the ``steps``-step grid over [0, horizon]."""
        return SchemeConfig.for_model(self.model, TimeGrid(self.horizon, self.steps), self.solver)


@dataclass(frozen=True)
class MomentProbe:
    """Monte Carlo estimates of extreme-value moments and modulus ratios."""

    plan: ProbePlan
    negative_moments: dict  # p -> E max_n X_n^{-p}
    positive_moments: dict  # p -> E max_n X_n^{p}
    ladder_h: tuple[float, ...]
    modulus_ratios: tuple[float, ...]

    def to_dict(self) -> dict:
        plan = self.plan
        return {
            "p_list": list(plan.p_list),
            "negative_moments": {str(k): v for k, v in self.negative_moments.items()},
            "positive_moments": {str(k): v for k, v in self.positive_moments.items()},
            "ladder_h": list(self.ladder_h),
            "modulus_ratios": list(self.modulus_ratios),
            "steps": plan.steps,
            "paths": plan.paths,
            "horizon": plan.horizon,
            "master_seed": plan.master_seed,
        }


def _fold_moduli(moduli: np.ndarray, values: np.ndarray, rungs: int) -> None:
    """Fold each row's sup |X_t - X_s| over node pairs at most 2^j apart into ``moduli``.

    ``values`` has shape (rows, n) and ``moduli`` (rows, rungs); column j of
    ``moduli`` becomes the larger of itself and the row's modulus over pairs
    at most 2^j indices apart, j < ``rungs``.  The running max and min over
    every window of 2w + 1 nodes are the max and min of two overlapping
    windows of w + 1 nodes, so each rung costs O(n).  Rows are taken
    ``MODULUS_TILE_ELEMENTS // n`` at a time, so the shrinking max and min
    arrays stay small whatever the row count.  Max, min and the differences
    are exact, so the result is the same as reducing each window directly.
    """
    tile = max(1, MODULUS_TILE_ELEMENTS // values.shape[1])
    for top in range(0, values.shape[0], tile):
        hi = lo = values[top : top + tile]
        out = moduli[top : top + tile]
        width = 0
        for j in range(rungs):
            shift = max(width, 1)
            hi = np.maximum(hi[:, :-shift], hi[:, shift:])
            lo = np.minimum(lo[:, :-shift], lo[:, shift:])
            width += shift
            np.maximum(out[:, j], np.max(hi - lo, axis=1), out=out[:, j])


def _fold_power(total: float, values: np.ndarray, p: float, moment: str) -> float:
    """``total`` plus each of ``values`` to the power -p or p, in row order.

    The sum is kept in Python floats, so it is the same at any chunk size.
    A power or a partial sum past the float range is a :class:`NumericalError`
    that names the order and the moment.
    """
    power = -p if moment == "negative" else p
    try:
        for v in values.tolist():
            total += v**power
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise NumericalError(
            f"the p={p} {moment} moment E sup X^{power} is out of float range"
        )
    return total


def _modulus_envelope(h: np.ndarray, hurst: float) -> np.ndarray:
    return h + h**hurst * np.sqrt(np.log1p(1.0 / h))


def modulus_rungs(ladder_rungs: int, steps: int) -> int:
    """The modulus ladder's rung count on a ``steps``-step grid.

    ``ladder_rungs``, capped at log2(steps) - 1 so that the widest window,
    2^(rungs - 1) steps, spans at most a quarter of the grid.
    """
    return max(0, min(ladder_rungs, int(math.log2(steps)) - 1))


def moment_probe(plan: ProbePlan) -> MomentProbe:
    """Estimate E sup X^{-p}, E sup X^{p}, and modulus-of-continuity ratios.

    The modulus ladder uses window widths h * 2^j for j below
    ``modulus_rungs(plan.ladder_rungs, plan.steps)``, and reports E
    modulus(h_j) divided by the envelope h + h^H sqrt(log(1 + 1/h)).  The
    plan's constructor has checked its rules and its step.
    """
    model, steps, paths, p_list = plan.model, plan.steps, plan.paths, plan.p_list
    scheme = plan.scheme()
    sampler = make_sampler(plan.method, model.hurst, scheme.grid)
    rungs = modulus_rungs(plan.ladder_rungs, steps)
    windows = [2**j for j in range(rungs)]
    reach = 2 ** (rungs - 1) if rungs else 0  # widest window, in steps
    neg = {p: 0.0 for p in p_list}
    pos = {p: 0.0 for p in p_list}
    modulus = np.zeros(len(windows))
    for start, stop in _chunks(paths, steps):
        size = stop - start
        noise = sampler.sample(plan.master_seed, range(start, stop))
        v_max, v_min = np.full(size, -np.inf), np.full(size, np.inf)
        moduli = np.zeros((size, rungs))
        failures: dict = {}
        # each block is read with the ``reach`` nodes before it in front, so
        # every window of the modulus ladder lies inside one extended block;
        # the block is copied in after them, and its own last ``reach`` nodes
        # before its end move to the front for the next block
        block = min(max(reach, BLOCK_PATH_STEPS // size, 1), steps)
        ext = np.empty((size, reach + block + 1))
        lead = reach  # where this block's extended read starts in ``ext``
        blocks = integrate_blocks(scheme, noise, block, failures)
        for _, values in blocks:
            if failures:
                continue  # finished only to name the chunk's lowest failed path
            end = reach + values.shape[1]
            ext[:, reach:end] = values
            np.maximum(v_max, values.max(axis=1), out=v_max)
            np.minimum(v_min, values.min(axis=1), out=v_min)
            _fold_moduli(moduli, ext[:, lead:end], rungs)
            ext[:, :reach] = ext[:, end - 1 - reach : end - 1]
            lead = 0
        _raise_first_failure(failures, start)
        for p in p_list:
            neg[p] = _fold_power(neg[p], v_min, p, "negative")
            pos[p] = _fold_power(pos[p], v_max, p, "positive")
        for row in moduli:
            modulus += row
        del noise  # free this chunk before the next one is drawn
    for p in p_list:
        neg[p] /= paths
        pos[p] /= paths
    modulus /= paths
    ladder_h = scheme.grid.h * np.asarray(windows, dtype=float)
    ratios = modulus / _modulus_envelope(ladder_h, model.hurst)
    return MomentProbe(
        plan=plan,
        negative_moments=neg,
        positive_moments=pos,
        ladder_h=tuple(float(v) for v in ladder_h),
        modulus_ratios=tuple(float(v) for v in ratios),
    )


def critical_horizon(cert, hurst: float, p: float) -> float:
    """Largest T with h1_min >= ((p+1) v q) H T^{2H-1} exp(K^+ T).

    This is the admissibility window for negative moments of order p in the
    critical alpha = 1 regime.  The right-hand side is strictly increasing in
    T, so the crossing is found by bisection; returns ``inf`` when the bound
    never binds within astronomically large horizons.  Both sides are
    compared in logs, since exp(K T) overflows long before T reaches them.
    """
    log_factor = math.log(max(p + 1.0, cert.q) * hurst)
    log_h1 = math.log(cert.h1_min)

    def binds(t: float) -> bool:
        log_rhs = log_factor + (2.0 * hurst - 1.0) * math.log(t) + max(cert.K, 0.0) * t
        return log_rhs > log_h1

    if not binds(1e12):
        return math.inf
    lo, hi = 0.0, 1.0
    while not binds(hi):
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if binds(mid):
            hi = mid
        else:
            lo = mid
    return lo

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
of each chunk: a chunk holds its noise and one block of solver arrays, and
the sup errors are folded into running maxima block by block.  Chunk
boundaries depend on the worker count, but the solver never mixes values
across paths, resumes a block from the exact nodes it stopped at, and max is
an exact reduction, so neither chunks, blocks nor the worker count move any
number.
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .drifts import ModelSpec
from .errors import IntegrationError, NumericalError, ParameterError, UsageError
from .fbm import TimeGrid, make_sampler, mix_seed, subsample
from .solver import (
    SchemeConfig,
    SolverSettings,
    check_step_bound,
    integrate,
)

__all__ = [
    "ExperimentPlan",
    "LevelEstimate",
    "OrderFit",
    "ConvergenceReport",
    "MomentProbe",
    "run_strong_error",
    "fit_order",
    "moment_probe",
    "reference_bias_check",
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
# Path-steps of one time block of a chunk: the solver's nodes, residuals and
# iteration counts (24 bytes per path-step, about 1.5 MB) and the sup-error
# and modulus arrays folded from them.
BLOCK_PATH_STEPS = 2**16
# Path index reserved for the bootstrap RNG stream; far above any real path.
BOOTSTRAP_STREAM = 1 << 62
# Default admissible horizon for critical (alpha = 1) models at p <= 2.
CRITICAL_HORIZON_DEFAULT = 1.0


@dataclass(frozen=True)
class ExperimentPlan:
    """A coupled step-ladder experiment: levels 2^k_min .. 2^k_max against 2^k_ref."""

    model: ModelSpec
    horizon: float
    p: float
    k_min: int
    k_max: int
    k_ref: int
    paths: int
    master_seed: int
    method: str = "circulant"
    solver: SolverSettings = SolverSettings()

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        if self.p < 1.0:
            raise ParameterError(f"error moment order p must be >= 1, got {self.p}")
        if not (1 <= self.k_min <= self.k_max):
            raise ParameterError(
                f"need 1 <= k_min <= k_max, got k_min={self.k_min}, k_max={self.k_max}"
            )
        if self.k_max - self.k_min < 2:
            raise ParameterError(
                "order fits need at least 3 ladder levels "
                f"(k_max - k_min >= 2), got k in [{self.k_min}, {self.k_max}]"
            )
        if self.k_ref < self.k_max + 3:
            raise ParameterError(
                f"reference level k_ref={self.k_ref} must be at least "
                f"k_max + 3 = {self.k_max + 3} to keep reference bias negligible"
            )
        if self.paths < 2:
            raise ParameterError(f"need at least 2 paths, got {self.paths}")
        if self.method not in ("circulant", "cholesky"):
            raise ParameterError(f"unknown sampler method {self.method!r}")
        cert = self.model.drift()[1]
        check_step_bound(cert, self.horizon / 2**self.k_min)
        if cert.alpha_regime == "critical" and (
            self.horizon > CRITICAL_HORIZON_DEFAULT or self.p > 2.0
        ):
            warnings.warn(
                "critical-regime model (alpha = 1): the convergence guarantee "
                f"holds only for small horizons; T={self.horizon}, p={self.p} "
                f"exceeds the default window T<={CRITICAL_HORIZON_DEFAULT}, p<=2",
                stacklevel=2,
            )

    @property
    def levels(self) -> list[int]:
        return list(range(self.k_min, self.k_max + 1))


@dataclass(frozen=True)
class LevelEstimate:
    k: int
    steps: int
    h: float
    estimates: dict  # kind -> {"e": float, "stderr": float}


@dataclass(frozen=True)
class OrderFit:
    slope: float
    intercept: float
    slope_stderr: float
    correction: str


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
    per_path_errors: dict | None = None

    @property
    def passed(self) -> bool:
        return bool(self.order_band["passed"]) and not self.incomplete

    def to_dict(self) -> dict:
        return {
            "plan": self.plan,
            "levels": [
                {
                    "k": lv.k,
                    "steps": lv.steps,
                    "h": lv.h,
                    "errors": lv.estimates,
                }
                for lv in self.levels
            ],
            "fits": {
                kind: {
                    corr: {
                        "slope": f.slope,
                        "intercept": f.intercept,
                        "slope_stderr": f.slope_stderr,
                    }
                    for corr, f in by_corr.items()
                }
                for kind, by_corr in self.fits.items()
            },
            "targets": self.targets,
            "order_band": self.order_band,
            "trend_ok": self.trend_ok,
            "incomplete": self.incomplete,
            "failures": self.failures,
            "passed": self.passed,
        }


def _log_correction(h: np.ndarray, name: str) -> np.ndarray:
    if name == "none":
        return np.ones_like(h)
    if name == "sqrt_log":
        return np.sqrt(np.log1p(1.0 / h))
    if name == "log":
        return np.log1p(1.0 / h)
    raise UsageError(f"unknown correction {name!r}")


def fit_order(
    levels: Iterable[tuple[float, float, float]], correction: str = "none"
) -> OrderFit:
    """Least-squares slope of log(e / corr(h)) against log h.

    ``levels`` yields (h, e, stderr) triples; at least three are required and
    all error estimates must be positive.  The slope standard error is the
    usual OLS one.
    """
    rows = list(levels)
    if len(rows) < 3:
        raise UsageError(f"order fit needs at least 3 levels, got {len(rows)}")
    h = np.array([row[0] for row in rows], dtype=float)
    e = np.array([row[1] for row in rows], dtype=float)
    if np.any(e <= 0.0):
        raise UsageError("order fit requires strictly positive error estimates")
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
        correction=correction,
    )


# Sampler construction is costly for the Cholesky method; cache per process.
_sampler_cached = functools.cache(make_sampler)


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
    path = sampler.sample(master_seed, range(start, stop))
    return {f: subsample(path, f).increments for f in factors}


def _raise_first_failure(failures: dict, start: int) -> None:
    """Abort on the lowest failed row of a chunk starting at path ``start``."""
    if failures:
        row = min(failures)
        err = failures[row]
        raise IntegrationError(f"path {start + row}: {err}", step=err.step) from err


def _integrate_blocks(drift, config, cert, noise, block, failures):
    """Integrate the rows of ``noise`` in time blocks of ``block`` steps.

    Yields ``(rows, first, values)`` per block: ``values[i]`` holds nodes
    first..first+block of chunk row ``rows[i]``, each block resumed from the
    last nodes of the one before, so the nodes are those of one whole run.
    A row that fails is added to ``failures`` (row -> its
    :class:`IntegrationError`, with the absolute step) and left out of the
    block it failed in and of every later one.
    """
    rows = np.arange(len(noise))
    x = None
    for first in range(0, config.steps, block):
        stop = min(first + block, config.steps)
        sol = integrate(drift, config, noise, cert, start=first, stop=stop, initial=x)
        values = sol.values
        if sol.failures:
            for j, err in sol.failures.items():
                failures[int(rows[j])] = err
            keep = np.ones(len(rows), dtype=bool)
            keep[list(sol.failures)] = False
            rows, noise, values = rows[keep], noise[keep], values[keep]
            if not rows.size:
                return
        x = values[:, -1]
        yield rows, first, values


def _sup_errors(
    coarse: np.ndarray,
    ref: np.ndarray,
    y_ref: np.ndarray,
    factor: int,
    inverse_exponent: float,
    first: int = 0,
) -> np.ndarray:
    """Sup-norm errors of coarse paths' nodes against reference nodes.

    ``coarse`` holds every node of the coarse paths and ``ref`` reference
    nodes first..first+B along the last axis, with ``first`` and B multiples
    of ``factor``; ``y_ref`` is ``ref ** inverse_exponent``, which the
    caller computes once for all the levels it compares.  Returns the maxima
    over those reference nodes with shape (len(ERROR_KINDS), paths), one row
    per kind in ``ERROR_KINDS`` order.
    """
    # piecewise-linear read of the coarse paths at every reference node, done
    # with index arithmetic (reference nodes subdivide each coarse cell into
    # ``factor`` equal parts)
    n_coarse = coarse.shape[-1] - 1
    j = np.arange(first, first + ref.shape[-1])
    frac = (j % factor) / factor
    cell = np.minimum(j // factor, n_coarse - 1)
    frac = np.where(j // factor == n_coarse, 1.0, frac)
    # in place where possible: every full-size temporary costs page faults
    interp = coarse[..., cell]
    interp *= 1.0 - frac
    diff = coarse[..., cell + 1]
    diff *= frac
    interp += diff
    x_interp = np.max(np.abs(np.subtract(interp, ref, out=diff), out=diff), axis=-1)
    y_interp = np.power(interp, inverse_exponent, out=interp)
    np.subtract(y_interp, y_ref, out=diff)
    nodes = coarse[..., first // factor : j[-1] // factor + 1]
    return np.stack([
        x_interp,
        np.max(np.abs(nodes - ref[..., ::factor]), axis=-1),
        np.max(np.abs(diff, out=diff), axis=-1),
        np.max(np.abs(nodes**inverse_exponent - y_ref[..., ::factor]), axis=-1),
    ])


def _ladder_chunk(
    plan: ExperimentPlan, start: int, stop: int, ref_ks: tuple[int, ...]
) -> tuple[np.ndarray, dict[int, tuple]]:
    """Errors of every ladder level against each reference in ``ref_ks``.

    Covers paths start..stop-1 and returns ``(errors, failures)``.
    ``errors`` has shape (len(ref_ks), len(plan.levels), len(ERROR_KINDS),
    paths): the sup errors of each level against each reference, per kind
    and path.  ``failures`` maps each failed row to (path, level, step),
    naming its first failing reference, else its lowest failing level; a
    failed row's errors are meaningless.  The noise is drawn once at the
    finest reference and block-summed to every other grid.  Each level is
    integrated once as one batch; each reference is then integrated in time
    blocks of about ``BLOCK_PATH_STEPS`` path-steps, a multiple of its
    coarsest factor so that every block holds a node of every level, and
    each block is folded into the running per-path sup errors.
    """
    n_fine = 2 ** max(ref_ks)
    grid = TimeGrid(plan.horizon, n_fine)
    sampler = _sampler_cached(plan.method, plan.model.hurst, grid)
    factors = {k: n_fine // 2**k for k in (*ref_ks, *plan.levels)}
    noise = _draw_chunk(sampler, plan.master_seed, start, stop, factors.values())
    drift, cert = plan.model.drift()
    l_exp = plan.model.inverse_exponent
    size = stop - start

    def scheme(k):
        return SchemeConfig.for_model(plan.model, plan.horizon, 2**k, plan.solver)

    level_failures: dict[int, tuple] = {}
    coarse = []  # every node of every row, per level
    for k in plan.levels:
        sol = integrate(drift, scheme(k), noise[factors[k]], cert)
        for row, err in sol.failures.items():
            level_failures.setdefault(row, (start + row, k, err.step))
        coarse.append(sol.values)
    failures: dict[int, tuple] = {}
    errors = np.zeros((len(ref_ks), len(plan.levels), len(ERROR_KINDS), size))
    for ref_k, by_level in zip(ref_ks, errors):
        ref_failures: dict = {}
        coarsest = 2 ** (ref_k - plan.k_min)
        block = max(1, BLOCK_PATH_STEPS // (size * coarsest)) * coarsest
        blocks = _integrate_blocks(
            drift, scheme(ref_k), cert, noise[factors[ref_k]], block, ref_failures
        )
        for rows, first, values in blocks:
            y_values = values**l_exp
            for k, nodes, running in zip(plan.levels, coarse, by_level):
                level = nodes if rows.size == size else nodes[rows]
                block_errors = _sup_errors(
                    level, values, y_values, 2 ** (ref_k - k), l_exp, first
                )
                running[:, rows] = np.maximum(running[:, rows], block_errors)
        for row, err in ref_failures.items():
            failures.setdefault(row, (start + row, ref_k, err.step))
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


def run_strong_error(
    plan: ExperimentPlan, workers: int = 1, keep_paths: bool = False
) -> ConvergenceReport:
    """Execute the coupled ladder experiment and fit empirical orders.

    Paths are processed in chunks sized for the reference grid, at least
    one per worker (see :func:`_chunks`), by a process pool when
    ``workers > 1``; results are folded in path order either way, so the
    report does not depend on the pool size.  Failed paths are recorded as
    (path, level, step) triples and excluded from the aggregates, marking
    the report incomplete; when every path fails there is nothing to report
    and :class:`NumericalError` names the failures.
    """
    starts, stops = zip(*_chunks(plan.paths, 2**plan.k_ref, workers))
    ref_ks = [(plan.k_ref,)] * len(starts)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(starts))) as pool:
            chunks = list(
                pool.map(_ladder_chunk, [plan] * len(starts), starts, stops, ref_ks)
            )
    else:
        chunks = list(map(_ladder_chunk, [plan] * len(starts), starts, stops, ref_ks))
    chunk_errors, chunk_failures = zip(*chunks)
    failures = [by_row[row] for by_row in chunk_failures for row in sorted(by_row)]
    if len(failures) == plan.paths:
        raise NumericalError(
            f"all {plan.paths} paths failed, so no error estimate exists; "
            f"failed (path, level, step): {[list(f) for f in failures]}"
        )
    kept = np.ones(plan.paths, dtype=bool)
    kept[[path for path, _, _ in failures]] = False
    errors = np.concatenate(chunk_errors, axis=-1)[0][..., kept]

    boot_rng = np.random.default_rng(mix_seed(plan.master_seed, BOOTSTRAP_STREAM))
    levels: list[LevelEstimate] = []
    for k, by_kind in zip(plan.levels, errors):
        steps = 2**k
        h = plan.horizon / steps
        estimates = {}
        for kind, e in zip(ERROR_KINDS, by_kind):
            estimates[kind] = {
                "e": _p_mean(e, plan.p),
                "stderr": _bootstrap_stderr(e, plan.p, boot_rng),
            }
        levels.append(LevelEstimate(k=k, steps=steps, h=h, estimates=estimates))

    fits: dict[str, dict[str, OrderFit]] = {}
    y_corr = _y_correction(plan.model)
    for kind in ERROR_KINDS:
        rows = [(lv.h, lv.estimates[kind]["e"], lv.estimates[kind]["stderr"]) for lv in levels]
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

    per_path_errors = None
    if keep_paths:
        per_path_errors = {
            "paths": np.flatnonzero(kept).tolist(),
            "errors": {
                str(k): dict(zip(ERROR_KINDS, by_kind.tolist()))
                for k, by_kind in zip(plan.levels, errors)
            },
        }

    return ConvergenceReport(
        plan=_plan_dict(plan),
        levels=levels,
        fits=fits,
        targets=targets,
        order_band=order_band,
        trend_ok=trend_ok,
        incomplete=bool(failures),
        failures=[list(f) for f in failures],
        per_path_errors=per_path_errors,
    )


def _monotone_trend(levels: list[LevelEstimate], kind: str) -> bool:
    """Errors should fall as the grid refines; one statistical inversion is allowed."""
    inversions = 0
    for prev, cur in zip(levels, levels[1:]):
        e_prev, se_prev = prev.estimates[kind]["e"], prev.estimates[kind]["stderr"]
        e_cur, se_cur = cur.estimates[kind]["e"], cur.estimates[kind]["stderr"]
        if e_cur > e_prev + 2.0 * math.hypot(se_prev, se_cur):
            inversions += 1
    return inversions <= 1


def _plan_dict(plan: ExperimentPlan) -> dict:
    model = plan.model
    block = {"family": model.family}
    for name in model.__dataclass_fields__:
        block[name] = getattr(model, name)
    return {
        "model": block,
        "horizon": plan.horizon,
        "p": plan.p,
        "k_min": plan.k_min,
        "k_max": plan.k_max,
        "k_ref": plan.k_ref,
        "paths": plan.paths,
        "master_seed": plan.master_seed,
        "method": plan.method,
    }


def reference_bias_check(plan: ExperimentPlan) -> dict:
    """Relative change of every level estimate when the reference is refined.

    The fine noise is generated once at k_ref + 1 and block-summed down, so
    the two references share their driving paths and the comparison isolates
    the reference-discretization bias from Monte Carlo noise.  Any failed
    path aborts the check with :class:`IntegrationError`.
    """
    ref_ks = (plan.k_ref, plan.k_ref + 1)
    chunks = []
    for start, stop in _chunks(plan.paths, 2 ** max(ref_ks)):
        errors, failures = _ladder_chunk(plan, start, stop, ref_ks)
        if failures:
            path, level, step = failures[min(failures)]
            raise IntegrationError(
                f"path {path} failed at level {level}, step {step}", step=step
            )
        chunks.append(errors)
    base, fine = np.concatenate(chunks, axis=-1)
    out = {}
    for k, base_k, fine_k in zip(plan.levels, base, fine):
        out[k] = {}
        for kind, base_e, fine_e in zip(ERROR_KINDS, base_k, fine_k):
            base_est = _p_mean(base_e, plan.p)
            out[k][kind] = abs(_p_mean(fine_e, plan.p) - base_est) / base_est
    return out


# ---------------------------------------------------------------------------
# Moment and modulus probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentProbe:
    """Monte Carlo estimates of extreme-value moments and modulus ratios."""

    p_list: tuple[float, ...]
    negative_moments: dict  # p -> E max_n X_n^{-p}
    positive_moments: dict  # p -> E max_n X_n^{p}
    ladder_h: tuple[float, ...]
    modulus_ratios: tuple[float, ...]
    steps: int
    paths: int
    horizon: float
    master_seed: int

    def to_dict(self) -> dict:
        return {
            "p_list": list(self.p_list),
            "negative_moments": {str(k): v for k, v in self.negative_moments.items()},
            "positive_moments": {str(k): v for k, v in self.positive_moments.items()},
            "ladder_h": list(self.ladder_h),
            "modulus_ratios": list(self.modulus_ratios),
            "steps": self.steps,
            "paths": self.paths,
            "horizon": self.horizon,
            "master_seed": self.master_seed,
        }


def _ladder_moduli(values: np.ndarray, rungs: int) -> np.ndarray:
    """sup |X_t - X_s| over node pairs at most 2^j indices apart, j < ``rungs``.

    Reduces along the last axis, so ``values`` of shape (..., n) gives shape
    (..., rungs).  The running max and min over every window of 2w + 1 nodes
    are the max and min of two overlapping windows of w + 1 nodes, so each
    rung costs O(n).  Max, min and the final difference are exact, so the
    result is the same as reducing each window directly.
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


def _modulus_envelope(h: np.ndarray, hurst: float) -> np.ndarray:
    return h + h**hurst * np.sqrt(np.log1p(1.0 / h))


def moment_probe(
    model: ModelSpec,
    horizon: float,
    steps: int,
    paths: int,
    p_list: Iterable[float],
    master_seed: int,
    ladder_rungs: int = 6,
    *,
    method: str = "circulant",
    solver: SolverSettings = SolverSettings(),
) -> MomentProbe:
    """Estimate E sup X^{-p}, E sup X^{p}, and modulus-of-continuity ratios.

    The modulus ladder uses window widths h * 2^j, j = 0..ladder_rungs-1, and
    reports E modulus(h_j) divided by the envelope h + h^H sqrt(log(1 + 1/h)).
    For critical-regime models the admissible horizon shrinks with p; a
    warning is emitted when (horizon, max p) exceeds it.  ``method`` picks the
    fBM sampler and ``solver`` holds the root-solver settings.
    """
    p_list = tuple(float(p) for p in p_list)
    if not p_list or any(p <= 0.0 for p in p_list):
        raise UsageError("p_list must contain positive orders")
    if steps < 1 or paths < 1:
        raise UsageError("need steps >= 1 and paths >= 1")
    drift, cert = model.drift()
    if cert.alpha_regime == "critical":
        t_admissible = critical_horizon(cert, model.hurst, max(p_list))
        if horizon > t_admissible:
            warnings.warn(
                f"critical-regime model: negative moments of order {max(p_list)} "
                f"are only guaranteed up to T~{t_admissible:.4g}, got T={horizon}",
                stacklevel=2,
            )

    grid = TimeGrid(horizon, steps)
    sampler = make_sampler(method, model.hurst, grid)
    config = SchemeConfig.for_model(model, horizon, steps, solver)
    rungs = max(0, min(ladder_rungs, int(math.log2(steps)) - 1))
    windows = [2**j for j in range(rungs)]
    reach = 2 ** (rungs - 1) if rungs else 0  # widest window, in steps
    neg = {p: 0.0 for p in p_list}
    pos = {p: 0.0 for p in p_list}
    modulus = np.zeros(len(windows))
    for start, stop in _chunks(paths, steps):
        size = stop - start
        noise = _draw_chunk(sampler, master_seed, start, stop, [1])[1]
        v_max, v_min = np.full(size, -np.inf), np.full(size, np.inf)
        moduli = np.zeros((size, rungs))
        failures: dict = {}
        # each block is read with the ``reach`` nodes before it prepended, so
        # every window of the modulus ladder lies inside one extended block
        tail = None
        block = max(reach, BLOCK_PATH_STEPS // size, 1)
        blocks = _integrate_blocks(drift, config, cert, noise, block, failures)
        for _, _, values in blocks:
            if failures:
                continue  # finished only to name the chunk's lowest failed path
            ext = values if tail is None else np.concatenate([tail, values], axis=1)
            tail = ext[:, ext.shape[1] - 1 - reach : -1]
            np.maximum(v_max, values.max(axis=1), out=v_max)
            np.minimum(v_min, values.min(axis=1), out=v_min)
            np.maximum(moduli, _ladder_moduli(ext, rungs), out=moduli)
        _raise_first_failure(failures, start)
        for row in range(size):
            for p in p_list:
                neg[p] += float(v_min[row]) ** -p
                pos[p] += float(v_max[row]) ** p
            modulus += moduli[row]
        del noise  # free this chunk before the next one is drawn
    for p in p_list:
        neg[p] /= paths
        pos[p] /= paths
    modulus /= paths
    ladder_h = grid.h * np.asarray(windows, dtype=float)
    ratios = modulus / _modulus_envelope(ladder_h, model.hurst)
    return MomentProbe(
        p_list=p_list,
        negative_moments=neg,
        positive_moments=pos,
        ladder_h=tuple(float(v) for v in ladder_h),
        modulus_ratios=tuple(float(v) for v in ratios),
        steps=steps,
        paths=paths,
        horizon=horizon,
        master_seed=master_seed,
    )


def critical_horizon(cert, hurst: float, p: float) -> float:
    """Largest T with h1_min >= ((p+1) v q) H T^{2H-1} exp(K^+ T).

    This is the admissibility window for negative moments of order p in the
    critical alpha = 1 regime.  The right-hand side is strictly increasing in
    T, so the crossing is found by bisection; returns ``inf`` when the bound
    never binds within astronomically large horizons.
    """
    factor = max(p + 1.0, cert.q) * hurst

    def rhs(t: float) -> float:
        return factor * t ** (2.0 * hurst - 1.0) * math.exp(max(cert.K, 0.0) * t)

    if rhs(1e12) <= cert.h1_min:
        return math.inf
    lo, hi = 0.0, 1.0
    while rhs(hi) <= cert.h1_min:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rhs(mid) <= cert.h1_min:
            lo = mid
        else:
            hi = mid
    return lo

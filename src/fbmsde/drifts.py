"""Transformed drifts for the interest-rate model families.

Both supported models are reduced by a power change of variables (a Lamperti
transform) to an additive-noise equation

    dX_t = B(X_t) dt + sigma_x dB^H_t,   X_0 > 0,

whose drift blows up like ``x^{-alpha}`` at the origin and is one-sidedly
Lipschitz.  Each model family is a frozen dataclass whose ``drift()`` builds
that closed-form drift with its first two derivatives, plus a certificate of
the growth and singularity constants that the implicit solver and the
convergence experiments consume:

* ``K``      one-sided Lipschitz constant, ``(B(x)-B(y))(x-y) <= K (x-y)^2``
* ``alpha``  singularity exponent, ``B(x) >= h1_min x^{-alpha}`` for x <= x1
* ``theta``  negative-power growth, ``B(x) <= h4 (1 + x + x^{-theta})``
* ``q``      superlinear growth of the negative part, ``B(x)^- <= h3 (1+x^q)``
* ``p1,p2``  derivative growth, ``|B'| + |B''| <= c_h2 (1 + x^{p1} + x^{-p2})``
* ``h0``     maximal step size for which ``B(x) h - x + c = 0`` has a unique
             positive root for every real c

``K`` and ``c_h2`` are determined numerically as suprema over a wide
logarithmic grid rather than trusted from closed-form claims.  ``x1`` is the
crossover below which the singular term dominates twice the combined
magnitude of all other terms, which makes ``h1_min`` equal to half the
singular coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ParameterError, require
from .fbm import Hurst

__all__ = [
    "DriftFn",
    "AssumptionCertificate",
    "AuditCheck",
    "AuditReport",
    "MeanRevertingModel",
    "AitSahaliaModel",
    "ModelSpec",
    "MODELS",
    "lamperti_inverse",
    "audit_assumptions",
]

# Grid used to compute numeric suprema (K, c_h2) and the singularity crossover.
_CERT_GRID = np.geomspace(1e-4, 1e4, 641)
# Grid-point pairs the audit samples for the one-sided Lipschitz check, and
# the seed it draws them with.
_AUDIT_PAIRS = 1000
_AUDIT_SEED = 7


@dataclass(frozen=True)
class DriftFn:
    """A drift B with closed-form first and second derivatives.

    The callables accept positive floats or numpy arrays.  ``value`` maps an
    array to an array of the same shape, which the solver indexes row by
    row; the derivatives may return anything that broadcasts against it.
    Raw callables may be used directly in tests; the model constructors
    below produce audited instances.
    """

    value: Callable
    deriv1: Callable
    deriv2: Callable
    name: str


@dataclass(frozen=True)
class AssumptionCertificate:
    """Constants certifying the drift's growth and singularity structure."""

    K: float
    alpha: float
    x1: float
    h1_min: float
    theta: float
    h4: float
    q: float
    h3: float
    p1: float
    p2: float
    c_h2: float
    h0: float
    alpha_regime: str  # "critical" when alpha == 1, else "standard"

    def __post_init__(self):
        if self.theta < self.alpha - 1e-12:
            raise ParameterError(
                f"theta={self.theta} must be >= alpha={self.alpha}"
            )
        if not self.h0 > 0.0:
            raise ParameterError(f"h0 must be positive, got {self.h0}")
        if not self.alpha > 0.0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")


def _cert_grid(drift: DriftFn, alpha: float, p1: float, q: float) -> np.ndarray:
    """``_CERT_GRID``, or a narrower grid where the drift leaves float range on it.

    Only if the drift or one of its derivatives overflows or is undefined on
    ``_CERT_GRID`` are the grid's ends pulled in, to ``10^(-e)`` and ``10^e``
    with ``e = 300 / (max(alpha, p1, q) + 2)``.  The largest powers, the
    ``x^{-(alpha+2)}`` of B'' and ``x^q`` of B, then stay below 1e300.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for fn in (drift.value, drift.deriv1, drift.deriv2):
                fn(_CERT_GRID)
        return _CERT_GRID
    except FloatingPointError:
        end = 300.0 / (max(alpha, p1, q) + 2.0)
        return np.geomspace(max(1e-4, 10.0**-end), min(1e4, 10.0**end), _CERT_GRID.size)


def _singularity_window(
    singular_coef: float,
    singular_exp: float,
    other_terms: list[tuple[float, float]],
    grid: np.ndarray,
) -> tuple[float, float]:
    """Largest x1 such that the singular term dominates twice the rest below it.

    ``other_terms`` is a list of (coefficient, exponent) monomials.  Returns
    ``(x1, h1_min)`` with ``h1_min = singular_coef / 2``: below the crossover,
    B(x) >= singular/2 >= (singular_coef/2) x^{-alpha}.
    """
    h1_min = 0.5 * singular_coef
    singular = singular_coef * grid ** (-singular_exp)
    rest = np.zeros_like(grid)
    for coef, exponent in other_terms:
        rest += abs(coef) * grid**exponent
    dominated = singular >= 2.0 * rest
    if not dominated[0]:
        raise ParameterError(
            "singular term does not dominate at the bottom of the scan grid; "
            "cannot certify the lower bound near zero"
        )
    idx = int(np.argmin(dominated)) - 1 if not dominated.all() else len(grid) - 1
    x1 = math.inf if dominated.all() else float(grid[idx])
    return x1, h1_min


def _certificate(
    drift: DriftFn,
    singular: float,
    alpha: float,
    others: list[tuple[float, float]],
    p1: float,
    **closed_form,
) -> AssumptionCertificate:
    """Certificate of a drift whose singular term is ``singular x^{-alpha}``.

    ``others`` are the remaining monomials as (coefficient, exponent) and
    ``closed_form`` holds the family's h4, q, h3, h0 and alpha_regime.  K and
    c_h2 are suprema on the grid, ``theta = alpha`` and ``p2 = alpha + 2``.
    """
    grid = _cert_grid(drift, alpha, p1, closed_form["q"])
    x1, h1_min = _singularity_window(singular, alpha, others, grid)
    p2 = alpha + 2.0
    deriv1 = drift.deriv1(grid)
    envelope = 1.0 + grid**p1 + grid**-p2
    c_h2 = float(np.max((np.abs(deriv1) + np.abs(drift.deriv2(grid))) / envelope))
    return AssumptionCertificate(
        K=max(0.0, float(np.max(deriv1))), alpha=alpha, x1=x1, h1_min=h1_min,
        theta=alpha, p1=p1, p2=p2, c_h2=c_h2, **closed_form,
    )


# ---------------------------------------------------------------------------
# Model specifications and the Lamperti transform pair
# ---------------------------------------------------------------------------


class _LampertiModel:
    """Shared behavior of the two model families.

    Subclasses are frozen dataclasses whose fields are the family's
    original-coordinates parameters, the keys of its config block; they set
    ``family``, the block's ``model`` name, and expose ``transform_exponent``
    (the m in X = Y^m) and ``drift()``, the transformed drift and its
    certificate, built once per model value.  The inverse map is Y = X^{1/m}
    and the transformed noise intensity is sigma * m.

    ``rules`` holds every parameter rule of the family, the rules here and
    the ``hurst`` rule of :class:`Hurst` included, as the (key, message,
    test) entries of ``errors.broken_rules``.  The constructor and the
    config's model check read this one table.  The constructor stores each
    field as a float, checks the table, and then builds the drift and its
    certificate, so a certificate that cannot be built refuses the model,
    one whose constants under- or overflow included.
    The positivity theory's ``alpha > 1/H - 1`` needs no check of its own:
    the table already gives alpha >= 1 (gamma >= 1/2, and r + 1 > 2 rho),
    and H > 1/2 gives 1/H - 1 < 1.
    """

    rules = (
        *Hurst.rules,
        ("sigma", "must be nonzero", lambda sigma: sigma != 0.0),
        ("y0", "must be positive, got {y0}", lambda y0: y0 > 0.0),
    )

    @property
    def transform_exponent(self) -> float:
        raise NotImplementedError

    @property
    def inverse_exponent(self) -> float:
        """Exponent l with Y = X^l; negative for the Ait-Sahalia family."""
        return 1.0 / self.transform_exponent

    @property
    def sigma_x(self) -> float:
        return self.sigma * self.transform_exponent

    @property
    def x0(self) -> float:
        return float(self.y0**self.transform_exponent)

    def __post_init__(self):
        # ``drift()`` is cached per model value and names its parameters, and
        # 1 == 1.0, -0.0 == 0.0: equal models must hold the same floats.
        # Adding 0.0 folds -0.0 into 0.0 and still refuses a string.
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name) + 0.0))
        require(self.rules, vars(self))
        try:
            self.drift()
        except ArithmeticError as exc:  # a constant under- or overflowed
            raise ParameterError(
                f"the drift certificate cannot be computed: {type(exc).__name__}: {exc}"
            ) from None


@dataclass(frozen=True)
class MeanRevertingModel(_LampertiModel):
    """dY = (a1 - a2 Y) dt + sigma Y^gamma dB^H in original coordinates."""

    family = "mean_reverting"
    rules = (
        ("a1", "must be positive, got {a1}", lambda a1: a1 > 0.0),
        ("gamma", "must lie in [0.5, 1), got {gamma}", lambda gamma: 0.5 <= gamma < 1.0),
        *_LampertiModel.rules,
    )
    a1: float
    a2: float
    gamma: float
    sigma: float
    y0: float
    hurst: float

    @property
    def transform_exponent(self) -> float:
        return 1.0 - self.gamma

    @lru_cache(maxsize=64)
    def drift(self) -> tuple[DriftFn, AssumptionCertificate]:
        """Transformed drift of the mean-reverting stochastic-volatility model.

        The original dynamics dY = (a1 - a2 Y) dt + sigma Y^gamma dB^H map under
        X = Y^{1-gamma} to the additive-noise drift

            B(x) = (1 - gamma) a1 x^{-gamma/(1-gamma)} - a2 (1 - gamma) x,

        with alpha = theta = gamma/(1-gamma).  gamma = 1/2 is the square-root
        (CIR) diffusion and sits at the critical alpha = 1 regime.
        """
        a1, a2, gamma = self.a1, self.a2, self.gamma
        alpha = gamma / (1.0 - gamma)
        c_sing = (1.0 - gamma) * a1
        c_lin = a2 * (1.0 - gamma)
        d1_sing = gamma * a1  # coefficient of x^{-(alpha+1)} in -B'
        d2_sing = gamma * a1 / (1.0 - gamma)  # coefficient of x^{-(alpha+2)} in B''

        def value(x, c=c_sing, lin=c_lin, e=alpha):
            return c * x**-e - lin * x

        def deriv1(x, c=d1_sing, lin=c_lin, e=alpha + 1.0):
            return -c * x**-e - lin

        def deriv2(x, c=d2_sing, e=alpha + 2.0):
            return c * x**-e

        drift = DriftFn(value, deriv1, deriv2, f"mean_reverting(a1={a1}, a2={a2}, gamma={gamma})")
        return drift, _certificate(
            drift, c_sing, alpha, [(c_lin, 1.0)], 0.0,
            h4=max(c_sing, max(-c_lin, 0.0)),
            q=1.0 if a2 > 0.0 else 0.0,
            h3=c_lin if a2 > 0.0 else 0.0,
            # The implicit step is solvable for all h whenever 1 + a2(1-gamma) h > 0.
            # Tested on c_lin, not a2: a subnormal a2 < 0 makes c_lin -0.0.
            h0=math.inf if c_lin >= 0.0 else 1.0 / -c_lin,
            alpha_regime="critical" if gamma == 0.5 else "standard",
        )


@dataclass(frozen=True)
class AitSahaliaModel(_LampertiModel):
    """dY = (a_m1/Y - a0 + a1 Y - a2 Y^r) dt + sigma Y^rho dB^H."""

    family = "ait_sahalia"
    rules = (
        ("a_m1", "must be positive, got {a_m1}", lambda a_m1: a_m1 > 0.0),
        ("a0", "must be positive, got {a0}", lambda a0: a0 > 0.0),
        ("a1", "must be positive, got {a1}", lambda a1: a1 > 0.0),
        ("a2", "must be positive, got {a2}", lambda a2: a2 > 0.0),
        ("rho", "must exceed 1, got {rho}", lambda rho: rho > 1.0),
        ("r", "must satisfy r + 1 > 2*rho, got r={r}, rho={rho}",
         lambda r, rho: r + 1.0 > 2.0 * rho),
        ("r", "must satisfy r >= min(2, rho) + 1, got r={r}, rho={rho}",
         lambda r, rho: r >= min(2.0, rho) + 1.0),
        *_LampertiModel.rules,
    )
    a_m1: float
    a0: float
    a1: float
    a2: float
    r: float
    rho: float
    sigma: float
    y0: float
    hurst: float

    @property
    def transform_exponent(self) -> float:
        return 1.0 - self.rho

    @lru_cache(maxsize=64)
    def drift(self) -> tuple[DriftFn, AssumptionCertificate]:
        """Transformed drift of the Ait-Sahalia type interest-rate model.

        The original dynamics
        dY = (a_{-1} Y^{-1} - a0 + a1 Y - a2 Y^r) dt + sigma Y^rho dB^H
        map under X = Y^{1-rho} (note 1 - rho < 0) to

            B(x) = b1 x^{-(r-rho)/(rho-1)} - b2 x + b3 x^{rho/(rho-1)}
                   - b4 x^{(rho+1)/(rho-1)},

        with (b1, b2, b3, b4) = (rho-1) * (a2, a1, a0, a_{-1}).  The admissible
        step bound h0 = 4 (rho-1) b4 (rho+1) / (b3^2 rho^2) makes the implicit
        equation's derivative strictly negative, hence the root unique.
        """
        a_m1, a0, a1, a2, r, rho = self.a_m1, self.a0, self.a1, self.a2, self.r, self.rho
        b1 = (rho - 1.0) * a2
        b2 = (rho - 1.0) * a1
        b3 = (rho - 1.0) * a0
        b4 = (rho - 1.0) * a_m1
        alpha = (r - rho) / (rho - 1.0)
        e3 = rho / (rho - 1.0)
        e4 = (rho + 1.0) / (rho - 1.0)

        def value(x, b1=b1, b2=b2, b3=b3, b4=b4, ea=alpha, e3=e3, e4=e4):
            return b1 * x**-ea - b2 * x + b3 * x**e3 - b4 * x**e4

        def deriv1(x, c1=alpha * b1, b2=b2, c3=e3 * b3, c4=e4 * b4, ea=alpha + 1.0,
                   f3=e3 - 1.0, f4=e4 - 1.0):
            return -c1 * x**-ea - b2 + c3 * x**f3 - c4 * x**f4

        def deriv2(x, c1=alpha * (alpha + 1.0) * b1, c3=e3 * (e3 - 1.0) * b3,
                   c4=e4 * (e4 - 1.0) * b4, ea=alpha + 2.0, f3=e3 - 2.0, f4=e4 - 2.0):
            return c1 * x**-ea + c3 * x**f3 - c4 * x**f4

        drift = DriftFn(
            value,
            deriv1,
            deriv2,
            f"ait_sahalia(a={{-1:{a_m1}, 0:{a0}, 1:{a1}, 2:{a2}}}, r={r}, rho={rho})",
        )

        # Peak of the positive non-singular part b3 u^rho - b4 u^{rho+1} in u = x^{1/(rho-1)}.
        u_star = rho * b3 / ((rho + 1.0) * b4)
        hump = max(0.0, b3 * u_star**rho - b4 * u_star ** (rho + 1.0))
        return drift, _certificate(
            drift, b1, alpha, [(b2, 1.0), (b3, e3), (b4, e4)], e4 - 1.0,
            h4=max(b1, hump), q=e4, h3=b2 + b4,
            h0=4.0 * (rho - 1.0) * b4 * (rho + 1.0) / (b3**2 * rho**2),
            alpha_regime="standard",
        )


ModelSpec = MeanRevertingModel | AitSahaliaModel

# The model classes by family name, the values ``model.model`` accepts, in the
# order the config's error message lists them.
MODELS = {cls.family: cls for cls in (MeanRevertingModel, AitSahaliaModel)}


def lamperti_inverse(model: ModelSpec, x):
    """Map transformed coordinates back: Y = X^{1/m}, within 1 ulp of exact.

    Out of float range Y is inf or 0.0, never NaN; a scalar x gives a float.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ParameterError("x must be positive and finite")
    # 1/m in one double is off by up to half an ulp, which |log X| amplifies
    # to several ulps of Y.  So 1/m = hi + lo exactly (Dekker 1971), each a
    # correctly rounded integer ratio (m = a/b, hi = c/d), and
    # Y = X^hi (1 + lo log X), where |lo log X| < 1e-13 if X^hi is finite.
    a, b = model.transform_exponent.as_integer_ratio()
    hi = b / a
    c, d = hi.as_integer_ratio()
    lo = (b * d - a * c) / (a * d)
    p = arr**hi
    y = np.log(arr)
    y *= lo
    # where X^hi overflowed, y keeps its finite log term and the sum is inf
    np.multiply(y, p, out=y, where=np.isfinite(p))
    y += p
    return float(y[0]) if np.ndim(x) == 0 else y


# ---------------------------------------------------------------------------
# Assumption audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    worst_margin: float
    worst_x: float


@dataclass(frozen=True)
class AuditReport:
    drift_name: str
    checks: tuple[AuditCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def table(self) -> str:
        header = f"{'check':<24} {'status':<6} {'worst margin':>14} {'at x':>12}"
        lines = [header, "-" * len(header)]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"{c.name:<24} {status:<6} {c.worst_margin:>14.6g} {c.worst_x:>12.6g}"
            )
        return "\n".join(lines)


def _check(name: str, margin, xs, passed) -> AuditCheck:
    """The check's verdict with its smallest margin and the x at which it occurs."""
    worst = int(np.argmin(margin))
    return AuditCheck(name, bool(passed), float(margin[worst]), float(xs[worst]))


def audit_assumptions(drift: DriftFn, cert: AssumptionCertificate) -> AuditReport:
    """Numerically probe the certificate's inequalities on the certificate's grid.

    That grid is ``_CERT_GRID`` on [1e-4, 1e4], its ends pulled in by the
    certificate's exponents (alpha, p1, q) only where the drift overflows
    there.  Violations are reported, never raised: the audit is a diagnostic.
    """
    grid = _cert_grid(drift, cert.alpha, cert.p1, cert.q)
    rng = np.random.default_rng(_AUDIT_SEED)
    b_vals = np.asarray(drift.value(grid), dtype=float)
    d1_vals = np.asarray(drift.deriv1(grid), dtype=float)
    d2_vals = np.asarray(drift.deriv2(grid), dtype=float)

    # one-sided Lipschitz condition on sampled pairs, normalized by (x - y)^2:
    # (B(x)-B(y))(x-y) <= K (x-y)^2
    i = rng.integers(0, grid.size, size=_AUDIT_PAIRS)
    j = rng.integers(0, grid.size, size=_AUDIT_PAIRS)
    keep = i != j
    x, y = grid[i[keep]], grid[j[keep]]
    slope = (b_vals[i[keep]] - b_vals[j[keep]]) / (x - y)
    tol_a1 = 1e-6 * (1.0 + abs(cert.K))
    checks = [
        _check("one_sided_lipschitz", cert.K - slope, x, np.all(slope <= cert.K + tol_a1))
    ]

    # singular lower bound below the crossover x1, relative to x^{-alpha}:
    # B(x) >= h1_min x^{-alpha} for x <= x1
    near = grid <= cert.x1
    if near.any():
        margin = b_vals[near] / grid[near] ** -cert.alpha - cert.h1_min
        checks.append(_check("singular_lower_bound", margin, grid[near],
                             np.all(margin >= -1e-9 * cert.h1_min)))

    # upper growth bound: B(x) <= h4 (1 + x + x^{-theta})
    envelope = cert.h4 * (1.0 + grid + grid**-cert.theta)
    margin = (envelope - b_vals) / envelope
    checks.append(_check("upper_growth", margin, grid, np.all(margin >= -1e-9)))

    # growth of the negative part: B(x)^- <= h3 (1 + x^q)
    neg = np.maximum(-b_vals, 0.0)
    bound = cert.h3 * (1.0 + grid**cert.q)
    envelope = bound + 1e-300
    checks.append(_check("negative_part_growth", (envelope - neg) / envelope, grid,
                         np.all(neg <= bound + 1e-12)))

    # derivative growth envelope: |B'(x)| + |B''(x)| <= c (1 + x^{p1} + x^{-p2})
    envelope = cert.c_h2 * (1.0 + grid**cert.p1 + grid**-cert.p2)
    margin = (envelope - (np.abs(d1_vals) + np.abs(d2_vals))) / envelope
    checks.append(_check("derivative_growth", margin, grid, np.all(margin >= -1e-6)))

    # Each closed-form derivative against a central difference, with a step
    # proportional to x.  A fixed absolute step would make the truncation
    # error of the x^{-alpha} terms swamp the tolerance at the small-x end of
    # the grid.
    rtol, eps = 1e-6, np.finfo(float).eps

    def fd_margin(fn, exact, xs, delta):
        f_hi = np.asarray(fn(xs + delta), dtype=float)
        f_lo = np.asarray(fn(xs - delta), dtype=float)
        err = np.abs((f_hi - f_lo) / (2.0 * delta) - exact)
        # tolerance: relative part plus the cancellation noise floor of the
        # difference quotient itself
        allowed = rtol * np.abs(exact) + 8.0 * eps * np.maximum(
            np.abs(f_hi), np.abs(f_lo)
        ) / delta + 1e-300
        return (allowed - err) / allowed

    for name, fn, exact in (
        ("fd_consistency_deriv1", drift.value, d1_vals),
        ("fd_consistency_deriv2", drift.deriv1, d2_vals),
    ):
        margin = fd_margin(fn, exact, grid, 1e-6 * grid)
        # Where the quotient misses, retry with a tenfold smaller step: its
        # truncation error (delta^2 |f'''| / 6, large for steep exponents)
        # then falls 100-fold, while a wrong closed form keeps its error.
        miss = margin < 0.0
        if miss.any():
            xs = grid[miss]
            margin[miss] = fd_margin(fn, exact[miss], xs, 1e-7 * xs)
        checks.append(_check(name, margin, grid, np.all(margin >= 0.0)))
    return AuditReport(drift_name=drift.name, checks=tuple(checks))

"""JSON run configuration: strict schema, full error reporting, stable digest.

A configuration has up to five top-level keys:

    seed        master seed, an integer in [0, 2^64) (required)
    model       model family and parameters (required)
    scheme      step count, tolerances, sampler method
    experiment  ladder levels, path count, error moment orders
    io          output locations (excluded from the config digest)

Validation is strict and total: unknown keys anywhere are rejected, every
violation is reported with its JSON path, and all errors are collected in one
pass instead of stopping at the first.  Numbers must be finite.  Each model
family's parameter rules live on its class in ``drifts.MODELS``, and every
rule the block breaks is reported on its own key, ``$.model.<key>``, the
cross-field ones included; a model that passes them all but fails its drift
certificate is reported as ``$.model``.  ``COMMAND_KEYS`` names the scheme
and experiment keys each subcommand reads; a run keeps only those, with
``ladder_rungs`` clamped as the moment probe clamps it, so its digest changes
exactly when its outputs can.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields

from .convergence import modulus_rungs
from .drifts import MODELS, ModelSpec
from .errors import ConfigError, ParameterError
from .fbm import DEFAULT_SAMPLER, SAMPLERS, SEED_LIMIT
from .solver import SolverSettings

__all__ = ["COMMAND_KEYS", "RunConfig", "parse_config", "config_digest"]

# The root-solver and sampler keys of the ``scheme`` block, each with the value
# it takes when unset, the solver's from ``SolverSettings``; every command
# that integrates reads all of them.
_SCHEME_KEYS = {"horizon": 1.0, **asdict(SolverSettings()), "method": DEFAULT_SAMPLER}

# For each subcommand, the ``scheme`` and ``experiment`` keys it reads and the
# value each takes when unset; None marks a required key.  A run's config
# keeps exactly these keys, so its digest names the run and nothing else.
COMMAND_KEYS = {
    "simulate": {"scheme": {"steps": None, **_SCHEME_KEYS}, "experiment": {"paths": 1}},
    "converge": {
        "scheme": _SCHEME_KEYS,
        "experiment": {"paths": None, "p": 2.0, "k_min": None, "k_max": None, "k_ref": None},
    },
    "moments": {
        "scheme": {"steps": None, **_SCHEME_KEYS},
        "experiment": {"paths": None, "p_list": (2.0, 4.0), "ladder_rungs": 6},
    },
    "verify-assumptions": {"scheme": {}, "experiment": {}},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with defaults applied.

    ``model`` is the model its block builds.  ``scheme`` and ``experiment``
    hold the keys the subcommand reads.  ``digest`` is the SHA-256 of the
    canonical JSON of (seed, model block, scheme, experiment); the io block
    is deliberately excluded so that redirecting outputs does not change a
    run's identity.
    """

    seed: int
    model: ModelSpec
    scheme: dict
    experiment: dict
    io: dict
    digest: str

    @property
    def solver(self) -> SolverSettings:
        """The root-solver settings named by the ``scheme`` block."""
        return SolverSettings(**{f.name: self.scheme[f.name] for f in fields(SolverSettings)})


def config_digest(seed: int, model: dict, scheme: dict, experiment: dict) -> str:
    canonical = json.dumps(
        {"seed": seed, "model": model, "scheme": scheme, "experiment": experiment},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _finite(value) -> float | None:
    """``value`` as a float when it is a finite JSON number, else None.

    Python's ``json`` reads ``NaN`` and ``Infinity``, and ``1e400`` as inf,
    so every numeric check of the configuration goes through this one.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an integer past the float range
        return None
    return value if math.isfinite(value) else None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _integer(minimum: int):
    """A check that its value is an integer of at least ``minimum``."""

    def check(value):
        if not _is_int(value) or value < minimum:
            raise ValueError(f"must be an integer >= {minimum}, got {value!r}")
        return value

    return check


def _real(rule: str, test):
    """A check that its value is a finite number satisfying ``test``, kept as a float."""

    def check(value):
        number = _finite(value)
        if number is None or not test(number):
            raise ValueError(f"must be a finite number {rule}, got {value!r}")
        return number

    return check


def _method(value):
    if not isinstance(value, str) or value not in SAMPLERS:
        raise ValueError(f"must be {' or '.join(map(repr, SAMPLERS))}, got {value!r}")
    return value


def _orders(value):
    """Moment orders as floats; 2 and 2.0 are one order, which may not repeat."""
    orders = tuple(map(_finite, value)) if isinstance(value, list) else ()
    if not orders or not all(p is not None and p > 0.0 for p in orders):
        raise ValueError("must be a non-empty list of positive finite numbers")
    for i, p in enumerate(orders):
        if p in orders[:i]:
            raise ValueError(f"duplicate order {p}")
    return orders


def _text(value):
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


_POSITIVE = _real("> 0", lambda x: x > 0.0)

# The check of each key of the scheme, experiment and io blocks: it returns
# the value to keep, a float for a float-typed key, or raises ValueError.
_CHECKS = {
    "scheme": {
        "steps": _integer(1), "max_iter": _integer(8), "method": _method,
        "horizon": _POSITIVE, "tol_abs": _POSITIVE, "tol_rel": _POSITIVE,
        "bracket_growth": _real("> 1", lambda x: x > 1.0),
    },
    "experiment": {
        **dict.fromkeys(("paths", "k_min", "k_max", "k_ref", "ladder_rungs"), _integer(1)),
        "p": _real(">= 1", lambda x: x >= 1.0), "p_list": _orders,
    },
    "io": {"out_dir": _text},
}


def _check_model(block, errors: list[str]) -> dict | None:
    if not isinstance(block, dict):
        errors.append("$.model: must be an object")
        return None
    family = block.get("model")
    if not isinstance(family, str) or family not in MODELS:
        families = ", ".join(map(repr, MODELS))
        errors.append(f"$.model.model: must be one of {families}, got {family!r}")
        return None
    allowed = {f.name for f in fields(MODELS[family])}
    for key in block:
        if key != "model" and key not in allowed:
            errors.append(f"$.model.{key}: unknown key")
    out = {"model": family}
    for key in sorted(allowed):
        if key not in block:
            errors.append(f"$.model.{key}: required for the {family} family")
            continue
        value = _finite(block[key])
        if value is None:
            errors.append(f"$.model.{key}: must be a finite number, got {block[key]!r}")
            continue
        out[key] = value
    # a rule is checked once every key it reads is present and finite
    errors.extend(f"$.model.{broken}" for broken in MODELS[family].broken_rules(out))
    return out if not any(e.startswith("$.model") for e in errors) else None


def _check_block(name: str, block, reads: dict, command: str, errors: list[str]) -> dict:
    """The keys of ``reads`` with the values ``block`` gives them, or their defaults.

    Every key of ``block`` is checked, read or not.  An unset key whose
    default is None is an error: ``command`` requires it.
    """
    if block is None:
        block = {}
    elif not isinstance(block, dict):
        errors.append(f"$.{name}: must be an object")
        block = {}
    out = {}
    for key, value in block.items():
        check = _CHECKS[name].get(key)
        if check is None:
            errors.append(f"$.{name}.{key}: unknown key")
            continue
        try:
            value = check(value)
        except ValueError as exc:
            errors.append(f"$.{name}.{key}: {exc}")
            continue
        if key in reads:
            out[key] = value
    for key, default in reads.items():
        if key in block:
            continue
        if default is not None:
            out[key] = default
        else:
            errors.append(f"$.{name}.{key}: required for {command}")
    return out


def parse_config(text: str, command: str, overrides: dict | None = None) -> RunConfig:
    """Parse and validate configuration JSON for ``command``, reporting every violation.

    ``overrides`` holds command-line values in the file's shape, for example
    ``{"seed": 3, "scheme": {"steps": 16}}``; each one that is not None
    replaces the file's value before validation.  The run holds the model
    its block builds and the scheme and experiment keys that
    ``COMMAND_KEYS[command]`` names, each unset one at its default; its
    digest covers the seed, the model block and exactly those keys,
    ``ladder_rungs`` at the count the moment probe uses.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"$: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"]
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError(["$: top level must be an object"])
    for name, value in (overrides or {}).items():
        if isinstance(value, dict):
            block = {} if raw.get(name) is None else raw[name]
            if isinstance(block, dict):
                raw[name] = {**block, **{k: v for k, v in value.items() if v is not None}}
        elif value is not None:
            raw[name] = value

    errors: list[str] = []
    for key in raw:
        if key not in ("seed", "model", "scheme", "experiment", "io"):
            errors.append(f"$.{key}: unknown key")

    seed = raw.get("seed")
    if seed is None:
        errors.append("$.seed: required (64-bit master seed)")
        seed = 0
    elif not _is_int(seed):
        errors.append(f"$.seed: must be an integer, got {seed!r}")
        seed = 0
    elif not 0 <= seed < SEED_LIMIT:
        errors.append(f"$.seed: must lie in [0, 2^64), got {seed}")

    if "model" not in raw:
        errors.append("$.model: required")
        model = None
    else:
        model = _check_model(raw["model"], errors)

    scheme, experiment = (
        _check_block(name, raw.get(name), COMMAND_KEYS[command][name], command, errors)
        for name in ("scheme", "experiment")
    )
    io_block = _check_block("io", raw.get("io"), {"out_dir": "."}, command, errors)

    if errors:
        raise ConfigError(errors)
    params = dict(model)
    try:
        # the certificate's checks surface through the model constructors
        spec = MODELS[params.pop("model")](**params)
    except ParameterError as exc:
        raise ConfigError([f"$.model: {exc}"]) from None
    if "ladder_rungs" in experiment:
        rungs = experiment["ladder_rungs"]
        experiment["ladder_rungs"] = modulus_rungs(rungs, scheme["steps"])
    digest = config_digest(seed, model, scheme, experiment)
    return RunConfig(seed, spec, scheme, experiment, io_block, digest)

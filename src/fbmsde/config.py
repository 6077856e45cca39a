"""JSON run configuration: strict schema, full error reporting, stable digest.

A configuration has up to five top-level keys:

    seed        master seed, an integer in [0, 2^64) (required)
    model       model family and parameters (required)
    scheme      step count, tolerances, sampler method
    experiment  ladder levels, path count, error moment orders
    io          output locations (excluded from the config digest)

Validation is strict and total: unknown keys anywhere are rejected, and so
is a key repeated in any object, whose last value JSON readers would keep
silently; every violation is reported with its JSON path, and all errors
are collected in one pass instead of stopping at the first.  This module
checks only each key's JSON type.  Every range rule lives on the class that
reads the value, in its ``rules`` table (see ``errors.broken_rules``), which
its constructor checks too: each model family's on its class in
``drifts.MODELS``; the scheme and experiment rules on
``solver.SolverSettings``, ``convergence.ExperimentPlan`` and
``convergence.ProbePlan``, whose tables hold the grid and method rules of
``fbm.TimeGrid`` and ``fbm.METHOD_RULE``.  Every rule a file breaks is
reported on its own key, ``$.<block>.<key>``, the cross-field ones included;
a model that passes them all but fails its drift certificate is reported as
``$.model``.
``COMMAND_KEYS`` names the scheme and experiment keys each subcommand reads;
a run keeps only those, and its digest covers ``ladder_rungs`` clamped as
the moment probe clamps it, so the digest changes exactly when the outputs
can.  :meth:`RunConfig.plan` builds a run's experiment plan from those keys.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields

from .convergence import ExperimentPlan, ProbePlan, modulus_rungs
from .drifts import MODELS, ModelSpec
from .errors import ConfigError, ParameterError, broken_rules, reads
from .fbm import DEFAULT_SAMPLER, SEED_LIMIT
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
        "experiment": {
            "paths": None, "p_list": (2.0, 4.0), "ladder_rungs": ProbePlan.ladder_rungs
        },
    },
    "verify-assumptions": {"scheme": {}, "experiment": {}},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with defaults applied.

    ``model`` is the model its block builds.  ``scheme`` and ``experiment``
    hold the keys the subcommand reads.  ``digest`` is the SHA-256 of the
    canonical JSON of (seed, model block, scheme, experiment), with
    ``ladder_rungs`` clamped to the rungs the probe runs; the io block
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

    def plan(self, cls):
        """The ``cls`` plan of this run, every field from the run and none at its default.

        The model, the seed as ``master_seed``, the solver settings, and the
        ``scheme`` and ``experiment`` keys fill the fields; a field the run
        does not hold is a ``KeyError``.
        """
        values = {"model": self.model, "master_seed": self.seed, "solver": self.solver,
                  **self.scheme, **self.experiment}
        return cls(**{f.name: values[f.name] for f in fields(cls)})


def config_digest(seed: int, model: dict, scheme: dict, experiment: dict) -> str:
    canonical = json.dumps(
        {"seed": seed, "model": model, "scheme": scheme, "experiment": experiment},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _integer(value):
    if not _is_int(value):
        raise ValueError(f"must be an integer, got {value!r}")
    return value


def _number(value) -> float:
    """A JSON number as a float, which may be infinite or NaN.

    Python's ``json`` reads ``NaN`` and ``Infinity``, and ``1e400`` as inf;
    the rules that read a number check that it is finite.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        return math.inf if value > 0 else -math.inf


def _finite(value) -> float | None:
    """``value`` as a float when it is a finite JSON number, else None."""
    try:
        number = _number(value)
    except ValueError:
        return None
    return number if math.isfinite(number) else None


def _numbers(value) -> tuple:
    try:
        if isinstance(value, list):
            return tuple(map(_number, value))
    except ValueError:
        pass
    raise ValueError(f"must be a list of numbers, got {value!r}")


def _text(value):
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


# The type check of each key of the scheme, experiment and io blocks: it
# returns the value to keep, a float for a float-typed key, or raises
# ValueError.  Any JSON value is a method name to check: its rule names the
# samplers whatever the value.
_TYPES = {
    "scheme": {
        "steps": _integer, "max_iter": _integer, "method": lambda value: value,
        **dict.fromkeys(("horizon", "tol_abs", "tol_rel", "bracket_growth"), _number),
    },
    "experiment": {
        **dict.fromkeys(("paths", "k_min", "k_max", "k_ref", "ladder_rungs"), _integer),
        "p": _number, "p_list": _numbers,
    },
    "io": {"out_dir": _text},
}

# For each subcommand, the rule tables of the classes its run builds from
# the scheme and experiment keys.  The probe's table comes first, so that a
# file's errors list the grid and method keys before the solver's.
_TABLES = {
    "simulate": (ProbePlan.rules, SolverSettings.rules),
    "converge": (SolverSettings.rules, ExperimentPlan.rules),
    "moments": (ProbePlan.rules, SolverSettings.rules),
    "verify-assumptions": (),
}


def _rules(command: str) -> tuple:
    """The rules a ``command`` run checks on its scheme and experiment keys.

    Every rule of its tables, and for each key they have no rule on, the
    one-key rules on it of the first subcommand whose tables have one: a
    ``paths`` the command does not read gets the moment probe's
    ``paths >= 1``, not the ladder's ``paths >= 2``.
    """
    rules = [rule for table in _TABLES[command] for rule in table]
    for tables in _TABLES.values():
        covered = {key for key, _, _ in rules}
        rules += [
            rule for table in tables for rule in table
            if rule[0] not in covered and reads(rule[2]) == (rule[0],)
        ]
    return tuple(dict.fromkeys(rules))


_RULES = {command: _rules(command) for command in _TABLES}


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
    errors.extend(f"$.model.{broken}" for broken in broken_rules(MODELS[family].rules, out))
    return out if not any(e.startswith("$.model") for e in errors) else None


def _check_block(
    name: str, block, read: dict, command: str, errors: list[str]
) -> tuple[dict, dict]:
    """The keys of ``block`` that pass their type check, and the run's keys.

    The run's keys are those of ``read``, with the values ``block`` gives
    them or their defaults.  Every key of ``block`` is checked, read or not.
    An unset key whose default is None is an error: ``command`` requires it.
    """
    if block is None:
        block = {}
    elif not isinstance(block, dict):
        errors.append(f"$.{name}: must be an object")
        block = {}
    values = {}
    for key, value in block.items():
        check = _TYPES[name].get(key)
        if check is None:
            errors.append(f"$.{name}.{key}: unknown key")
            continue
        try:
            values[key] = check(value)
        except ValueError as exc:
            errors.append(f"$.{name}.{key}: {exc}")
    out = {key: value for key, value in values.items() if key in read}
    for key, default in read.items():
        if key in block:
            continue
        if default is not None:
            out[key] = default
        else:
            errors.append(f"$.{name}.{key}: required for {command}")
    return values, out


def _duplicate_keys(node, path: str = "$"):
    """``<path>.<key>: duplicate key`` for each key that an object in ``node`` repeats.

    ``node`` is the JSON as ``json.loads`` reads it with ``object_pairs_hook=tuple``,
    each object the tuple of its (key, value) pairs in the file's order.
    """
    if isinstance(node, tuple):
        keys = [key for key, _ in node]
        for key in dict.fromkeys(key for key in keys if keys.count(key) > 1):
            yield f"{path}.{key}: duplicate key"
        for key, item in node:
            yield from _duplicate_keys(item, f"{path}.{key}")
    elif isinstance(node, list):
        for index, item in enumerate(node):
            yield from _duplicate_keys(item, f"{path}[{index}]")


def parse_config(text: str, command: str, overrides: dict | None = None) -> RunConfig:
    """Parse and validate configuration JSON for ``command``, reporting every violation.

    ``overrides`` holds command-line values in the file's shape, for example
    ``{"seed": 3, "scheme": {"steps": 16}}``; each one that is not None
    replaces the file's value before validation.  A file that repeats a key
    in any object is refused first, with every repeated key named.  The run
    holds the model its block builds and the scheme and experiment keys that
    ``COMMAND_KEYS[command]`` names, each unset one at its default; its
    digest covers the seed, the model block and exactly those keys,
    ``ladder_rungs`` at the count the moment probe clamps it to.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"$: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"]
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError(["$: top level must be an object"])
    duplicates = list(_duplicate_keys(json.loads(text, object_pairs_hook=tuple)))
    if duplicates:
        raise ConfigError(duplicates)
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

    (scheme_values, scheme), (experiment_values, experiment) = (
        _check_block(name, raw.get(name), COMMAND_KEYS[command][name], command, errors)
        for name in ("scheme", "experiment")
    )
    # a rule is checked once every key it reads is present and of its type
    broken = broken_rules(_RULES[command], {**scheme_values, **experiment_values})
    for name in ("scheme", "experiment"):
        errors.extend(f"$.{name}.{b}" for b in broken if b.partition(":")[0] in _TYPES[name])
    _, io_block = _check_block("io", raw.get("io"), {"out_dir": "."}, command, errors)

    if errors:
        raise ConfigError(errors)
    params = dict(model)
    try:
        # the certificate's checks surface through the model constructors
        spec = MODELS[params.pop("model")](**params)
    except ParameterError as exc:
        raise ConfigError([f"$.model: {exc}"]) from None
    hashed = dict(experiment)
    if "ladder_rungs" in hashed:
        hashed["ladder_rungs"] = modulus_rungs(hashed["ladder_rungs"], scheme["steps"])
    digest = config_digest(seed, model, scheme, hashed)
    return RunConfig(seed, spec, scheme, experiment, io_block, digest)

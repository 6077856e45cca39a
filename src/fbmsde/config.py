"""JSON run configuration: strict schema, full error reporting, stable digest.

A configuration has up to five top-level keys:

    seed        master seed, an integer in [0, 2^64) (required)
    model       model family and parameters (required)
    scheme      step count, tolerances, sampler method (defaults filled)
    experiment  ladder levels, path count, error moment order (converge/moments)
    io          output locations (excluded from the config digest)

Validation is strict and total: unknown keys anywhere are rejected, every
violation is reported with its JSON path, and all errors are collected in one
pass instead of stopping at the first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .drifts import AitSahaliaModel, MeanRevertingModel, ModelSpec
from .errors import ConfigError, ParameterError
from .fbm import SEED_LIMIT

__all__ = ["RunConfig", "parse_config", "config_digest"]

_SCHEME_DEFAULTS = {
    "steps": None,
    "horizon": 1.0,
    "tol_abs": 1e-12,
    "tol_rel": 1e-12,
    "max_iter": 200,
    "bracket_growth": 2.0,
    "method": "circulant",
}

_EXPERIMENT_DEFAULTS = {
    "paths": None,
    "p": 2.0,
    "k_min": None,
    "k_max": None,
    "k_ref": None,
    "p_list": None,
    "ladder_rungs": 6,
}

_IO_DEFAULTS = {"out_dir": "."}

_MODEL_KEYS = {
    "mean_reverting": {"a1", "a2", "gamma", "sigma", "y0", "hurst"},
    "ait_sahalia": {"a_m1", "a0", "a1", "a2", "r", "rho", "sigma", "y0", "hurst"},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with defaults applied.

    ``digest`` is the SHA-256 of the canonical JSON of (seed, model, scheme,
    experiment); the io block is deliberately excluded so that redirecting
    outputs does not change a run's identity.
    """

    seed: int
    model: dict
    scheme: dict
    experiment: dict
    io: dict
    digest: str

    def build_model(self) -> ModelSpec:
        block = dict(self.model)
        family = block.pop("model")
        if family == "mean_reverting":
            return MeanRevertingModel(**block)
        return AitSahaliaModel(**block)


def config_digest(seed: int, model: dict, scheme: dict, experiment: dict) -> str:
    canonical = json.dumps(
        {"seed": seed, "model": model, "scheme": scheme, "experiment": experiment},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_model(block, errors: list[str]) -> dict | None:
    if not isinstance(block, dict):
        errors.append("$.model: must be an object")
        return None
    family = block.get("model")
    if family not in _MODEL_KEYS:
        errors.append(
            "$.model.model: must be one of 'mean_reverting', 'ait_sahalia', "
            f"got {family!r}"
        )
        return None
    allowed = _MODEL_KEYS[family]
    for key in block:
        if key != "model" and key not in allowed:
            errors.append(f"$.model.{key}: unknown key")
    out = {"model": family}
    for key in sorted(allowed):
        if key not in block:
            errors.append(f"$.model.{key}: required for the {family} family")
            continue
        value = block[key]
        if not _is_number(value):
            errors.append(f"$.model.{key}: must be a number, got {value!r}")
            continue
        out[key] = float(value)

    def have(*names):
        return all(name in out for name in names)

    if family == "mean_reverting" and have("gamma") and not (0.5 <= out["gamma"] < 1.0):
        errors.append(f"$.model.gamma: must lie in [0.5, 1), got {out['gamma']}")
    if family == "ait_sahalia":
        for key in ("a_m1", "a0", "a1", "a2"):
            if have(key) and not out[key] > 0.0:
                errors.append(f"$.model.{key}: must be positive, got {out[key]}")
        if have("rho") and not out["rho"] > 1.0:
            errors.append(f"$.model.rho: must exceed 1, got {out['rho']}")
    if have("hurst") and not (0.5 < out["hurst"] < 1.0):
        errors.append(f"$.model.hurst: must lie in (0.5, 1), got {out['hurst']}")
    if have("sigma") and out["sigma"] == 0.0:
        errors.append("$.model.sigma: must be nonzero")
    if have("y0") and not out["y0"] > 0.0:
        errors.append(f"$.model.y0: must be positive, got {out['y0']}")
    return out if not any(e.startswith("$.model") for e in errors) else None


def _check_block(
    name: str, block, defaults: dict, errors: list[str]
) -> dict:
    out = dict(defaults)
    if block is None:
        return out
    if not isinstance(block, dict):
        errors.append(f"$.{name}: must be an object")
        return out
    for key, value in block.items():
        if key not in defaults:
            errors.append(f"$.{name}.{key}: unknown key")
            continue
        out[key] = value
    return out


def _require_int(block: dict, name: str, key: str, errors: list[str], minimum: int):
    value = block.get(key)
    if value is None:
        return
    if not _is_int(value):
        errors.append(f"$.{name}.{key}: must be an integer, got {value!r}")
    elif value < minimum:
        errors.append(f"$.{name}.{key}: must be >= {minimum}, got {value}")


def _require_positive(block: dict, name: str, key: str, errors: list[str]):
    value = block.get(key)
    if value is None:
        return
    if not _is_number(value) or not value > 0:
        errors.append(f"$.{name}.{key}: must be a positive number, got {value!r}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration JSON, reporting every violation."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"$: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"]
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError(["$: top level must be an object"])

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

    scheme = _check_block("scheme", raw.get("scheme"), _SCHEME_DEFAULTS, errors)
    _require_int(scheme, "scheme", "steps", errors, 1)
    _require_positive(scheme, "scheme", "horizon", errors)
    _require_positive(scheme, "scheme", "tol_abs", errors)
    _require_positive(scheme, "scheme", "tol_rel", errors)
    _require_int(scheme, "scheme", "max_iter", errors, 8)
    if scheme["method"] not in ("circulant", "cholesky"):
        errors.append(
            f"$.scheme.method: must be 'circulant' or 'cholesky', got {scheme['method']!r}"
        )
    growth = scheme["bracket_growth"]
    if not _is_number(growth) or not growth > 1.0:
        errors.append(f"$.scheme.bracket_growth: must exceed 1, got {growth!r}")

    experiment = _check_block(
        "experiment", raw.get("experiment"), _EXPERIMENT_DEFAULTS, errors
    )
    _require_int(experiment, "experiment", "paths", errors, 1)
    for key in ("k_min", "k_max", "k_ref"):
        _require_int(experiment, "experiment", key, errors, 1)
    p = experiment["p"]
    if not _is_number(p) or p < 1.0:
        errors.append(f"$.experiment.p: must be a number >= 1, got {p!r}")
    if experiment["p_list"] is not None:
        plist = experiment["p_list"]
        if not isinstance(plist, list) or not plist or not all(
            _is_number(v) and v > 0 for v in plist
        ):
            errors.append(
                f"$.experiment.p_list: must be a non-empty list of positive numbers"
            )
        else:
            # 2 and 2.0 are one order: a repeat would fold twice into its moment
            orders = [float(v) for v in plist]
            for i, v in enumerate(orders):
                if v in orders[:i]:
                    errors.append(f"$.experiment.p_list: duplicate order {v}")
                    break
    _require_int(experiment, "experiment", "ladder_rungs", errors, 1)

    io_block = _check_block("io", raw.get("io"), _IO_DEFAULTS, errors)
    if not isinstance(io_block["out_dir"], str):
        errors.append(f"$.io.out_dir: must be a string, got {io_block['out_dir']!r}")

    if model is not None and not errors:
        # cross-field constraints surface through the model constructors
        try:
            cfg = RunConfig(seed, model, scheme, experiment, io_block, "")
            cfg.build_model()
        except ParameterError as exc:
            errors.append(f"$.model: {exc}")

    if errors:
        raise ConfigError(errors)
    digest = config_digest(seed, model, scheme, experiment)
    return RunConfig(seed, model, scheme, experiment, io_block, digest)

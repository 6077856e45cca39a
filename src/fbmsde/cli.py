"""Command-line entry point.

Subcommands: fbm, simulate, converge, moments, verify-assumptions.  Outputs
are written atomically (temp file then rename), floats are serialized with
their shortest round-trip representation, and every output file begins with
the master seed and a configuration digest, so reruns of the same
configuration are byte identical regardless of --threads.

Exit codes: 0 success, 1 validation failure, 2 runtime failure, 3 converge
order band failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from .config import RunConfig, config_digest, parse_config
from .convergence import (
    ExperimentPlan,
    _draw_chunk,
    _raise_first_failure,
    moment_probe,
    run_strong_error,
)
from .drifts import audit_assumptions, lamperti_inverse
from .errors import ConfigError, FbmsdeError, ParameterError, UsageError
from .fbm import TimeGrid, make_sampler
from .solver import SchemeConfig, SolverSettings, check_step_bound, integrate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_BAND = 3


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_head(seed: int, digest: str, header: list[str]) -> list[str]:
    return [f"# master_seed={seed} config_digest={digest}", ",".join(header)]


def _csv_text(seed: int, digest: str, header: list[str], rows) -> str:
    lines = _csv_head(seed, digest, header)
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(seed: int, digest: str, payload: dict) -> str:
    body = {"meta": {"master_seed": seed, "config_digest": digest}}
    body.update(payload)
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def _given(overrides: dict | None) -> dict:
    return {k: v for k, v in (overrides or {}).items() if v is not None}


def _load_config(args, scheme=None, experiment=None) -> RunConfig:
    """Parse ``--config`` and apply the CLI overrides before the digest.

    ``--seed`` and any non-None entry of ``scheme``/``experiment`` replace the
    configured value, so the digest names the run that is actually made.
    """
    if not args.config:
        raise ConfigError(["--config is required for this subcommand"])
    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError([f"cannot read config file {args.config!r}: {exc}"]) from None
    cfg = parse_config(text)
    seed = cfg.seed if args.seed is None else args.seed
    scheme = {**cfg.scheme, **_given(scheme)}
    experiment = {**cfg.experiment, **_given(experiment)}
    return RunConfig(
        seed, cfg.model, scheme, experiment, cfg.io,
        config_digest(seed, cfg.model, scheme, experiment),
    )


def _solver_settings(cfg: RunConfig) -> SolverSettings:
    """The root-solver settings named by the ``scheme`` block."""
    return SolverSettings(
        tol_abs=cfg.scheme["tol_abs"],
        tol_rel=cfg.scheme["tol_rel"],
        max_iter=cfg.scheme["max_iter"],
        bracket_growth=cfg.scheme["bracket_growth"],
    )


def _out_dir(args, cfg: RunConfig | None) -> str:
    if args.out_dir:
        return args.out_dir
    if cfg is not None:
        return cfg.io["out_dir"]
    return "."


def _cmd_fbm(args) -> int:
    params = {
        "subcommand": "fbm",
        "hurst": args.hurst,
        "steps": args.steps,
        "horizon": args.horizon,
        "paths": args.paths,
        "seed": args.seed if args.seed is not None else 0,
        "method": args.method,
    }
    if args.paths < 1:
        raise UsageError(f"--paths must be >= 1, got {args.paths}")
    seed = params["seed"]
    digest = config_digest(seed, params, {}, {})
    grid = TimeGrid(args.horizon, args.steps)
    sampler = make_sampler(args.method, args.hurst, grid)
    times = grid.times

    def rows():
        for i in range(args.paths):
            path = sampler.sample(seed, i)
            for n in range(args.steps + 1):
                yield (i, n, times[n], path.values[n])

    _atomic_write(
        args.out,
        _csv_text(seed, digest, ["path_index", "node_index", "time", "value"], rows()),
    )
    print(f"wrote {args.paths} paths to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _load_config(
        args, scheme={"steps": args.steps}, experiment={"paths": args.paths}
    )
    model = cfg.build_model()
    drift, cert = model.drift()
    steps = cfg.scheme["steps"]
    if steps is None:
        raise ConfigError(["$.scheme.steps: required for simulate"])
    paths = cfg.experiment["paths"]
    if paths is None:
        paths = 1
    if paths < 1:
        raise ConfigError([f"$.experiment.paths: must be >= 1, got {paths}"])
    scheme = SchemeConfig.for_model(
        model, cfg.scheme["horizon"], steps, _solver_settings(cfg)
    )
    check_step_bound(cert, scheme.h)
    grid = TimeGrid(scheme.horizon, steps)
    sampler = make_sampler(cfg.scheme["method"], model.hurst, grid)
    noise = _draw_chunk(sampler, cfg.seed, 0, paths, [1])[1]
    sol = integrate(drift, scheme, noise, cert)
    _raise_first_failure(sol.failures, 0)
    y = lamperti_inverse(model, sol.values)
    out = args.out or os.path.join(_out_dir(args, cfg), "simulate.csv")
    # Formatted a column at a time: repr of a Python float and str of a Python
    # int are what _fmt writes for each value, and the columns shared by all
    # paths are formatted once.
    lines = _csv_head(
        cfg.seed,
        cfg.digest,
        ["path_index", "node_index", "time", "x_value", "y_value", "residual", "iterations"],
    )
    nodes = list(map(str, range(steps + 1)))
    times = list(map(repr, grid.times.tolist()))
    # Residuals are rounding-level values, so few are distinct: each distinct
    # bit pattern (which keeps -0.0 apart from 0.0) is formatted once.
    keys, inverse = np.unique(sol.residuals.view(np.int64), return_inverse=True)
    distinct = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
    residual_text = distinct[inverse].reshape(sol.residuals.shape)
    for i in range(paths):
        residuals = ["0.0", *residual_text[i].tolist()]
        iterations = ["0", *map(str, sol.iterations[i].tolist())]
        lines.extend(
            map(
                ",".join,
                zip(
                    itertools.repeat(str(i)),
                    nodes,
                    times,
                    map(repr, sol.values[i].tolist()),
                    map(repr, y[i].tolist()),
                    residuals,
                    iterations,
                ),
            )
        )
    _atomic_write(out, "\n".join(lines) + "\n")
    print(f"wrote {paths} trajectories to {out}")
    return EXIT_OK


def _build_plan(cfg: RunConfig) -> ExperimentPlan:
    exp = cfg.experiment
    missing = [k for k in ("paths", "k_min", "k_max", "k_ref") if exp[k] is None]
    if missing:
        raise ConfigError(
            [f"$.experiment.{k}: required for converge" for k in missing]
        )
    return ExperimentPlan(
        model=cfg.build_model(),
        horizon=cfg.scheme["horizon"],
        p=float(exp["p"]),
        k_min=exp["k_min"],
        k_max=exp["k_max"],
        k_ref=exp["k_ref"],
        paths=exp["paths"],
        master_seed=cfg.seed,
        method=cfg.scheme["method"],
        solver=_solver_settings(cfg),
    )


def _cmd_converge(args) -> int:
    cfg = _load_config(args)
    plan = _build_plan(cfg)
    report = run_strong_error(
        plan, workers=args.threads, keep_paths=args.keep_paths
    )
    out_dir = _out_dir(args, cfg)
    level_rows = [
        (lv.k, lv.h, lv.estimates["y_interp"]["e"], lv.estimates["y_interp"]["stderr"])
        for lv in report.levels
    ]
    _atomic_write(
        os.path.join(out_dir, "levels.csv"),
        _csv_text(cfg.seed, cfg.digest, ["level", "h", "e_mean", "e_stderr"], level_rows),
    )
    payload = report.to_dict()
    if report.per_path_errors is not None:
        rows = []
        for pos, path_index in enumerate(report.per_path_errors["paths"]):
            for k_str, kinds in report.per_path_errors["errors"].items():
                rows.append(
                    (
                        path_index,
                        int(k_str),
                        kinds["x_interp"][pos],
                        kinds["x_node"][pos],
                        kinds["y_interp"][pos],
                        kinds["y_node"][pos],
                    )
                )
        _atomic_write(
            os.path.join(out_dir, "errors.csv"),
            _csv_text(
                cfg.seed,
                cfg.digest,
                ["path_index", "level", "x_interp", "x_node", "y_interp", "y_node"],
                rows,
            ),
        )
    _atomic_write(
        os.path.join(out_dir, "report.json"),
        _json_text(cfg.seed, cfg.digest, payload),
    )
    band = report.order_band
    print(
        f"observed order {band['observed']:.4f} vs target {band['target']:.4f} "
        f"({band['mode']}, tolerance {band['tolerance']}) -> "
        f"{'pass' if report.passed else 'FAIL'}"
    )
    if report.incomplete:
        print(f"incomplete: {len(report.failures)} path(s) failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK if report.passed else EXIT_BAND


def _cmd_moments(args) -> int:
    cfg = _load_config(args)
    model = cfg.build_model()
    steps = cfg.scheme["steps"]
    paths = cfg.experiment["paths"]
    if steps is None:
        raise ConfigError(["$.scheme.steps: required for moments"])
    if paths is None:
        raise ConfigError(["$.experiment.paths: required for moments"])
    p_list = cfg.experiment["p_list"] or [2.0, 4.0]
    probe = moment_probe(
        model,
        cfg.scheme["horizon"],
        steps,
        paths,
        p_list,
        cfg.seed,
        ladder_rungs=cfg.experiment["ladder_rungs"],
        method=cfg.scheme["method"],
        solver=_solver_settings(cfg),
    )
    out_dir = _out_dir(args, cfg)
    _atomic_write(
        os.path.join(out_dir, "moments.csv"),
        _csv_text(
            cfg.seed,
            cfg.digest,
            ["p", "negative_moment", "positive_moment"],
            [
                (p, probe.negative_moments[p], probe.positive_moments[p])
                for p in probe.p_list
            ],
        ),
    )
    _atomic_write(
        os.path.join(out_dir, "modulus.csv"),
        _csv_text(
            cfg.seed,
            cfg.digest,
            ["h", "ratio"],
            list(zip(probe.ladder_h, probe.modulus_ratios)),
        ),
    )
    _atomic_write(
        os.path.join(out_dir, "probe.json"),
        _json_text(cfg.seed, cfg.digest, probe.to_dict()),
    )
    print(f"wrote moment probe ({paths} paths, {steps} steps) to {out_dir}")
    return EXIT_OK


def _cmd_verify_assumptions(args) -> int:
    cfg = _load_config(args)
    model = cfg.build_model()  # hard constraints checked at construction
    drift, cert = model.drift()
    report = audit_assumptions(drift, cert)
    print(f"drift: {report.drift_name}")
    print(
        f"certificate: K={cert.K:.6g} alpha={cert.alpha:.6g} theta={cert.theta:.6g} "
        f"q={cert.q:.6g} h0={cert.h0:.6g} regime={cert.alpha_regime}"
    )
    print(report.table())
    if not report.all_passed:
        print("assumption audit FAILED", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker pool size (results are identical for any value)",
    )
    parser.add_argument("--out-dir", default=None, help="output directory override")
    parser.add_argument(
        "--keep-paths", action="store_true", help="also write per-path errors"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmsde",
        description=(
            "Positivity-preserving drift-implicit Euler scheme for singular-drift "
            "SDEs driven by fractional Brownian motion"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fbm = sub.add_parser("fbm", help="sample fractional Brownian motion paths")
    p_fbm.add_argument("--hurst", type=float, required=True)
    p_fbm.add_argument("--steps", type=int, required=True)
    p_fbm.add_argument("--horizon", type=float, default=1.0)
    p_fbm.add_argument("--paths", type=int, default=1)
    p_fbm.add_argument("--seed", type=int, default=0)
    p_fbm.add_argument("--method", choices=("cholesky", "circulant"), default="circulant")
    p_fbm.add_argument("--out", required=True, help="output CSV")

    p_sim = sub.add_parser("simulate", help="integrate trajectories of a model")
    _add_common(p_sim)
    p_sim.add_argument("--steps", type=int, default=None)
    p_sim.add_argument("--paths", type=int, default=None)
    p_sim.add_argument("--out", default=None, help="output CSV")

    p_conv = sub.add_parser("converge", help="strong-order ladder experiment")
    _add_common(p_conv)
    p_conv.add_argument(
        "--plan", dest="config", help="experiment plan JSON (alias for --config)"
    )

    p_mom = sub.add_parser("moments", help="extreme-moment and modulus probes")
    _add_common(p_mom)

    p_ver = sub.add_parser(
        "verify-assumptions", help="audit the drift assumption certificate"
    )
    _add_common(p_ver)

    return parser


_DISPATCH = {
    "fbm": _cmd_fbm,
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "moments": _cmd_moments,
    "verify-assumptions": _cmd_verify_assumptions,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise UsageError(f"--threads must be >= 1, got {args.threads}")
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ParameterError, UsageError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FbmsdeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

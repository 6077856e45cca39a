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
from collections.abc import Iterable, Iterator

import numpy as np

from .config import RunConfig, config_digest, parse_config
from .convergence import (
    ERROR_KINDS,
    ExperimentPlan,
    ProbePlan,
    _available_cpus,
    _raise_first_failure,
    map_chunks,
    moment_probe,
    run_strong_error,
)
from .drifts import audit_assumptions, lamperti_inverse
from .errors import ConfigError, FbmsdeError, ParameterError
from .fbm import DEFAULT_SAMPLER, SAMPLERS, SEED_LIMIT, TimeGrid, path_values
from .solver import SchemeConfig, integrate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_BAND = 3


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _atomic_write(path: str, parts: Iterable[str]) -> None:
    """Write the text pieces of ``parts``, in order, to ``path``.

    The pieces go to a temp file beside ``path``, which replaces it only after
    the last piece is written.  Nothing is created until the first piece is
    taken; if the iterable or a write raises after that, the temp file is
    removed and an existing ``path`` keeps its old bytes.
    """
    parts = iter(parts)
    first = next(parts, "")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(first)
            handle.writelines(parts)
        # the mode a plain open gives, not mkstemp's 0600, which replace keeps
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_head(seed: int, digest: str, header: list[str]) -> str:
    return f"# master_seed={seed} config_digest={digest}\n" + ",".join(header) + "\n"


def _csv_text(seed: int, digest: str, header: list[str], rows) -> Iterator[str]:
    """The CSV's lines, each with its newline, ``rows`` read one at a time."""
    yield _csv_head(seed, digest, header)
    for row in rows:
        yield ",".join(_fmt(v) for v in row) + "\n"


# Lines per piece of a path's CSV text: about 20 KB, so a path's rows are
# formatted and written in pieces whatever its step count.
PATH_TEXT_LINES = 256


def _items(values: np.ndarray) -> Iterator:
    """The entries of a 1-D array as Python scalars, PATH_TEXT_LINES at a time."""
    return itertools.chain.from_iterable(
        values[start : start + PATH_TEXT_LINES].tolist()
        for start in range(0, len(values), PATH_TEXT_LINES)
    )


def _path_text(index: int, nodes: list[str], times: list[str], *columns) -> Iterator[str]:
    """One path's CSV rows from its index and columns of formatted values.

    Each column is an iterable of the path's formatted values, repr of a
    Python float or str of a Python int, which is what :func:`_fmt` writes
    for each value.  The rows come in pieces of PATH_TEXT_LINES lines, each
    line with its newline, so neither the path's text nor its list of lines
    is held whole; with columns that are read lazily, as ``_items`` gives
    them, no whole-path list of formatted values is held either.
    """
    lines = map(",".join, zip(itertools.repeat(str(index)), nodes, times, *columns))
    while block := list(itertools.islice(lines, PATH_TEXT_LINES)):
        yield "\n".join(block) + "\n"


def _json_text(seed: int, digest: str, payload: dict) -> str:
    body = {"meta": {"master_seed": seed, "config_digest": digest}}
    body.update(payload)
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def _seed_flag(seed: int | None) -> int | None:
    """``--seed``, checked to lie in the master seed range [0, 2^64) when given."""
    if seed is not None and not 0 <= seed < SEED_LIMIT:
        raise ParameterError(f"--seed must lie in [0, 2^64), got {seed}")
    return seed


def _load_config(args, **overrides) -> RunConfig:
    """Parse ``--config`` for the subcommand, with the command-line overrides.

    ``--seed``, ``--out-dir`` and the non-None values of ``overrides``, given
    in the shape of the file's blocks, replace the configured values before
    validation, so the digest names the run that is actually made.
    """
    if not args.config:
        raise ConfigError(["--config is required for this subcommand"])
    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError([f"cannot read config file {args.config!r}: {exc}"]) from None
    overrides = {
        "seed": _seed_flag(getattr(args, "seed", None)),
        "io": {"out_dir": getattr(args, "out_dir", None)},
        **overrides,
    }
    return parse_config(text, args.command, overrides)


def _cmd_fbm(args) -> int:
    params = {
        "subcommand": "fbm",
        "hurst": args.hurst,
        "steps": args.steps,
        "horizon": args.horizon,
        "paths": args.paths,
        "seed": _seed_flag(args.seed),
        "method": args.method,
    }
    if args.paths < 1:
        raise ParameterError(f"--paths must be >= 1, got {args.paths}")
    seed = params["seed"]
    digest = config_digest(seed, params, {}, {})
    grid = TimeGrid(args.horizon, args.steps)
    # the times first: numpy refuses a grid too large for memory at once,
    # where the node labels would grow until the process is killed
    times = list(map(repr, grid.times.tolist()))
    nodes = list(map(str, range(args.steps + 1)))
    head = _csv_head(seed, digest, ["path_index", "node_index", "time", "value"])

    def paths_text(start: int, values: np.ndarray) -> Iterator[str]:
        """The CSV rows of one chunk's node values, after the head for the first chunk."""
        if not start:
            yield head
        for i, row in enumerate(values, start):
            yield from _path_text(i, nodes, times, map(repr, _items(row)))

    # one batch per chunk, each freed with its last row, so the arrays held
    # are bounded by the chunk
    chunks = map_chunks(
        lambda noise, start: path_values(noise), args.method, args.hurst, grid, seed,
        args.paths,
    )
    _atomic_write(args.out, itertools.chain.from_iterable(itertools.starmap(paths_text, chunks)))
    print(f"wrote {args.paths} paths to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _load_config(
        args, scheme={"steps": args.steps}, experiment={"paths": args.paths}
    )
    model = cfg.model
    steps, paths = cfg.scheme["steps"], cfg.experiment["paths"]
    scheme = SchemeConfig.for_model(model, TimeGrid(cfg.scheme["horizon"], steps), cfg.solver)
    out = args.out or os.path.join(cfg.io["out_dir"], "simulate.csv")
    # the times first: numpy refuses a grid too large for memory at once,
    # where the node labels would grow until the process is killed
    times = list(map(repr, scheme.grid.times.tolist()))
    nodes = list(map(str, range(steps + 1)))
    header = ["path_index", "node_index", "time", "x_value", "y_value", "residual", "iterations"]
    head = _csv_head(cfg.seed, cfg.digest, header)

    def paths_text(start: int, sol) -> Iterator[str]:
        """The CSV rows of one chunk's solution, the first of its paths path ``start``.

        The chunk has integrated before its first row is asked for, so the
        first chunk yields the CSV head only then, and a run that fails
        there creates no file.
        """
        _raise_first_failure(sol.failures, start)
        if not start:
            yield head
        # Only one piece of one path's text, and one path's temporaries of
        # the inverse Lamperti map, are held at a time; the columns shared
        # by all paths are formatted once.
        for i, x in enumerate(sol.values):
            # Residuals are rounding-level values and iteration counts small
            # integers, so few of either are distinct: each distinct value
            # (for residuals each bit pattern, which keeps -0.0 apart from
            # 0.0) is formatted once.
            keys, residual = np.unique(sol.residuals[i].view(np.int64), return_inverse=True)
            residual_text = list(map(repr, keys.view(np.float64).tolist()))
            keys, count = np.unique(sol.iterations[i], return_inverse=True)
            count_text = list(map(str, keys.tolist()))
            yield from _path_text(
                start + i,
                nodes,
                times,
                map(repr, _items(x)),
                map(repr, _items(lamperti_inverse(model, x))),
                itertools.chain(["0.0"], map(residual_text.__getitem__, _items(residual))),
                itertools.chain(["0"], map(count_text.__getitem__, _items(count))),
            )

    # One chunk of paths at a time, so memory does not grow with --paths: a
    # chunk's noise is freed once it has integrated, and its solution once
    # its last row is taken, before the next chunk is drawn.
    chunks = map_chunks(
        lambda noise, start: integrate(scheme, noise), cfg.scheme["method"], model.hurst,
        scheme.grid, cfg.seed, paths,
    )
    _atomic_write(out, itertools.chain.from_iterable(itertools.starmap(paths_text, chunks)))
    print(f"wrote {paths} trajectories to {out}")
    return EXIT_OK


def _cmd_converge(args) -> int:
    cfg = _load_config(args)
    plan = cfg.plan(ExperimentPlan)
    report = run_strong_error(plan, workers=args.threads)
    out_dir = cfg.io["out_dir"]
    level_rows = [
        (lv.k, lv.h, lv.errors["y_interp"]["e"], lv.errors["y_interp"]["stderr"])
        for lv in report.levels
    ]
    _atomic_write(
        os.path.join(out_dir, "levels.csv"),
        _csv_text(cfg.seed, cfg.digest, ["level", "h", "e_mean", "e_stderr"], level_rows),
    )
    payload = report.to_dict()
    if args.keep_paths:
        paths, errors = report.per_path_errors
        # one row per (path, level): the path's four error kinds at that level
        rows = (
            (path, k, *by_kind[:, pos].tolist())
            for pos, path in enumerate(paths.tolist())
            for k, by_kind in zip(plan.levels, errors)
        )
        _atomic_write(
            os.path.join(out_dir, "errors.csv"),
            _csv_text(
                cfg.seed,
                cfg.digest,
                ["path_index", "level", *ERROR_KINDS],
                rows,
            ),
        )
    _atomic_write(
        os.path.join(out_dir, "report.json"),
        [_json_text(cfg.seed, cfg.digest, payload)],
    )
    band = report.order_band
    print(
        f"observed order {band['observed']:.4f} vs target {band['target']:.4f} "
        f"({band['mode']}, tolerance {band['tolerance']}) -> "
        f"{'pass' if report.passed else 'FAIL'}"
    )
    if report.incomplete:
        path, level, step = report.failures[0]
        print(
            f"incomplete: {len(report.failures)} path(s) failed, the first "
            f"path {path} at level {level}, step {step}",
            file=sys.stderr,
        )
        return EXIT_RUNTIME
    return EXIT_OK if report.passed else EXIT_BAND


def _cmd_moments(args) -> int:
    cfg = _load_config(args)
    plan = cfg.plan(ProbePlan)
    probe = moment_probe(plan)
    out_dir = cfg.io["out_dir"]
    _atomic_write(
        os.path.join(out_dir, "moments.csv"),
        _csv_text(
            cfg.seed,
            cfg.digest,
            ["p", "negative_moment", "positive_moment"],
            [
                (p, probe.negative_moments[p], probe.positive_moments[p])
                for p in plan.p_list
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
        [_json_text(cfg.seed, cfg.digest, probe.to_dict())],
    )
    print(f"wrote moment probe ({plan.paths} paths, {plan.steps} steps) to {out_dir}")
    return EXIT_OK


def _cmd_verify_assumptions(args) -> int:
    drift, cert = _load_config(args).model.drift()
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


ONE_PROCESS = "ignored: this command runs in one process"


def _add_common(parser: argparse.ArgumentParser, threads_help: str) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument(
        "--threads", type=int, default=_available_cpus(), help=threads_help
    )
    parser.add_argument("--out-dir", default=None, help="output directory override")


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
    p_fbm.add_argument("--method", choices=sorted(SAMPLERS), default=DEFAULT_SAMPLER)
    p_fbm.add_argument("--out", required=True, help="output CSV")

    p_sim = sub.add_parser("simulate", help="integrate trajectories of a model")
    _add_common(p_sim, ONE_PROCESS)
    p_sim.add_argument("--steps", type=int, default=None)
    p_sim.add_argument("--paths", type=int, default=None)
    p_sim.add_argument("--out", default=None, help="output CSV")

    p_conv = sub.add_parser("converge", help="strong-order ladder experiment")
    _add_common(
        p_conv,
        "worker pool size, capped at the CPUs this process may use (the "
        "default); results are identical for any value",
    )
    p_conv.add_argument(
        "--plan", dest="config", help="experiment plan JSON (alias for --config)"
    )
    p_conv.add_argument(
        "--keep-paths", action="store_true", help="also write per-path errors"
    )

    p_mom = sub.add_parser("moments", help="extreme-moment and modulus probes")
    _add_common(p_mom, ONE_PROCESS)

    p_ver = sub.add_parser(
        "verify-assumptions", help="audit the drift assumption certificate"
    )
    p_ver.add_argument("--config", help="JSON configuration file")

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
            raise ParameterError(f"--threads must be >= 1, got {args.threads}")
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_VALIDATION
    except ParameterError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FbmsdeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ArithmeticError as exc:
        # an overflow or division the numerics did not anticipate is still a
        # runtime failure of this run, not a crash
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        # a run too large for this machine fails like any other run, and
        # writes no file
        print(f"runtime error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

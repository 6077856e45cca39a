"""Command-line entry point.

Subcommands: fbm, simulate, converge, moments, verify-assumptions.

Every output file goes through one of three writers: ``_write_paths`` for
the per-node trajectory CSVs of fbm and simulate, ``_write_table`` for every
other CSV, and ``_write_json`` for the JSON reports.  A CSV's first line is
``# master_seed=S config_digest=D`` and a JSON report holds the same two
values in its ``meta`` block, so each file names the run that wrote it.
Floats are serialized with their shortest round-trip representation and
JSON keys are sorted, so reruns of the same configuration are byte
identical regardless of --threads.  Each file is written atomically, to a
temp file that replaces it once complete: a run that fails before a file is
complete leaves no new file, and an existing one keeps its old bytes.

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
from collections.abc import Callable, Iterable, Iterator

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


def _write_table(cfg: RunConfig, name: str, header: list[str], rows: Iterable) -> None:
    """Write ``rows`` as the CSV ``name`` in the run's output directory, one
    line of :func:`_fmt` values each, read one at a time."""
    lines = (",".join(map(_fmt, row)) + "\n" for row in rows)
    _atomic_write(
        os.path.join(cfg.io["out_dir"], name),
        itertools.chain([_csv_head(cfg.seed, cfg.digest, header)], lines),
    )


def _write_json(cfg: RunConfig, name: str, payload: dict) -> None:
    """Write ``payload`` and its ``meta`` block as the JSON report ``name`` in
    the run's output directory."""
    body = {"meta": {"master_seed": cfg.seed, "config_digest": cfg.digest}, **payload}
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    _atomic_write(os.path.join(cfg.io["out_dir"], name), [text])


# Lines per piece of a path's CSV text: about 20 KB, so a path's rows are
# formatted and written in pieces whatever its step count.
PATH_TEXT_LINES = 256


def _items(values: np.ndarray) -> Iterator:
    """The entries of a 1-D array as Python scalars, PATH_TEXT_LINES at a time."""
    return itertools.chain.from_iterable(
        values[start : start + PATH_TEXT_LINES].tolist()
        for start in range(0, len(values), PATH_TEXT_LINES)
    )


def _write_paths(out: str, head: str, grid: TimeGrid, chunks: Iterable[tuple[int, object]],
                 columns: Callable[[int, object], Iterator[tuple]]) -> None:
    """Write the per-node CSV of every path of ``chunks`` to ``out``.

    ``chunks`` yields ``(start, result)`` in path order, as :func:`map_chunks`
    does, and ``columns(start, result)`` yields the value columns of each of
    the chunk's paths in turn: iterables of formatted values, one per node,
    repr of a Python float or str of a Python int as :func:`_fmt` writes
    them.  A row is the path's index, the node's index and time, and the
    node's values.  ``head`` is written once path 0's columns are produced,
    so a run that fails in its first chunk creates no file.  The rows go
    out in pieces of PATH_TEXT_LINES lines, so neither a path's text nor its
    list of lines is held whole; with columns read lazily, as ``_items``
    gives them, no whole-path list of formatted values is held either.
    """
    # the times first: numpy refuses a grid too large for memory at once,
    # where the node labels would grow until the process is killed
    times = list(map(repr, grid.times.tolist()))
    nodes = list(map(str, range(grid.steps + 1)))

    def chunk_text(start: int, result) -> Iterator[str]:
        for index, path_columns in enumerate(columns(start, result), start):
            if not index:
                yield head
            rows = zip(itertools.repeat(str(index)), nodes, times, *path_columns)
            lines = map(",".join, rows)
            while block := list(itertools.islice(lines, PATH_TEXT_LINES)):
                yield "\n".join(block) + "\n"

    # one generator per chunk, so the chunk's result and its last path's
    # columns are freed with it, before the next chunk is drawn
    _atomic_write(out, itertools.chain.from_iterable(itertools.starmap(chunk_text, chunks)))


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
    head = _csv_head(
        seed, config_digest(seed, params, {}, {}), ["path_index", "node_index", "time", "value"]
    )
    grid = TimeGrid(args.horizon, args.steps)
    # one batch per chunk, each freed with its last row, so the arrays held
    # are bounded by the chunk
    chunks = map_chunks(
        lambda noise, start: path_values(noise), args.method, args.hurst, grid, seed,
        args.paths,
    )
    _write_paths(
        args.out, head, grid, chunks,
        lambda start, values: ((map(repr, _items(row)),) for row in values),
    )
    print(f"wrote {args.paths} paths to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _load_config(
        args, scheme={"steps": args.steps}, experiment={"paths": args.paths}
    )
    model = cfg.model
    paths = cfg.experiment["paths"]
    grid = TimeGrid(cfg.scheme["horizon"], cfg.scheme["steps"])
    scheme = SchemeConfig.for_model(model, grid, cfg.solver)
    out = args.out or os.path.join(cfg.io["out_dir"], "simulate.csv")
    header = ["path_index", "node_index", "time", "x_value", "y_value", "residual", "iterations"]

    def columns(start: int, sol) -> Iterator[tuple]:
        """Each path's x, y, residual and iteration columns, the chunk's
        first failure raised before the first of them."""
        _raise_first_failure(sol.failures, start)
        for i, x in enumerate(sol.values):
            # Residuals are rounding-level values and iteration counts small
            # integers, so few of either are distinct: each distinct value
            # (for residuals each bit pattern, which keeps -0.0 apart from
            # 0.0) is formatted once.
            keys, residual = np.unique(sol.residuals[i].view(np.int64), return_inverse=True)
            residual_text = list(map(repr, keys.view(np.float64).tolist()))
            keys, count = np.unique(sol.iterations[i], return_inverse=True)
            count_text = list(map(str, keys.tolist()))
            yield (
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
        grid, cfg.seed, paths,
    )
    _write_paths(out, _csv_head(cfg.seed, cfg.digest, header), grid, chunks, columns)
    print(f"wrote {paths} trajectories to {out}")
    return EXIT_OK


def _cmd_converge(args) -> int:
    cfg = _load_config(args)
    plan = cfg.plan(ExperimentPlan)
    report = run_strong_error(plan, workers=args.threads)
    _write_table(cfg, "levels.csv", ["level", "h", "e_mean", "e_stderr"], (
        (lv.k, lv.h, lv.errors["y_interp"]["e"], lv.errors["y_interp"]["stderr"])
        for lv in report.levels
    ))
    if args.keep_paths:
        paths, errors = report.per_path_errors
        # one row per (path, level): the path's four error kinds at that level
        _write_table(cfg, "errors.csv", ["path_index", "level", *ERROR_KINDS], (
            (path, k, *by_kind[:, pos].tolist())
            for pos, path in enumerate(paths.tolist())
            for k, by_kind in zip(plan.levels, errors)
        ))
    _write_json(cfg, "report.json", report.to_dict())
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
    _write_table(cfg, "moments.csv", ["p", "negative_moment", "positive_moment"], (
        (p, probe.negative_moments[p], probe.positive_moments[p]) for p in plan.p_list
    ))
    _write_table(cfg, "modulus.csv", ["h", "ratio"], zip(probe.ladder_h, probe.modulus_ratios))
    _write_json(cfg, "probe.json", probe.to_dict())
    print(f"wrote moment probe ({plan.paths} paths, {plan.steps} steps) to {cfg.io['out_dir']}")
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

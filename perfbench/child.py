"""Run one ``fbmsde`` CLI invocation in this process and record its timings.

Usage: python3 child.py STATS_JSON TRACE CLI_ARG...

``fbmsde.cli`` is imported first, so the moment the import returns (on the
system-wide monotonic clock) marks the end of set-up; the parent subtracts
the moment it spawned this interpreter.  The subcommand then runs through
``fbmsde.cli.main`` exactly as the ``fbmsde`` console script runs it.

With TRACE=1 the public entry point of every package layer is wrapped at the
attribute its callers look up, before ``main`` runs.  Spans are kept in
memory and written to STATS_JSON together with the timings.  The solver's
work counts are read from the ``SolutionPath`` that ``integrate`` returns;
``implicit_step`` is deliberately not wrapped, because it runs millions of
times per workload and a wrapper there would distort the timing it reports.
"""

import sys
import time

import fbmsde.cli

SETUP_END = time.monotonic()

import functools  # noqa: E402
import json  # noqa: E402

import fbmsde.convergence  # noqa: E402
import fbmsde.drifts  # noqa: E402
import fbmsde.fbm  # noqa: E402


class Tracer:
    """Nested spans ``[name, layer, start, end, parent, counts]`` in call order."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, owner, attr, layer, counts=None):
        original = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, layer, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self.spans.append(span)
            self._open.append(index)
            span[2] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span[5] = counts(result)
            return result

        setattr(owner, attr, traced)


def _solver_counts(solution):
    iterations = solution.iterations
    return [int(iterations.size), int(iterations.sum()), int(iterations.max())]


def install(tracer: Tracer) -> None:
    cli, conv, drifts, fbm = fbmsde.cli, fbmsde.convergence, fbmsde.drifts, fbmsde.fbm
    tracer.wrap(cli, "main", "cli")
    tracer.wrap(cli, "parse_config", "config")
    tracer.wrap(cli, "run_strong_error", "convergence")
    tracer.wrap(cli, "moment_probe", "convergence")
    tracer.wrap(cli, "integrate", "solver", _solver_counts)
    tracer.wrap(conv, "integrate", "solver", _solver_counts)
    tracer.wrap(conv, "subsample", "fbm.subsample")
    for sampler in (fbm.CirculantSampler, fbm.CholeskySampler):
        tracer.wrap(sampler, "__init__", "fbm.init")
        tracer.wrap(sampler, "sample", "fbm.sample")
    tracer.wrap(cli, "lamperti_inverse", "drifts.lamperti_inverse")
    for model in (drifts.MeanRevertingModel, drifts.AitSahaliaModel):
        tracer.wrap(model, "drift", "drifts.drift")


def main() -> int:
    stats_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = Tracer()
    if trace:
        install(tracer)
    start = time.monotonic()
    code = fbmsde.cli.main(argv)
    end = time.monotonic()
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "setup_end": SETUP_END,
                "run_s": end - start,
                "exit_code": code,
                "spans": tracer.spans,
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())

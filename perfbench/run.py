"""fbmsde benchmark: end-to-end and per-layer metrics of three CLI workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload converge-mr --seed 20260809 --seconds 40 --trace 0

``--workload all`` runs the three workloads one after another.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit, then give the environment and every sample as JSON.

``--trace 0`` repeats the workload, each time in a fresh process, until
``--seconds`` have passed, and reports the median of each end-to-end metric.
``--trace 1`` runs the workload three times -- untraced on the usual pool,
untraced with one worker, traced with one worker -- then times the fBM
samplers at several sizes, and reports the per-layer metrics.  See
perfbench/README.md for what each metric means and which layer it follows.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads here, and inherited by every child process:
# unpinned, OpenBLAS spreads one Cholesky factorisation over every core.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
STARTED = time.monotonic()
# Every run must end within 180 s; no child may outlive this budget.
BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "steps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "config.parse_s": "s",
    "convergence.self_s": "s",
    "convergence.parallel_efficiency": "ratio",
    "solver.integrate_calls": "count",
    "solver.integrate_s": "s",
    "solver.ref_integrate_s": "s",
    "solver.steps": "count",
    "solver.evals": "count",
    "solver.evals_per_step": "evals/step",
    "solver.max_evals_step": "count",
    "solver.ns_per_step": "ns",
    "fbm.init_s": "s",
    "fbm.sample_calls": "count",
    "fbm.sample_s": "s",
    "fbm.subsample_s": "s",
    "drifts.drift_s": "s",
    "drifts.lamperti_inverse_s": "s",
    "trace.overhead_frac": "ratio",
}
# (method, steps, paths) of the sampler scaling table.  Cholesky at 2^16
# would need two 32 GiB matrices and is left out.
SCALING = (
    ("circulant", 2**10, 200),
    ("circulant", 2**13, 50),
    ("circulant", 2**16, 10),
    ("cholesky", 2**10, 50),
    ("cholesky", 2**13, 10),
)


def scaling_units(table) -> dict:
    return {
        f"fbm.{method}_n{steps}.{what}": "ms"
        for method, steps, _ in table
        for what in ("init_ms", "path_ms")
    }


def environment(threads: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "cli_threads": threads,
    }


def calibrate() -> float:
    """Seconds taken by a fixed plain-Python plus NumPy kernel.

    Timed just before every run and stored beside it, so that a slower run
    can be told apart from a slower machine.
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    signal_ = np.arange(1 << 16, dtype=float)
    for _ in range(20):
        signal_ = np.fft.irfft(np.fft.rfft(signal_), n=signal_.size)
    return time.perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list, cwd: Path, log: Path, cpu: int | None = None) -> tuple:
    """Run ``argv`` to completion, pinned to ``cpu`` if given.

    Returns (spawn time, exit code, rusage).  ``os.wait4`` gives the CPU time
    and peak RSS of the child together with every descendant it waited for,
    which covers the process pool.
    """
    timeout = max(10.0, BUDGET_S - (time.monotonic() - STARTED))
    with open(log, "w", encoding="utf-8") as out:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
            preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
        )
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - spawned > timeout:
                os.killpg(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return spawned, proc.returncode, usage


def _tail(log: Path) -> str:
    return " | ".join(log.read_text(encoding="utf-8", errors="replace").splitlines()[-3:])


def run_once(w: Workload, seed: int, work: Path, out_dir: Path, threads: int, trace: bool,
             cpu: int | None = None):
    """One fresh-process run of the workload; returns (sample, spans)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    stats_path, log = out_dir.with_suffix(".stats.json"), out_dir.with_suffix(".log")
    stats_path.unlink(missing_ok=True)
    sample = {"calibration_s": calibrate(), "cpu": cpu}
    argv = [sys.executable, str(HERE / "child.py"), str(stats_path), str(int(trace))]
    argv += w.argv(work / "config.json", out_dir, threads)
    spawned, code, usage = spawn(argv, work, log, cpu)
    sample.update(
        exit_code=code,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    spans, problems = [], []
    if stats_path.exists():
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        sample.update(setup_s=stats["setup_end"] - spawned, run_s=stats["run_s"])
        spans = stats["spans"]
    if code != 0:
        problems.append(f"exit code {code}: {_tail(log)}")
    else:
        problems += w.check(out_dir, seed)
    sample["problems"] = problems
    return sample, spans


def _median(samples: list, key: str) -> float:
    """Median of ``key`` over the runs on each CPU, averaged over the CPUs."""
    by_cpu: dict = {}
    for sample in samples:
        if key in sample:
            by_cpu.setdefault(sample["cpu"], []).append(sample[key])
    if not by_cpu:
        raise RuntimeError(f"no run produced {key}: {[s['problems'] for s in samples]}")
    return statistics.mean(statistics.median(values) for values in by_cpu.values())


def end_to_end(w: Workload, seed: int, seconds: float, work: Path, threads: int):
    """Repeat the workload while the next run is expected to end within ``seconds``.

    The host slows one virtual CPU at a time, for minutes on end.  So the runs
    of a workload that runs in one process are pinned to each CPU in turn, and
    every metric is the mean over CPUs of the median on each.  The pool
    workload spreads over every CPU by itself; its runs are not pinned.
    """
    cpus = [None] if w.uses_pool else sorted(os.sched_getaffinity(0))
    samples, walls = [], []
    start = time.monotonic()
    while not samples or time.monotonic() - start + statistics.median(walls) <= seconds:
        began = time.monotonic()
        cpu = cpus[len(samples) % len(cpus)]
        sample, _ = run_once(w, seed, work, work / "out", threads, trace=False, cpu=cpu)
        walls.append(time.monotonic() - began)
        if "run_s" in sample:
            sample["steps_per_s"] = w.steps / sample["run_s"]
        samples.append(sample)
    return {name: _median(samples, name) for name in END_TO_END}, samples


# Per-layer self-time metrics and the span tag each sums; together they
# partition the time of fbmsde.cli.main.
LAYER_TIMES = {
    "cli.self_s": "cli",
    "config.parse_s": "config",
    "convergence.self_s": "convergence",
    "solver.integrate_s": "solver",
    "fbm.init_s": "fbm.init",
    "fbm.sample_s": "fbm.sample",
    "fbm.subsample_s": "fbm.subsample",
    "drifts.drift_s": "drifts.drift",
    "drifts.lamperti_inverse_s": "drifts.lamperti_inverse",
}


def layer_metrics(spans: list, ref_steps: int | None) -> tuple:
    """Per-layer metrics from one traced run's spans; also a list of problems.

    A span's self time is its duration minus the durations of the spans it
    directly caused.  Spans nest strictly (one thread), so the self times
    partition the single root span, ``fbmsde.cli.main``.
    """
    self_time = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    tags = [tag for _, tag, _, _, _, _ in spans]
    metrics = {
        name: sum(t for t, span_tag in zip(self_time, tags) if span_tag == tag)
        for name, tag in LAYER_TIMES.items()
    }
    solves = [(end - start, counts) for _, tag, start, end, _, counts in spans if tag == "solver"]
    steps = sum(c[0] for _, c in solves)
    evals = sum(c[1] for _, c in solves)
    roots = [span for span in spans if span[4] < 0]
    main_s = roots[0][3] - roots[0][2] if roots else 0.0
    metrics.update({
        "cli.main_s": main_s,
        "solver.integrate_calls": len(solves),
        "solver.ref_integrate_s": sum(d for d, c in solves if c[0] == ref_steps),
        "solver.steps": steps,
        "solver.evals": evals,
        "solver.evals_per_step": evals / steps if steps else 0.0,
        "solver.max_evals_step": max((c[2] for _, c in solves), default=0),
        "solver.ns_per_step": 1e9 * metrics["solver.integrate_s"] / steps if steps else 0.0,
        "fbm.sample_calls": tags.count("fbm.sample"),
    })
    problems = []
    if len(roots) != 1 or roots[0][0] != "fbmsde.cli.main":
        problems.append(f"trace: expected one fbmsde.cli.main root span, got {len(roots)}")
    elif abs(sum(metrics[name] for name in LAYER_TIMES) - main_s) > 1e-6 * main_s:
        problems.append("trace: layer self times do not add up to fbmsde.cli.main")
    return metrics, problems


def _outputs(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def traced(w: Workload, seed: int, work: Path, threads: int, scaling):
    pool, _ = run_once(w, seed, work, work / "pool", threads, trace=False)
    single, _ = run_once(w, seed, work, work / "single", 1, trace=False)
    sample, spans = run_once(w, seed, work, work / "traced", 1, trace=True)
    samples = [pool, single, sample]
    outputs = [_outputs(work / name) for name in ("pool", "single", "traced")]
    if not outputs[0] or any(o != outputs[0] for o in outputs[1:]):
        sample["problems"].append("outputs differ between the pool, single and traced runs")
    metrics, problems = layer_metrics(spans, w.ref_steps)
    sample["problems"] += problems
    metrics["cli.output_bytes"] = sum(len(data) for data in outputs[2].values())
    metrics["convergence.parallel_efficiency"] = single["run_s"] / (threads * pool["run_s"])
    metrics["trace.overhead_frac"] = metrics["cli.main_s"] / single["run_s"] - 1.0

    table_path, log = work / "scaling.json", work / "scaling.log"
    entries = [f"{method}:{steps}:{paths}" for method, steps, paths in scaling]
    _, code, _ = spawn([sys.executable, str(HERE / "scaling.py"), str(table_path), *entries],
                       work, log)
    if code != 0:
        raise RuntimeError(f"sampler scaling table failed, exit code {code}: {_tail(log)}")
    metrics.update(json.loads(table_path.read_text(encoding="utf-8")))
    return metrics, samples


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 scaling=SCALING, work: Path = WORK) -> dict:
    threads = min(2, os.cpu_count() or 1)
    work = work / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "config.json").write_text(json.dumps(w.config(seed)), encoding="utf-8")
        # Compile the package's bytecode and warm the file cache, which a
        # user pays once, not on every run.
        spawn([sys.executable, "-c", "import fbmsde.cli"], work, work / "warmup.log")
        if trace:
            values, samples = traced(w, seed, work, threads, scaling)
            units = {**PER_LAYER, **scaling_units(scaling)}
        else:
            values, samples = end_to_end(w, seed, seconds, work, threads)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for s in samples if s["problems"])
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "environment": environment(threads),
        "samples": samples,
    }


def report(name: str, result: dict) -> None:
    """Print every metric with its unit, then the environment and samples."""
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    print(f"{name} failed_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} runs)")
    for sample in result["samples"]:
        for problem in sample["problems"]:
            print(f"{name} FAILED: {problem}")
    print(json.dumps({"workload": name, "environment": result["environment"],
                      "samples": result["samples"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fbmsde" / "cli.py").is_file():
        print(f"perfbench: no fbmsde package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        report(name, results[name])
    if len(results) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        final = {key: sum(r[key] for r in results.values()) for key in ("attempted", "failed")}
        final["correct"] = all(r["correct"] for r in results.values())
        metrics = {f"{name}/{metric}": entry for name, r in results.items()
                   for metric, entry in r["metrics"].items()}
    print(json.dumps({"correct": final["correct"], "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

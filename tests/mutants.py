"""Mutant sweep: does the test suite catch each of a list of one-line defects?

Usage: python3 tests/mutants.py [NAME ...]

Each mutant replaces one line of the package source with a defective one.
For each mutant (or only those named), the tree is copied into a temporary
directory, the mutant is applied there, and tier-1 runs on the copy without
``tests/test_golden.py``: the goldens fail on any moved output byte, and the
sweep asks whether the other tests would still stand guard once they are
re-recorded.  ``tests/test_mutants.py``, which fails on any mutated tree by
design, is left out too.  Before any mutant, the same run is made on an
unmutated copy: a mutant counts as killed when a test fails, so on a tree
whose tests already fail every mutant would.

The script prints the tests that failed under each mutant and exits 1 if
any mutant survives (no test failed); 2 if the unmutated copy fails (its
failing tests are printed), a mutant no longer applies to the source, or
pytest itself fails; and 0 otherwise.  A surviving mutant calls for a test
that kills it, never for a change to the mutant.

This file is not collected by pytest: its name does not match ``test_*.py``.
The idea is mutation analysis (DeMillo, Lipton & Sayward, "Hints on test
data selection", IEEE Computer 11(4), 1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
# What the copies of the tree leave out: history, caches and run outputs.
SKIPPED = (".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work")
# Appended to each copy's conftest.py, whose profiles already leave out
# shrinking: the sweep draws CI's examples, the same on every run.
SWEEP_PROFILE = """
settings.load_profile("ci")
"""
# Seconds one tier-1 run on a mutant may take; one that takes longer has
# changed what the suite observes, and counts as killed.
RUN_TIMEOUT_S = 1800

# (name, file under src/fbmsde, the line as it stands, the defective line);
# an empty defective line deletes the line.
MUTANTS = [
    ("wrong-hurst", "fbm.py",
     "    two_h = 2.0 * hurst.value",
     "    two_h = 2.0 * (hurst.value - 0.05)"),
    ("constant-interp", "convergence.py",
     "    weight = np.arange(factor) / factor",
     "    weight = np.zeros(factor)"),
    ("l1-mean", "convergence.py",
     "    return float(np.mean(values**p) ** (1.0 / p))",
     "    return float(np.mean(values))"),
    ("corrections-swapped", "convergence.py",
     '    return "sqrt_log" if model.inverse_exponent > 0.0 else "log"',
     '    return "log" if model.inverse_exponent > 0.0 else "sqrt_log"'),
    ("envelope-without-log", "convergence.py",
     "    return h + h**hurst * np.sqrt(np.log1p(1.0 / h))",
     "    return h + h**hurst"),
    ("v-max-for-v-min", "convergence.py",
     '            neg[p] = _fold_power(neg[p], v_min, p, "negative")',
     '            neg[p] = _fold_power(neg[p], v_max, p, "negative")'),
    ("common-step-tolerance-deleted", "solver.py",
     "    ok &= a1 <= tol",
     ""),
    # each level draws noise of its own instead of block-summing the reference's
    ("decoupled-ladder", "convergence.py",
     "        sol = integrate(plan.scheme(k), subsample(noise, factors[k]))",
     "        sol = integrate(plan.scheme(k), subsample(make_sampler(plan.method, "
     "plan.model.hurst, reference.grid).sample(plan.master_seed ^ factors[k], "
     "range(start, start + size)), factors[k]))"),
    # the closed form's B' loses its gamma factor on the singular term
    ("mr-deriv-coefficient", "drifts.py",
     "        d1_sing = gamma * a1  # coefficient of x^{-(alpha+1)} in -B'",
     "        d1_sing = a1  # coefficient of x^{-(alpha+1)} in -B'"),
    # the certificate drops the bound on the drift's negative part
    ("mr-negative-part", "drifts.py",
     "            h3=c_lin if a2 > 0.0 else 0.0,",
     "            h3=0.0,"),
    ("lamperti-forward-exponent", "drifts.py",
     "    hi = b / a",
     "    hi = a / b"),
    # the h0 check's condition never holds, so the check is gone
    ("step-bound-deleted", "solver.py",
     "        if not h < cert.h0:",
     "        if False:"),
    # the digest leaves out the experiment block
    ("digest-without-experiment", "config.py",
     '    digest = config_digest(top["seed"], model, scheme, hashed)',
     '    digest = config_digest(top["seed"], model, scheme, {})'),
    # every bootstrap resample is the identity
    ("bootstrap-identity", "convergence.py",
     "        draws = rng.integers(0, n, size=(block.size, n))",
     "        draws = np.broadcast_to(np.arange(n), (block.size, n))"),
    # failed paths stay in the aggregates
    ("failed-paths-kept", "convergence.py",
     "    kept[[path for path, _, _ in failures]] = False",
     ""),
    # a warm predictor that gives NaN is not retried cold
    ("nan-retry-off", "solver.py",
     "                retry = nan & (x != midpoint)",
     "                retry = nan & False"),
    # a failure after another row froze is filed under its live position
    ("failure-row-index", "solver.py",
     "                    failures[int(rows[j])] = err",
     "                    failures[int(j)] = err"),
    ("first-failure-max", "convergence.py",
     "        row = min(failures)",
     "        row = max(failures)"),
    ("band-wide", "convergence.py",
     "    band_tol = 0.15",
     "    band_tol = 1.5"),
    ("trend-always-ok", "convergence.py",
     "        trend_ok=trend_ok,",
     "        trend_ok=True,"),
    # every step that plain Newton does not settle expands or bisects its
    # bracket, without the log-space Newton trial
    ("log-newton-off", "solver.py",
     "                x * np.exp(np.arcsinh(gx) * np.hypot(1.0, gx) / (-x * slope)),",
     "                np.inf,"),
    # one path of noise, shape (steps,), passes the batch check
    ("one-path-noise-accepted", "solver.py",
     "    if noise.ndim != 2 or noise.shape[1] != steps:",
     "    if noise.ndim > 2 or noise.shape[1] != steps:"),
    # the chunk pipeline draws and runs every chunk before handing back the
    # first, so a run no longer stops at its first failing chunk
    ("eager-chunks", "convergence.py",
     "        yield from ((start, run(start, stop)) for start, stop in chunks)",
     "        yield from [(start, run(start, stop)) for start, stop in chunks]"),
    # a chunk's sampler, and its kept Cholesky panels, live while its task runs
    ("sampler-held", "convergence.py",
     "    return task(make_sampler(method, hurst, grid).sample(master_seed, range(start, stop)), "
     "start)",
     "    return task((sampler := make_sampler(method, hurst, grid)).sample(master_seed, "
     "range(start, stop)), start)"),
    # the process pool never runs the last chunk
    ("pool-drops-last-chunk", "convergence.py",
     "            results = list(pool.map(run, starts, stops))",
     "            results = list(pool.map(run, starts[:-1], stops[:-1]))"),
    # a model keeps ints and -0.0 as given, so equal models can name their
    # shared cached drift differently
    ("model-fields-as-given", "drifts.py",
     "            object.__setattr__(self, f.name, float(getattr(self, f.name) + 0.0))",
     "            object.__setattr__(self, f.name, getattr(self, f.name))"),
    # the JSON reports keep their keys in the order they were built
    ("json-unsorted", "cli.py",
     '    text = json.dumps(body, indent=2, sort_keys=True) + "\\n"',
     '    text = json.dumps(body, indent=2) + "\\n"'),
    # each chunk's first path writes the CSV head, not only path 0
    ("head-per-chunk", "cli.py",
     "            if not index:",
     "            if index == start:"),
    # the config accepts a seed past 2^64, which draws another seed's paths
    ("seed-rule-open", "config.py",
     '_SEED_RULES = (("seed", "must lie in [0, 2^64), got {seed}", '
     'lambda seed: 0 <= seed < SEED_LIMIT),)',
     '_SEED_RULES = (("seed", "must lie in [0, 2^64), got {seed}", lambda seed: 0 <= seed),)'),
    # moments' unset p_list is not the one docs/config.md states
    ("command-keys-default", "config.py",
     '            "paths": None, "p_list": (2.0, 4.0), "ladder_rungs": ProbePlan.ladder_rungs',
     '            "paths": None, "p_list": (2.0, 3.0), "ladder_rungs": ProbePlan.ladder_rungs'),
]


def mutated(source: str, line: str, mutant: str) -> str:
    """``source`` with its one line equal to ``line`` replaced by ``mutant``."""
    lines = source.split("\n")
    hits = [i for i, text in enumerate(lines) if text == line]
    if len(hits) != 1:
        raise LookupError(f"{len(hits)} lines equal {line.strip()!r}")
    lines[hits[0]:hits[0] + 1] = [mutant] if mutant else []
    return "\n".join(lines)


def _apply(tree: Path, file: str, line: str, mutant: str) -> None:
    """Replace the one line of ``file`` equal to ``line`` with ``mutant``."""
    path = tree / "src" / "fbmsde" / file
    path.write_text(mutated(path.read_text(), line, mutant))


def _failed_tests(tree: Path) -> tuple[int | None, list[str]]:
    """Tier-1 on ``tree`` without the goldens: pytest's exit code and failures.

    The exit code is None if the run passed ``RUN_TIMEOUT_S``.
    """
    with open(tree / "tests" / "conftest.py", "a") as conftest:
        conftest.write(SWEEP_PROFILE)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--ignore=tests/test_golden.py",
             "--ignore=tests/test_mutants.py"],
            cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, []
    failed = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return proc.returncode, failed


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survivors, stale = [], []
    with tempfile.TemporaryDirectory(prefix="fbmsde-mutants-") as scratch:
        tree = Path(scratch) / "unmutated"
        shutil.copytree(REPO, tree, ignore=shutil.ignore_patterns(*SKIPPED))
        start = time.monotonic()
        code, failed = _failed_tests(tree)
        if code != 0:
            print(f"unmutated tree: pytest exited {code}; no mutant can be judged")
            print("".join(f"    {test}\n" for test in failed), end="", flush=True)
            return 2
        print(f"unmutated tree: passed ({time.monotonic() - start:.0f} s)", flush=True)
        shutil.rmtree(tree)
        for name, file, line, mutant in chosen:
            tree = Path(scratch) / name
            shutil.copytree(REPO, tree, ignore=shutil.ignore_patterns(*SKIPPED))
            try:
                _apply(tree, file, line, mutant)
            except LookupError as exc:
                print(f"{name}: does not apply: {exc}", flush=True)
                stale.append(name)
                continue
            start = time.monotonic()
            code, failed = _failed_tests(tree)
            seconds = time.monotonic() - start
            if code == 0:
                survivors.append(name)
                print(f"{name}: SURVIVED ({seconds:.0f} s)", flush=True)
            elif code is None:
                print(f"{name}: killed: tier-1 passed {RUN_TIMEOUT_S} s", flush=True)
            elif code == 1:
                print(f"{name}: killed by {len(failed)} test(s) ({seconds:.0f} s)")
                print("".join(f"    {test}\n" for test in failed), end="", flush=True)
            else:  # pytest itself failed: interrupted, internal or usage error
                print(f"{name}: pytest exited {code}", flush=True)
                stale.append(name)
            shutil.rmtree(tree)
    print(f"{len(chosen) - len(survivors) - len(stale)} of {len(chosen)} mutants killed")
    if stale:
        return 2
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

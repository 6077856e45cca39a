"""Record the golden outputs that ``tests/test_golden.py`` compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record.py

It runs every case of ``CASES`` through ``fbmsde.cli.main`` in this process
and rewrites ``tests/golden/outputs/`` with what the runs wrote.  The cases
are tiny runs of every subcommand over both samplers and both model
families, with a Cholesky grid just past the sampler's 1024-step panel
boundary (``moments`` at 1030 steps, ``converge`` with a 2048-step
reference), seeds 20260809 and 7, and ``--threads`` 1 and 2 where a command
pools.  Three cases are failures: a tolerance no residual can meet fails
every path, so ``converge``, ``simulate`` and ``moments`` exit 2 without
writing a file.  Each case keeps its exit code and stderr beside its files.
A change that re-records these files must say which outputs moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "outputs"

MR = {"model": "mean_reverting", "a1": 1.0, "a2": 1.0, "gamma": 0.7, "sigma": 0.5,
      "y0": 1.0, "hurst": 0.7}
AS = {"model": "ait_sahalia", "a_m1": 1.0, "a0": 1.0, "a1": 1.0, "a2": 1.0,
      "r": 3.0, "rho": 1.5, "sigma": 0.5, "y0": 1.0, "hurst": 0.7}
LADDER = {"paths": 4, "k_min": 2, "k_max": 4, "k_ref": 7}


def _config(seed, model, scheme=None, experiment=None):
    cfg = {"seed": seed, "model": model}
    if scheme:
        cfg["scheme"] = scheme
    if experiment:
        cfg["experiment"] = experiment
    return cfg


def _cases():
    """name -> (configuration or None, argv variants that must write the same files).

    ``{out}`` in an argument is the run's output directory and ``{config}``
    its configuration file.
    """
    cases = {}
    for seed in (20260809, 7):
        for method in ("circulant", "cholesky"):
            cases[f"fbm-{method}-{seed}"] = (None, [[
                "fbm", "--hurst", "0.7", "--steps", "16", "--paths", "2",
                "--seed", str(seed), "--method", method, "--out", "{out}/fbm.csv",
            ]])
        for family, model in (("mr", MR), ("as", AS)):
            for method in ("circulant", "cholesky"):
                cfg = _config(seed, model, {"steps": 16, "method": method}, {"paths": 2})
                cases[f"simulate-{family}-{method}-{seed}"] = (cfg, [
                    ["simulate", "--config", "{config}", "--threads", str(threads),
                     "--out", "{out}/simulate.csv"]
                    for threads in (1, 2)
                ])
        for family, model in (("mr", MR), ("as", AS)):
            cfg = _config(seed, model, {"method": "circulant"}, LADDER)
            cases[f"converge-{family}-{seed}"] = (cfg, [
                ["converge", "--config", "{config}", "--threads", str(threads),
                 "--keep-paths", "--out-dir", "{out}"]
                for threads in (1, 2)
            ])
        cfg = _config(seed, MR, {"method": "cholesky", "steps": 1030}, {"paths": 2})
        cases[f"moments-mr-cholesky-{seed}"] = (cfg, [
            ["moments", "--config", "{config}", "--out-dir", "{out}"]
        ])
        cfg = _config(seed, AS, {"steps": 64}, {"paths": 3, "p_list": [2.0, 4.0]})
        cases[f"moments-as-circulant-{seed}"] = (cfg, [
            ["moments", "--config", "{config}", "--out-dir", "{out}"]
        ])
    # no residual can meet a 1e-300 tolerance: every path fails, no file is written
    cases["converge-as-all-fail-7"] = (
        _config(7, AS, {"tol_abs": 1e-300, "tol_rel": 1e-300}, LADDER),
        [
            ["converge", "--config", "{config}", "--threads", str(threads),
             "--out-dir", "{out}"]
            for threads in (1, 2)
        ],
    )
    # the same tolerance fails simulate and moments at their first failed
    # path, again without a file
    fail = _config(7, AS, {"steps": 16, "tol_abs": 1e-300, "tol_rel": 1e-300}, {"paths": 2})
    cases["simulate-as-all-fail-7"] = (fail, [
        ["simulate", "--config", "{config}", "--threads", str(threads),
         "--out", "{out}/simulate.csv"]
        for threads in (1, 2)
    ])
    cases["moments-as-all-fail-7"] = (fail, [
        ["moments", "--config", "{config}", "--out-dir", "{out}"]
    ])
    cases["converge-mr-cholesky-7"] = (
        _config(7, MR, {"method": "cholesky"}, {**LADDER, "paths": 2, "k_ref": 11}),
        [["converge", "--config", "{config}", "--threads", "1", "--out-dir", "{out}"]],
    )
    for family, model in (("mr", MR), ("as", AS)):
        cases[f"verify-assumptions-{family}"] = (
            _config(7, model), [["verify-assumptions", "--config", "{config}"]]
        )
    return cases


CASES = _cases()


def run_case(name: str, variant: int, workdir: Path) -> dict[str, bytes]:
    """Run one argv variant of a case in ``workdir``; its files, its stderr,
    and stdout for ``verify-assumptions``, by name."""
    from fbmsde.cli import main

    cfg, variants = CASES[name]
    out = workdir / "out"
    config = workdir / "config.json"
    if cfg is not None:
        config.write_text(json.dumps(cfg))
    argv = [arg.format(out=out, config=config) for arg in variants[variant]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    files = {}
    if argv[0] == "verify-assumptions":
        files["stdout.txt"] = stdout.getvalue().encode()
    for path in sorted(out.iterdir()) if out.exists() else ():
        files[path.name] = path.read_bytes()
    files["exit_code.txt"] = f"{code}\n".encode()
    files["stderr.txt"] = stderr.getvalue().encode()
    return files


def main() -> None:
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(name, 0, Path(tmp))
        (GOLDEN / name).mkdir(parents=True)
        for file_name, data in files.items():
            (GOLDEN / name / file_name).write_bytes(data)
    size = sum(f.stat().st_size for f in GOLDEN.rglob("*") if f.is_file())
    print(f"recorded {len(CASES)} cases, {size} bytes, under {GOLDEN}")


if __name__ == "__main__":
    main()

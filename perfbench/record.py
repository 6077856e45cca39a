"""Record the reference outputs that the benchmark compares against.

Run from the root of a checkout:

    python3 perfbench/record.py

Runs each workload once at the default seed, with the usual pool, and writes
the compared values to perfbench/reference.json.  Record only from a commit
whose outputs are known to be right: every later run at the default seed must
match these values to a relative 1e-6.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from dataclasses import replace

import run
from workloads import DEFAULT_SEED, REFERENCE_FILE, REFERENCE_RTOL, WORKLOADS


def main() -> int:
    values = {}
    for w in WORKLOADS.values():
        w = replace(w, reference=None)
        work = run.WORK / "record" / w.name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            (work / "config.json").write_text(json.dumps(w.config(DEFAULT_SEED)), encoding="utf-8")
            threads = min(2, os.cpu_count() or 1)
            sample, _ = run.run_once(w, DEFAULT_SEED, work, work / "out", threads, trace=False)
            if sample["problems"]:
                print(f"{w.name}: {sample['problems']}", file=sys.stderr)
                return 1
            values[w.name] = w.extract(work / "out")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(run.WORK / "record", ignore_errors=True)
    REFERENCE_FILE.write_text(
        json.dumps({"seed": DEFAULT_SEED, "rtol": REFERENCE_RTOL, "values": values}) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time fBM sampler construction and per-path draws at several grid sizes.

Usage: python3 scaling.py OUT_JSON METHOD:STEPS:PATHS...

For each entry the sampler is built once (``init_ms``) and then draws PATHS
paths; ``path_ms`` is the median per-path time.  Each entry's sampler is
released before the next is built, so peak memory is that of the largest
single entry (Cholesky at 2^13 steps holds two 512 MiB matrices while it
factors).
"""

import json
import statistics
import sys
import time

from fbmsde.fbm import CholeskySampler, CirculantSampler, Hurst, TimeGrid

SAMPLERS = {"circulant": CirculantSampler, "cholesky": CholeskySampler}
HURST = 0.7
SEED = 20260809


def main() -> int:
    out_path, entries = sys.argv[1], sys.argv[2:]
    table = {}
    for entry in entries:
        method, steps, paths = entry.split(":")
        start = time.perf_counter()
        sampler = SAMPLERS[method](Hurst(HURST), TimeGrid(1.0, int(steps)))
        init_s = time.perf_counter() - start
        per_path = []
        for index in range(int(paths)):
            start = time.perf_counter()
            sampler.sample(SEED, index)
            per_path.append(time.perf_counter() - start)
        del sampler
        table[f"fbm.{method}_n{steps}.init_ms"] = 1e3 * init_s
        table[f"fbm.{method}_n{steps}.path_ms"] = 1e3 * statistics.median(per_path)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(table, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

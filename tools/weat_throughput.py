"""Print the wall time and minor page faults of `run_battery` on the bundled
eight-test WEAT battery, for seeded vector tables.

Each table holds normal values of scale 0.1 for every word of the battery, at
each dimension of --dims (default 50 and 300, the dimensions of the
benchmark's `train` and `vectors` workloads). The battery's list sizes give
two exact groups (6 and 8 targets a side) and two sampled ones (25 and 48),
as on real vectors with full coverage. `run_battery` runs --repeats times at
the default 100,000 samples and seed 0; `seconds` is the median wall time of
one call, and `minflt` the minor page faults of the first call, the one a
fresh `lyricstats weat` process makes. The table is built before any timing.
The script asserts nothing about the figures. numpy picks its BLAS thread
count when it is imported; each line ends with blas_threads=, the value of
OPENBLAS_NUM_THREADS or `unset`.

Usage: python tools/weat_throughput.py [--dims 50,300] [--repeats 5] [--seed 0] [--mc-samples 100000]
"""

import argparse
import os
import resource
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from lyricstats.embeddings import EmbeddingTable  # noqa: E402
from lyricstats.resources import default_battery_path  # noqa: E402
from lyricstats.weat import load_battery, run_battery  # noqa: E402


def seeded_table(words: list[str], dim: int, seed: int) -> EmbeddingTable:
    vectors = np.random.default_rng(seed).normal(scale=0.1, size=(len(words), dim))
    return EmbeddingTable(dim=dim, vocab={w: i for i, w in enumerate(words)}, vectors=vectors)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--dims", default="50,300", help="comma-separated vector dimensions")
    parser.add_argument("--repeats", type=int, default=5, help="timed calls of run_battery per dimension")
    parser.add_argument("--seed", type=int, default=0, help="seed of the vector values")
    parser.add_argument("--mc-samples", type=int, default=100_000)
    args = parser.parse_args(argv)
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    tests = load_battery(default_battery_path())
    words = sorted({w for t in tests for w in (*t.targets_x, *t.targets_y, *t.attributes_a, *t.attributes_b)})
    for dim in (int(d) for d in args.dims.split(",")):
        table = seeded_table(words, dim, args.seed)
        times, faults = [], []
        for _ in range(args.repeats):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            run_battery(tests, table, n_samples=args.mc_samples)
            times.append(time.perf_counter() - start)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        print(f"dim={dim} words={len(words)} tests={len(tests)} samples={args.mc_samples} "
              f"seconds={statistics.median(times):.4f} minflt={faults[0]} blas_threads={blas_threads}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Print vector file throughput: `save_vectors` and `load_vectors` rows per
second for seeded V x D tables.

Each table holds normal values of scale 0.1, as the benchmark's `vectors`
workload draws them, under the words w0 ... w{V-1}. The defaults are 6000 x 300
and 558 x 50, the table sizes of the benchmark's `vectors` and `train`
workloads. Each size is saved and loaded --repeats times into a temporary
directory; a rate is V over the median wall time of one call. The table is
built before any timing. The script asserts nothing about the rates.

Usage: python tools/vector_io_throughput.py [--sizes 6000x300,558x50] [--repeats 5] [--seed 0]
"""

import argparse
import os
import statistics
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from lyricstats.embeddings import EmbeddingTable, load_vectors, save_vectors  # noqa: E402


def seeded_table(rows: int, dim: int, seed: int) -> EmbeddingTable:
    vectors = np.random.default_rng(seed).normal(scale=0.1, size=(rows, dim))
    return EmbeddingTable(dim=dim, vocab={f"w{i}": i for i in range(rows)}, vectors=vectors)


def median_seconds(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--sizes", default="6000x300,558x50", help="comma-separated VxD table sizes")
    parser.add_argument("--repeats", type=int, default=5, help="timed calls of each function per size")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sizes = [tuple(int(n) for n in size.split("x")) for size in args.sizes.split(",")]
    with tempfile.TemporaryDirectory() as tmp:
        for rows, dim in sizes:
            table = seeded_table(rows, dim, args.seed)
            path = os.path.join(tmp, f"vectors-{rows}x{dim}.txt")
            save_s = median_seconds(lambda: save_vectors(table, path), args.repeats)
            load_s = median_seconds(lambda: load_vectors(path), args.repeats)
            print(f"rows={rows} dim={dim} bytes={os.path.getsize(path)} "
                  f"save_s={save_s:.4f} save_rows_per_s={rows / save_s:.0f} "
                  f"load_s={load_s:.4f} load_rows_per_s={rows / load_s:.0f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

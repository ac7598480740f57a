"""Print SGNS training throughput: `train_sgns` tokens per second for one
epoch at each of several dimensions, on two seeded song shapes.

- criterion7: songs of 30 lines of 10 words drawn uniformly from an 800-word
  vocabulary, about 300 tokens a song, as the slow acceptance test makes them
  (default 1000 songs);
- zipf: songs of 60-300 tokens drawn from Zipf 1.07 over 20,000 types
  (default 500 songs).

A rate is the tokens one epoch trains on (the in-vocabulary tokens at
min_count 5) over the wall time of one `train_sgns` call. The corpora are
built before any timing. Training uses the library defaults but for dim and
one epoch, at seed 0. The script asserts nothing about the rates. numpy picks
its BLAS thread count when it is imported, so fix that (for OpenBLAS,
OPENBLAS_NUM_THREADS=1) in the environment of the run; each line ends with
blas_threads=, that variable's value or `unset`.

Usage: python tools/sgns_throughput.py [--songs N] [--dims 50,100,300]
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from lyricstats.corpus import Corpus, SongRecord, token_counts  # noqa: E402
from lyricstats.embeddings import SgnsConfig, train_sgns  # noqa: E402

MIN_COUNT = SgnsConfig().min_count


def _corpus(songs) -> Corpus:
    """A corpus of songs given as tuples of lines of words."""
    return Corpus.from_records(
        SongRecord(id=f"s{i}", year=2000, cohort="other", duration_seconds=None, lines=lines)
        for i, lines in enumerate(songs)
    )


def criterion7_corpus(n_songs: int, seed: int = 7) -> Corpus:
    rng = np.random.default_rng(seed)
    vocab = np.array([f"word{i}" for i in range(800)])
    words = vocab[rng.integers(len(vocab), size=(n_songs, 30, 10))].tolist()
    return _corpus(tuple(tuple(line) for line in song) for song in words)


def zipf_corpus(n_songs: int, seed: int = 1, types: int = 20_000, exponent: float = 1.07) -> Corpus:
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(types)]
    cdf = np.cumsum(np.arange(1, types + 1, dtype=float) ** -exponent)
    cdf /= cdf[-1]
    songs = []
    for length in rng.integers(60, 301, size=n_songs).tolist():
        ids = np.searchsorted(cdf, rng.random(length)).tolist()
        songs.append(tuple(tuple(vocab[i] for i in ids[lo : lo + 10]) for lo in range(0, length, 10)))
    return _corpus(songs)


def trained_tokens(corpus: Corpus) -> int:
    counts = token_counts(corpus)
    return int(counts[counts >= MIN_COUNT].sum())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--songs", type=int, help="songs in each corpus (default: 1000 criterion7, 500 zipf)")
    parser.add_argument("--dims", default="50,100,300", help="comma-separated dimensions (default: 50,100,300)")
    args = parser.parse_args(argv)
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    dims = [int(d) for d in args.dims.split(",")]
    shapes = {
        "criterion7": criterion7_corpus(args.songs or 1000),
        "zipf": zipf_corpus(args.songs or 500),
    }
    for name, corpus in shapes.items():
        tokens = trained_tokens(corpus)
        for dim in dims:
            config = SgnsConfig(dim=dim, epochs=1, min_count=MIN_COUNT, seed=0)
            start = time.perf_counter()
            train_sgns(corpus, config)
            seconds = time.perf_counter() - start
            print(f"{name} songs={len(corpus)} tokens={tokens} dim={dim} seconds={seconds:.3f} "
                  f"tokens_per_s={tokens / seconds:.0f} blas_threads={blas_threads}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

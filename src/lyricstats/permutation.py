"""One-sided permutation p-values: the share of the n_x-subsets of N pooled
scores, taken as the X side, whose sum beats the observed X side's."""

from __future__ import annotations

import math
from itertools import chain, combinations, islice

import numpy as np

# Subsets scored per numpy call, enumerated and sampled alike. Sampled chunks
# continue one uniform stream, so p-values do not depend on the size; it bounds
# the two (rows, N) float64 buffers that every chunk of a list size reuses, the
# uniforms and the masks. On the benchmark's `train` vectors (546 words at dim
# 50, 2 cores), `lyricstats weat` peaked at 37.3, 37.8, 38.6 and 40.1 MB RSS at
# 250, 500, 1,000 and 2,000 rows, against 39.0 MB for the argsort draw it
# replaced; an in-process battery took about 0.15 s at every size from 125 to
# 2,000 rows. A chunk also holds at most 2**22 // N rows, so that the buffers
# stay near 64 MB at any N; WEAT's N <= 96 keeps all 500.
_SUBSET_CHUNK = 500


def p_values(scores: np.ndarray, n_x: int, n_samples: int, seed: int, inclusive: bool) -> tuple[str, list[float]]:
    """(p-method, one-sided permutation p of each column of scores), an
    (N, k) array whose column holds one test's pooled scores, the n_x X-side
    scores first: the share of n_x-subsets of the N rows, taken as the X
    side, whose score sum is larger than the observed X side's (or equal,
    when inclusive). Every subset counts when there are C(N, n_x) <=
    n_samples ("exact"), else n_samples subsets drawn at the seed
    ("monte_carlo(n=..., seed=...)"): the n_x smallest of N uniforms per
    row of one default_rng(seed) stream, the subset an argsort picks.

    Each chunk of at most _SUBSET_CHUNK and 2**22 // N subsets is a block of
    0/1 masks, one row a subset, scored against every column by one
    (rows, N) @ (N, k + 1) product. The scores are first rounded to integers
    small enough that every subset sum is exact in float64, whatever order
    BLAS adds them in: per column, max|s| = f * 2**e with 0.5 <= f < 1 is
    scaled to below 2**(52 - ceil(log2 N)); an all-zero column stays zero.
    The last column of ones counts each subset's items: a drawn row with a
    tie at its n_x-th smallest uniform marks more than n_x of them, and its
    chunk takes argsort's subsets instead."""
    n_items, k = scores.shape
    size = math.comb(n_items, n_x)
    if size <= n_samples:
        method, rng, subsets = "exact", None, combinations(range(n_items), n_x)
    else:
        method, size, rng = f"monte_carlo(n={n_samples}, seed={seed})", n_samples, np.random.default_rng(seed)
    exponents = np.frexp(np.abs(scores).max(axis=0))[1]
    q = np.ones((n_items, k + 1))
    q[:, :k] = np.rint(np.ldexp(scores, 52 - (n_items - 1).bit_length() - exponents))
    observed = q[:n_x, :k].sum(axis=0)
    beats = np.greater_equal if inclusive else np.greater
    hits = np.zeros(k, dtype=np.int64)
    chunk_rows = min(_SUBSET_CHUNK, max(1, 2**22 // n_items))
    masks = np.empty((min(chunk_rows, size), n_items))
    uniforms = None if rng is None else np.empty_like(masks)
    sums = np.empty((len(masks), k + 1))
    for start in range(0, size, chunk_rows):
        rows = min(chunk_rows, size - start)
        chunk, chunk_sums = masks[:rows], sums[:rows]
        if rng is None:
            chosen = np.fromiter(chain.from_iterable(islice(subsets, rows)), np.intp, rows * n_x).reshape(rows, n_x)
        else:
            # a 1 at each row's n_x smallest uniforms: the partitioned copy's
            # (n_x - 1)-th column is the cut
            drawn = rng.random(out=uniforms[:rows])
            np.copyto(chunk, drawn)
            chunk.partition(n_x - 1, axis=1)
            np.less_equal(drawn, chunk[:, n_x - 1 : n_x].copy(), out=chunk)
            np.matmul(chunk, q, out=chunk_sums)
            chosen = np.argsort(drawn, axis=1)[:, :n_x] if (chunk_sums[:, k] != n_x).any() else None
        if chosen is not None:
            chunk.fill(0.0)
            np.put_along_axis(chunk, chosen, 1.0, axis=1)
            np.matmul(chunk, q, out=chunk_sums)
        hits += np.count_nonzero(beats(chunk_sums[:, :k], observed), axis=0)
    return method, [int(h) / size for h in hits]

"""Exact vs Monte Carlo permutation p-values for a WEAT statistic.

Builds a tiny embedding by hand and computes the p-value over the equal-size
partitions of the target words. A p-value counts at most `n_samples`
partitions: with at least as many samples as partitions it enumerates them
all (exact), with fewer it samples them (Monte Carlo), and the sampled values
converge to the exact one.

Run from the repo root:  python3 demos/permutation_significance.py
"""

import math

import numpy as np

from lyricstats.embeddings import EmbeddingTable
from lyricstats.weat import WeatTest, run_battery

rng = np.random.default_rng(1)

# five target words per side, three attribute words per pole, random vectors
words = [f"x{i}" for i in range(5)] + [f"y{i}" for i in range(5)]
words += [f"a{i}" for i in range(3)] + [f"b{i}" for i in range(3)]
vectors = rng.normal(size=(len(words), 8))
table = EmbeddingTable(dim=8, vocab={w: i for i, w in enumerate(words)}, vectors=vectors)

test = WeatTest(
    name="demo",
    targets_x=tuple(f"x{i}" for i in range(5)),
    targets_y=tuple(f"y{i}" for i in range(5)),
    attributes_a=tuple(f"a{i}" for i in range(3)),
    attributes_b=tuple(f"b{i}" for i in range(3)),
)

# exact: the default 100,000 samples exceed C(10,5) = 252 partitions, so all are enumerated
[result] = run_battery([test], table)
print(f"effect size d = {result.effect_size:+.3f}, statistic S = {result.test_statistic:+.3f}")
p_exact = result.p_value
print(f"exact p over {math.comb(10, 5)} partitions: {p_exact:.6f}")

# Monte Carlo below 252 samples; it converges as the sample count grows
for n in (25, 100, 250):
    p_mc = run_battery([test], table, n_samples=n, seed=11)[0].p_value
    stderr = math.sqrt(max(p_exact * (1 - p_exact), 1e-12) / n)
    print(f"monte carlo n={n:>7}: {p_mc:.6f}  (|diff| = {abs(p_mc - p_exact):.6f}, 3se = {3 * stderr:.6f})")

# the strict ">" convention can give p = 0; the inclusive variant cannot
p_incl = run_battery([test], table, inclusive=True)[0].p_value
print(f"inclusive exact p: {p_incl:.6f} (always >= strict p)")

"""Word Embedding Association Test: association scores, effect size,
permutation significance, and the bundled eight-test battery."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Iterator, Optional, Sequence

import numpy as np

from lyricstats.embeddings import EmbeddingTable

EXACT_PARTITION_BUDGET = 200_000
DEFAULT_MC_SAMPLES = 100_000
# n-subsets scored per numpy call, in exact and Monte Carlo mode alike. Monte
# Carlo chunks continue one uniform stream, so p-values do not depend on the
# size; it bounds the draw's temporaries. With one draw per list size, 20,000
# rows took `lyricstats weat` on the bundled battery to a peak RSS of 74 MB,
# and 10,000 rows to 51 MB, in the same time (SGNS vectors of 546 words at
# dim 50, 2 cores).
_SUBSET_CHUNK = 10_000


class WeatError(Exception):
    pass


class UnderfilledListError(WeatError):
    """A word list dropped below the minimum size after vocabulary filtering."""


class DegenerateStatisticError(WeatError):
    """All association scores equal; the effect-size denominator is zero."""


class ExactBudgetError(WeatError):
    """C(2n, n) partitions exceed the exact-enumeration budget."""


@dataclass(frozen=True)
class WeatTest:
    name: str
    targets_x: tuple[str, ...]
    targets_y: tuple[str, ...]
    attributes_a: tuple[str, ...]
    attributes_b: tuple[str, ...]

    def __post_init__(self) -> None:
        for label, words in (
            ("targets_x", self.targets_x),
            ("targets_y", self.targets_y),
            ("attributes_a", self.attributes_a),
            ("attributes_b", self.attributes_b),
        ):
            if not words:
                raise WeatError(f"{self.name}: {label} is empty")


@dataclass(frozen=True)
class OovPolicy:
    """Drop out-of-vocabulary words, then truncate the longer target list from
    its end to restore |X| = |Y|."""

    min_targets: int = 2
    min_attributes: int = 2


@dataclass(frozen=True)
class WeatResult:
    test_name: str
    effect_size: Optional[float]
    test_statistic: Optional[float]
    p_value: Optional[float]
    p_method: str  # "exact" | "monte_carlo(n=..., seed=...)" | "none"
    coverage: dict  # list label -> (requested, found)
    dropped_words: tuple[str, ...] = ()
    error: Optional[str] = None


_WORD_LISTS = ("targets_x", "targets_y", "attributes_a", "attributes_b")


def load_battery(path: str) -> list[WeatTest]:
    """A JSON list of tests, each an object with a "name" and the four word
    lists. Raises WeatError naming the path, and the entry, for a file that
    does not have that shape."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WeatError(f"{path}: not a JSON battery ({exc})") from exc
    if not isinstance(raw, list):
        raise WeatError(f"{path}: a battery is a JSON list of tests")
    tests = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise WeatError(f"{path}: entry {i}: not an object with a string \"name\"")
        for label in _WORD_LISTS:
            words = entry.get(label)
            if not (isinstance(words, list) and words and all(isinstance(w, str) for w in words)):
                raise WeatError(f"{path}: entry {i} ({entry['name']}): {label} is not a non-empty list of words")
        tests.append(WeatTest(entry["name"], *(tuple(entry[label]) for label in _WORD_LISTS)))
    return tests


def _usable(words: Sequence[str], emb: EmbeddingTable) -> list[str]:
    return [w for w in words if w in emb and w not in emb.zero_words]


def apply_oov_policy(test: WeatTest, emb: EmbeddingTable, policy: OovPolicy = OovPolicy()):
    """Filter each list to the embedding vocabulary, rebalance targets, and
    report coverage and drops. Raises UnderfilledListError when a list falls
    below its minimum."""
    x = _usable(test.targets_x, emb)
    y = _usable(test.targets_y, emb)
    a = _usable(test.attributes_a, emb)
    b = _usable(test.attributes_b, emb)
    dropped = [w for w in (*test.targets_x, *test.targets_y, *test.attributes_a, *test.attributes_b)
               if w not in emb or w in emb.zero_words]
    # rebalance: truncate the longer target list from its end (file order)
    n = min(len(x), len(y))
    dropped += x[n:] + y[n:]
    x, y = x[:n], y[:n]
    coverage = {
        "targets_x": (len(test.targets_x), len(x)),
        "targets_y": (len(test.targets_y), len(y)),
        "attributes_a": (len(test.attributes_a), len(a)),
        "attributes_b": (len(test.attributes_b), len(b)),
    }
    if n < policy.min_targets:
        raise UnderfilledListError(
            f"{test.name}: target lists under-filled after filtering (|X|=|Y|={n})"
        )
    if len(a) < policy.min_attributes or len(b) < policy.min_attributes:
        raise UnderfilledListError(
            f"{test.name}: attribute lists under-filled after filtering "
            f"(|A|={len(a)}, |B|={len(b)})"
        )
    return x, y, a, b, coverage, tuple(dropped)


def _unit_rows(words: Sequence[str], emb: EmbeddingTable) -> np.ndarray:
    mat = np.vstack([emb.get(w) for w in words])
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def association(w: str, attributes_a: Sequence[str], attributes_b: Sequence[str], emb: EmbeddingTable) -> float:
    """Mean cosine of w to the A attributes minus mean cosine to the B attributes."""
    for word in (w, *attributes_a, *attributes_b):
        if word not in emb:
            raise WeatError(f"word {word!r} not in vocabulary; filter before calling")
    scores = _association_scores([w], attributes_a, attributes_b, emb)
    return float(scores[0])


def _association_scores(
    targets: Sequence[str], attributes_a: Sequence[str], attributes_b: Sequence[str], emb: EmbeddingTable
) -> np.ndarray:
    t = _unit_rows(targets, emb)
    a = _unit_rows(attributes_a, emb)
    b = _unit_rows(attributes_b, emb)
    return (t @ a.T).mean(axis=1) - (t @ b.T).mean(axis=1)


def _prepare(test: WeatTest, emb: EmbeddingTable, policy: OovPolicy):
    """Filter the word lists once and score both target lists against the
    attributes: (sx, sy, coverage, dropped)."""
    x, y, a, b, coverage, dropped = apply_oov_policy(test, emb, policy)
    return _association_scores(x, a, b, emb), _association_scores(y, a, b, emb), coverage, dropped


def test_statistic(test: WeatTest, emb: EmbeddingTable, policy: OovPolicy = OovPolicy()) -> float:
    """Sum of X association scores minus sum of Y association scores."""
    sx, sy, _, _ = _prepare(test, emb, policy)
    return float(sx.sum() - sy.sum())


def _effect_size_from_scores(sx: np.ndarray, sy: np.ndarray) -> float:
    pooled = np.concatenate([sx, sy])
    denom = pooled.std()  # population std
    if denom == 0.0:
        raise DegenerateStatisticError("all association scores equal; effect size undefined")
    return float((sx.mean() - sy.mean()) / denom)


def effect_size(test: WeatTest, emb: EmbeddingTable, policy: OovPolicy = OovPolicy()) -> WeatResult:
    sx, sy, coverage, dropped = _prepare(test, emb, policy)
    return WeatResult(
        test_name=test.name,
        effect_size=_effect_size_from_scores(sx, sy),
        test_statistic=float(sx.sum() - sy.sum()),
        p_value=None,
        p_method="none",
        coverage=coverage,
        dropped_words=dropped,
    )


def _subset_chunks(n: int, mode: str, n_samples: int, seed: Optional[int]) -> tuple[int, Iterator[np.ndarray]]:
    """The n-subsets of range(2n) that a p-value counts over: (their number,
    an iterator over them in chunks of at most _SUBSET_CHUNK rows). Exact mode
    enumerates every subset, Monte Carlo mode draws n_samples at the seed; each
    row's indices are ascending. Raises WeatError for subsets that cannot be had."""
    if mode == "exact":
        size = math.comb(2 * n, n)
        if size > EXACT_PARTITION_BUDGET:
            raise ExactBudgetError(
                f"C({2 * n},{n}) = {size} partitions exceed the exact budget "
                f"of {EXACT_PARTITION_BUDGET}; use monte_carlo"
            )
        subsets = combinations(range(2 * n), n)

        def draw(rows: int) -> np.ndarray:
            return np.fromiter(chain.from_iterable(islice(subsets, rows)), np.intp, rows * n).reshape(rows, n)

    elif mode == "monte_carlo":
        if seed is None:
            raise WeatError("monte_carlo mode requires an explicit seed")
        if seed < 0:
            raise WeatError(f"monte_carlo mode needs a seed >= 0, got {seed}")
        if n_samples < 1:
            raise WeatError(f"monte_carlo mode needs n_samples >= 1, got {n_samples}")
        size = n_samples
        rng = np.random.default_rng(seed)

        def draw(rows: int) -> np.ndarray:
            # a uniform random n-subset per row via argsort of iid uniforms;
            # indices sorted so each subset sums in the same order as exact mode
            return np.sort(np.argsort(rng.random((rows, 2 * n)), axis=1)[:, :n], axis=1)

    else:
        raise WeatError(f"unknown p-value mode {mode!r}")
    return size, (draw(min(_SUBSET_CHUNK, size - start)) for start in range(0, size, _SUBSET_CHUNK))


def _p_values(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]], mode: str, n_samples: int, seed: Optional[int], inclusive: bool
) -> list[float]:
    """One-sided permutation p of each (sx, sy) score pair, all of one list
    size n: the share of n-subsets of the pooled scores, taken as the X side,
    whose statistic beats the observed one. Each chunk of subsets is drawn
    once and counted against every pair with the float operations one pair
    alone would get, so a p-value does not depend on the other pairs."""
    n = len(pairs[0][0])
    size, chunks = _subset_chunks(n, mode, n_samples, seed)
    pooled = [np.concatenate([sx, sy]) for sx, sy in pairs]
    totals = [scores.sum() for scores in pooled]
    # observed statistics computed with the same float operations as the
    # subset statistics below, so the identity partition never flips a
    # strict comparison by rounding
    observed = [float(2.0 * scores[:n].sum() - total) for scores, total in zip(pooled, totals)]
    hits = [0] * len(pairs)
    for subsets in chunks:
        for i, (scores, total, obs) in enumerate(zip(pooled, totals, observed)):
            stats = 2.0 * scores[subsets].sum(axis=1) - total
            hits[i] += int(np.count_nonzero(stats >= obs if inclusive else stats > obs))
        del subsets  # freed before the next chunk is drawn
    return [h / size for h in hits]


def permutation_p(
    test: WeatTest,
    emb: EmbeddingTable,
    mode: str = "exact",
    n_samples: int = DEFAULT_MC_SAMPLES,
    seed: Optional[int] = None,
    inclusive: bool = False,
    policy: OovPolicy = OovPolicy(),
) -> float:
    """One-sided permutation p-value: the proportion of equal-size partitions
    of X∪Y whose statistic beats the observed one (strict ">" by default)."""
    sx, sy, _, _ = _prepare(test, emb, policy)
    return _p_values([(sx, sy)], mode, n_samples, seed, inclusive)[0]


def run_test(
    test: WeatTest,
    emb: EmbeddingTable,
    policy: OovPolicy = OovPolicy(),
    p_mode: str = "monte_carlo",
    n_samples: int = DEFAULT_MC_SAMPLES,
    seed: Optional[int] = 0,
    inclusive: bool = False,
) -> WeatResult:
    return run_battery([test], emb, policy, p_mode, n_samples, seed, inclusive)[0]


def run_battery(
    tests: Sequence[WeatTest],
    emb: EmbeddingTable,
    policy: OovPolicy = OovPolicy(),
    p_mode: str = "monte_carlo",
    n_samples: int = DEFAULT_MC_SAMPLES,
    seed: Optional[int] = 0,
    inclusive: bool = False,
) -> list[WeatResult]:
    """One WeatResult per test, order preserved; per-test failures are
    reported in the result's error field without aborting the battery.
    Tests whose target lists have the same size after filtering share their
    subsets (see `_p_values`): each p-value is the one the test gets alone."""
    results: list[Optional[WeatResult]] = [None] * len(tests)
    groups: dict[int, list] = {}
    for i, test in enumerate(tests):
        coverage, dropped = {}, ()
        try:
            sx, sy, coverage, dropped = _prepare(test, emb, policy)
            d = _effect_size_from_scores(sx, sy)
        except WeatError as exc:
            # coverage and drops stay once the lists are filtered
            results[i] = WeatResult(test.name, None, None, None, "none", coverage, dropped, str(exc))
            continue
        groups.setdefault(len(sx), []).append((i, sx, sy, coverage, dropped, d))
    for members in groups.values():
        try:
            p_values = _p_values([(sx, sy) for _, sx, sy, *_ in members], p_mode, n_samples, seed, inclusive)
            method, error = ("exact" if p_mode == "exact" else f"monte_carlo(n={n_samples}, seed={seed})"), None
        except WeatError as exc:
            # the effect size and statistic stay when only the p-value failed
            # (an exact group over the partition budget)
            p_values, method, error = [None] * len(members), "none", str(exc)
        for (i, sx, sy, coverage, dropped, d), p in zip(members, p_values):
            statistic = float(sx.sum() - sy.sum())
            results[i] = WeatResult(tests[i].name, d, statistic, p, method, coverage, dropped, error)
    return results


def write_results_csv(results: Sequence[WeatResult], path: str) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "test_name",
                "effect_size",
                "test_statistic",
                "p_value",
                "p_method",
                "coverage_x",
                "coverage_y",
                "coverage_a",
                "coverage_b",
                "dropped_words",
                "error",
            ]
        )
        for r in results:
            cov = {k: f"{v[1]}/{v[0]}" for k, v in r.coverage.items()}
            writer.writerow(
                [
                    r.test_name,
                    "" if r.effect_size is None else f"{r.effect_size:.6f}",
                    "" if r.test_statistic is None else f"{r.test_statistic:.6f}",
                    "" if r.p_value is None else f"{r.p_value:.6g}",
                    r.p_method,
                    cov.get("targets_x", ""),
                    cov.get("targets_y", ""),
                    cov.get("attributes_a", ""),
                    cov.get("attributes_b", ""),
                    " ".join(r.dropped_words),
                    r.error or "",
                ]
            )

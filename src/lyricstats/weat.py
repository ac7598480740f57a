"""Word Embedding Association Test: association scores, effect size,
permutation significance, and the bundled eight-test battery."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from lyricstats import permutation
from lyricstats.embeddings import EmbeddingTable

DEFAULT_MC_SAMPLES = 100_000
MIN_WORDS = 2  # usable words each target and attribute list needs after filtering


class WeatError(Exception):
    pass


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
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise WeatError(f"{path}: not a JSON battery ({exc})") from exc
    if not isinstance(raw, list):
        raise WeatError(f"{path}: a battery is a JSON list of tests")
    if not raw:
        raise WeatError(f"{path}: the battery names no test")
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


def apply_oov_policy(test: WeatTest, emb: EmbeddingTable):
    """Filter each list to the embedding vocabulary, dropping words without a
    vector or with a zero one (no cosine is defined for it), then truncate
    the longer target list from its end to restore |X| = |Y|: (x, y, a, b,
    coverage, dropped), however few words are left."""
    lists = [getattr(test, label) for label in _WORD_LISTS]
    usable = {w: w in emb and bool(emb.get(w).any()) for words in lists for w in words}
    x, y, a, b = ([w for w in words if usable[w]] for words in lists)
    dropped = [w for words in lists for w in words if not usable[w]]
    # rebalance: truncate the longer target list from its end (file order)
    n = min(len(x), len(y))
    dropped += x[n:] + y[n:]
    x, y = x[:n], y[:n]
    coverage = {label: (len(words), len(kept)) for label, words, kept in zip(_WORD_LISTS, lists, (x, y, a, b))}
    return x, y, a, b, coverage, tuple(dropped)


def _scores(
    name: str, x: list[str], y: list[str], a: list[str], b: list[str], emb: EmbeddingTable
) -> tuple[np.ndarray, float] | str:
    """The pooled association scores, X's then Y's, and the effect size, (s,
    d), for lists that `apply_oov_policy` filtered; or, when the test cannot
    be scored, the error that says why. A target's score is its mean cosine to
    the A words minus its mean cosine to the B words, read from one matrix of
    every target's cosine to every attribute, in float64 whatever the table's
    dtype."""
    if len(x) < MIN_WORDS:
        return f"{name}: target lists under-filled after filtering (|X|=|Y|={len(x)})"
    if len(a) < MIN_WORDS or len(b) < MIN_WORDS:
        return f"{name}: attribute lists under-filled after filtering (|A|={len(a)}, |B|={len(b)})"
    n = len(x)
    rows = np.asarray(emb.vectors[[emb.vocab[w] for w in x + y + a + b]], dtype=np.float64)
    with np.errstate(invalid="ignore"):  # an infinite vector: reported below
        unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        cos = unit[: 2 * n] @ unit[2 * n :].T
        s = cos[:, : len(a)].mean(axis=1) - cos[:, len(a) :].mean(axis=1)
    if not np.isfinite(s).all():
        return f"{name}: association scores are not all finite (a vector holds nan or inf)"
    denom = s.std()  # population std
    if denom == 0.0:
        return "all association scores equal; effect size undefined"
    return s, float((s[:n].mean() - s[n:].mean()) / denom)


def run_battery(
    tests: Sequence[WeatTest],
    emb: EmbeddingTable,
    n_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
    inclusive: bool = False,
) -> list[WeatResult]:
    """One WeatResult per test, order preserved: its effect size, its
    statistic (the X association scores' sum minus the Y scores') and its
    one-sided permutation p-value, the share of equal-size partitions of X∪Y
    whose statistic beats the observed one (">", or ">=" when inclusive),
    over every partition when there are at most n_samples of them, else over
    n_samples drawn at the seed. A test with fewer than MIN_WORDS usable
    words in a list, a non-finite score or equal scores throughout gets no
    statistic, and its error field says why; its coverage and drops are
    filled in all the same, and the battery goes on. Tests whose target
    lists have the same size after filtering share their subsets (see
    `permutation.p_values`): each p-value is the one the test gets alone. Raises
    WeatError, before any work, for a sample count or seed that no p-value
    can use."""
    if n_samples < 1:
        raise WeatError(f"a permutation p-value needs n_samples >= 1, got {n_samples}")
    if seed is None:
        raise WeatError("a permutation p-value needs an explicit seed")
    if seed < 0:
        raise WeatError(f"a permutation p-value needs a seed >= 0, got {seed}")
    results: list[Optional[WeatResult]] = [None] * len(tests)
    groups: dict[int, list] = {}
    for i, test in enumerate(tests):
        x, y, a, b, coverage, dropped = apply_oov_policy(test, emb)
        scored = _scores(test.name, x, y, a, b, emb)
        if isinstance(scored, str):
            results[i] = WeatResult(test.name, None, None, None, "none", coverage, dropped, scored)
            continue
        s, d = scored
        groups.setdefault(len(x), []).append((i, s, coverage, dropped, d))
    for n, members in groups.items():
        scores = np.column_stack([s for _, s, *_ in members])
        method, p_values = permutation.p_values(scores, n, n_samples, seed, inclusive)
        for (i, s, coverage, dropped, d), p in zip(members, p_values):
            results[i] = WeatResult(tests[i].name, d, float(s[:n].sum() - s[n:].sum()), p, method, coverage, dropped)
    return results


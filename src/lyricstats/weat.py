"""Word Embedding Association Test: association scores, effect size,
permutation significance, and the bundled eight-test battery."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Iterator, Optional, Sequence

import numpy as np

from lyricstats.corpus import atomic_write
from lyricstats.embeddings import EmbeddingTable

DEFAULT_MC_SAMPLES = 100_000
# Subsets scored per numpy call, enumerated and sampled alike. Sampled chunks
# continue one uniform stream, so p-values do not depend on the size; it bounds
# the two (rows, N) float64 buffers that every chunk of a list size reuses, the
# uniforms and the masks. On the benchmark's `train` vectors (546 words at dim
# 50, 2 cores), `lyricstats weat` peaked at 37.3, 37.8, 38.6 and 40.1 MB RSS at
# 250, 500, 1,000 and 2,000 rows, against 39.0 MB for the argsort draw it
# replaced; an in-process battery took about 0.15 s at every size from 125 to
# 2,000 rows.
_SUBSET_CHUNK = 500
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


def apply_oov_policy(test: WeatTest, emb: EmbeddingTable):
    """Filter each list to the embedding vocabulary, dropping words without a
    vector or with a zero one, then truncate the longer target list from its
    end to restore |X| = |Y|: (x, y, a, b, coverage, dropped), however few
    words are left."""
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
    return x, y, a, b, coverage, tuple(dropped)


def _unit_rows(words: Sequence[str], emb: EmbeddingTable) -> np.ndarray:
    mat = np.vstack([emb.get(w) for w in words])
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def _association_scores(
    targets: Sequence[str], attributes_a: Sequence[str], attributes_b: Sequence[str], emb: EmbeddingTable
) -> np.ndarray:
    t = _unit_rows(targets, emb)
    a = _unit_rows(attributes_a, emb)
    b = _unit_rows(attributes_b, emb)
    return (t @ a.T).mean(axis=1) - (t @ b.T).mean(axis=1)


def _scores(
    name: str, x: list[str], y: list[str], a: list[str], b: list[str], emb: EmbeddingTable
) -> tuple[np.ndarray, np.ndarray, float] | str:
    """Both target lists' association scores and the effect size, (sx, sy,
    d), for lists that `apply_oov_policy` filtered; or, when the test cannot
    be scored, the error that says why."""
    if len(x) < MIN_WORDS:
        return f"{name}: target lists under-filled after filtering (|X|=|Y|={len(x)})"
    if len(a) < MIN_WORDS or len(b) < MIN_WORDS:
        return f"{name}: attribute lists under-filled after filtering (|A|={len(a)}, |B|={len(b)})"
    with np.errstate(invalid="ignore"):  # an infinite vector: reported below
        sx, sy = _association_scores(x, a, b, emb), _association_scores(y, a, b, emb)
    if not (np.isfinite(sx).all() and np.isfinite(sy).all()):
        return f"{name}: association scores are not all finite (a vector holds nan or inf)"
    denom = np.concatenate([sx, sy]).std()  # population std
    if denom == 0.0:
        return "all association scores equal; effect size undefined"
    return sx, sy, float((sx.mean() - sy.mean()) / denom)


def _subset_chunks(
    n_x: int, n_items: int, n_samples: int, seed: int
) -> tuple[str, int, Iterator[tuple[np.ndarray, Optional[np.ndarray]]]]:
    """The n_x-subsets of range(n_items) that a p-value counts over: (the
    p-method, their number, an iterator over them in chunks of at most
    _SUBSET_CHUNK rows). Every subset when there are C(n_items, n_x) <=
    n_samples ("exact"), else n_samples subsets drawn at the seed. A chunk is
    a pair (masks, uniforms): masks is a (rows, n_items) 0/1 float array, one
    subset a row; uniforms is None for enumerated subsets, and for drawn ones
    the row's uniforms, whose n_x smallest the mask marks. Every chunk reuses
    the buffers of the one before."""
    size = math.comb(n_items, n_x)
    masks = np.empty((min(_SUBSET_CHUNK, size, n_samples), n_items))
    if size <= n_samples:
        method = "exact"
        subsets = combinations(range(n_items), n_x)

        def draw(rows: int):
            chosen = np.fromiter(chain.from_iterable(islice(subsets, rows)), np.intp, rows * n_x)
            return _masks_of(chosen.reshape(rows, n_x), masks[:rows]), None

    else:
        method, size = f"monte_carlo(n={n_samples}, seed={seed})", n_samples
        rng = np.random.default_rng(seed)
        uniforms = np.empty_like(masks)

        def draw(rows: int):
            drawn = rng.random(out=uniforms[:rows])
            return _smallest_masks(drawn, n_x, masks[:rows]), drawn

    return method, size, (draw(min(_SUBSET_CHUNK, size - start)) for start in range(0, size, _SUBSET_CHUNK))


def _smallest_masks(uniforms: np.ndarray, n_x: int, masks: np.ndarray) -> np.ndarray:
    """Writes into masks a 1 at each row's n_x smallest uniforms and 0
    elsewhere: a uniform random n_x-subset per row of iid uniforms, the one
    argsort picks. A row whose n_x-th and (n_x + 1)-th smallest uniforms tie
    gets more than n_x ones. masks first holds a partitioned copy of the
    uniforms, whose (n_x - 1)-th column is the cut."""
    np.copyto(masks, uniforms)
    masks.partition(n_x - 1, axis=1)
    return np.less_equal(uniforms, masks[:, n_x - 1 : n_x].copy(), out=masks)


def _masks_of(chosen: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Writes into masks a 1 at each row's chosen indices and 0 elsewhere."""
    masks.fill(0.0)
    np.put_along_axis(masks, chosen, 1.0, axis=1)
    return masks


def _p_values(
    scores: np.ndarray, n_x: int, n_samples: int, seed: int, inclusive: bool
) -> tuple[str, list[float]]:
    """(p-method, one-sided permutation p of each column of scores), an
    (N, k) array whose column holds one test's pooled scores, the n_x X-side
    scores first: the share of n_x-subsets of the N rows, taken as the X
    side, whose statistic beats the observed one. The statistic grows with
    the subset's score sum, so a subset beats the observed X side when its
    sum is larger (or equal, when inclusive).

    The scores are rounded to integers small enough that every subset sum is
    exact in float64, whatever order BLAS adds them in, so each chunk of
    subsets is scored against every test by one (rows, N) @ (N, k + 1)
    product. Per column, max|s| = f * 2**e with 0.5 <= f < 1 is scaled to
    below 2**(52 - ceil(log2 N)); an all-zero column stays zero. The last
    column of ones counts each subset's items: a drawn row with a tie at its
    n_x-th smallest uniform marks more than n_x of them, and its chunk takes
    argsort's subsets instead."""
    n_items, k = scores.shape
    method, size, chunks = _subset_chunks(n_x, n_items, n_samples, seed)
    exponents = np.frexp(np.abs(scores).max(axis=0))[1]
    q = np.ones((n_items, k + 1))
    q[:, :k] = np.rint(np.ldexp(scores, 52 - (n_items - 1).bit_length() - exponents))
    observed = q[:n_x, :k].sum(axis=0)
    beats = np.greater_equal if inclusive else np.greater
    hits = np.zeros(k, dtype=np.int64)
    sums = np.empty((min(_SUBSET_CHUNK, size), k + 1))
    for masks, uniforms in chunks:
        chunk_sums = np.matmul(masks, q, out=sums[: len(masks)])
        if uniforms is not None and (chunk_sums[:, k] != n_x).any():
            _masks_of(np.argsort(uniforms, axis=1)[:, :n_x], masks)
            np.matmul(masks, q, out=chunk_sums)
        hits += np.count_nonzero(beats(chunk_sums[:, :k], observed), axis=0)
    return method, [int(h) / size for h in hits]


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
    `_p_values`): each p-value is the one the test gets alone. Raises
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
        sx, sy, d = scored
        groups.setdefault(len(sx), []).append((i, sx, sy, coverage, dropped, d))
    for n, members in groups.items():
        scores = np.column_stack([np.concatenate([sx, sy]) for _, sx, sy, *_ in members])
        method, p_values = _p_values(scores, n, n_samples, seed, inclusive)
        for (i, sx, sy, coverage, dropped, d), p in zip(members, p_values):
            results[i] = WeatResult(tests[i].name, d, float(sx.sum() - sy.sum()), p, method, coverage, dropped)
    return results


def write_results_csv(results: Sequence[WeatResult], path: str) -> None:
    """One CSV row per result. The file is written to a temporary file beside
    `path` and moved into place, so a failed write leaves any previous file
    as it was."""
    import csv

    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
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

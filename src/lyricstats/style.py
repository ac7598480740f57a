"""Per-song lyric style metrics and their year/cohort aggregations."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from lyricstats.corpus import COHORTS, Corpus, ranked_ids, select_songs, song_chunks, token_counts, tokenize

_VOWEL_GROUP = re.compile("[aeiouy]+")


class StyleError(Exception):
    pass


class LexiconError(StyleError):
    pass


@dataclass(frozen=True, eq=False)
class StyleMetrics:
    """Per-song style metrics as columns: each field holds one entry per
    song, in corpus order, and the field names are per_song.csv's header.
    Int columns are int64; a missing duration, and its speed, are NaN."""

    song_id: tuple[str, ...]
    year: np.ndarray
    cohort: np.ndarray
    length_words: np.ndarray
    duration_seconds: np.ndarray
    speed_wps: np.ndarray
    repetitiveness_pct: np.ndarray
    fk_grade: np.ndarray
    swear_count: np.ndarray
    swear_rate: np.ndarray


@dataclass(frozen=True, eq=False)
class YearCohortAggregate:
    """Per (year, cohort) means as columns, one entry per cell, and the field
    names are aggregate.csv's header. `duration_coverage` counts the songs in
    the duration and speed means; with none, those means are NaN."""

    year: np.ndarray
    cohort: np.ndarray
    song_count: np.ndarray
    mean_length_words: np.ndarray
    mean_duration_seconds: np.ndarray
    duration_coverage: np.ndarray
    mean_speed_wps: np.ndarray
    mean_repetitiveness_pct: np.ndarray
    mean_fk_grade: np.ndarray
    mean_swear_count: np.ndarray
    mean_swear_rate: np.ndarray


def _syllables(word: str) -> int:
    """The heuristic syllable count of one word: its maximal runs of vowels
    (a, e, i, o, u, y), minus one for a final "e" not after "l" (silent in
    "love", kept in "table"), and at least 1."""
    return max(len(_VOWEL_GROUP.findall(word)) - (word.endswith("e") and not word.endswith("le")), 1)


def syllable_table(words: Sequence[str]) -> np.ndarray:
    """The `_syllables` count of each word, as an int64 array."""
    return np.fromiter(map(_syllables, words), dtype=np.int64, count=len(words))


def _block_sums(corpus: Corpus, *per_id: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per song, the sum of each `per_id` table (one value per vocabulary id)
    over its tokens, then the number of its distinct lines, from one pass over
    each block of songs that `song_chunks` gives. Lines are equal when their
    tokens are, so trailing punctuation or case differences in the raw text do
    not count as new lines: each line is the bytes of its slice of token ids."""
    sums = [np.empty(len(corpus), dtype=np.int64) for _ in per_id]
    distinct = np.empty(len(corpus), dtype=np.int64)
    bounds, line_at, song_at = corpus.song_bounds, corpus.line_offsets, corpus.song_offsets
    for block, ids in song_chunks(corpus):
        lo, hi = block[0], block[-1] + 1
        for table, out in zip(per_id, sums):
            out[lo:hi] = np.add.reduceat(table[ids], bounds[lo:hi] - bounds[lo], dtype=np.int64)
        first, last = song_at[lo], song_at[hi]
        ends = ((line_at[first : last + 1] - bounds[lo]) * ids.itemsize).tolist()
        text = ids.tobytes()
        lines = [text[a:b] for a, b in zip(ends, ends[1:])]
        songs = (song_at[lo : hi + 1] - first).tolist()
        distinct[lo:hi] = [len(set(lines[a:b])) for a, b in zip(songs, songs[1:])]
    return (*sums, distinct)


@lru_cache(maxsize=200_000)
def count_syllables(word: str) -> int:
    """`_syllables`, cached. The corpus code counts each vocabulary word once,
    through `syllable_table`, and never calls this; it stays because
    perfbench/launch.py reads its `cache_info()`."""
    return _syllables(word)


def check_tokens(words, prefix: str) -> None:
    """Raises LexiconError, `<prefix> <word> would not survive tokenization`,
    for the first word that no token can equal: one that `tokenize` does not
    give back as a one-token line."""
    for word in words:
        if tokenize(word) != ((word,),):
            raise LexiconError(f"{prefix} {word!r} would not survive tokenization")


def load_wordlist(path: str) -> frozenset[str]:
    """One lowercase word per line; '#' starts a comment; blanks ignored.
    Raises LexiconError for a word that no token can equal."""
    entries: dict[str, None] = {}  # in file order, so the first bad line is named
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for line in fh:
                word = line.split("#", 1)[0].strip()
                if word:
                    entries[word.lower()] = None
    except UnicodeDecodeError as exc:
        raise StyleError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    check_tokens(entries, f"{path}: entry")
    return frozenset(entries)


def load_swear_lexicon(path: str) -> frozenset[str]:
    """The lexicon's words, as `load_wordlist` reads them. Raises LexiconError
    for an empty lexicon."""
    entries = load_wordlist(path)
    if not entries:
        raise LexiconError(f"{path}: empty lexicon")
    return entries


def corpus_style_metrics(corpus: Corpus, lexicon: frozenset[str]) -> StyleMetrics:
    """Every song's metrics, in corpus order, from vocabulary-level tables
    (syllables per id, a swear mask) summed per song in one pass over each
    block of songs; repetitiveness is the percentage of a song's lines that
    repeat an earlier line of it. One song's metrics are those of its
    one-song corpus, `Corpus.from_records([song])`."""
    if not lexicon:
        raise LexiconError("empty swear lexicon")
    swears = np.fromiter((w in lexicon for w in corpus.vocab), dtype=bool, count=len(corpus.vocab))
    syllables, swear_counts, unique_lines = _block_sums(corpus, syllable_table(corpus.vocab), swears)
    words, sentences = np.diff(corpus.song_bounds), np.diff(corpus.song_offsets)
    return StyleMetrics(
        song_id=corpus.ids,
        year=corpus.years,
        cohort=np.array(COHORTS)[corpus.cohorts],
        length_words=words,
        duration_seconds=corpus.durations,
        speed_wps=words / corpus.durations,
        repetitiveness_pct=(1.0 - unique_lines / sentences) * 100.0,
        # Flesch-Kincaid grade level, each line one sentence
        fk_grade=0.39 * (words / sentences) + 11.8 * (syllables / words) - 15.59,
        swear_count=swear_counts,
        swear_rate=swear_counts / words,
    )


def aggregate(metrics: StyleMetrics) -> YearCohortAggregate:
    """Arithmetic means per (year, cohort) cell, by ascending year and then
    cohort name. Duration and speed means cover only the songs that carry a
    duration, with the coverage count reported. Each cell's sums add its
    songs in corpus order, as a left-to-right Python `sum` would."""
    names, cohort_index = np.unique(metrics.cohort, return_inverse=True)
    keys, cell = np.unique(metrics.year * len(names) + cohort_index, return_inverse=True)
    timed = ~np.isnan(metrics.duration_seconds)
    song_count = np.bincount(cell, minlength=len(keys))
    duration_coverage = np.bincount(cell[timed], minlength=len(keys))

    def mean(column: np.ndarray, songs=slice(None), count: np.ndarray = song_count) -> np.ndarray:
        with np.errstate(invalid="ignore"):  # 0 / 0: a cell without a duration
            return np.bincount(cell[songs], weights=column[songs], minlength=len(keys)) / count

    return YearCohortAggregate(
        year=keys // len(names),
        cohort=names[keys % len(names)],
        song_count=song_count,
        mean_length_words=mean(metrics.length_words),
        mean_duration_seconds=mean(metrics.duration_seconds, timed, duration_coverage),
        duration_coverage=duration_coverage,
        mean_speed_wps=mean(metrics.speed_wps, timed, duration_coverage),
        mean_repetitiveness_pct=mean(metrics.repetitiveness_pct),
        mean_fk_grade=mean(metrics.fk_grade),
        mean_swear_count=mean(metrics.swear_count),
        mean_swear_rate=mean(metrics.swear_rate),
    )


def year_rankings(
    corpus: Corpus, cohort: Optional[str] = None, year: Optional[int] = None
) -> dict[int, list[str]]:
    """Each year's vocabulary in rank order, for the songs that
    `select_songs(corpus, cohort, year)` selects: descending count, ties in
    lexicographic order. Keys are the years that have songs, ascending;
    position i + 1 of a list is that word's rank in that year."""
    vocab = corpus.vocab
    years = np.unique(corpus.years[select_songs(corpus, cohort, year)]).tolist()
    # each year is counted and ranked on its own, so only one year's counts
    # are held at a time; ids are in string order, so ties by id are ties by word
    return {
        y: [vocab[i] for i in ranked_ids(token_counts(corpus, select_songs(corpus, cohort, y))).tolist()]
        for y in years
    }


def rank_series(rankings: dict[int, Sequence[str]], words: Sequence[str]) -> dict[str, dict[int, int]]:
    """Each word's rank by year, `{word: {year: rank}}` (1 = most frequent),
    from `year_rankings`: words in the order of `words`, years in that of
    `rankings`; a year in which a word does not occur has no entry."""
    if not words:
        raise StyleError("rank_series needs a non-empty word list")
    per_word: dict[str, dict[int, int]] = {w: {} for w in words}
    for year, ranked in rankings.items():
        for rank, word in enumerate(ranked, start=1):
            if word in per_word:
                per_word[word][year] = rank
    return per_word


def top_words(ranked: Sequence[str], k: int, stopwords: frozenset[str] = frozenset()) -> list[str]:
    """The first k non-stopwords of one year's ranking from `year_rankings`;
    fewer when the ranking holds fewer, whatever the size of k."""
    if k < 1:
        raise StyleError("k must be >= 1")
    return list(islice((w for w in ranked if w not in stopwords), min(k, len(ranked))))

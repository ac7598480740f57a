"""Per-song lyric style metrics and their year/cohort aggregations."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from lyricstats.corpus import COHORTS, Corpus, CorpusError, SongRecord, ranked_ids, token_counts

_VOWELS = np.array([ord(c) for c in "aeiouy"], dtype=np.uint32)
# songs that `_song_sums` and `_repetitiveness` take at once: bounds the
# per-token values and the line objects held (4096 songs of 30 lines of 10
# words: 1.2M values, 123k lines)
_SONGS_PER_BLOCK = 4096


class StyleError(Exception):
    pass


class LexiconError(StyleError):
    pass


@dataclass(frozen=True)
class StyleMetrics:
    song_id: str
    length_words: int
    duration_seconds: Optional[float]
    speed_wps: Optional[float]
    repetitiveness_pct: float
    fk_grade: float
    swear_count: int
    swear_rate: float


@dataclass(frozen=True)
class YearCohortAggregate:
    year: int
    cohort: str
    song_count: int
    mean_length_words: float
    mean_duration_seconds: Optional[float]
    duration_coverage: int  # songs contributing to the duration/speed means
    mean_speed_wps: Optional[float]
    mean_repetitiveness_pct: float
    mean_fk_grade: float
    mean_swear_count: float
    mean_swear_rate: float


@dataclass(frozen=True)
class RankSeries:
    word: str
    entries: dict[int, int]  # year -> rank (1 = most frequent); absent year = word unseen


@dataclass(frozen=True)
class SwearLexicon:
    entries: frozenset[str]
    source: str


def _one_song(song: SongRecord) -> Corpus:
    """The corpus of one song: the per-song functions below run the corpus
    code on it, so that there is one implementation of each metric."""
    try:
        return Corpus.from_records((song,))
    except CorpusError as exc:
        raise StyleError(str(exc)) from exc


def _speeds(lengths: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Words per second of each song; NaN where the duration is NaN."""
    return lengths / durations


def _repetitiveness(corpus: Corpus) -> np.ndarray:
    """Per song, the percentage of its lines that repeat an earlier line of it.

    Lines are equal when their tokens are, so trailing punctuation or case
    differences in the raw text do not count as new lines. Each line is the
    bytes of its slice of token ids, and a song's distinct lines are a set of
    those, built for a block of songs at a time."""
    unique = np.empty(len(corpus), dtype=np.int64)
    line_at, song_at = corpus.line_offsets, corpus.song_offsets
    for lo in range(0, len(corpus), _SONGS_PER_BLOCK):
        hi = min(lo + _SONGS_PER_BLOCK, len(corpus))
        first, last = song_at[lo], song_at[hi]
        ids = corpus.tokens[line_at[first] : line_at[last]]
        ends = ((line_at[first : last + 1] - line_at[first]) * ids.itemsize).tolist()
        text = ids.tobytes()
        lines = [text[a:b] for a, b in zip(ends, ends[1:])]
        songs = (song_at[lo : hi + 1] - first).tolist()
        unique[lo:hi] = [len(set(lines[a:b])) for a, b in zip(songs, songs[1:])]
    return (1.0 - unique / np.diff(song_at)) * 100.0


def _song_sums(corpus: Corpus, per_id: np.ndarray) -> np.ndarray:
    """Per song, the sum of `per_id` (one value per vocabulary id) over its
    tokens, a block of songs at a time: the per-token values held at once are
    one block's."""
    sums = np.empty(len(corpus), dtype=np.int64)
    bounds = corpus.song_bounds
    for lo in range(0, len(corpus), _SONGS_PER_BLOCK):
        hi = min(lo + _SONGS_PER_BLOCK, len(corpus))
        values = per_id[corpus.tokens[bounds[lo] : bounds[hi]]]
        sums[lo:hi] = np.add.reduceat(values, bounds[lo:hi] - bounds[lo], dtype=np.int64)
    return sums


def syllable_table(words: Sequence[str]) -> np.ndarray:
    """The heuristic syllable count of each word, as an int64 array: its
    maximal vowel groups (a, e, i, o, u, y), minus one for a terminal silent
    "e" (kept when preceded by "l", as in "table"), floored at 1."""
    lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    # one code point per element, word after word
    codes = np.frombuffer("".join(words).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    vowel = np.isin(codes, _VOWELS)
    starts = np.cumsum(lengths) - lengths
    group_start = vowel.copy()
    group_start[1:] &= ~vowel[:-1]
    # a vowel that begins a word begins a group, whatever ends the word before
    has_chars = lengths > 0
    group_start[starts[has_chars]] = vowel[starts[has_chars]]
    running = np.concatenate(([0], np.cumsum(group_start)))
    groups = running[starts + lengths] - running[starts]
    last = starts + lengths - 1
    silent_e = np.zeros(len(words), dtype=bool)
    silent_e[has_chars] = codes[last[has_chars]] == ord("e")
    after_l = lengths >= 2
    silent_e[after_l] &= codes[last[after_l] - 1] != ord("l")
    return np.maximum(groups - silent_e, 1)


def _fk_grades(corpus: Corpus) -> np.ndarray:
    """Per song, the Flesch-Kincaid grade level with each line one sentence."""
    words = np.diff(corpus.song_bounds)
    sentences = np.diff(corpus.song_offsets)
    syllables = _song_sums(corpus, syllable_table(corpus.vocab))
    return 0.39 * (words / sentences) + 11.8 * (syllables / words) - 15.59


def _swear_counts(corpus: Corpus, lexicon: SwearLexicon) -> np.ndarray:
    """Per song, how many of its tokens are entries of the lexicon."""
    if not lexicon.entries:
        raise LexiconError("empty swear lexicon")
    entries = lexicon.entries
    swears = np.fromiter((w in entries for w in corpus.vocab), dtype=bool, count=len(corpus.vocab))
    return _song_sums(corpus, swears)


def length_words(song: SongRecord) -> int:
    return len(_one_song(song).tokens)


def speed(length: int, duration_seconds: float) -> float:
    """Words per second."""
    if duration_seconds <= 0:
        raise StyleError("duration_seconds must be > 0")
    return float(_speeds(np.array([length]), np.array([duration_seconds], dtype=np.float64))[0])


def repetitiveness(song: SongRecord) -> float:
    """Percentage of lines that repeat an earlier line (see `_repetitiveness`)."""
    return float(_repetitiveness(_one_song(song))[0])


@lru_cache(maxsize=200_000)
def count_syllables(word: str) -> int:
    """Heuristic syllable count of one word (see `syllable_table`). The corpus
    code counts each vocabulary word once, through `syllable_table`; this cache
    serves callers that ask for single words, and `cache_info()` stays part of
    the function's interface (perfbench/launch.py reads it)."""
    return int(syllable_table([word])[0])


def fk_grade(song: SongRecord) -> float:
    """Flesch-Kincaid grade level with each lyric line treated as one sentence."""
    return float(_fk_grades(_one_song(song))[0])


def load_wordlist(path: str) -> frozenset[str]:
    """One lowercase word per line; '#' starts a comment; blanks ignored."""
    entries: set[str] = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                word = line.split("#", 1)[0].strip()
                if word:
                    entries.add(word.lower())
    except UnicodeDecodeError as exc:
        raise StyleError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return frozenset(entries)


def load_swear_lexicon(path: str) -> SwearLexicon:
    entries = load_wordlist(path)
    if not entries:
        raise LexiconError(f"{path}: empty lexicon")
    from lyricstats.corpus import _EDGE  # reuse the tokenizer's edge-strip rule

    for word in entries:
        if _EDGE.sub("", word) != word or word != word.lower() or " " in word:
            raise LexiconError(f"{path}: entry {word!r} would not survive tokenization")
    return SwearLexicon(entries=entries, source=path)


def swear_stats(song: SongRecord, lexicon: SwearLexicon) -> tuple[int, float]:
    """Exact-token swear matches: (count, count/length)."""
    corpus = _one_song(song)
    count = int(_swear_counts(corpus, lexicon)[0])
    return count, count / len(corpus.tokens)


def compute_style_metrics(song: SongRecord, lexicon: SwearLexicon) -> StyleMetrics:
    return corpus_style_metrics(_one_song(song), lexicon)[0]


def corpus_style_metrics(corpus: Corpus, lexicon: SwearLexicon) -> list[StyleMetrics]:
    """Every song's metrics, in corpus order, each column computed for all
    songs at once from vocabulary-level tables."""
    swears = _swear_counts(corpus, lexicon)
    lengths = np.diff(corpus.song_bounds)
    speeds = _speeds(lengths, corpus.durations)
    columns = (
        lengths.tolist(),
        corpus.durations.tolist(),
        speeds.tolist(),
        _repetitiveness(corpus).tolist(),
        _fk_grades(corpus).tolist(),
        swears.tolist(),
        (swears / lengths).tolist(),
    )
    return [
        StyleMetrics(
            song_id=song_id,
            length_words=n,
            duration_seconds=None if duration != duration else duration,  # NaN: no duration
            speed_wps=None if duration != duration else wps,
            repetitiveness_pct=rep,
            fk_grade=fk,
            swear_count=count,
            swear_rate=rate,
        )
        for song_id, n, duration, wps, rep, fk, count, rate in zip(corpus.ids, *columns)
    ]


def aggregate(corpus: Corpus, metrics: Sequence[StyleMetrics]) -> list[YearCohortAggregate]:
    """Arithmetic means per (year, cohort); duration/speed means cover only the
    songs that carry a duration, with the coverage count reported. `metrics[i]`
    must be song i's, as `corpus_style_metrics` gives them: metrics for another
    song, or one metrics entry too many or too few, raise StyleError."""
    if len(metrics) != len(corpus):
        raise StyleError(f"{len(metrics)} metrics for {len(corpus)} songs")
    cells: dict[tuple[int, str], list[StyleMetrics]] = defaultdict(list)
    for i, (song_id, year, cohort, m) in enumerate(
        zip(corpus.ids, corpus.years.tolist(), corpus.cohorts.tolist(), metrics)
    ):
        if m.song_id != song_id:
            raise StyleError(f"metrics {i} are for song {m.song_id!r}, but song {i} is {song_id!r}")
        cells[(year, COHORTS[cohort])].append(m)
    out: list[YearCohortAggregate] = []
    for (year, cohort) in sorted(cells):
        ms = cells[(year, cohort)]
        n = len(ms)
        with_dur = [m for m in ms if m.duration_seconds is not None]
        out.append(
            YearCohortAggregate(
                year=year,
                cohort=cohort,
                song_count=n,
                mean_length_words=sum(m.length_words for m in ms) / n,
                mean_duration_seconds=(
                    sum(m.duration_seconds for m in with_dur) / len(with_dur) if with_dur else None
                ),
                duration_coverage=len(with_dur),
                mean_speed_wps=(
                    sum(m.speed_wps for m in with_dur) / len(with_dur) if with_dur else None
                ),
                mean_repetitiveness_pct=sum(m.repetitiveness_pct for m in ms) / n,
                mean_fk_grade=sum(m.fk_grade for m in ms) / n,
                mean_swear_count=sum(m.swear_count for m in ms) / n,
                mean_swear_rate=sum(m.swear_rate for m in ms) / n,
            )
        )
    return out


def year_rankings(
    corpus: Corpus, cohort: Optional[str] = None, year: Optional[int] = None
) -> dict[int, list[str]]:
    """Each year's vocabulary in rank order, for the songs of `cohort` (every
    song when None) in `year` (every year when None): descending count, ties in
    lexicographic order. Keys are the years that have songs, ascending;
    position i + 1 of a list is that word's rank in that year."""
    keep = np.ones(len(corpus), dtype=bool)
    if cohort is not None:
        keep &= corpus.cohorts == (COHORTS.index(cohort) if cohort in COHORTS else -1)
    if year is not None:
        keep &= corpus.years == year
    songs = np.flatnonzero(keep)
    songs = songs[np.argsort(corpus.years[songs], kind="stable")]
    years, firsts = np.unique(corpus.years[songs], return_index=True)
    vocab = corpus.vocab
    # each year is counted and ranked on its own, so only one year's counts
    # are held at a time; ids are in string order, so ties by id are ties by word
    return {
        y: [vocab[i] for i in ranked_ids(token_counts(corpus, group)).tolist()]
        for y, group in zip(years.tolist(), np.split(songs, firsts[1:]))
    }


def rank_series(rankings: dict[int, Sequence[str]], words: Sequence[str]) -> list[RankSeries]:
    """Year-by-year rank of each requested word (1 = most frequent), from
    `year_rankings`; a year in which a word does not occur has no entry."""
    if not words:
        raise StyleError("rank_series needs a non-empty word list")
    per_word: dict[str, dict[int, int]] = {w: {} for w in words}
    for year, ranked in rankings.items():
        for rank, word in enumerate(ranked, start=1):
            if word in per_word:
                per_word[word][year] = rank
    return [RankSeries(word=w, entries=per_word[w]) for w in words]


def top_words(ranked: Sequence[str], k: int, stopwords: frozenset[str] = frozenset()) -> list[str]:
    """The first k non-stopwords of one year's ranking from `year_rankings`;
    fewer when the ranking holds fewer."""
    if k < 1:
        raise StyleError("k must be >= 1")
    return list(islice((w for w in ranked if w not in stopwords), k))

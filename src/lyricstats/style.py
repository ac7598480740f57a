"""Per-song lyric style metrics and their year/cohort aggregations."""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable, Optional, Sequence

from lyricstats.corpus import Corpus, SongRecord, token_counts

_VOWEL_GROUPS = re.compile(r"[aeiouy]+")


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


def length_words(song: SongRecord) -> int:
    return sum(len(line) for line in song.lines)


def speed(length: int, duration_seconds: float) -> float:
    """Words per second."""
    if duration_seconds <= 0:
        raise StyleError("duration_seconds must be > 0")
    return length / duration_seconds


def repetitiveness(song: SongRecord) -> float:
    """Percentage of lines that repeat an earlier line.

    Line equality is judged on the normalized token join, so trailing
    punctuation or case differences in the raw text do not count as new lines.
    """
    total = len(song.lines)
    if total == 0:
        raise StyleError("repetitiveness needs at least one line")
    unique = len({" ".join(line) for line in song.lines})
    return (1.0 - unique / total) * 100.0


@lru_cache(maxsize=200_000)
def count_syllables(word: str) -> int:
    """Heuristic syllable count: maximal vowel groups (a,e,i,o,u,y), minus one
    for a terminal silent "e" (kept when preceded by "l", as in "table"),
    floored at 1."""
    groups = len(_VOWEL_GROUPS.findall(word))
    if word.endswith("e") and not word.endswith("le"):
        groups -= 1
    return max(groups, 1)


def fk_grade(song: SongRecord) -> float:
    """Flesch-Kincaid grade level with each lyric line treated as one sentence."""
    words = length_words(song)
    sentences = len(song.lines)
    if words == 0 or sentences == 0:
        raise StyleError("fk_grade needs at least one line and one token")
    syllables = sum(count_syllables(t) for line in song.lines for t in line)
    return 0.39 * (words / sentences) + 11.8 * (syllables / words) - 15.59


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
    if not lexicon.entries:
        raise LexiconError("empty swear lexicon")
    n = length_words(song)
    count = sum(1 for line in song.lines for t in line if t in lexicon.entries)
    return count, count / n


def compute_style_metrics(song: SongRecord, lexicon: SwearLexicon) -> StyleMetrics:
    n = length_words(song)
    duration = song.duration_seconds
    swears, rate = swear_stats(song, lexicon)
    return StyleMetrics(
        song_id=song.id,
        length_words=n,
        duration_seconds=duration,
        speed_wps=None if duration is None else speed(n, duration),
        repetitiveness_pct=repetitiveness(song),
        fk_grade=fk_grade(song),
        swear_count=swears,
        swear_rate=rate,
    )


def corpus_style_metrics(corpus: Corpus, lexicon: SwearLexicon) -> list[StyleMetrics]:
    return [compute_style_metrics(song, lexicon) for song in corpus]


def aggregate(corpus: Corpus, metrics: Sequence[StyleMetrics]) -> list[YearCohortAggregate]:
    """Arithmetic means per (year, cohort); duration/speed means cover only the
    songs that carry a duration, with the coverage count reported."""
    by_id = {m.song_id: m for m in metrics}
    cells: dict[tuple[int, str], list[StyleMetrics]] = defaultdict(list)
    for rec in corpus.records:
        if rec.id in by_id:
            cells[(rec.year, rec.cohort)].append(by_id[rec.id])
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
    # one pass groups the songs by year; each year is then counted and sorted
    # on its own, so only one year's counts are held at a time
    by_year: dict[int, list[SongRecord]] = defaultdict(list)
    for song in corpus:
        if (cohort is None or song.cohort == cohort) and (year is None or song.year == year):
            by_year[song.year].append(song)
    rankings: dict[int, list[str]] = {}
    for y in sorted(by_year):
        counts = token_counts(by_year[y])
        rankings[y] = sorted(counts, key=lambda w: (-counts[w], w))
    return rankings


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

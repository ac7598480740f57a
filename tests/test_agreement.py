"""The compact corpus against the per-string algorithms it replaced.

The references below compute each result the way the code did while a corpus
held its songs as lines of strings: a regex per word for syllables, a set of
joined lines per song, a Counter and a sort of the words per year, and Python
sums over each (year, cohort) cell's songs. On corpora drawn by hypothesis the
two must agree bit for bit.
"""

import dataclasses
import math
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lyricstats.corpus
from lyricstats.corpus import COHORTS, Corpus, SongRecord, token_counts
from lyricstats.embeddings import EmbeddingError, SgnsConfig, _TrainState
from lyricstats.style import (
    StyleMetrics,
    aggregate,
    corpus_style_metrics,
    count_syllables,
    syllable_table,
    year_rankings,
)

# "Z" < "a" < "É" < "é" in code-point order, unlike casefold order; vowel runs,
# "e" and "le" endings exercise the syllable rule
LETTERS = "aeBlyZÉé'-"
WORDS = st.text(st.sampled_from(LETTERS), min_size=1, max_size=5)
YEARS = (1990, 1991, 1992)


@st.composite
def corpora(draw):
    """(corpus, its records, a lexicon): songs drawn from a few lines made of a
    few words, so that lines repeat and counts tie."""
    words = draw(st.lists(WORDS, min_size=1, max_size=8, unique=True))
    lines = draw(st.lists(st.lists(st.sampled_from(words), min_size=1, max_size=4).map(tuple), min_size=1, max_size=5))
    records = [
        SongRecord(
            id=f"s{i}",
            year=draw(st.sampled_from(YEARS)),
            cohort=draw(st.sampled_from(COHORTS)),
            duration_seconds=draw(st.none() | st.floats(1.0, 600.0)),
            lines=tuple(draw(st.lists(st.sampled_from(lines), min_size=1, max_size=6))),
        )
        for i in range(draw(st.integers(0, 8)))
    ]
    lexicon = frozenset(draw(st.lists(st.sampled_from(words), min_size=1)))
    return Corpus.from_records(records), records, lexicon


def reference_syllables(word):
    groups = len(re.findall(r"[aeiouy]+", word))
    if word.endswith("e") and not word.endswith("le"):
        groups -= 1
    return max(groups, 1)


def reference_metrics(song, lexicon):
    """The song's per_song.csv row, as a dict; NaN for a missing duration."""
    tokens = [t for line in song.lines for t in line]
    n, lines, duration = len(tokens), len(song.lines), song.duration_seconds
    syllables = sum(reference_syllables(t) for t in tokens)
    swears = sum(1 for t in tokens if t in lexicon)
    return {
        "song_id": song.id,
        "year": song.year,
        "cohort": song.cohort,
        "length_words": n,
        "duration_seconds": math.nan if duration is None else duration,
        "speed_wps": math.nan if duration is None else n / duration,
        "repetitiveness_pct": (1.0 - len({" ".join(line) for line in song.lines}) / lines) * 100.0,
        "fk_grade": 0.39 * (n / lines) + 11.8 * (syllables / n) - 15.59,
        "swear_count": swears,
        "swear_rate": swears / n,
    }


def reference_aggregate(rows):
    """aggregate.csv's rows, as dicts, from per_song.csv rows: per (year,
    cohort) cell, left-to-right Python sums over its songs in order."""
    cells = {}
    for row in rows:
        cells.setdefault((row["year"], row["cohort"]), []).append(row)
    out = []
    for (year, cohort), songs in sorted(cells.items()):
        n = len(songs)
        timed = [r for r in songs if not math.isnan(r["duration_seconds"])]

        def mean(name, songs=songs):
            return sum(r[name] for r in songs) / len(songs) if songs else math.nan

        out.append({
            "year": year,
            "cohort": cohort,
            "song_count": n,
            "mean_length_words": mean("length_words"),
            "mean_duration_seconds": mean("duration_seconds", timed),
            "duration_coverage": len(timed),
            "mean_speed_wps": mean("speed_wps", timed),
            "mean_repetitiveness_pct": mean("repetitiveness_pct"),
            "mean_fk_grade": mean("fk_grade"),
            "mean_swear_count": mean("swear_count"),
            "mean_swear_rate": mean("swear_rate"),
        })
    return out


def bits(values):
    """Values compared bit for bit: a float by its hex form, so NaN equals NaN."""
    return [v.hex() if isinstance(v, float) else v for v in values]


def assert_columns_match(table, rows):
    """Each column of `table` equals the rows' values of that field, in
    order and bit for bit, with each int column stored as int64."""
    names = [f.name for f in dataclasses.fields(table)]
    assert all(list(row) == names for row in rows)
    for name in names:
        column = getattr(table, name)
        values = list(column) if isinstance(column, tuple) else column.tolist()
        assert bits(values) == bits([row[name] for row in rows]), name
        if values and isinstance(values[0], int):
            assert column.dtype == "int64", name


def reference_rankings(records, cohort=None, year=None):
    rankings = {}
    for y in sorted({s.year for s in records}):
        songs = [s for s in records if s.year == y and cohort in (None, s.cohort) and year in (None, y)]
        if songs:
            counts = Counter(t for s in songs for line in s.lines for t in line)
            rankings[y] = sorted(counts, key=lambda w: (-counts[w], w))
    return rankings


def reference_training(records, min_count):
    """(vocab, counts, sentences) as _TrainState built them from strings."""
    counts = Counter(t for s in records for line in s.lines for t in line)
    kept = sorted(((w, c) for w, c in counts.items() if c >= min_count), key=lambda kv: (-kv[1], kv[0]))
    vocab = {w: i for i, (w, _) in enumerate(kept)}
    sentences = [[vocab[t] for line in s.lines for t in line if t in vocab] for s in records]
    return vocab, [c for _, c in kept], sentences


# token bounds of a pass over songs: one song per chunk, small chunks, and the
# default (one chunk for every drawn corpus)
TOKEN_CHUNKS = [1, 3, lyricstats.corpus._TOKEN_CHUNK]


@settings(max_examples=200, deadline=None)
@given(corpora(), st.sampled_from(TOKEN_CHUNKS))
def test_style_metrics_match_reference(drawn, token_chunk):
    corpus, records, lexicon = drawn
    with mock.patch.object(lyricstats.corpus, "_TOKEN_CHUNK", token_chunk):
        metrics = corpus_style_metrics(corpus, lexicon)
    assert_columns_match(metrics, [reference_metrics(s, lexicon) for s in records])


@settings(max_examples=200, deadline=None)
@given(corpora(), st.sampled_from(TOKEN_CHUNKS), st.data())
def test_token_counts_match_recount(drawn, token_chunk, data):
    corpus, records, _ = drawn
    # unsorted, with repeats, and sometimes empty
    songs = data.draw(st.lists(st.integers(0, len(records) - 1), max_size=12)) if records else []
    expected = Counter(t for i in songs for line in records[i].lines for t in line)
    with mock.patch.object(lyricstats.corpus, "_TOKEN_CHUNK", token_chunk):
        counts = token_counts(corpus, songs)
    assert counts.tolist() == [expected[w] for w in corpus.vocab]


# per_song.csv rows: a year holding both cohorts, a cell without a duration,
# one-song cells, and a cell whose songs are not next to each other
MIXED_ROWS = [
    (1990, "popular", 10, 200.0, 12.5, 3.25, 1, 0.1),
    (1990, "other", 20, None, 50.0, -1.5, 0, 0.0),
    (1990, "popular", 7, 180.5, 0.0, 7.75, 3, 3 / 7),
    (1991, "other", 31, None, 25.0, 0.1, 2, 2 / 31),
    (1992, "popular", 5, 0.3, 100 / 3, -15.59, 5, 1.0),
]
ROWS = st.lists(
    st.tuples(
        st.sampled_from(YEARS),
        st.sampled_from(COHORTS),
        st.integers(1, 10**6),
        st.none() | st.floats(1e-3, 1e4),
        st.floats(0.0, 100.0),
        st.floats(-1e6, 1e6),
        st.integers(0, 10**6),
        st.floats(0.0, 1.0),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(ROWS)
@example(MIXED_ROWS)
@example([])
def test_aggregate_matches_per_cell_sums(drawn):
    rows = [
        {
            "song_id": f"s{i}",
            "year": year,
            "cohort": cohort,
            "length_words": n,
            "duration_seconds": math.nan if duration is None else duration,
            "speed_wps": math.nan if duration is None else n / duration,
            "repetitiveness_pct": rep,
            "fk_grade": fk,
            "swear_count": swears,
            "swear_rate": rate,
        }
        for i, (year, cohort, n, duration, rep, fk, swears, rate) in enumerate(drawn)
    ]
    dtypes = {"year": np.int64, "cohort": str, "length_words": np.int64, "swear_count": np.int64}
    metrics = StyleMetrics(
        song_id=tuple(r["song_id"] for r in rows),
        **{
            f.name: np.array([r[f.name] for r in rows], dtype=dtypes.get(f.name, np.float64))
            for f in dataclasses.fields(StyleMetrics)[1:]
        },
    )
    assert_columns_match(aggregate(metrics), reference_aggregate(rows))


@settings(max_examples=200, deadline=None)
@given(corpora())
def test_year_rankings_match_reference(drawn):
    corpus, records, _ = drawn
    assert year_rankings(corpus) == reference_rankings(records)
    for cohort in COHORTS:
        assert year_rankings(corpus, cohort=cohort) == reference_rankings(records, cohort=cohort)
    for year in (*YEARS, 1777):
        for cohort in (None, *COHORTS):
            assert year_rankings(corpus, cohort, year) == reference_rankings(records, cohort, year)


def records_of(*songs):
    """The corpus, its records and an empty lexicon, as `corpora` draws them:
    one song per tuple of lines."""
    records = [
        SongRecord(id=f"s{i}", year=YEARS[0], cohort=COHORTS[0], duration_seconds=None, lines=lines)
        for i, lines in enumerate(songs)
    ]
    return Corpus.from_records(records), records, frozenset()


@settings(max_examples=200, deadline=None)
@given(corpora(), st.integers(1, 3))
# at min_count 2 the first and the last song keep no word, and the middle one
# keeps some but not all of its words
@example(records_of((("Z",),), (("a", "e", "a"), ("e", "É")), (("é", "y"),)), 2)
def test_train_state_matches_reference(drawn, min_count):
    corpus, records, _ = drawn
    vocab, counts, sentences = reference_training(records, min_count)
    config = SgnsConfig(dim=4, min_count=min_count, seed=0, epochs=1)
    if not vocab:
        with pytest.raises(EmbeddingError, match="empty vocabulary"):
            _TrainState(corpus, config)
        return
    state = _TrainState(corpus, config)
    assert list(state.vocab.items()) == list(vocab.items())
    assert state.counts.tolist() == counts
    assert [s.tolist() for s in state.sentences()] == sentences
    assert all(s.dtype == "int32" for s in state.sentences())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(st.sampled_from(LETTERS + "iouAEl中\U0001f3b5"), max_size=8), max_size=12))
def test_syllable_table_matches_regex_rule(words):
    expected = [reference_syllables(w) for w in words]
    assert syllable_table(words).tolist() == expected
    assert [count_syllables(w) for w in words] == expected

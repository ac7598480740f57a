"""The compact corpus against the per-string algorithms it replaced.

The references below compute each result the way the code did while a corpus
held its songs as lines of strings: a regex per word for syllables, a set of
joined lines per song, a Counter and a sort of the words per year. On corpora
drawn by hypothesis the two must agree bit for bit.
"""

import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lyricstats.style
from lyricstats.corpus import COHORTS, Corpus, SongRecord
from lyricstats.embeddings import EmbeddingError, SgnsConfig, _TrainState
from lyricstats.style import (
    StyleMetrics,
    SwearLexicon,
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
    lexicon = SwearLexicon(entries=frozenset(draw(st.lists(st.sampled_from(words), min_size=1))), source="<test>")
    return Corpus.from_records(records), records, lexicon


def reference_syllables(word):
    groups = len(re.findall(r"[aeiouy]+", word))
    if word.endswith("e") and not word.endswith("le"):
        groups -= 1
    return max(groups, 1)


def reference_metrics(song, lexicon):
    tokens = [t for line in song.lines for t in line]
    n, lines, duration = len(tokens), len(song.lines), song.duration_seconds
    syllables = sum(reference_syllables(t) for t in tokens)
    swears = sum(1 for t in tokens if t in lexicon.entries)
    return StyleMetrics(
        song_id=song.id,
        length_words=n,
        duration_seconds=duration,
        speed_wps=None if duration is None else n / duration,
        repetitiveness_pct=(1.0 - len({" ".join(line) for line in song.lines}) / lines) * 100.0,
        fk_grade=0.39 * (n / lines) + 11.8 * (syllables / n) - 15.59,
        swear_count=swears,
        swear_rate=swears / n,
    )


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


@settings(max_examples=200, deadline=None)
@given(corpora(), st.sampled_from([4096, 3, 1]))
def test_style_metrics_match_reference(drawn, songs_per_block):
    corpus, records, lexicon = drawn
    with mock.patch.object(lyricstats.style, "_SONGS_PER_BLOCK", songs_per_block):
        assert corpus_style_metrics(corpus, lexicon) == [reference_metrics(s, lexicon) for s in records]


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


@settings(max_examples=200, deadline=None)
@given(corpora(), st.integers(1, 3))
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
    assert [s.tolist() for s in state.sentences] == sentences
    assert all(s.dtype == "int64" for s in state.sentences)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(st.sampled_from(LETTERS + "iouAEl中\U0001f3b5"), max_size=8), max_size=12))
def test_syllable_table_matches_regex_rule(words):
    expected = [reference_syllables(w) for w in words]
    assert syllable_table(words).tolist() == expected
    assert [count_syllables(w) for w in words] == expected

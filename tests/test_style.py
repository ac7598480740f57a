import random
from collections import Counter

import pytest

from lyricstats.corpus import Corpus
from lyricstats.resources import default_swear_lexicon_path
from lyricstats.style import (
    LexiconError,
    StyleError,
    SwearLexicon,
    aggregate,
    compute_style_metrics,
    corpus_style_metrics,
    count_syllables,
    fk_grade,
    length_words,
    load_swear_lexicon,
    rank_series,
    repetitiveness,
    speed,
    swear_stats,
    top_words,
    year_rankings,
)
from tests.conftest import make_record

# hand-counted syllable reference: (word, syllables); the heuristic is
# documented to hit at least 90 of these 100 exactly
SYLLABLE_REFERENCE = [
    ("cat", 1), ("dog", 1), ("love", 1), ("night", 1), ("street", 1),
    ("rock", 1), ("blues", 1), ("world", 1), ("time", 1), ("stop", 1),
    ("dance", 1), ("sweet", 1), ("dream", 1), ("gold", 1), ("stone", 1),
    ("through", 1), ("voice", 1), ("heart", 1), ("one", 1), ("girl", 1),
    ("boy", 1), ("man", 1), ("moon", 1), ("sun", 1), ("rain", 1),
    ("road", 1), ("song", 1), ("sound", 1), ("light", 1), ("smile", 1),
    ("blue", 1), ("true", 1), ("day", 1), ("way", 1), ("home", 1),
    ("hand", 1), ("change", 1), ("young", 1), ("strong", 1), ("wild", 1),
    ("friend", 1), ("baby", 2), ("money", 2), ("table", 2), ("little", 2),
    ("river", 2), ("heaven", 2), ("woman", 2), ("music", 2), ("story", 2),
    ("summer", 2), ("winter", 2), ("window", 2), ("mother", 2), ("father", 2),
    ("sister", 2), ("brother", 2), ("party", 2), ("city", 2), ("crazy", 2),
    ("lonely", 2), ("happy", 2), ("trouble", 2), ("thunder", 2), ("morning", 2),
    ("singing", 2), ("dancing", 2), ("burning", 2), ("running", 2), ("broken", 2),
    ("golden", 2), ("silver", 2), ("shadow", 2), ("angel", 2), ("devil", 2),
    ("ocean", 2), ("island", 2), ("evening", 2), ("every", 2), ("beautiful", 3),
    ("tomorrow", 3), ("remember", 3), ("together", 3), ("forever", 3), ("melody", 3),
    ("memory", 3), ("family", 3), ("holiday", 3), ("yesterday", 3), ("dangerous", 3),
    ("wonderful", 3), ("paradise", 3), ("butterfly", 3), ("anywhere", 3), ("energy", 3),
    ("fantasy", 3), ("history", 3), ("emotion", 3), ("america", 4), ("television", 4),
]


def lyric(text):
    return make_record(lyrics=text)


def recount(corpus, year, cohort=None) -> Counter:
    """Token counts of the songs of `year` (of `cohort` when given), counted
    inline: the rankings under test count with `token_counts`."""
    return Counter(
        t
        for song in corpus
        if song.year == year and (cohort is None or song.cohort == cohort)
        for line in song.lines
        for t in line
    )


@pytest.fixture(scope="module")
def lexicon():
    return load_swear_lexicon(default_swear_lexicon_path())


class TestSyllables:
    def test_cat(self):
        assert count_syllables("cat") == 1

    def test_silent_e(self):
        # vowel groups o,e = 2, terminal silent e subtracts 1
        assert count_syllables("love") == 1

    def test_baby(self):
        assert count_syllables("baby") == 2

    def test_le_ending_keeps_syllable(self):
        assert count_syllables("table") == 2

    def test_minimum_one(self):
        assert count_syllables("hmm") == 1

    def test_reference_list_accuracy(self):
        assert len(SYLLABLE_REFERENCE) == 100
        exact = sum(1 for w, n in SYLLABLE_REFERENCE if count_syllables(w) == n)
        assert exact >= 90


class TestScalarMetrics:
    def test_length_words(self):
        assert length_words(lyric("a b\nc")) == 3

    def test_speed_typical(self):
        assert speed(144, 240.0) == pytest.approx(0.6)

    def test_speed_zero_words(self):
        assert speed(0, 100.0) == 0.0

    def test_speed_exact_quotient(self):
        assert speed(300, 150.0) == 2.0

    def test_speed_requires_positive_duration(self):
        with pytest.raises(StyleError):
            speed(10, 0.0)

    def test_speed_linear_in_length(self):
        assert speed(300, 120.0) == pytest.approx(3 * speed(100, 120.0))

    def test_repetitiveness_abab(self):
        assert repetitiveness(lyric("la la\nda da\nla la\nda da")) == 50.0

    def test_repetitiveness_all_unique(self):
        assert repetitiveness(lyric("one two\nthree four\nfive six")) == 0.0

    def test_repetitiveness_five_identical(self):
        assert repetitiveness(lyric("la la\n" * 5)) == pytest.approx(80.0)

    def test_repetitiveness_normalized_line_equality(self):
        # punctuation and case differences do not make a line new
        assert repetitiveness(lyric("La, la!\nla la")) == 50.0

    def test_repetitiveness_range(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 12)
            text = "\n".join(rng.choice(["a b", "c d", "e f"]) for _ in range(n))
            r = repetitiveness(lyric(text))
            assert 0.0 <= r < 100.0

    def test_fk_three_monosyllables(self):
        # 1 sentence, 3 words, 3 syllables: 0.39*3 + 11.8*1 - 15.59
        assert fk_grade(lyric("the cat sat")) == pytest.approx(-2.62, abs=1e-9)

    def test_fk_ten_words_fifteen_syllables(self):
        # crazy/money/... give 15 syllables over 10 words on one line
        text = "crazy money story little dreams summer night gold rain moon"
        words = text.split()
        assert sum(count_syllables(w) for w in words) == 15
        assert fk_grade(lyric(text)) == pytest.approx(6.01, abs=1e-9)

    def test_fk_ratio_invariance_under_doubling(self):
        text = "crazy money story\nsummer night gold"
        assert fk_grade(lyric(text + "\n" + text)) == pytest.approx(fk_grade(lyric(text)), abs=1e-12)

    def test_fk_increases_with_syllable_rate(self):
        easy = fk_grade(lyric("cat dog sun"))
        hard = fk_grade(lyric("america television paradise"))
        assert hard > easy


class TestSwearStats:
    def test_counts_and_rate(self):
        lex = SwearLexicon(entries=frozenset({"damn"}), source="<test>")
        assert swear_stats(lyric("damn damn it"), lex) == (2, pytest.approx(2 / 3))

    def test_no_matches(self, lexicon):
        assert swear_stats(lyric("sunshine and rainbows"), lexicon) == (0, 0.0)

    def test_rate_decreases_with_clean_token(self):
        lex = SwearLexicon(entries=frozenset({"damn"}), source="<test>")
        _, r1 = swear_stats(lyric("damn damn"), lex)
        _, r2 = swear_stats(lyric("damn damn it"), lex)
        assert r2 < r1

    def test_lexicon_rejects_untokenizable_entry(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("damn\nBad!\n")
        with pytest.raises(LexiconError):
            load_swear_lexicon(str(path))

    def test_lexicon_rejects_empty(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(LexiconError):
            load_swear_lexicon(str(path))

    def test_mini_corpus_rate_series_matches_recount(self, mini_corpus, lexicon):
        for cohort in ("popular", "other"):
            for year in sorted({r.year for r in mini_corpus.records}):
                songs = [song for song in mini_corpus if song.year == year and song.cohort == cohort]
                if not songs:
                    continue
                expected = []
                for song in songs:
                    toks = [t for line in song.lines for t in line]
                    n_swears = sum(1 for t in toks if t in lexicon.entries)
                    expected.append(n_swears / len(toks))
                got = [swear_stats(song, lexicon)[1] for song in songs]
                assert got == pytest.approx(expected)


class TestAggregate:
    def test_mean_of_two(self, lexicon):
        recs = [
            make_record("a", lyrics=" ".join(["la"] * 100), year=1990, cohort="other"),
            make_record("b", lyrics=" ".join(["la"] * 200), year=1990, cohort="other"),
        ]
        corpus = Corpus(records=tuple(recs))
        metrics = corpus_style_metrics(corpus, lexicon)
        aggs = aggregate(corpus, metrics)
        assert len(aggs) == 1
        assert aggs[0].mean_length_words == 150.0

    def test_duration_coverage(self, lexicon):
        recs = [
            make_record("a", year=1990, duration=200.0),
            make_record("b", year=1990, duration=None),
        ]
        corpus = Corpus(records=tuple(recs))
        aggs = aggregate(corpus, corpus_style_metrics(corpus, lexicon))
        assert aggs[0].song_count == 2
        assert aggs[0].duration_coverage == 1
        assert aggs[0].mean_duration_seconds == 200.0

    def test_order_invariance(self, mini_corpus, lexicon):
        metrics = corpus_style_metrics(mini_corpus, lexicon)
        shuffled = list(metrics)
        random.Random(3).shuffle(shuffled)
        assert aggregate(mini_corpus, metrics) == aggregate(mini_corpus, shuffled)

    def test_mini_corpus_against_scripted_means(self, mini_corpus, lexicon):
        metrics = corpus_style_metrics(mini_corpus, lexicon)
        aggs = {(a.year, a.cohort): a for a in aggregate(mini_corpus, metrics)}
        by_id = {m.song_id: m for m in metrics}
        cells = {}
        for rec in mini_corpus.records:
            cells.setdefault((rec.year, rec.cohort), []).append(by_id[rec.id])
        assert set(cells) == set(aggs)
        for key, ms in cells.items():
            assert aggs[key].mean_fk_grade == pytest.approx(sum(m.fk_grade for m in ms) / len(ms))
            assert aggs[key].mean_repetitiveness_pct == pytest.approx(
                sum(m.repetitiveness_pct for m in ms) / len(ms)
            )


class TestRankSeries:
    def _corpus(self, counts_by_year):
        # one synthetic song per year whose tokens realize the given counts
        recs = []
        for year, counts in counts_by_year.items():
            words = [w for w, c in counts.items() for _ in range(c)]
            recs.append(make_record(f"y{year}", lyrics=" ".join(words), year=year, cohort="popular"))
        return Corpus(records=tuple(recs))

    def test_tie_break_lexicographic(self):
        corpus = self._corpus({2000: {"love": 10, "rock": 5, "blues": 5}})
        assert year_rankings(corpus) == {2000: ["love", "blues", "rock"]}
        series = {s.word: s.entries for s in rank_series(year_rankings(corpus), ["love", "blues", "rock"])}
        assert series["love"][2000] == 1
        assert series["blues"][2000] == 2
        assert series["rock"][2000] == 3

    def test_absent_word_absent_entry(self):
        corpus = self._corpus({2000: {"love": 3}, 2001: {"rock": 2}})
        (series,) = rank_series(year_rankings(corpus), ["rock"])
        assert 2000 not in series.entries and series.entries[2001] == 1

    def test_ranks_form_permutation(self, mini_corpus):
        for year, ranked in year_rankings(mini_corpus).items():
            counts = recount(mini_corpus, year)
            assert len(set(ranked)) == len(ranked) and set(ranked) == set(counts)

    def test_year_without_songs_absent(self, mini_corpus):
        rankings = year_rankings(mini_corpus, cohort="popular")
        assert list(rankings) == sorted({r.year for r in mini_corpus.records if r.cohort == "popular"})
        assert 1777 not in rankings

    @pytest.mark.parametrize("cohort", [None, "popular", "other"])
    def test_rankings_match_per_year_recount(self, mini_corpus, cohort):
        expected = {}
        for year in sorted({r.year for r in mini_corpus.records if cohort is None or r.cohort == cohort}):
            counts = recount(mini_corpus, year, cohort)
            expected[year] = sorted(counts, key=lambda w: (-counts[w], w))
        assert year_rankings(mini_corpus, cohort=cohort) == expected

    def test_mini_corpus_matches_sort_oracle(self, mini_corpus):
        rankings = year_rankings(mini_corpus, cohort="popular")
        results = {s.word: s.entries for s in rank_series(rankings, ["rock", "blues"])}
        for year in sorted({r.year for r in mini_corpus.records if r.cohort == "popular"}):
            counts = recount(mini_corpus, year, "popular")
            ordered = sorted(counts, key=lambda w: (-counts[w], w))
            for word in ("rock", "blues"):
                if word in counts:
                    assert results[word][year] == ordered.index(word) + 1
                else:
                    assert year not in results[word]

    @pytest.mark.parametrize("cohort", [None, "other"])
    def test_one_pass_matches_per_year_recount(self, mini_corpus, cohort):
        words = ["rock", "blues", "love", "the"]
        results = {s.word: s.entries for s in rank_series(year_rankings(mini_corpus, cohort=cohort), words)}
        expected = {w: {} for w in words}
        for year in {r.year for r in mini_corpus.records if cohort is None or r.cohort == cohort}:
            counts = recount(mini_corpus, year, cohort)
            ordered = sorted(counts, key=lambda w: (-counts[w], w))
            for word in words:
                if word in counts:
                    expected[word][year] = ordered.index(word) + 1
        assert results == expected

    @pytest.mark.parametrize("cohort", [None, "popular"])
    def test_year_filter_ranks_only_that_year(self, mini_corpus, cohort):
        every_year = year_rankings(mini_corpus, cohort=cohort)
        for year in every_year:
            assert year_rankings(mini_corpus, cohort=cohort, year=year) == {year: every_year[year]}
        assert year_rankings(mini_corpus, cohort=cohort, year=1777) == {}

    def test_empty_word_list_rejected(self, mini_corpus):
        with pytest.raises(StyleError):
            rank_series(year_rankings(mini_corpus), [])


class TestTopWords:
    def test_stopword_filtered(self):
        corpus = TestRankSeries()._corpus({1965: {"love": 9, "you": 9, "baby": 3}})
        assert top_words(year_rankings(corpus)[1965], 2, frozenset({"you"})) == ["love", "baby"]

    def test_k_larger_than_vocab(self):
        corpus = TestRankSeries()._corpus({1965: {"love": 2, "baby": 1}})
        assert top_words(year_rankings(corpus)[1965], 100) == ["love", "baby"]

    def test_k_must_be_positive(self, mini_corpus):
        with pytest.raises(StyleError):
            top_words(year_rankings(mini_corpus, cohort="popular")[1965], 0)

    def test_empty_selection(self):
        # a year whose words are all stopwords, or that has no songs, gives no top words
        corpus = TestRankSeries()._corpus({1965: {"you": 3, "the": 1}})
        rankings = year_rankings(corpus)
        assert top_words(rankings[1965], 10, frozenset({"you", "the"})) == []
        assert top_words(rankings.get(1777, []), 10) == []

    def test_mini_corpus_top10_matches_recount(self, mini_corpus):
        counts = recount(mini_corpus, 1965, "popular")
        expected = sorted(counts, key=lambda w: (-counts[w], w))[:10]
        assert top_words(year_rankings(mini_corpus, cohort="popular")[1965], 10) == expected


class TestPerSongMetrics:
    def test_song7_length_matches_recount(self, mini_corpus, lexicon):
        song = list(mini_corpus)[7]
        expected = sum(len(line) for line in song.lines)
        m = compute_style_metrics(song, lexicon)
        assert m.length_words == expected

    def test_speed_absent_iff_duration_absent(self, mini_corpus, lexicon):
        metrics = corpus_style_metrics(mini_corpus, lexicon)
        for rec, m in zip(mini_corpus.records, metrics):
            if rec.duration_seconds is None:
                assert m.speed_wps is None
            else:
                assert m.speed_wps == pytest.approx(m.length_words / rec.duration_seconds)

    def test_swear_count_bounded_by_length(self, mini_corpus, lexicon):
        for m in corpus_style_metrics(mini_corpus, lexicon):
            assert 0 <= m.swear_count <= m.length_words
            assert 0.0 <= m.swear_rate <= 1.0

import json
import os
import tempfile
import unicodedata
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyricstats.corpus import (
    _EDGE,
    CACHE_VERSION,
    Corpus,
    IngestError,
    Reject,
    SongRecord,
    TokenizeConfig,
    ingest,
    load_cache,
    save_cache,
    token_counts,
    tokenize,
    write_reject_report,
)
from tests.conftest import jsonl_row, write_jsonl


def retyped(row: str, **fields) -> str:
    """A cache row with the given fields replaced."""
    return json.dumps(dict(json.loads(row), **fields))


class TestTokenize:
    def test_basic_lines(self):
        assert tokenize("Hello, hello!\nWorld") == (("hello", "hello"), ("world",))

    def test_apostrophe_kept(self):
        assert tokenize("Don't stop") == (("don't", "stop"),)

    def test_annotation_dropped(self):
        assert tokenize("[Chorus]\nla la") == (("la", "la"),)

    def test_annotation_kept_when_disabled(self):
        assert tokenize("[Chorus]\nla la", TokenizeConfig(drop_annotations=False)) == (("chorus",), ("la", "la"))

    def test_empty_lines_removed(self):
        assert tokenize("one\n\n\ntwo") == (("one",), ("two",))

    def test_edge_punctuation_stripped_hyphen_kept(self):
        assert tokenize('"rock-n-roll"... (yeah!)') == (("rock-n-roll", "yeah"),)

    def test_zero_tokens_is_record_error(self, tmp_path):
        assert tokenize("!!! ???") == ()
        path = tmp_path / "songs.jsonl"
        write_jsonl(path, [jsonl_row("x", lyrics="!!! ???")])
        result = ingest(str(path), format="jsonl")
        assert len(result.corpus) == 0
        assert result.rejects == (Reject("x", "record 'x': lyrics tokenize to zero tokens"),)

    def test_deterministic(self):
        text = "Sómé Ünicode tëxt\nAnd More"
        assert tokenize(text) == tokenize(text)

    def test_idempotent_on_rendered_output(self):
        lines = tokenize("Hello, WORLD!\nDon't stop -- now")
        rendered = "\n".join(" ".join(line) for line in lines)
        assert tokenize(rendered) == lines


# letters with and without accents, combining marks, Arabic-Indic and other
# non-ASCII digits and numerals, a letter whose lowercase ends in a combining
# mark, and the edge characters the tokenizer strips or keeps inside a word
TOKEN_ALPHABET = "aZ\u00e9\u00dc\u00df\u4e2d\u0130\u0301\u0308\u0663\u06f4\u00b2\u216b7_'-!\".\u2014"


class TestEdgeStripFastPath:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(st.sampled_from(TOKEN_ALPHABET), min_size=1, max_size=5), min_size=1, max_size=6))
    def test_tokens_match_edge_regex_on_every_word(self, words):
        line = " ".join(words)
        text = unicodedata.normalize("NFC", line).lower()
        expected = tuple(t for t in (_EDGE.sub("", w) for w in text.split()) if t)
        assert tokenize(line, TokenizeConfig(drop_annotations=False)) == ((expected,) if expected else ())


class TestIngest:
    def test_jsonl_identity(self, tmp_path):
        path = tmp_path / "songs.jsonl"
        write_jsonl(path, [jsonl_row(f"s{i}") for i in range(3)])
        result = ingest(str(path), format="jsonl")
        assert len(result.corpus) == 3
        assert result.rejects == ()

    def test_missing_lyrics_rejected_with_reason(self, tmp_path):
        path = tmp_path / "songs.jsonl"
        rows = [jsonl_row("s1"), jsonl_row("s2")]
        bad = jsonl_row("s3")
        del bad["lyrics"]
        write_jsonl(path, rows + [bad])
        result = ingest(str(path), format="jsonl")
        assert len(result.corpus) == 2
        assert len(result.rejects) == 1
        assert "lyrics" in result.rejects[0].reason

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "songs.jsonl"
        write_jsonl(path, [jsonl_row("s1"), jsonl_row("s1")])
        result = ingest(str(path), format="jsonl")
        assert len(result.corpus) == 1
        assert "duplicate" in result.rejects[0].reason

    def test_year_range_enforced(self, tmp_path):
        path = tmp_path / "songs.jsonl"
        write_jsonl(path, [jsonl_row("s1", year=1700)])
        result = ingest(str(path), format="jsonl")
        assert len(result.corpus) == 0 and len(result.rejects) == 1

    def test_nonpositive_duration_rejected(self, tmp_path):
        path = tmp_path / "songs.jsonl"
        write_jsonl(path, [jsonl_row("s1", duration_seconds=0)])
        assert len(ingest(str(path), format="jsonl").rejects) == 1

    def test_null_duration_kept(self, tmp_path):
        path = tmp_path / "songs.jsonl"
        write_jsonl(path, [jsonl_row("s1", duration_seconds=None)])
        result = ingest(str(path), format="jsonl")
        assert result.corpus.records[0].duration_seconds is None

    def test_unreadable_file(self, tmp_path):
        with pytest.raises((IngestError, OSError)):
            ingest(str(tmp_path / "nope.jsonl"), format="jsonl")

    def test_malformed_csv_header(self, tmp_path):
        path = tmp_path / "songs.csv"
        path.write_text("id,only\n1,2\n")
        with pytest.raises(IngestError):
            ingest(str(path), format="csv")

    def test_quality_flag_on_majority_rejects(self, tmp_path):
        path = tmp_path / "songs.jsonl"
        bad = [dict(jsonl_row(f"b{i}"), year="not-a-year") for i in range(6)]
        write_jsonl(path, [jsonl_row("s1"), jsonl_row("s2")] + bad)
        result = ingest(str(path), format="jsonl")
        assert len(result.corpus) == 2
        assert not result.quality_ok

    def test_mini_corpus_composition(self, mini_corpus):
        # authored composition: 50 songs, 10 popular / 40 other
        assert len(mini_corpus) == 50
        cohorts = Counter(r.cohort for r in mini_corpus.records)
        assert cohorts == {"popular": 10, "other": 40}

    def test_ingest_deterministic_cache_bytes(self, tmp_path):
        src = tmp_path / "songs.jsonl"
        write_jsonl(src, [jsonl_row(f"s{i}", lyrics=f"word{i} la\nla la") for i in range(5)])
        outputs = []
        for name in ("a", "b"):
            result = ingest(str(src), format="jsonl")
            cache = tmp_path / f"{name}.cache"
            save_cache(result, str(cache))
            outputs.append(cache.read_bytes())
        assert outputs[0] == outputs[1]

    def test_cache_round_trip(self, tmp_path, mini_corpus):
        cache = tmp_path / "c.cache"
        save_cache(mini_corpus, str(cache))
        assert load_cache(str(cache)).records == mini_corpus.records

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rows: rows[:3] + [rows[3][: len(rows[3]) // 2]],  # cut mid-row
            lambda rows: rows[:3] + [json.dumps({k: v for k, v in json.loads(rows[3]).items() if k != "lines"})],
            lambda rows: rows[:3] + ["[1, 2]"],  # a row that is not an object
            # fields of the wrong type, which would fail or mislead the stages that read them
            lambda rows: rows[:3] + [retyped(rows[3], year="1990")],
            lambda rows: rows[:3] + [retyped(rows[3], duration_seconds="200")],
            lambda rows: rows[:3] + [retyped(rows[3], lines=[])],
            lambda rows: rows[:3] + [retyped(rows[3], lines=["hello world"])],
            lambda rows: rows[:3] + [retyped(rows[3], lines=[["la", 1]])],
        ],
        ids=["truncated", "missing_key", "not_an_object", "year_string", "duration_string", "no_lines",
             "line_not_a_list", "token_not_a_string"],
    )
    def test_malformed_cache_row_names_path_and_line(self, tmp_path, mini_corpus, edit):
        cache = tmp_path / "c.cache"
        save_cache(mini_corpus, str(cache))
        rows = cache.read_text(encoding="utf-8").splitlines()
        cache.write_text("\n".join(edit(rows)), encoding="utf-8")
        with pytest.raises(IngestError, match=f"{cache}:4: malformed cache row"):
            load_cache(str(cache))

    def test_cache_cut_at_row_boundary(self, tmp_path, mini_corpus):
        cache = tmp_path / "c.cache"
        save_cache(mini_corpus, str(cache))
        rows = cache.read_text(encoding="utf-8").splitlines(keepends=True)
        cache.write_text("".join(rows[:21]), encoding="utf-8")
        with pytest.raises(IngestError, match=f"^{cache}: header says 50 songs but the cache holds 20$"):
            load_cache(str(cache))

    def test_cache_without_song_count_refused(self, tmp_path, mini_corpus):
        cache = tmp_path / "c.cache"
        save_cache(mini_corpus, str(cache))
        rows = cache.read_text(encoding="utf-8").splitlines(keepends=True)
        header = json.loads(rows[0])
        del header["songs"]
        header["cache_version"] = 1
        cache.write_text(json.dumps(header) + "\n" + "".join(rows[1:]), encoding="utf-8")
        with pytest.raises(IngestError, match="unsupported cache version 1"):
            load_cache(str(cache))

    def test_version_2_cache_refused_with_rerun_hint(self, tmp_path, mini_corpus):
        cache = tmp_path / "c.cache"
        save_cache(mini_corpus, str(cache))
        rows = cache.read_text(encoding="utf-8").splitlines(keepends=True)
        header = dict(json.loads(rows[0]), cache_version=2)
        cache.write_text(json.dumps(header) + "\n" + "".join(rows[1:]), encoding="utf-8")
        with pytest.raises(IngestError) as err:
            load_cache(str(cache))
        message = str(err.value)
        assert message.startswith(f"{cache}: unsupported cache version 2")
        assert "re-run `lyricstats ingest`" in message and "\n" not in message

    def test_reject_report_schema(self, tmp_path):
        src = tmp_path / "songs.jsonl"
        write_jsonl(src, [jsonl_row("s1"), dict(jsonl_row("s2"), lyrics="   ")])
        result = ingest(str(src), format="jsonl")
        report = tmp_path / "rejects.jsonl"
        write_reject_report(result.rejects, str(report))
        rows = [json.loads(line) for line in report.read_text().splitlines()]
        assert rows and all("reason" in r and ("id" in r or "line_no" in r) for r in rows)


class TestTokenCounts:
    def test_two_songs(self, tmp_path):
        src = tmp_path / "songs.jsonl"
        write_jsonl(src, [jsonl_row("s1", lyrics="a a b"), jsonl_row("s2", lyrics="b c")])
        corpus = ingest(str(src), format="jsonl").corpus
        assert token_counts(corpus) == Counter({"a": 2, "b": 2, "c": 1})

    def test_no_songs_count_nothing(self, mini_corpus):
        assert token_counts(s for s in mini_corpus if s.year == 1777) == Counter()

    def test_year_filter_matches_recount(self, mini_corpus):
        got = token_counts(s for s in mini_corpus if s.year == 1965)
        expected = Counter()
        for song in mini_corpus:
            if song.year == 1965:
                for line in song.lines:
                    for t in line:
                        expected[t] += 1
        assert got == expected

    def test_count_conservation_over_year_partition(self, mini_corpus):
        whole = token_counts(mini_corpus)
        by_year = Counter()
        for year in {r.year for r in mini_corpus.records}:
            by_year.update(token_counts(s for s in mini_corpus if s.year == year))
        assert by_year == whole


# ids and tokens with non-ASCII text, quotes and backslashes, which JSON escapes
CACHE_TEXT = st.text(st.sampled_from("az\u00e9\u4e2d\"\\'-\u2014\U0001f3b5"), min_size=1, max_size=6)
CACHE_SONGS = st.builds(
    SongRecord,
    id=CACHE_TEXT,
    year=st.integers(1900, 2100),
    cohort=st.sampled_from(("popular", "other")),
    duration_seconds=st.none() | st.floats(min_value=0, exclude_min=True, allow_infinity=False),
    lines=st.lists(st.lists(CACHE_TEXT, min_size=1, max_size=4).map(tuple), min_size=1, max_size=4).map(tuple),
)


class TestCacheRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(CACHE_SONGS, max_size=5, unique_by=lambda song: song.id))
    def test_load_inverts_save(self, songs):
        corpus = Corpus(records=tuple(songs), provenance={"source": "songs.jsonl", "config_digest": "0" * 16})
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "corpus.cache")
            save_cache(corpus, path)
            with open(path, encoding="utf-8") as fh:
                assert json.loads(fh.readline())["cache_version"] == CACHE_VERSION == 3
            loaded = load_cache(path)
        assert loaded == corpus
        assert loaded.provenance == corpus.provenance

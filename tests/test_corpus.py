import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyricstats.corpus import (
    CACHE_VERSION,
    COHORTS,
    _TOKEN_CHUNK,
    Corpus,
    CorpusError,
    IngestError,
    Reject,
    SongRecord,
    ingest,
    load_cache,
    save_cache,
    select_songs,
    token_counts,
    tokenize,
    write_reject_report,
)
from lyricstats.resources import mini_corpus_path
from tests.conftest import edit_cache, jsonl_row, read_cache, without_lines, write_csv, write_jsonl


class TestTokenize:
    def test_basic_lines(self):
        assert tokenize("Hello, hello!\nWorld") == (("hello", "hello"), ("world",))

    def test_apostrophe_kept(self):
        assert tokenize("Don't stop") == (("don't", "stop"),)

    def test_annotation_dropped(self):
        assert tokenize("[Chorus]\nla la") == (("la", "la"),)

    def test_annotation_kept_when_disabled(self):
        assert tokenize("[Chorus]\nla la", drop_annotations=False) == (("chorus",), ("la", "la"))

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
        assert result.rejects == (Reject(1, "x", "record 'x': lyrics tokenize to zero tokens"),)

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
# whitespace that str.split() splits on but a line break does not end: space,
# tab, no-break space, a file separator and the line separator
SEPARATORS = " \t\u00a0\x1c\u2028"
# the reference: strip any run of non-word characters (plus underscore) at
# each edge of a whitespace-split word
EDGE = re.compile(r"^[\W_]+|[\W_]+$")


class TestEdgeStripFastPath:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text(st.sampled_from(TOKEN_ALPHABET), min_size=1, max_size=5), st.sampled_from(SEPARATORS)),
            min_size=1,
            max_size=6,
        )
    )
    def test_tokens_match_edge_regex_on_every_word(self, words):
        line = "".join(word + separator for word, separator in words)
        text = unicodedata.normalize("NFC", line).lower()
        expected = tuple(t for t in (EDGE.sub("", w) for w in text.split()) if t)
        assert tokenize(line, drop_annotations=False) == ((expected,) if expected else ())


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
        assert tuple(result.corpus)[0].duration_seconds is None

    def test_unreadable_file(self, tmp_path):
        with pytest.raises((IngestError, OSError)):
            ingest(str(tmp_path / "nope.jsonl"), format="jsonl")

    def test_malformed_csv_header(self, tmp_path):
        path = tmp_path / "songs.csv"
        path.write_text("id,only\n1,2\n")
        with pytest.raises(IngestError):
            ingest(str(path), format="csv")

    # csv.reader keeps every field of a row; zip with the header would drop
    # the extra ones, or shift the later ones into the wrong columns
    @pytest.mark.parametrize(
        "row, fields",
        [("s1,t,a,1965,200,popular,hello there, my love", 8), ("s1,a,1965,200,popular,la la la", 6)],
        ids=["one_field_more", "one_field_fewer"],
    )
    def test_csv_row_of_another_width_rejected(self, tmp_path, row, fields):
        path = tmp_path / "songs.csv"
        path.write_text(f"id,title,artist,year,duration_seconds,cohort,lyrics\n{row}\ns2,t,a,1965,,other,la\n")
        result = ingest(str(path), format="csv")
        assert result.rejects == (Reject(2, None, f"line:2: {fields} fields where the header has 7"),)
        assert [song.id for song in result.corpus] == ["s2"]

    def test_csv_column_named_twice_rejected(self, tmp_path):
        path = tmp_path / "songs.csv"
        path.write_text("id,title,artist,year,duration_seconds,cohort,lyrics,lyrics\ns1,t,a,1965,,other,,la\n")
        with pytest.raises(IngestError, match=r"songs\.csv: malformed CSV header, column 'lyrics' named twice$"):
            ingest(str(path), format="csv")

    def test_csv_header_over_the_field_limit(self, tmp_path):
        path = tmp_path / "songs.csv"
        path.write_text("id," + "x" * 200_000 + "\n1,2\n")
        with pytest.raises(IngestError, match=r"malformed CSV header \(field larger than field limit \(131072\)\)$"):
            ingest(str(path), format="csv")

    # json.dumps writes a float inf or nan as the bare JSON Infinity or NaN,
    # which json.loads reads back as a float, as it reads 1e999
    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("duration_seconds", "inf", "duration_seconds 'inf' is not a finite number"),
            ("duration_seconds", float("inf"), "duration_seconds inf is not a finite number"),
            ("duration_seconds", "-Infinity", "duration_seconds '-Infinity' is not a finite number"),
            ("duration_seconds", "nan", "duration_seconds 'nan' is not a finite number"),
            ("duration_seconds", float("nan"), "duration_seconds nan is not a finite number"),
            ("duration_seconds", True, "duration_seconds True is not a number"),
            ("year", 1965.7, "year 1965.7 is not an integer"),
            ("year", float("inf"), "year inf is not an integer"),
            ("year", True, "year True is not an integer"),
        ],
    )
    def test_value_no_cache_can_hold_rejected(self, tmp_path, field, value, reason):
        path = tmp_path / "songs.jsonl"
        write_jsonl(path, [jsonl_row("s1"), jsonl_row("bad", **{field: value}), jsonl_row("s2", year=1965.0)])
        result = ingest(str(path), format="jsonl")
        assert result.rejects == (Reject(2, "bad", f"line:2: {reason}"),) and result.quality_ok
        cache = tmp_path / "c.cache"
        save_cache(result.corpus, str(cache))
        loaded = tuple(load_cache(str(cache)))
        assert [(r.id, r.year, r.duration_seconds) for r in loaded] == [("s1", 1990, 200.0), ("s2", 1965, 200.0)]

    # any other JSON type would be ingested as its Python repr
    @pytest.mark.parametrize(
        "field, value",
        [("lyrics", {"a": "hey"}), ("lyrics", 12345), ("lyrics", ["love me", "do"]), ("lyrics", True),
         ("id", ["x"]), ("id", {"x": 1}), ("id", True), ("id", 1.5)],
    )
    def test_json_value_of_another_type_rejected(self, tmp_path, field, value):
        path = tmp_path / "songs.jsonl"
        write_jsonl(path, [jsonl_row("s1"), jsonl_row("bad", **{field: value}), jsonl_row(7)])
        result = ingest(str(path), format="jsonl")
        if field == "id":
            assert result.rejects == (Reject(2, None, "line:2: id is not a string or an integer"),)
        else:
            assert result.rejects == (Reject(2, "bad", "line:2: lyrics is not a string"),)
        assert [song.id for song in result.corpus] == ["s1", "7"]

    # the cache stores this digest, so a change to its source JSON changes the
    # bytes of every cache
    @pytest.mark.parametrize(
        "options, digest",
        [({}, "278cc6cbc8ba0c84"), ({"max_reject_fraction": 0.25, "drop_annotations": False}, "6247923431d84722")],
    )
    def test_config_digest_is_stable(self, options, digest):
        assert ingest(mini_corpus_path(), "csv", **options).corpus.provenance["config_digest"] == digest

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
        cohorts = Counter(r.cohort for r in mini_corpus)
        assert cohorts == {"popular": 10, "other": 40}

    def test_ingest_deterministic_cache_bytes(self, tmp_path):
        src = tmp_path / "songs.jsonl"
        write_jsonl(src, [jsonl_row(f"s{i}", lyrics=f"word{i} la\nla la") for i in range(5)])
        outputs = []
        for name in ("a", "b"):
            result = ingest(str(src), format="jsonl")
            cache = tmp_path / f"{name}.cache"
            save_cache(result.corpus, str(cache))
            outputs.append(cache.read_bytes())
        assert outputs[0] == outputs[1]

    def test_cache_round_trip(self, tmp_path, mini_corpus):
        cache = tmp_path / "c.cache"
        save_cache(mini_corpus, str(cache))
        assert tuple(load_cache(str(cache))) == tuple(mini_corpus)

    # the v4 counterparts of the version-3 row checks: one case per id there
    @pytest.mark.parametrize(
        "edit",
        [
            lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),  # cut mid-archive
            lambda path: edit_cache(path, durations=None),  # a member missing
            lambda path: edit_cache(path, meta_edit=lambda meta: [1, 2]),  # meta not an object
            # members of the wrong type, which would fail or mislead the stages that read them
            lambda path: edit_cache(path, years=read_cache(path)[0]["years"].astype(str)),
            lambda path: edit_cache(path, durations=read_cache(path)[0]["durations"].astype(str)),
            lambda path: edit_cache(path, song_offsets=without_lines(read_cache(path)[0]["song_offsets"], 3)),
            lambda path: edit_cache(path, meta_edit=lambda meta: dict(meta, vocab=["hello world", *meta["vocab"][1:]])),
            lambda path: edit_cache(path, meta_edit=lambda meta: dict(meta, vocab=[1, *meta["vocab"][1:]])),
        ],
        ids=["truncated", "missing_key", "not_an_object", "year_string", "duration_string", "no_lines",
             "line_not_a_list", "token_not_a_string"],
    )
    def test_malformed_cache_row_names_path_and_line(self, tmp_path, mini_corpus, edit):
        # a version-4 cache has no rows or lines: the one-line message names the path
        cache = tmp_path / "c.cache"
        save_cache(mini_corpus, str(cache))
        edit(cache)
        with pytest.raises(IngestError, match=f"^{re.escape(str(cache))}: malformed cache \\([^\n]*\\)$"):
            load_cache(str(cache))

    def test_cache_cut_at_row_boundary(self, tmp_path, mini_corpus):
        # members that agree with each other, but on fewer songs than the meta says
        cache = tmp_path / "c.cache"
        save_cache(Corpus.from_records(tuple(mini_corpus)[:20]), str(cache))
        edit_cache(cache, meta_edit=lambda meta: dict(meta, songs=50))
        with pytest.raises(IngestError, match=f"^{re.escape(str(cache))}: header says 50 songs but the cache holds 20$"):
            load_cache(str(cache))

    def test_cache_without_song_count_refused(self, tmp_path):
        cache = tmp_path / "c.cache"
        cache.write_text(json.dumps({"cache_version": 1, "provenance": {}}) + "\n" + json.dumps({"id": "s1"}) + "\n")
        with pytest.raises(IngestError, match="unsupported cache version 1"):
            load_cache(str(cache))

    def test_version_2_cache_refused_with_rerun_hint(self, tmp_path):
        # a JSON-lines cache: its header line, then its rows
        cache, version = tmp_path / "c.cache", 2
        header = {"cache_version": version, "provenance": {}, "songs": 1}
        row = {"id": "s1", "year": 1990, "cohort": "other", "duration_seconds": None, "lines": [["la"]]}
        cache.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(IngestError) as err:
            load_cache(str(cache))
        message = str(err.value)
        assert message.startswith(f"{cache}: unsupported cache version {version}")
        assert "re-run `lyricstats ingest`" in message and "\n" not in message

    @pytest.mark.parametrize(
        "arrays, meta, reason",
        [
            ({}, {"vocab": ["", "la"]}, "vocabulary entry '' is empty or holds whitespace"),
            ({}, {"vocab": ["b", "a"]}, "vocabulary is not strictly ascending at 'b', 'a'"),
            ({}, {"vocab": ["a", "a"]}, "vocabulary is not strictly ascending at 'a', 'a'"),
            ({}, {"vocab": ["a\tb", "c"]}, "vocabulary entry 'a\\tb' is empty or holds whitespace"),
            ({"tokens": [0, 2, 1]}, {}, "token id 2 outside [0, 2)"),
            ({"tokens": [0, -1, 1]}, {}, "token id -1 outside [0, 2)"),
            ({"line_offsets": [0, 2, 2, 4]}, {}, "line offsets do not rise strictly from 0 to 4"),
            ({"line_offsets": [0, 2, 3, 3]}, {}, "line offsets do not rise strictly from 0 to 4"),
            ({"song_offsets": [0, 1]}, {}, "song_offsets holds 2 entries where 2 songs need 3"),
            ({"song_offsets": [0, 2, 2]}, {}, "song offsets do not rise strictly from 0 to 3"),
            ({"song_offsets": [0, 2, 4]}, {}, "song offsets do not rise strictly from 0 to 3"),
            ({"cohorts": [0, 2]}, {}, "cohort code 2 is not 0 (popular) or 1 (other)"),
            ({"durations": [np.nan, np.inf]}, {}, "duration inf is neither missing (NaN) nor a positive"),
            ({"durations": [0.0, 1.0]}, {}, "duration 0.0 is neither missing (NaN) nor a positive"),
            ({"durations": [-2.0, 1.0]}, {}, "duration -2.0 is neither missing (NaN) nor a positive"),
            ({}, {"ids": ["s1", "s1"]}, "song id 's1' is repeated"),
            ({}, {"ids": ["s1"]}, "ids holds 1 entries where 2 songs need 2"),
            ({"years": 1990}, {}, "years is not a 1-d int64 array"),
            ({"tokens": [[0, 1], [0, 1]]}, {}, "tokens is not a 1-d int32 array"),
        ],
        ids=["empty_word", "unsorted_vocab", "repeated_word", "word_with_tab", "token_id_too_big",
             "token_id_negative", "empty_line", "line_offsets_short_of_tokens", "song_offsets_too_short",
             "empty_song", "song_offsets_past_lines", "cohort_2", "duration_inf", "duration_0",
             "duration_negative", "repeated_song_id", "ids_too_few", "years_0d", "tokens_2d"],
    )
    def test_invariant_breach_refused(self, tmp_path, arrays, meta, reason):
        # two songs: the lines "a b" and "a", then the line "b"
        cache = tmp_path / "c.cache"
        records = [SongRecord("s1", 1990, "popular", None, (("a", "b"), ("a",))),
                   SongRecord("s2", 1991, "other", 200.0, (("b",),))]
        save_cache(Corpus.from_records(records), str(cache))
        assert tuple(load_cache(str(cache))) == tuple(records)
        dtypes = read_cache(cache)[0]
        edit_cache(cache, meta_edit=lambda m: dict(m, **meta),
                   **{k: np.array(v, dtype=dtypes[k].dtype) for k, v in arrays.items()})
        with pytest.raises(IngestError) as err:
            load_cache(str(cache))
        assert str(err.value).startswith(f"{cache}: malformed cache ({reason}")
        assert "\n" not in str(err.value)

    def test_failed_write_keeps_previous_cache(self, tmp_path, mini_corpus, monkeypatch):
        cache = tmp_path / "corpus.cache"
        save_cache(mini_corpus, str(cache))
        before = cache.read_bytes()
        write_array = np.lib.format.write_array
        written = []

        def fail_on_third_member(*args, **kwargs):
            written.append(1)
            if len(written) == 3:
                raise OSError("No space left on device")
            return write_array(*args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", fail_on_third_member)
        with pytest.raises(OSError, match="No space left"):
            save_cache(Corpus.from_records(tuple(mini_corpus)[:5]), str(cache))
        assert len(written) == 3
        assert cache.read_bytes() == before
        assert os.listdir(tmp_path) == ["corpus.cache"]

    def test_row_fields_cannot_forge_a_reject(self, tmp_path):
        src = tmp_path / "songs.jsonl"
        write_jsonl(src, [dict(jsonl_row("s1"), __parse_error__="looks fine")])
        with open(src, "a", encoding="utf-8") as fh:
            fh.write('{"id": "s2", broken\n["s3"]\n')
        result = ingest(str(src), format="jsonl")
        assert [song.id for song in result.corpus] == ["s1"]
        report = tmp_path / "rejects.jsonl"
        write_reject_report(result.rejects, str(report))
        assert [json.loads(line) for line in report.read_text().splitlines()] == [
            {"line_no": "2", "reason": "Expecting property name enclosed in double quotes: line 1 column 14 (char 13)"},
            {"line_no": "3", "reason": "row is not a JSON object"},
        ]
        # a CSV column of that name is one more field too
        src = tmp_path / "songs.csv"
        row = dict(jsonl_row("s1"), __parse_error__="looks fine")
        write_csv(src, [row, dict(row, id="s2")])
        result = ingest(str(src), format="csv")
        assert [song.id for song in result.corpus] == ["s1", "s2"] and result.rejects == ()

    def test_reject_report_schema(self, tmp_path):
        src = tmp_path / "songs.jsonl"
        write_jsonl(src, [jsonl_row("s1"), dict(jsonl_row("s2"), lyrics="   ")])
        result = ingest(str(src), format="jsonl")
        report = tmp_path / "rejects.jsonl"
        write_reject_report(result.rejects, str(report))
        rows = [json.loads(line) for line in report.read_text().splitlines()]
        assert rows and all("reason" in r and ("id" in r or "line_no" in r) for r in rows)


def as_counter(corpus, counts) -> Counter:
    """`token_counts`' array as a Counter of words."""
    assert counts.dtype == np.int64 and len(counts) == len(corpus.vocab)
    return Counter({w: c for w, c in zip(corpus.vocab, counts.tolist()) if c})


def songs_of(corpus, year):
    return np.flatnonzero(corpus.years == year)


class TestTokenCounts:
    def test_two_songs(self, tmp_path):
        src = tmp_path / "songs.jsonl"
        write_jsonl(src, [jsonl_row("s1", lyrics="a a b"), jsonl_row("s2", lyrics="b c")])
        corpus = ingest(str(src), format="jsonl").corpus
        assert corpus.vocab == ("a", "b", "c")
        assert token_counts(corpus).tolist() == [2, 2, 1]
        assert token_counts(corpus, np.array([1])).tolist() == [0, 1, 1]

    def test_no_songs_count_nothing(self, mini_corpus):
        assert not token_counts(mini_corpus, songs_of(mini_corpus, 1777)).any()

    def test_year_filter_matches_recount(self, mini_corpus):
        got = as_counter(mini_corpus, token_counts(mini_corpus, songs_of(mini_corpus, 1965)))
        expected = Counter()
        for song in mini_corpus:
            if song.year == 1965:
                for line in song.lines:
                    for t in line:
                        expected[t] += 1
        assert got == expected

    def test_count_conservation_over_year_partition(self, mini_corpus):
        whole = token_counts(mini_corpus)
        by_year = sum(token_counts(mini_corpus, songs_of(mini_corpus, y)) for y in set(mini_corpus.years.tolist()))
        assert by_year.tolist() == whole.tolist()
        assert as_counter(mini_corpus, whole) == Counter(t for s in mini_corpus for line in s.lines for t in line)

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_chunked_passes_match_default(self, mini_corpus, monkeypatch, chunk):
        # every test corpus is far below one chunk; a chunk of 1 or 3 tokens
        # makes the renumbering and the counting loops cross chunk boundaries
        records, songs = list(mini_corpus), songs_of(mini_corpus, 1965)
        default = Corpus.from_records(records)
        counts = token_counts(default), token_counts(default, songs)
        monkeypatch.setattr("lyricstats.corpus._TOKEN_CHUNK", chunk)
        chunked = Corpus.from_records(records)
        assert chunked.vocab == default.vocab and chunked.tokens.tolist() == default.tokens.tolist()
        assert token_counts(default).tolist() == counts[0].tolist()
        assert token_counts(default, songs).tolist() == counts[1].tolist()

    def test_repeats_count_again_and_empty_counts_nothing(self, mini_corpus):
        once = token_counts(mini_corpus, [49])
        assert once.sum() == 64
        assert token_counts(mini_corpus, [49, 49]).tolist() == (2 * once).tolist()
        assert token_counts(mini_corpus, [3, 49, 0]).tolist() == token_counts(mini_corpus, [0, 3, 49]).tolist()
        for empty in ([], np.array([], dtype=bool), np.array([], dtype=np.float64)):
            assert not token_counts(mini_corpus, empty).any()

    @pytest.mark.parametrize(
        "songs",
        [
            lambda c: c.years == 1965,  # a mask, not positions
            lambda c: [0.7, 1.2],
            lambda c: [-1],
            lambda c: [len(c)],
            lambda c: [[1, 2]],
            lambda c: 3,
        ],
        ids=["mask", "floats", "negative", "past-the-end", "2-d", "scalar"],
    )
    def test_a_bad_selection_is_refused(self, mini_corpus, songs):
        assert len(mini_corpus) == 50
        with pytest.raises(CorpusError, match=r"1-d integer array of values in \[0, 50\)"):
            token_counts(mini_corpus, songs(mini_corpus))

    def test_a_selection_is_counted_in_bounded_memory(self):
        # 4 chunks of tokens in one-line songs of 128, built from arrays: a
        # position array for every selected token would take 64 MiB here
        n_tokens = 4 * _TOKEN_CHUNK
        n_songs = n_tokens // 128
        vocab = tuple(f"w{i:04d}" for i in range(1024))
        offsets = np.arange(0, n_tokens + 1, 128, dtype=np.int64)
        corpus = Corpus(
            vocab=vocab,
            tokens=np.arange(n_tokens, dtype=np.int32) % len(vocab),
            line_offsets=offsets,
            song_offsets=np.arange(n_songs + 1, dtype=np.int64),
            ids=tuple(map(str, range(n_songs))),
            years=np.full(n_songs, 1990, dtype=np.int64),
            cohorts=np.zeros(n_songs, dtype=np.int8),
            durations=np.full(n_songs, np.nan),
        )
        songs = np.arange(n_songs)
        tracemalloc.start()
        try:
            counts = token_counts(corpus, songs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.tolist() == [n_tokens // len(vocab)] * len(vocab)
        assert peak < 40 * 2**20


class TestSelectSongs:
    def test_matches_a_filter_over_the_songs(self, mini_corpus):
        years = sorted(set(mini_corpus.years.tolist()))
        assert len(years) > 1
        for cohort in (None, *COHORTS):
            for year in (None, *years, 1777):
                expected = [
                    i for i, song in enumerate(mini_corpus)
                    if cohort in (None, song.cohort) and year in (None, song.year)
                ]
                got = select_songs(mini_corpus, cohort, year)
                assert got.tolist() == expected and got.dtype == np.intp


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
        provenance = {"source": "songs.jsonl", "config_digest": "0" * 16}
        corpus = dataclasses.replace(Corpus.from_records(songs), provenance=provenance)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "corpus.cache")
            save_cache(corpus, path)
            assert read_cache(path)[1]["cache_version"] == CACHE_VERSION == 4
            loaded = load_cache(path)
            assert os.listdir(tmp) == ["corpus.cache"]
        assert tuple(loaded) == tuple(corpus) == tuple(songs)
        assert loaded.vocab == corpus.vocab == tuple(sorted({t for s in songs for line in s.lines for t in line}))
        for name in ("tokens", "line_offsets", "song_offsets", "years", "cohorts", "durations"):
            got, want = getattr(loaded, name), getattr(corpus, name)
            assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=name == "durations")
        assert loaded.ids == corpus.ids and loaded.provenance == corpus.provenance

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_cut_cache_refused(self, data):
        # cut at any byte, a cache is refused with IngestError, never read in part
        songs = [SongRecord(f"s{i}", 1990 + i, COHORTS[i % 2], None if i % 3 else 150.0 + i, (("la", f"w{i}"), ("la",)))
                 for i in range(6)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "corpus.cache")
            save_cache(Corpus.from_records(songs), path)
            with open(path, "rb") as fh:
                whole = fh.read()
            cut = data.draw(st.integers(0, len(whole) - 1))
            with open(path, "wb") as fh:
                fh.write(whole[:cut])
            with pytest.raises(IngestError, match=f"^{re.escape(path)}: "):
                load_cache(path)


def test_dump_cache_prints_the_records(tmp_path, mini_corpus):
    cache = tmp_path / "c.cache"
    save_cache(mini_corpus, str(cache))
    tool = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "dump_cache.py")
    lines = subprocess.run([sys.executable, tool, str(cache)], capture_output=True, text=True, check=True).stdout
    header, *rows = map(json.loads, lines.splitlines())
    assert header == {"cache_version": 4, "provenance": mini_corpus.provenance, "songs": 50}
    assert [SongRecord(r["id"], r["year"], r["cohort"], r["duration_seconds"], tuple(map(tuple, r["lines"])))
            for r in rows] == list(mini_corpus)

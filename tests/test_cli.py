import csv
import errno
import hashlib
import json
import os
import random
import re
import shutil
from collections import Counter

import numpy as np
import pytest

import lyricstats.embeddings as embeddings
from lyricstats.cli import main
from lyricstats.corpus import Corpus, load_cache, save_cache
from lyricstats.resources import mini_corpus_path
from tests.conftest import (
    edit_cache,
    jsonl_row,
    random_table,
    read_cache,
    without_lines,
    write_cache,
    write_csv,
    write_jsonl,
)


@pytest.fixture()
def mini_cache(tmp_path):
    out = tmp_path / "build"
    assert main(["ingest", "--input", mini_corpus_path(), "--format", "csv", "--out", str(out)]) == 0
    return out / "corpus.cache"


class TestIngestCommand:
    def test_outputs_written(self, tmp_path):
        src = tmp_path / "songs.jsonl"
        write_jsonl(src, [jsonl_row(f"s{i}") for i in range(3)])
        out = tmp_path / "build"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 0
        assert (out / "corpus.cache").exists()
        assert (out / "rejects.jsonl").exists()
        assert (out / "ingest.config.json").exists()

    @pytest.mark.parametrize("fraction", ["nan", "-0.1", "1.5", "inf"])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_reject_fraction_outside_unit_interval_exit_1(self, tmp_path, capsys, fraction, via_config):
        out = tmp_path / "build"
        args = ["ingest", "--input", mini_corpus_path(), "--format", "csv", "--out", str(out)]
        if via_config:
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"max_reject_fraction": fraction}))
            args = ["--config", str(config), *args]
        else:
            args += ["--max-reject-fraction", fraction]
        assert main(args) == 1
        assert capsys.readouterr() == ("", f"error: max_reject_fraction must be in [0, 1], got {float(fraction)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("fraction", [float("nan"), float("inf")])
    def test_json_number_reject_fraction_gets_the_option_check(self, tmp_path, capsys, fraction):
        # NaN and Infinity as JSON numbers, not strings: they reach the
        # option's own check, as the strings "nan" and "inf" do
        out = tmp_path / "build"
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"max_reject_fraction": fraction}))
        args = ["--config", str(config), "ingest", "--input", mini_corpus_path(), "--format", "csv", "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr() == ("", f"error: max_reject_fraction must be in [0, 1], got {fraction}\n")
        assert not out.exists()

    def test_unreadable_path_exit_1(self, tmp_path):
        assert main(["ingest", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]) == 1

    def test_majority_malformed_exit_2_partial_cache(self, tmp_path):
        src = tmp_path / "songs.jsonl"
        rows = [jsonl_row("s1"), jsonl_row("s2")]
        rows += [dict(jsonl_row(f"b{i}"), lyrics="") for i in range(3)]
        write_jsonl(src, rows)
        out = tmp_path / "build"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 2
        assert (out / "corpus.cache").exists()
        assert len((out / "rejects.jsonl").read_text().splitlines()) == 3


    def test_reject_named_by_its_own_id_or_line(self, tmp_path):
        # an id that reads like a line number is an id; a null id names no row
        src = tmp_path / "songs.jsonl"
        write_jsonl(src, [jsonl_row("line:7", year=3000), jsonl_row(None)])
        out = tmp_path / "build"
        assert main(["ingest", "--input", str(src), "--out", str(out), "--max-reject-fraction", "1"]) == 0
        assert [json.loads(line) for line in (out / "rejects.jsonl").read_text().splitlines()] == [
            {"id": "line:7", "reason": "line:1: year 3000 outside [1900, 2100]"},
            {"line_no": "2", "reason": "line:2: missing required field 'id'"},
        ]

    def test_csv_rows_after_a_multi_line_field_named_by_their_first_line(self, tmp_path):
        # a quoted field may hold newlines: s1 spans lines 2-3, s2 is on line
        # 4, s3 spans lines 5-7 and the id-less row after it is on line 8
        src = tmp_path / "songs.csv"
        rows = [jsonl_row("s1"), jsonl_row("s2", year=3000, lyrics="la la"), jsonl_row("s3", lyrics="one\n\ntwo"),
                jsonl_row(None, lyrics="la la")]
        write_csv(src, rows)
        assert src.read_text().count("\n") == 8
        out = tmp_path / "build"
        assert main(["ingest", "--input", str(src), "--out", str(out), "--max-reject-fraction", "1"]) == 0
        assert [json.loads(line) for line in (out / "rejects.jsonl").read_text().splitlines()] == [
            {"id": "s2", "reason": "line:4: year 3000 outside [1900, 2100]"},
            {"line_no": "8", "reason": "line:8: missing required field 'id'"},
        ]
        assert load_cache(str(out / "corpus.cache")).ids == ("s1", "s3")

    @staticmethod
    def _ingest_second_id(tmp_path, suffix, rid):
        """Ingest rows s1 and `rid` from a file of the given format: (the
        rejects as read back, the cached ids)."""
        src = tmp_path / f"songs{suffix}"
        rows = [jsonl_row("s1"), jsonl_row(rid)]
        (write_csv if suffix == ".csv" else write_jsonl)(src, rows)
        out = tmp_path / "build"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 0
        rejects = [json.loads(row) for row in (out / "rejects.jsonl").read_text().splitlines()]
        return rejects, load_cache(str(out / "corpus.cache")).ids

    # s1's lyrics hold a newline: in the CSV file s1 spans lines 2-3
    @pytest.mark.parametrize("suffix, line", [(".jsonl", 2), (".csv", 4)])
    def test_empty_id_is_a_missing_id(self, tmp_path, suffix, line):
        # an empty JSONL id and an empty CSV id cell name no song
        assert self._ingest_second_id(tmp_path, suffix, "") == (
            [{"line_no": str(line), "reason": f"line:{line}: missing required field 'id'"}],
            ("s1",),
        )

    @pytest.mark.parametrize("suffix, line, rid", [(".jsonl", 2, "  "), (".csv", 4, " "), (".jsonl", 2, "\t\u00a0")])
    def test_blank_id_is_a_missing_id(self, tmp_path, suffix, line, rid):
        # an id of only whitespace names no song either
        assert self._ingest_second_id(tmp_path, suffix, rid) == (
            [{"line_no": str(line), "reason": f"line:{line}: missing required field 'id'"}],
            ("s1",),
        )

    def test_oversized_csv_field_rejects_its_row(self, tmp_path):
        # the csv module refuses a field over 131,072 characters; the rows after it still read
        src = tmp_path / "songs.csv"
        write_csv(src, [jsonl_row("s1"), jsonl_row("s2", lyrics="la " * 50_000), jsonl_row("s3")])
        out = tmp_path / "build"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 0
        rejects = [json.loads(line) for line in (out / "rejects.jsonl").read_text().splitlines()]
        # s1 spans lines 2-3 and s2 starts on line 4
        assert rejects == [{"line_no": "4", "reason": "field larger than field limit (131072)"}]
        assert load_cache(str(out / "corpus.cache")).ids == ("s1", "s3")

    def test_csv_suffix_matched_in_any_case(self, tmp_path):
        # without --format, songs.CSV reads as CSV: the same outputs as --format csv
        src = tmp_path / "songs.CSV"
        write_csv(src, [jsonl_row("s1"), jsonl_row("s2", lyrics="one\\ntwo")])
        outputs = []
        for out, flags in ((tmp_path / "inferred", []), (tmp_path / "given", ["--format", "csv"])):
            assert main(["ingest", "--input", str(src), "--out", str(out), *flags]) == 0
            outputs.append([(out / name).read_bytes() for name in ("corpus.cache", "rejects.jsonl", "ingest.config.json")])
        assert outputs[0] == outputs[1]
        assert len(load_cache(str(tmp_path / "inferred" / "corpus.cache"))) == 2

    @pytest.mark.parametrize(
        "row, reason",
        [
            ({"id": "s\ud800"}, "id 's\\ud800' holds a lone surrogate"),
            ({"lyrics": "la l\ud800a la"}, "lyrics hold a lone surrogate inside a word"),
            ({"id": "s\ud800", "lyrics": "la l\ud800a la"}, "id 's\\ud800' holds a lone surrogate"),
            ({"lyrics": "la la\ud800 la"}, None),  # the edge strip removes it
        ],
        ids=["id", "word", "both", "word_edge"],
    )
    def test_lone_surrogate_rejected(self, tmp_path, row, reason):
        # a JSON \ud800 escape decodes to a lone surrogate, which the cache cannot store
        src = tmp_path / "songs.jsonl"
        write_jsonl(src, [jsonl_row("s1"), dict(jsonl_row("s2"), **row)])
        out = tmp_path / "build"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 0
        rejects = [json.loads(line) for line in (out / "rejects.jsonl").read_text().splitlines()]
        assert [r["reason"].split(": ", 1)[1] for r in rejects] == ([reason] if reason else [])
        assert len(load_cache(str(out / "corpus.cache"))) == (1 if reason else 2)


class TestStyleCommand:
    def test_four_csvs(self, tmp_path, mini_cache):
        out = tmp_path / "style"
        assert main(["style", "--cache", str(mini_cache), "--out", str(out), "--words", "rock,blues"]) == 0
        for name in ("per_song.csv", "aggregate.csv", "top_words.csv", "rank_series.csv"):
            assert (out / name).exists()

    def test_missing_cache_exit_1(self, tmp_path):
        assert main(["style", "--cache", str(tmp_path / "no.cache"), "--out", str(tmp_path / "o")]) == 1

    def test_byte_identical_reruns(self, tmp_path, mini_cache):
        contents = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            main(["style", "--cache", str(mini_cache), "--out", str(out), "--words", "rock,blues"])
            contents.append(
                tuple((out / f).read_bytes() for f in ("per_song.csv", "aggregate.csv", "top_words.csv", "rank_series.csv"))
            )
        assert contents[0] == contents[1]

    def test_rank_series_only_requested_words(self, tmp_path, mini_cache):
        out = tmp_path / "style"
        main(["style", "--cache", str(mini_cache), "--out", str(out), "--words", "rock,blues"])
        with open(out / "rank_series.csv") as fh:
            words = {row["word"] for row in csv.DictReader(fh)}
        assert words <= {"rock", "blues"}

    def test_top_k_year_cohort_row_count(self, tmp_path, mini_cache):
        out = tmp_path / "style"
        main(
            ["style", "--cache", str(mini_cache), "--out", str(out),
             "--top-k", "5", "--year", "1965", "--cohort", "popular"]
        )
        with open(out / "top_words.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert {r["year"] for r in rows} == {"1965"}


    def test_words_naming_no_word_exit_1(self, tmp_path, mini_cache, capsys):
        out = tmp_path / "o"
        assert main(["style", "--cache", str(mini_cache), "--out", str(out), "--words", " , "]) == 1
        assert capsys.readouterr().err == "error: --words ' , ' names no word\n"
        assert not out.exists()

    def test_words_lowercased_and_named_once(self, tmp_path, mini_cache):
        out = {}
        for name, words in (("plain", "rock,blues"), ("repeated", "rock, Rock,ROCK,blues,rock")):
            assert main(["style", "--cache", str(mini_cache), "--out", str(tmp_path / name), "--words", words]) == 0
            out[name] = (tmp_path / name / "rank_series.csv").read_bytes()
        assert out["repeated"] == out["plain"] and out["plain"].count(b"\n") > 1

    @pytest.mark.parametrize("word", ["rock!", "'rock", "rock n", "_", "rock\u00a0roll"])
    def test_words_not_a_token_exit_1(self, tmp_path, mini_cache, capsys, word):
        out = tmp_path / "o"
        assert main(["style", "--cache", str(mini_cache), "--out", str(out), "--words", f"blues,{word}"]) == 1
        assert capsys.readouterr().err == f"error: --words: {word!r} would not survive tokenization\n"
        assert not out.exists()

    # "rock!" is tokenized "rock", and a decomposed "cafe\u0301" comes out NFC, so
    # neither entry could drop a word from top_words.csv
    @pytest.mark.parametrize("entry", ["rock!", "cafe\u0301"])
    def test_stopword_not_a_token_exit_1(self, tmp_path, mini_cache, capsys, entry):
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text(f"the\n{entry}\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["style", "--cache", str(mini_cache), "--out", str(out), "--stopwords", str(stopwords)]) == 1
        assert capsys.readouterr().err == f"error: {stopwords}: entry {entry!r} would not survive tokenization\n"
        assert not out.exists()

    def test_top_k_below_one_exit_1(self, tmp_path, mini_cache, capsys):
        assert main(["style", "--cache", str(mini_cache), "--out", str(tmp_path / "o"), "--top-k", "0"]) == 1
        assert "--top-k" in capsys.readouterr().err

    @pytest.mark.parametrize("via_config", [False, True])
    def test_top_k_beyond_sys_maxsize_keeps_every_word(self, tmp_path, mini_cache, via_config):
        # the config's JSON number 1e20 reads as the int 10**20
        args = ["style", "--cache", str(mini_cache), "--year", "1965"]
        assert main([*args, "--out", str(tmp_path / "all"), "--top-k", "1000000"]) == 0
        if via_config:
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"top_k": 1e20}))
            assert main(["--config", str(config), *args, "--out", str(tmp_path / "huge")]) == 0
        else:
            assert main([*args, "--out", str(tmp_path / "huge"), "--top-k", "99999999999999999999"]) == 0
        everything = (tmp_path / "all" / "top_words.csv").read_bytes()
        assert (tmp_path / "huge" / "top_words.csv").read_bytes() == everything
        assert everything.count(b"\n") > 10

    def test_truncated_cache_exit_1(self, tmp_path, mini_cache, capsys):
        data = mini_cache.read_bytes()
        cut = tmp_path / "cut.cache"
        cut.write_bytes(data[: len(data) // 2])  # ends inside a member
        assert main(["style", "--cache", str(cut), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cut}: malformed cache (") and err.count("\n") == 1

    # the v4 counterparts of the version-3 row checks, under the same ids
    @pytest.mark.parametrize("command", ["style", "train"])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda arrays, meta: (dict(arrays, years=arrays["years"].astype(str)), meta),
            lambda arrays, meta: (dict(arrays, durations=arrays["durations"].astype(str)), meta),
            lambda arrays, meta: (dict(arrays, song_offsets=without_lines(arrays["song_offsets"], 3)), meta),
            lambda arrays, meta: (arrays, dict(meta, vocab=sorted(["hello world", *meta["vocab"]]))),
        ],
        ids=["year_string", "duration_string", "no_lines", "line_not_a_list"],
    )
    def test_mistyped_cache_row_exit_1(self, tmp_path, mini_cache, capsys, command, edit):
        bad = tmp_path / "bad.cache"
        write_cache(bad, *edit(*read_cache(mini_cache)))
        out = tmp_path / "o"
        flags = ["--out", str(out)] if command == "style" else ["--out", str(out / "v.txt"), "--seed", "1"]
        assert main([command, "--cache", str(bad), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: malformed cache (") and err.count("\n") == 1
        assert not out.exists()

    def test_version_2_cache_exit_1(self, tmp_path, capsys):
        old = tmp_path / "v2.cache"
        old.write_text(json.dumps({"cache_version": 2, "provenance": {}, "songs": 0}) + "\n")
        assert main(["style", "--cache", str(old), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {old}: unsupported cache version 2") and err.count("\n") == 1
        assert "re-run `lyricstats ingest`" in err

    def test_top_k_not_an_int_exit_1(self, tmp_path, mini_cache, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["style", "--cache", str(mini_cache), "--out", str(tmp_path / "o"), "--top-k", "x"])
        assert exc.value.code == 1
        assert "invalid int value: 'x'" in capsys.readouterr().err

    def test_top_words_failure_propagates(self, tmp_path, mini_cache, monkeypatch):
        # only an empty year/cohort cell is skipped; any other error surfaces
        def broken(*args, **kwargs):
            raise RuntimeError("broken top_words")

        monkeypatch.setattr("lyricstats.cli.top_words", broken)
        with pytest.raises(RuntimeError, match="broken top_words"):
            main(["style", "--cache", str(mini_cache), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("cohort", [None, "popular"])
    def test_top_words_match_recount(self, tmp_path, mini_cache, cohort):
        from lyricstats.resources import default_stopwords_path
        from lyricstats.style import load_wordlist

        out = tmp_path / "style"
        flags = ["--top-k", "7"] + (["--cohort", cohort] if cohort else [])
        assert main(["style", "--cache", str(mini_cache), "--out", str(out), *flags]) == 0
        corpus = load_cache(str(mini_cache))
        stopwords = load_wordlist(default_stopwords_path())
        expected = []
        for year in sorted({r.year for r in corpus if cohort is None or r.cohort == cohort}):
            counts = Counter(
                t for song in corpus if song.year == year and cohort in (None, song.cohort)
                for line in song.lines for t in line
            )
            ranked = sorted((w for w in counts if w not in stopwords), key=lambda w: (-counts[w], w))
            expected += [[str(year), str(rank), w] for rank, w in enumerate(ranked[:7], start=1)]
        with open(out / "top_words.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["year", "rank", "word"], *expected]

    def test_year_without_words_ranks_only_that_year(self, tmp_path, mini_cache, monkeypatch):
        import lyricstats.cli
        from lyricstats.style import year_rankings

        ranked_years = []

        def recording(*args):
            rankings = year_rankings(*args)
            ranked_years.append(sorted(rankings))
            return rankings

        monkeypatch.setattr(lyricstats.cli, "year_rankings", recording)
        base = ["style", "--cache", str(mini_cache), "--year", "1965", "--cohort", "popular"]
        assert main([*base, "--out", str(tmp_path / "alone")]) == 0
        assert main([*base, "--out", str(tmp_path / "words"), "--words", "rock,blues"]) == 0
        assert ranked_years[0] == [1965] and len(ranked_years[1]) > 1
        alone, with_words = ((tmp_path / d / "top_words.csv").read_bytes() for d in ("alone", "words"))
        assert alone == with_words and alone.count(b"\n") > 1

    def test_year_without_songs_header_only(self, tmp_path, mini_cache):
        out = tmp_path / "style"
        argv = ["style", "--cache", str(mini_cache), "--out", str(out), "--year", "1777", "--cohort", "popular"]
        assert main(argv) == 0
        assert (out / "top_words.csv").read_bytes() == b"year,rank,word\r\n"

    def test_cache_cut_at_row_boundary_exit_1(self, tmp_path, mini_cache, capsys):
        # members that agree with each other on 20 songs, and a meta that says 50
        cut = tmp_path / "cut.cache"
        save_cache(Corpus.from_records(tuple(load_cache(str(mini_cache)))[:20]), str(cut))
        edit_cache(cut, meta_edit=lambda meta: dict(meta, songs=50))
        assert main(["style", "--cache", str(cut), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {cut}: header says 50 songs but the cache holds 20\n"

    def test_lexicon_entry_with_space_exit_1(self, tmp_path, mini_cache, capsys):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("damn\nfuck you\n")
        out = tmp_path / "o"
        assert main(["style", "--cache", str(mini_cache), "--out", str(out), "--lexicon", str(lexicon)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {lexicon}: entry 'fuck you'") and err.count("\n") == 1


def _cache_command(command, cache, out):
    if command == "style":
        return ["style", "--cache", str(cache), "--out", str(out)]
    return ["train", "--cache", str(cache), "--out", str(out / "v.txt"), "--seed", "1"]


class TestDamagedCache:
    """A cache that is cut, damaged, of another version or not a cache at all
    ends `style` and `train` with exit 1 and one line naming it, before any
    output is written."""

    @pytest.mark.parametrize("command", ["style", "train"])
    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda path, good: path.write_bytes(b""), "not a corpus cache"),
            (lambda path, good: path.write_bytes(good[:-10]), "malformed cache (BadZipFile: "),  # end record
            (lambda path, good: path.write_bytes(good[:-200]), "malformed cache (BadZipFile: "),  # directory
            (lambda path, good: path.write_bytes(good[:200]), "malformed cache ("),  # first member
            (lambda path, good: path.write_bytes(good[: len(good) // 3]), "malformed cache ("),
            (lambda path, good: path.write_bytes(bytes(random.Random(1).randrange(256) for _ in range(4096))),
             "not a corpus cache"),
            (lambda path, good: path.write_bytes(b"PK\x03\x04" + random.Random(2).randbytes(4096)),
             "malformed cache ("),
            # np.savez pickles an object array
            (lambda path, good: (path.write_bytes(good), edit_cache(path, years=np.array([1990], dtype=object))),
             "malformed cache (ValueError: Object arrays cannot be loaded when allow_pickle=False)"),
            (lambda path, good: path.write_text(
                json.dumps({"cache_version": 3, "provenance": {}, "songs": 1}) + "\n"
                + json.dumps({"id": "s1", "year": 1990, "cohort": "other", "duration_seconds": None,
                              "lines": [["la"]]}) + "\n"),
             "unsupported cache version 3 (this version reads 4); re-run `lyricstats ingest` to rebuild it"),
        ],
        ids=["empty", "cut_in_end_record", "cut_in_directory", "cut_in_first_member", "cut_in_a_later_member",
             "random_bytes", "random_bytes_after_zip_magic", "object_array_member", "version_3_jsonl"],
    )
    def test_exit_1_one_line(self, tmp_path, mini_cache, capsys, command, damage, message):
        cache = tmp_path / "damaged.cache"
        damage(cache, mini_cache.read_bytes())
        out = tmp_path / "o"
        assert main(_cache_command(command, cache, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cache}: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["style", "train"])
    def test_repeated_song_id_exit_1(self, tmp_path, mini_cache, capsys, command):
        cache = tmp_path / "repeated.cache"
        cache.write_bytes(mini_cache.read_bytes())
        edit_cache(cache, meta_edit=lambda meta: dict(meta, ids=[meta["ids"][0], *meta["ids"][:-1]]))
        out = tmp_path / "o"
        assert main(_cache_command(command, cache, out)) == 1
        first = read_cache(mini_cache)[1]["ids"][0]
        assert capsys.readouterr().err == f"error: {cache}: malformed cache (song id {first!r} is repeated)\n"
        assert not out.exists()

    def test_aggregate_pairs_songs_by_position(self, tmp_path, mini_cache):
        # each cell's means in aggregate.csv are the means of its per_song.csv rows
        out = tmp_path / "style"
        assert main(["style", "--cache", str(mini_cache), "--out", str(out)]) == 0
        with open(out / "per_song.csv", newline="") as fh:
            songs = list(csv.DictReader(fh))
        with open(out / "aggregate.csv", newline="") as fh:
            cells = list(csv.DictReader(fh))
        assert sum(int(c["song_count"]) for c in cells) == len(songs) == 50
        for cell in cells:
            rows = [r for r in songs if (r["year"], r["cohort"]) == (cell["year"], cell["cohort"])]
            assert len(rows) == int(cell["song_count"])
            for metric in ("length_words", "repetitiveness_pct", "fk_grade", "swear_rate"):
                mean = sum(float(r[metric]) for r in rows) / len(rows)
                assert float(cell[f"mean_{metric}"]) == pytest.approx(mean, abs=1e-8)


class TestTrainCommand:
    def test_deterministic_byte_identical(self, tmp_path, mini_cache):
        files = []
        for name in ("v1.txt", "v2.txt"):
            out = tmp_path / name
            code = main(
                ["train", "--cache", str(mini_cache), "--out", str(out),
                 "--dim", "8", "--epochs", "1", "--min-count", "1",
                 "--seed", "7", "--deterministic"]
            )
            assert code == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_deterministic_flag_is_a_no_op(self, tmp_path, mini_cache):
        files = []
        for name, flags in (("v1.txt", ["--deterministic"]), ("v2.txt", [])):
            out = tmp_path / name
            code = main(
                ["train", "--cache", str(mini_cache), "--out", str(out),
                 "--dim", "8", "--epochs", "1", "--min-count", "1", "--seed", "7", *flags]
            )
            assert code == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_seed_mandatory(self, tmp_path, mini_cache):
        assert main(["train", "--cache", str(mini_cache), "--out", str(tmp_path / "v.txt")]) == 1

    def test_bad_config_value_exit_1(self, tmp_path, mini_cache, capsys):
        out = tmp_path / "v.txt"
        assert main(["train", "--cache", str(mini_cache), "--out", str(out), "--seed", "1", "--dim", "1"]) == 1
        assert capsys.readouterr().err == "error: dim must be >= 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, name", [("learning-rate", "initial_learning_rate"),
                                            ("subsample", "subsample_threshold")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_non_finite_rate_exit_1(self, tmp_path, mini_cache, capsys, flag, name, value, via_config):
        out = tmp_path / "v" / "v.txt"
        args = ["train", "--cache", str(mini_cache), "--out", str(out), "--seed", "1"]
        if via_config:
            # a JSON string: argparse reads it as from the command line
            config = tmp_path / "c.json"
            config.write_text(json.dumps({flag.replace("-", "_"): value}))
            args = ["--config", str(config), *args]
        else:
            args += [f"--{flag}", value]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {name} must be positive and finite, got {value}\n"
        assert not out.parent.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_json_number_learning_rate_gets_the_option_check(self, tmp_path, mini_cache, capsys, value):
        out = tmp_path / "v" / "v.txt"
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"learning_rate": value}))
        args = ["--config", str(config), "train", "--cache", str(mini_cache), "--out", str(out), "--seed", "1"]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: initial_learning_rate must be positive and finite, got {value}\n"
        assert not out.parent.exists()

    def test_empty_corpus_exit_2(self, tmp_path, capsys):
        src = tmp_path / "songs.jsonl"
        write_jsonl(src, [dict(jsonl_row("b1"), lyrics="")])
        build = tmp_path / "build"
        assert main(["ingest", "--input", str(src), "--out", str(build)]) == 2
        capsys.readouterr()
        out = tmp_path / "v.txt"
        assert main(["train", "--cache", str(build / "corpus.cache"), "--out", str(out), "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: empty vocabulary")


    def test_diverged_training_exit_2_without_a_vector_file(self, tmp_path, mini_cache, capsys):
        out = tmp_path / "v" / "v.txt"
        args = ["train", "--cache", str(mini_cache), "--out", str(out), "--dim", "8", "--epochs", "1",
                "--min-count", "1", "--seed", "7", "--learning-rate", "1e10"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: training diverged: [1-9]\d* of 57 words have NaN or infinite vectors; "
                            r"no vector file written; try a lower --learning-rate than 1e\+10\n", err)
        assert not out.parent.exists()

    def test_failed_vector_write_exit_1_keeps_previous_file(self, tmp_path, mini_cache, capsys, monkeypatch):
        out = tmp_path / "v.txt"
        args = ["train", "--cache", str(mini_cache), "--out", str(out), "--dim", "8", "--epochs", "1",
                "--min-count", "1", "--seed"]
        assert main([*args, "7"]) == 0
        before = out.read_bytes()
        capsys.readouterr()

        def no_space(fh, words, x):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(embeddings, "_write_block", no_space)
        assert main([*args, "8"]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: No space left on device\n"
        assert out.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["build", "train.config.json", "v.txt"]

class TestWeatCommand:
    def _vector_file(self, tmp_path, words, dim=6, seed=0):
        from lyricstats.embeddings import save_vectors

        table = random_table(sorted(words), dim, np.random.default_rng(seed))
        path = tmp_path / "vecs.txt"
        save_vectors(table, str(path))
        return path

    def test_exact_mode_on_small_lists(self, tmp_path):
        tests = [
            {
                "name": "tiny",
                "targets_x": ["x1", "x2", "x3"],
                "targets_y": ["y1", "y2", "y3"],
                "attributes_a": ["a1", "a2"],
                "attributes_b": ["b1", "b2"],
            }
        ]
        test_file = tmp_path / "tests.json"
        test_file.write_text(json.dumps(tests))
        words = {w for t in tests for k in ("targets_x", "targets_y", "attributes_a", "attributes_b") for w in t[k]}
        vecs = self._vector_file(tmp_path, words)
        out = tmp_path / "weat"
        # C(6, 3) = 20 partitions, fewer than the default 100,000 samples
        assert main(["weat", "--vectors", str(vecs), "--tests", str(test_file), "--out", str(out)]) == 0
        with open(out / "weat_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["p_method"] == "exact"

    def test_bundled_battery_eight_rows(self, tmp_path):
        from lyricstats.weat import load_battery
        from lyricstats.resources import default_battery_path

        tests = load_battery(default_battery_path())
        words = {w for t in tests for w in (*t.targets_x, *t.targets_y, *t.attributes_a, *t.attributes_b)}
        vecs = self._vector_file(tmp_path, words)
        out = tmp_path / "weat"
        code = main(
            ["weat", "--vectors", str(vecs), "--out", str(out), "--mc-samples", "1000", "--seed", "3"]
        )
        assert code == 0
        with open(out / "weat_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8

    def test_underfilled_test_still_exit_0(self, tmp_path):
        from lyricstats.weat import load_battery
        from lyricstats.resources import default_battery_path

        tests = load_battery(default_battery_path())
        words = {w for t in tests for w in (*t.targets_x, *t.targets_y, *t.attributes_a, *t.attributes_b)}
        words -= set(tests[2].targets_x)
        vecs = self._vector_file(tmp_path, words)
        out = tmp_path / "weat"
        code = main(
            ["weat", "--vectors", str(vecs), "--out", str(out), "--mc-samples", "500", "--seed", "3"]
        )
        assert code == 0
        with open(out / "weat_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert any(r["error"] for r in rows) and sum(1 for r in rows if not r["error"]) == 7
        # the under-filled row still says how many words of each list were found
        n_x, n_y = len(tests[2].targets_x), len(tests[2].targets_y)
        assert rows[2]["error"] and (rows[2]["coverage_x"], rows[2]["coverage_y"]) == (f"0/{n_x}", f"0/{n_y}")
        assert rows[2]["dropped_words"].split() == [*tests[2].targets_x, *tests[2].targets_y]


    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_vector_gives_an_error_row(self, tmp_path, capsys, value):
        lists = {
            "targets_x": ["x1", "x2", "x3"],
            "targets_y": ["y1", "y2", "y3"],
            "attributes_a": ["a1", "a2"],
            "attributes_b": ["b1", "b2"],
        }
        from lyricstats.embeddings import save_vectors

        tests = tmp_path / "tests.json"
        tests.write_text(json.dumps([{"name": "bad", **lists}]))
        table = random_table(sorted(w for words in lists.values() for w in words), 6, np.random.default_rng(0))
        table.vectors[table.vocab["x2"], 0] = float(value)
        vecs = tmp_path / "vecs.txt"
        save_vectors(table, str(vecs))
        assert f"x2 {value} " in vecs.read_text()
        out = tmp_path / "weat"
        assert main(["weat", "--vectors", str(vecs), "--tests", str(tests), "--out", str(out)]) == 0
        with open(out / "weat_results.csv") as fh:
            (row,) = csv.DictReader(fh)
        assert [row[k] for k in ("effect_size", "test_statistic", "p_value", "p_method")] == ["", "", "", "none"]
        assert row["error"] == "bad: association scores are not all finite (a vector holds nan or inf)"
        assert [row[f"coverage_{k}"] for k in "xyab"] == ["3/3", "3/3", "2/2", "2/2"]
        printed = capsys.readouterr()
        assert printed.out.splitlines()[1].split()[:4] == ["bad", "-", "-", "error:"] and printed.err == ""

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_mc_samples_below_one_exit_1(self, tmp_path, samples, capsys):
        vecs = self._vector_file(tmp_path, ["a", "b"])
        out = tmp_path / "weat"
        assert main(["weat", "--vectors", str(vecs), "--out", str(out), "--mc-samples", samples]) == 1
        assert capsys.readouterr().err == "error: --mc-samples must be >= 1\n"
        assert not out.exists()

    def test_vector_file_cut_below_its_header_exit_1(self, tmp_path, capsys):
        vecs = self._vector_file(tmp_path, [f"w{i}" for i in range(6)])
        lines = vecs.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[0] == "6 6\n"
        vecs.write_text("".join(lines[:4]), encoding="utf-8")  # the header and 3 of the 6 rows
        out = tmp_path / "weat"
        assert main(["weat", "--vectors", str(vecs), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {vecs}: header says 6 rows of dimension 6, read 3 rows of dimension 6\n"
        assert not out.exists()

    def test_malformed_battery_exit_1(self, tmp_path, capsys):
        vecs = self._vector_file(tmp_path, ["a", "b"])
        tests = tmp_path / "tests.json"
        tests.write_text(json.dumps([{"name": "t", "targets_x": "x1 x2"}]))
        assert main(["weat", "--vectors", str(vecs), "--tests", str(tests), "--out", str(tmp_path / "w")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tests}: entry 0 (t): targets_x is not a non-empty list of words\n"

    def test_duplicate_word_warning_is_one_line(self, tmp_path, capsys):
        vecs = tmp_path / "vecs.txt"
        vecs.write_text("a 1 0\nb 0 1\na 1 1\n", encoding="utf-8")
        assert main(["weat", "--vectors", str(vecs), "--out", str(tmp_path / "w")]) == 0
        assert capsys.readouterr().err == f"warning: {vecs}: 1 duplicate words, last occurrence kept\n"

    def test_empty_battery_exit_1(self, tmp_path, capsys):
        vecs = self._vector_file(tmp_path, ["a", "b"])
        tests = tmp_path / "tests.json"
        tests.write_text("[]")
        out = tmp_path / "w"
        assert main(["weat", "--vectors", str(vecs), "--tests", str(tests), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {tests}: the battery names no test\n")
        assert not out.exists()


class TestOutputDirectory:
    """An --out that cannot be a directory ends the command before any work
    with exit 1 and one line naming the path."""

    def _command(self, name, tmp_path, mini_cache, out):
        vecs = TestWeatCommand()._vector_file(tmp_path, ["a", "b"])
        return {
            "ingest": ["ingest", "--input", mini_corpus_path(), "--format", "csv", "--out", out],
            "style": ["style", "--cache", str(mini_cache), "--out", out],
            "train": ["train", "--cache", str(mini_cache), "--out", f"{out}/v.txt", "--seed", "1"],
            "weat": ["weat", "--vectors", str(vecs), "--out", out],
        }[name]

    @pytest.mark.parametrize("command, work", [
        ("ingest", "ingest"), ("style", "corpus_style_metrics"), ("train", "train_sgns"), ("weat", "run_battery"),
    ])
    @pytest.mark.parametrize("under", ["", "/sub"])
    def test_file_in_the_way_exit_1_before_work(
        self, tmp_path, mini_cache, capsys, monkeypatch, command, work, under
    ):
        import lyricstats.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(cli, work, no_work)
        blocker = tmp_path / "a_file"
        blocker.write_text("x")
        capsys.readouterr()
        assert main(self._command(command, tmp_path, mini_cache, f"{blocker}{under}")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot use ") and f"{blocker} is not a writable directory" in err
        assert err.count("\n") == 1
        assert blocker.read_text() == "x"

    @pytest.mark.parametrize("command", ["ingest", "style", "train", "weat"])
    @pytest.mark.parametrize("name", ["", "o" * 300, f"new/{'o' * 300}/deeper"],
                             ids=["empty", "300-chars", "300-chars-under-new-parent"])
    def test_unusable_out_name_exit_1_one_line(self, tmp_path, mini_cache, capsys, monkeypatch, command, name):
        """An empty --out, or one whose name is too long for the file system,
        is refused before any work and writes nothing."""
        import lyricstats.cli as cli

        out = str(tmp_path / name) if name else ""
        args = self._command(command, tmp_path, mini_cache, out)
        if not name:
            args[args.index("--out") + 1] = ""
        for work in ("ingest", "load_cache", "load_vectors"):
            monkeypatch.setattr(cli, work, lambda *a, work=work, **k: pytest.fail(f"{work} ran"))
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if name:
            assert err == f"error: cannot write {out}: File name too long\n"
        else:
            what = "the vector file" if command == "train" else "the output directory"
            assert err == f"error: --out is empty; it names {what}\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_train_out_naming_a_directory_exit_1(self, tmp_path, mini_cache, capsys):
        assert main(["train", "--cache", str(mini_cache), "--out", str(tmp_path), "--seed", "1"]) == 1
        assert capsys.readouterr().err == f"error: --out {tmp_path} is a directory; it names the vector file\n"

    def test_missing_parents_are_made(self, tmp_path):
        vecs = TestWeatCommand()._vector_file(tmp_path, ["a", "b"])
        out = tmp_path / "new" / "deeper"
        assert main(["weat", "--vectors", str(vecs), "--out", str(out), "--mc-samples", "10"]) == 0
        assert (out / "weat_results.csv").exists()


class TestInputPaths:
    """An input flag given an empty value, or naming a file that cannot be
    opened, ends the command with exit 1 and one line naming it."""

    @pytest.mark.parametrize("command, flag", [("style", "--lexicon"), ("style", "--stopwords"), ("weat", "--tests")])
    def test_empty_input_flag_exit_1_before_work(self, tmp_path, mini_cache, capsys, monkeypatch, command, flag):
        import lyricstats.cli as cli

        for work in ("load_cache", "load_vectors", "_check_out_dir"):
            monkeypatch.setattr(cli, work, lambda *a, work=work, **k: pytest.fail(f"{work} ran"))
        source = ["--cache", str(mini_cache)] if command == "style" else ["--vectors", str(tmp_path / "v.txt")]
        capsys.readouterr()
        assert main([command, *source, "--out", str(tmp_path / "o"), flag, ""]) == 1
        assert capsys.readouterr() == ("", f"error: {flag} is empty; it names an input file\n")

    @pytest.mark.parametrize("command, flag, name", [
        ("ingest", "--input", ""), ("style", "--cache", ""), ("train", "--cache", ""), ("weat", "--vectors", ""),
        ("ingest", "--input", "missing"), ("style", "--cache", "missing"), ("train", "--cache", "missing"),
        ("weat", "--vectors", "missing"), ("style", "--lexicon", "missing"), ("style", "--stopwords", "missing"),
        ("weat", "--tests", "missing"),
    ])
    def test_unopenable_input_names_its_path(self, tmp_path, mini_cache, capsys, command, flag, name):
        path = str(tmp_path / name) if name else ""
        given = {
            "ingest": {"--input": mini_corpus_path(), "--format": "csv"},
            "style": {"--cache": str(mini_cache)},
            "train": {"--cache": str(mini_cache), "--seed": "1"},
            "weat": {"--vectors": str(TestWeatCommand()._vector_file(tmp_path, ["a", "b"]))},
        }[command]
        given.update({flag: path, "--out": str(tmp_path / ("v.txt" if command == "train" else "o"))})
        capsys.readouterr()
        assert main([command, *(arg for pair in given.items() for arg in pair)]) == 1
        assert capsys.readouterr() == ("", f"error: cannot read {path}: No such file or directory\n")


class TestWriteErrors:
    """An output that cannot be written ends the command with exit 1 and one
    line naming it. Outputs are written beside their path and moved into
    place, so no temporary file stays and a previous file keeps its bytes."""

    # a command's config digest (the ids that name only the command) and each of
    # its other outputs, made a directory after a first run wrote them all
    @pytest.mark.parametrize("command, name", [
        pytest.param(command, f"{command}.config.json", id=command) for command in ("ingest", "style", "train", "weat")
    ] + [
        pytest.param(command, name, id=f"{command}-{name}") for command, name in (
            ("ingest", "corpus.cache"), ("ingest", "rejects.jsonl"), ("style", "per_song.csv"),
            ("style", "aggregate.csv"), ("style", "top_words.csv"), ("style", "rank_series.csv"),
        )
    ])
    def test_config_digest_in_the_way_exit_1(self, tmp_path, mini_cache, capsys, command, name):
        out = tmp_path / "out"
        args = TestOutputDirectory()._command(command, tmp_path, mini_cache, str(out))
        assert main(args) == 0
        blocked = out / name
        blocked.unlink()
        blocked.mkdir()
        before = {path: path.read_bytes() for path in out.iterdir() if path.is_file()}
        capsys.readouterr()
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: cannot write {blocked}: Is a directory\n"
        assert blocked.is_dir() and not list(blocked.iterdir())
        assert {path: path.read_bytes() for path in out.iterdir() if path.is_file()} == before
        assert not [path for path in out.rglob("*.tmp")]

    def test_failed_results_write_keeps_previous_files(self, tmp_path, capsys, monkeypatch):
        vecs = TestWeatCommand()._vector_file(tmp_path, ["x1", "x2", "y1", "y2", "a1", "a2", "b1", "b2"])
        battery = tmp_path / "tests.json"
        battery.write_text(json.dumps([{"name": "t", "targets_x": ["x1", "x2"], "targets_y": ["y1", "y2"],
                                        "attributes_a": ["a1", "a2"], "attributes_b": ["b1", "b2"]}]))
        out = tmp_path / "weat"
        args = ["weat", "--vectors", str(vecs), "--tests", str(battery), "--out", str(out), "--seed"]
        assert main([*args, "1"]) == 0
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        capsys.readouterr()

        class NoSpaceAfterTheHeader:
            def __init__(self, fh):
                self.fh, self.rows = fh, 0

            def writerow(self, row):
                self.rows += 1
                if self.rows > 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.fh.write(",".join(row) + "\n")

            def writerows(self, rows):
                for row in rows:
                    self.writerow(row)

        monkeypatch.setattr(csv, "writer", NoSpaceAfterTheHeader)
        assert main([*args, "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out / 'weat_results.csv'}: No space left on device\n"
        assert captured.out == ""
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
        assert sorted(before) == ["weat.config.json", "weat_results.csv"]


class TestNegativeSeed:
    @pytest.mark.parametrize("via_config", [False, True])
    def test_weat_exit_1(self, tmp_path, capsys, via_config):
        vecs = TestWeatCommand()._vector_file(tmp_path, ["a", "b"])
        out = tmp_path / "weat"
        args = ["weat", "--vectors", str(vecs), "--out", str(out)]
        if via_config:
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"seed": -1}))
            args = ["--config", str(config), *args]
        else:
            args += ["--seed", "-1"]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("via_config", [False, True])
    def test_train_exit_1(self, tmp_path, mini_cache, capsys, via_config):
        out = tmp_path / "v" / "v.txt"
        args = ["train", "--cache", str(mini_cache), "--out", str(out)]
        if via_config:
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"seed": -3}))
            args = ["--config", str(config), *args]
        else:
            args += ["--seed", "-3"]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"
        assert not out.parent.exists()


class TestWeatSummary:
    def _separated(self, tmp_path):
        # X words point at A and Y words at B: no other partition reaches the
        # observed statistic. 10 words a side have C(20, 10) = 184,756
        # partitions, so fewer samples take the sampled path.
        lines = ["a1 1 0", "a2 1 0.01", "b1 0 1", "b2 0.01 1"]
        lines += [f"x{i} 1 {i / 100}" for i in range(10)] + [f"y{i} {i / 100} 1" for i in range(10)]
        vecs = tmp_path / "v.txt"
        vecs.write_text("\n".join(lines) + "\n")
        tests = tmp_path / "t.json"
        tests.write_text(json.dumps([{
            "name": "sep", "targets_x": [f"x{i}" for i in range(10)], "targets_y": [f"y{i}" for i in range(10)],
            "attributes_a": ["a1", "a2"], "attributes_b": ["b1", "b2"],
        }]))
        return ["weat", "--vectors", str(vecs), "--tests", str(tests), "--out", str(tmp_path / "w")]

    @pytest.mark.parametrize("flags, shown", [
        ([], "< 1e-05"), (["--mc-samples", "2000"], "< 0.0005"), (["--mc-samples", "184756"], "0"),
    ])
    def test_zero_hits_shown_as_a_bound(self, tmp_path, capsys, flags, shown):
        assert main(self._separated(tmp_path) + flags) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row[55 + 1 + 8 + 1 : 55 + 1 + 8 + 1 + 10].strip() == shown
        with open(tmp_path / "w" / "weat_results.csv") as fh:
            (result,) = csv.DictReader(fh)
        assert result["p_value"] == "0"


class TestNotUtf8:
    """A file that is not UTF-8 text ends the command with exit 1 and one line
    naming the file."""

    def _bad_bytes(self, path, good: bytes):
        # a Latin-1 byte in the middle of otherwise valid content
        path.write_bytes(good[: len(good) // 2] + b"\xe9" + good[len(good) // 2 :])
        return path

    def test_ingest_input(self, tmp_path, capsys):
        src = self._bad_bytes(tmp_path / "songs.jsonl", json.dumps(jsonl_row("s1")).encode() + b"\n")
        assert main(["ingest", "--input", str(src), "--out", str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: not UTF-8 text") and err.count("\n") == 1

    def test_style_cache(self, tmp_path, mini_cache, capsys):
        # the cache's text is its meta member: a JSON object in UTF-8
        arrays, meta = read_cache(mini_cache)
        cache = tmp_path / "corpus.cache"
        write_cache(cache, arrays, self._bad_bytes(tmp_path / "meta", json.dumps(meta).encode()).read_bytes())
        assert main(["style", "--cache", str(cache), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cache}: not UTF-8 text") and err.count("\n") == 1

    def test_style_stopwords(self, tmp_path, mini_cache, capsys):
        stopwords = self._bad_bytes(tmp_path / "stop.txt", b"the\nand\nyou\n")
        out = tmp_path / "o"
        assert main(["style", "--cache", str(mini_cache), "--out", str(out), "--stopwords", str(stopwords)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stopwords}: not UTF-8 text") and err.count("\n") == 1

    def test_weat_vectors(self, tmp_path, capsys):
        vecs = self._bad_bytes(tmp_path / "vecs.txt", b"2 2\nalpha 0.1 0.2\nbeta 0.3 0.4\n")
        assert main(["weat", "--vectors", str(vecs), "--out", str(tmp_path / "w")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {vecs}: not UTF-8 text") and err.count("\n") == 1


class TestDeeplyNestedJson:
    """JSON nested deeper than the parser's recursion limit is bad input like
    any other: a rejected row, or one line on stderr, never a traceback."""

    @pytest.mark.parametrize("case", ["jsonl_row", "battery", "config", "cache", "cache_meta"])
    def test_a_reject_or_one_line(self, tmp_path, mini_cache, capsys, case):
        nested = "[" * 100_000
        path = tmp_path / "nested"
        vecs = tmp_path / "vecs.txt"
        vecs.write_text("a 1 0\nb 0 1\n", encoding="utf-8")
        out = str(tmp_path / "out")
        code, err = 1, f"error: {path}: maximum recursion depth exceeded"
        if case == "jsonl_row":
            path.write_text(f"{json.dumps(jsonl_row('s1'))}\n{nested}\n{json.dumps(jsonl_row('s3'))}\n")
            argv, code, err = ["ingest", "--input", str(path), "--format", "jsonl", "--out", out], 0, ""
        elif case == "battery":
            path.write_text(nested)
            argv = ["weat", "--vectors", str(vecs), "--tests", str(path), "--out", out]
            err = f"error: {path}: not a JSON battery (maximum recursion depth exceeded"
        elif case == "config":
            path.write_text(nested)
            argv = ["--config", str(path), "style", "--cache", str(mini_cache), "--out", out]
        elif case == "cache":
            path.write_text(nested + "\n")
            argv, err = ["style", "--cache", str(path), "--out", out], f"error: {path}: not a corpus cache"
        else:
            write_cache(path, read_cache(mini_cache)[0], nested.encode())
            argv = ["style", "--cache", str(path), "--out", out]
            err = f"error: {path}: malformed cache (maximum recursion depth exceeded"
        assert main(argv) == code
        stderr = capsys.readouterr().err
        assert stderr.startswith(err) and stderr.count("\n") == (1 if err else 0)
        if case == "jsonl_row":
            (reject,) = [json.loads(line) for line in (tmp_path / "out" / "rejects.jsonl").read_text().splitlines()]
            assert reject["line_no"] == "2" and reject["reason"].startswith("maximum recursion depth exceeded")
            assert load_cache(str(tmp_path / "out" / "corpus.cache")).ids == ("s1", "s3")


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a text input, as Excel's "CSV
    UTF-8" export writes one, changes no output, message or exit code."""

    @pytest.mark.parametrize(
        "case", ["ingest_csv", "ingest_jsonl", "vectors", "battery", "config", "lexicon", "stopwords"]
    )
    def test_outputs_byte_identical(self, tmp_path, mini_cache, capsys, monkeypatch, case):
        from lyricstats.embeddings import save_vectors

        lists = {
            "targets_x": ["x1", "x2", "x3"],
            "targets_y": ["y1", "y2", "y3"],
            "attributes_a": ["a1", "a2"],
            "attributes_b": ["b1", "b2"],
        }
        vecs = tmp_path / "vecs.txt"
        words = sorted(w for ws in lists.values() for w in ws)
        save_vectors(random_table(words, 6, np.random.default_rng(0)), str(vecs))
        with open(mini_corpus_path(), "rb") as fh:
            songs_csv = fh.read()
        inputs = {
            "songs.csv": songs_csv,
            "songs.jsonl": "".join(json.dumps(jsonl_row(f"s{i}")) + "\n" for i in range(3)).encode(),
            "vecs.txt": vecs.read_bytes(),
            "tests.json": json.dumps([{"name": "tiny", **lists}]).encode(),
            "config.json": json.dumps({"mc_samples": 10, "seed": 3}).encode(),
            "words.txt": b"damn\nhell\n",
        }
        weat = ["weat", "--vectors", "vecs.txt", "--tests", "tests.json"]
        style = ["style", "--cache", str(mini_cache)]
        argv, name = {
            "ingest_csv": (["ingest", "--input", "songs.csv"], "songs.csv"),
            "ingest_jsonl": (["ingest", "--input", "songs.jsonl"], "songs.jsonl"),
            "vectors": (weat, "vecs.txt"),
            "battery": (weat, "tests.json"),
            "config": (["--config", "config.json", *weat], "config.json"),
            "lexicon": ([*style, "--lexicon", "words.txt"], "words.txt"),
            "stopwords": ([*style, "--stopwords", "words.txt"], "words.txt"),
        }[case]
        monkeypatch.chdir(tmp_path)

        def run():
            code = main([*argv, "--out", "out"])
            out = tmp_path / "out"
            outputs = {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else None
            shutil.rmtree(out, ignore_errors=True)
            return code, capsys.readouterr(), outputs

        for file, data in inputs.items():
            (tmp_path / file).write_bytes(data)
        plain = run()
        assert plain[0] == 0 and plain[2]
        (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + inputs[name])
        assert run() == plain


class TestMisc:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        from lyricstats import __version__

        assert capsys.readouterr().out.strip() == __version__

    def test_config_file_defaults_with_flag_override(self, tmp_path, mini_cache):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"top_k": 3, "cohort": "popular"}))
        out = tmp_path / "style"
        main(
            ["--config", str(cfg), "style", "--cache", str(mini_cache), "--out", str(out), "--year", "1965"]
        )
        with open(out / "top_words.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3

    def test_config_abbreviated_flag_wins(self, tmp_path, mini_cache):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"top_k": 3}))
        out = tmp_path / "style"
        code = main(
            ["--config", str(cfg), "style", "--cache", str(mini_cache), "--out", str(out),
             "--year", "1965", "--cohort", "popular", "--top", "5"]
        )
        assert code == 0
        with open(out / "top_words.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 5
        assert json.loads((out / "style.config.json").read_text())["options"]["top_k"] == 5

    @pytest.mark.parametrize("config", [{"top_kk": 3}, {"dim": 8}, {"func": 1}, [3]])
    def test_config_unknown_key_exit_1(self, tmp_path, mini_cache, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "style"
        code = main(["--config", str(cfg), "style", "--cache", str(mini_cache), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", [2.5, True, [3], {"k": 3}], ids=["float", "bool", "list", "object"])
    def test_config_value_of_wrong_type_exit_1(self, tmp_path, mini_cache, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"top_k": value}))
        out = tmp_path / "style"
        code = main(["--config", str(cfg), "style", "--cache", str(mini_cache), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: top_k: {value!r} is not a valid int\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("style", {"cohort": "pop"}, "cohort: 'pop' is not one of popular, other"),
            ("ingest", {"format": 3}, "format: 3 is not one of jsonl, csv"),
            ("ingest", {"keep_annotations": "no"}, "keep_annotations: 'no' is not true or false"),
            # a path or word list is a string: 0 would read stdin, 3 a file descriptor
            ("style", {"stopwords": 0}, "stopwords: 0 is not a string"),
            ("weat", {"tests": 0}, "tests: 0 is not a string"),
            ("style", {"lexicon": 3}, "lexicon: 3 is not a string"),
            ("style", {"words": ["rock", "blues"]}, "words: ['rock', 'blues'] is not a string"),
        ],
        ids=["choice", "choice_not_a_string", "flag", "stopwords", "tests", "lexicon", "words"],
    )
    def test_config_value_outside_option_exit_1(self, tmp_path, mini_cache, capsys, command, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        source = [{"style": "--cache", "ingest": "--input", "weat": "--vectors"}[command], str(mini_cache)]
        assert main(["--config", str(cfg), command, *source, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not out.exists()

    def test_config_string_of_wrong_type_exit_1(self, tmp_path, mini_cache, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"top_k": "x"}))
        out = tmp_path / "style"
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "style", "--cache", str(mini_cache), "--out", str(out)])
        assert exc.value.code == 1
        assert "invalid int value: 'x'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, option, default",
        [("style", "top_k", 100), ("style", "year", None), ("train", "dim", 100), ("weat", "mc_samples", 100_000)],
    )
    def test_config_null_keeps_default(self, tmp_path, mini_cache, command, option, default):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option: None}))
        out = tmp_path / "out"
        argv = {
            "style": ["style", "--cache", str(mini_cache), "--out", str(out)],
            "train": ["train", "--cache", str(mini_cache), "--out", str(out / "v.txt"), "--seed", "1", "--epochs", "1"],
            "weat": ["weat", "--vectors", str(TestWeatCommand()._vector_file(tmp_path, ["a", "b"])), "--out", str(out)],
        }[command]
        assert main(["--config", str(cfg), *argv]) == 0
        assert json.loads((out / f"{command}.config.json").read_text())["options"][option] == default

    def test_config_exact_is_an_unknown_option_exit_1(self, tmp_path, capsys):
        # exact or sampled p-values follow from --mc-samples alone
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"exact": True}))
        vecs = TestWeatCommand()._vector_file(tmp_path, ["a", "b"])
        out = tmp_path / "weat"
        assert main(["--config", str(cfg), "weat", "--vectors", str(vecs), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: unknown option(s) for weat: exact\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, options", [
        ("train", ["cache", "dim", "epochs", "learning_rate", "min_count", "negatives", "seed", "subsample", "window"]),
        ("weat", ["inclusive", "mc_samples", "seed", "tests", "vectors"]),
    ])
    def test_config_digest_holds_every_option_but_the_output(self, tmp_path, mini_cache, command, options):
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--cache", str(mini_cache), "--out", str(out / "v.txt"), "--seed", "1", "--epochs", "1",
                      "--deterministic"],
            "weat": ["weat", "--vectors", str(TestWeatCommand()._vector_file(tmp_path, ["a", "b"])), "--out", str(out)],
        }[command]
        assert main(argv) == 0
        digest = json.loads((out / f"{command}.config.json").read_text())
        assert sorted(digest["options"]) == sorted(["command", *options])
        resolved = json.dumps(digest["options"], sort_keys=True)
        assert digest["digest"] == hashlib.sha256(resolved.encode()).hexdigest()

    def test_config_int_for_float_option_is_converted(self, tmp_path):
        src = tmp_path / "songs.jsonl"
        write_jsonl(src, [jsonl_row("s1")])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_reject_fraction": 1}))
        out = tmp_path / "build"
        assert main(["--config", str(cfg), "ingest", "--input", str(src), "--out", str(out)]) == 0
        options = json.loads((out / "ingest.config.json").read_text())["options"]
        assert options["max_reject_fraction"] == 1.0 and isinstance(options["max_reject_fraction"], float)

import csv
import json
from collections import Counter

import numpy as np
import pytest

from lyricstats.cli import main
from lyricstats.resources import mini_corpus_path
from tests.conftest import jsonl_row, random_table, write_jsonl


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

    def test_top_k_below_one_exit_1(self, tmp_path, mini_cache, capsys):
        assert main(["style", "--cache", str(mini_cache), "--out", str(tmp_path / "o"), "--top-k", "0"]) == 1
        assert "--top-k" in capsys.readouterr().err

    def test_truncated_cache_exit_1(self, tmp_path, mini_cache, capsys):
        data = mini_cache.read_bytes()
        cut = tmp_path / "cut.cache"
        cut.write_bytes(data[: data.index(b"\n", len(data) // 2) - 10])  # ends mid-row
        assert main(["style", "--cache", str(cut), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cut}:") and "malformed cache row" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["style", "train"])
    @pytest.mark.parametrize(
        "field, value",
        [("year", "1990"), ("duration_seconds", "200"), ("lines", []), ("lines", ["hello world"])],
        ids=["year_string", "duration_string", "no_lines", "line_not_a_list"],
    )
    def test_mistyped_cache_row_exit_1(self, tmp_path, mini_cache, capsys, command, field, value):
        rows = mini_cache.read_text(encoding="utf-8").splitlines()
        rows[3] = json.dumps(dict(json.loads(rows[3]), **{field: value}))
        bad = tmp_path / "bad.cache"
        bad.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        flags = ["--out", str(out)] if command == "style" else ["--out", str(out / "v.txt"), "--seed", "1"]
        assert main([command, "--cache", str(bad), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:4: malformed cache row (") and err.count("\n") == 1
        assert not out.exists()

    def test_version_2_cache_exit_1(self, tmp_path, mini_cache, capsys):
        rows = mini_cache.read_text(encoding="utf-8").splitlines(keepends=True)
        old = tmp_path / "v2.cache"
        old.write_text(json.dumps(dict(json.loads(rows[0]), cache_version=2)) + "\n" + "".join(rows[1:]))
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
        from lyricstats.corpus import load_cache
        from lyricstats.resources import default_stopwords_path
        from lyricstats.style import load_wordlist

        out = tmp_path / "style"
        flags = ["--top-k", "7"] + (["--cohort", cohort] if cohort else [])
        assert main(["style", "--cache", str(mini_cache), "--out", str(out), *flags]) == 0
        corpus = load_cache(str(mini_cache))
        stopwords = load_wordlist(default_stopwords_path())
        expected = []
        for year in sorted({r.year for r in corpus.records if cohort is None or r.cohort == cohort}):
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
        cut = tmp_path / "cut.cache"
        rows = mini_cache.read_text(encoding="utf-8").splitlines(keepends=True)
        cut.write_text("".join(rows[:21]), encoding="utf-8")  # the header and 20 of the 50 songs
        assert main(["style", "--cache", str(cut), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {cut}: header says 50 songs but the cache holds 20\n"

    def test_lexicon_entry_with_space_exit_1(self, tmp_path, mini_cache, capsys):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("damn\nfuck you\n")
        out = tmp_path / "o"
        assert main(["style", "--cache", str(mini_cache), "--out", str(out), "--lexicon", str(lexicon)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {lexicon}: entry 'fuck you'") and err.count("\n") == 1


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

    def test_empty_corpus_exit_2(self, tmp_path, capsys):
        src = tmp_path / "songs.jsonl"
        write_jsonl(src, [dict(jsonl_row("b1"), lyrics="")])
        build = tmp_path / "build"
        assert main(["ingest", "--input", str(src), "--out", str(build)]) == 2
        capsys.readouterr()
        out = tmp_path / "v.txt"
        assert main(["train", "--cache", str(build / "corpus.cache"), "--out", str(out), "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: empty vocabulary")


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
        assert main(["weat", "--vectors", str(vecs), "--tests", str(test_file), "--out", str(out), "--exact"]) == 0
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


    def test_exact_over_budget_keeps_effect_size(self, tmp_path, capsys):
        # 11 targets per list: C(22, 11) partitions exceed the exact budget
        lists = {
            "targets_x": [f"x{i}" for i in range(11)],
            "targets_y": [f"y{i}" for i in range(11)],
            "attributes_a": ["a1", "a2"],
            "attributes_b": ["b1", "b2"],
        }
        tests = tmp_path / "tests.json"
        tests.write_text(json.dumps([{"name": "big", **lists}]))
        vecs = self._vector_file(tmp_path, {w for words in lists.values() for w in words})
        out = tmp_path / "weat"
        assert main(["weat", "--vectors", str(vecs), "--tests", str(tests), "--out", str(out), "--exact"]) == 0
        with open(out / "weat_results.csv") as fh:
            (row,) = csv.DictReader(fh)
        assert row["effect_size"] and row["test_statistic"] and row["p_value"] == "" and row["p_method"] == "none"
        assert "exact budget" in row["error"]
        summary = capsys.readouterr().out.splitlines()[1].split()
        assert summary[:3] == ["big", f"{float(row['effect_size']):.3f}", "-"]

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

    def test_train_out_naming_a_directory_exit_1(self, tmp_path, mini_cache, capsys):
        assert main(["train", "--cache", str(mini_cache), "--out", str(tmp_path), "--seed", "1"]) == 1
        assert capsys.readouterr().err == f"error: --out {tmp_path} is a directory; it names the vector file\n"

    def test_missing_parents_are_made(self, tmp_path):
        vecs = TestWeatCommand()._vector_file(tmp_path, ["a", "b"])
        out = tmp_path / "new" / "deeper"
        assert main(["weat", "--vectors", str(vecs), "--out", str(out), "--mc-samples", "10"]) == 0
        assert (out / "weat_results.csv").exists()


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
        # X words point at A and Y words at B: no other partition reaches the observed statistic
        lines = ["a1 1 0", "a2 1 0.01", "b1 0 1", "b2 0.01 1"]
        lines += [f"x{i} 1 {i / 100}" for i in range(4)] + [f"y{i} {i / 100} 1" for i in range(4)]
        vecs = tmp_path / "v.txt"
        vecs.write_text("\n".join(lines) + "\n")
        tests = tmp_path / "t.json"
        tests.write_text(json.dumps([{
            "name": "sep", "targets_x": [f"x{i}" for i in range(4)], "targets_y": [f"y{i}" for i in range(4)],
            "attributes_a": ["a1", "a2"], "attributes_b": ["b1", "b2"],
        }]))
        return ["weat", "--vectors", str(vecs), "--tests", str(tests), "--out", str(tmp_path / "w")]

    @pytest.mark.parametrize("flags, shown", [
        ([], "< 1e-05"), (["--mc-samples", "2000"], "< 0.0005"), (["--exact"], "0"),
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
        cache = self._bad_bytes(tmp_path / "corpus.cache", mini_cache.read_bytes())
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
        ],
        ids=["choice", "choice_not_a_string", "flag"],
    )
    def test_config_value_outside_option_exit_1(self, tmp_path, mini_cache, capsys, command, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        source = ["--cache", str(mini_cache)] if command == "style" else ["--input", str(mini_cache)]
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

    def test_config_int_for_float_option_is_converted(self, tmp_path):
        src = tmp_path / "songs.jsonl"
        write_jsonl(src, [jsonl_row("s1")])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_reject_fraction": 1}))
        out = tmp_path / "build"
        assert main(["--config", str(cfg), "ingest", "--input", str(src), "--out", str(out)]) == 0
        options = json.loads((out / "ingest.config.json").read_text())["options"]
        assert options["max_reject_fraction"] == 1.0 and isinstance(options["max_reject_fraction"], float)

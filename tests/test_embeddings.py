import os
import pathlib
import tempfile
import tracemalloc
import warnings
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lyricstats.embeddings as embeddings
from lyricstats.corpus import Corpus
from lyricstats.embeddings import (
    EmbeddingError,
    EmbeddingTable,
    SgnsConfig,
    _TrainState,
    load_vectors,
    save_vectors,
    sgns_batch_grads,
    train_sgns,
    unigram_noise_probs,
)
from lyricstats.resources import default_battery_path
from lyricstats.weat import WeatTest, apply_oov_policy, load_battery, run_battery
from tests.conftest import make_record, make_table
from tests.sgns_reference import cosine, sgns_pair_grads, sgns_pair_loss


def save_vectors_per_float(table, path):
    """Reference writer: the per-float formatting that `save_vectors` must match byte for byte."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.vocab)} {table.dim}\n")
        for word, idx in sorted(table.vocab.items(), key=lambda kv: kv[1]):
            values = " ".join(f"{x:.6f}" for x in table.vectors[idx])
            fh.write(f"{word} {values}\n")


def assert_same_bytes_as_reference(table, tmp_path):
    save_vectors(table, str(tmp_path / "fast.txt"))
    save_vectors_per_float(table, str(tmp_path / "reference.txt"))
    assert (tmp_path / "fast.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()


def load_vectors_per_row(path):
    """Reference loader: the per-row parser that `load_vectors` replaced. It
    reads every number with float() and gives the table, or the error, that
    `load_vectors` must match."""
    words, rows, index = [], [], {}
    dim = header = None
    duplicates = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                parts = line.rstrip("\n").split(" ")
                if not line.strip():
                    continue
                if line_no == 1 and len(parts) == 2:
                    try:
                        header = int(parts[0]), int(parts[1])
                        continue
                    except ValueError:
                        pass
                word = parts[0]
                try:
                    vec = np.array([float(x) for x in parts[1:] if x != ""], dtype=float)
                except ValueError as exc:
                    raise EmbeddingError(f"{path}:{line_no}: unparsable number: {exc}") from exc
                if dim is None:
                    dim = len(vec)
                    if dim == 0:
                        raise EmbeddingError(f"{path}:{line_no}: row has no vector values")
                elif len(vec) != dim:
                    raise EmbeddingError(f"{path}:{line_no}: dimension mismatch, expected {dim} got {len(vec)}")
                if word in index:
                    rows[index[word]] = vec
                    duplicates += 1
                else:
                    index[word] = len(words)
                    words.append(word)
                    rows.append(vec)
    except UnicodeDecodeError as exc:
        raise EmbeddingError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if dim is None:
        raise EmbeddingError(f"{path}: empty vector file")
    if header is not None and header != (len(words) + duplicates, dim):
        raise EmbeddingError(
            f"{path}: header says {header[0]} rows of dimension {header[1]}, "
            f"read {len(words) + duplicates} rows of dimension {dim}"
        )
    vectors = np.vstack(rows)
    if duplicates:
        warnings.warn(f"{path}: {duplicates} duplicate words, last occurrence kept")
    return EmbeddingTable(dim=dim, vocab=index, vectors=vectors)


def load_outcome(loader, path):
    """What a loader makes of a file: the table's vocabulary, the bits of its
    vectors and its warnings, or the error message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            table = loader(path)
        except EmbeddingError as exc:
            return ("error", str(exc), [str(w.message) for w in caught])
    bits = np.ascontiguousarray(table.vectors, dtype=np.float64).view(np.uint64)
    return (table.dim, table.vocab, bits.shape, bits.tolist(), [str(w.message) for w in caught])


def assert_loads_as_per_row(path):
    assert load_outcome(load_vectors, path) == load_outcome(load_vectors_per_row, path)


@st.composite
def word_rows(draw):
    """{word: row} for a table of 1-6 unique words of dimension 1-5 with finite
    values. Words hold no whitespace or control characters, which would split a
    row or end a line, and no lone surrogates, which UTF-8 cannot encode."""
    dim = draw(st.integers(1, 5))
    word = st.text(st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")), min_size=1, max_size=8)
    words = draw(st.lists(word, min_size=1, max_size=6, unique=True))
    row = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim)
    return dict(zip(words, draw(st.lists(row, min_size=len(words), max_size=len(words)))))


# numbers as save_vectors and other writers spell them, and spellings that
# float() reads or refuses and that a bulk parser might read otherwise
GOOD_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.6f}"),
    st.sampled_from(["0", "-0", "nan", "-nan", "+NaN", "inf", "-Infinity", "1e999", "-1e-400", ".5", "5.", "+2E3"]),
)
ODD_NUMBERS = st.sampled_from(
    ["1_000", "\u0661\u0662", "\uff11", "1.0\t", "\t1", "1.0\t2.0", "1\x0c", "1\x00", "1\u3000", "\u00a01",
     "1\x1c", "1\x1d", "1\x1e", "1\x1f", "abc", "1.2.3", "0x10", "--1", "1e", "#1", "1d5", "nanx", "", " ", "1 2"]
)


@st.composite
def vector_files(draw):
    """The text of a vector file: an optional header (right, wrong, or none),
    rows of a word and numbers with single or double spaces, then up to three
    defects: blank lines, word-only rows, odd numbers, missing or extra
    values, and tabs. Words may repeat, be numbers, hold "%" or non-ASCII
    letters. Lines end in "\n" or "\r\n"."""
    dim = draw(st.integers(1, 4))
    word = st.sampled_from(["a", "b", "\u00e9t\u00e9", "2019", "%s", "x_1", "w\tx"])
    word |= st.text("ab1", min_size=1, max_size=3)
    words = draw(st.lists(word, max_size=12))
    rows = [[w, *(draw(GOOD_NUMBERS) for _ in range(dim))] for w in words]
    lines = [draw(st.sampled_from([" ", "  "])).join(row) + draw(st.sampled_from(["", " "])) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["blank", "word_only", "odd_number", "short", "long", "tab"]))
        if kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", "  ", "\t"])))
        elif at < len(lines) and kind == "word_only":
            lines[at] = lines[at].split(" ")[0] + draw(st.sampled_from(["", " "]))
        elif at < len(lines) and kind == "odd_number":
            parts = lines[at].split(" ")
            parts[draw(st.integers(1, len(parts) - 1)) if len(parts) > 1 else 0] = draw(ODD_NUMBERS)
            lines[at] = " ".join(parts)
        elif at < len(lines) and kind == "short":
            lines[at] = lines[at].rstrip(" ").rsplit(" ", 1)[0]
        elif at < len(lines) and kind == "long":
            lines[at] += " " + draw(GOOD_NUMBERS)
        elif at < len(lines):
            lines[at] = lines[at].replace(" ", "\t", 1) if draw(st.booleans()) else lines[at] + "\t"
    header = draw(st.sampled_from([None, "right", "rows+1", "dim+1", "2019 1"]))
    if header == "right":
        lines.insert(0, f"{len(rows)} {dim}")
    elif header == "rows+1":
        lines.insert(0, f"{len(rows) + 1} {dim}")
    elif header == "dim+1":
        lines.insert(0, f"{len(rows)} {dim + 1}")
    elif header:
        lines.insert(0, header)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def corpus_from_token_lists(token_lists):
    records = (make_record(f"s{i}", lyrics=" ".join(tokens), year=2000) for i, tokens in enumerate(token_lists))
    return Corpus.from_records(records)


class TestCosine:
    def test_self_similarity(self):
        assert cosine([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_opposite_scale_invariant(self):
        assert cosine([1.0, 0.0], [-3.0, 0.0]) == pytest.approx(-1.0)
        assert cosine([1.0, 0.0], [-3.0, 0.0]) == pytest.approx(cosine([1.0, 0.0], [-1.0, 0.0]))

    def test_symmetry_and_scaling(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u, v = rng.normal(size=8), rng.normal(size=8)
            assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-15)
            assert cosine(3.5 * u, v) == pytest.approx(cosine(u, v), abs=1e-12)
            assert -1.0 - 1e-12 <= cosine(u, v) <= 1.0 + 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(EmbeddingError):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(EmbeddingError):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])


class TestVectorFile:
    def test_load_with_header(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n")
        table = load_vectors(str(path))
        assert table.dim == 3 and len(table) == 2
        assert table.get("a") == pytest.approx([1, 0, 0])

    def test_load_headerless(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1 0 0\nb 0 1 0\n")
        table = load_vectors(str(path))
        assert table.dim == 3 and len(table) == 2

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1 0 0\nb 0 1\n")
        with pytest.raises(EmbeddingError, match=":2:"):
            load_vectors(str(path))

    def test_unparsable_number(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1 zero 0\n")
        with pytest.raises(EmbeddingError, match="unparsable"):
            load_vectors(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("")
        with pytest.raises(EmbeddingError, match="empty"):
            load_vectors(str(path))

    def test_duplicate_last_wins(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1 0\na 0 1\n")
        with pytest.warns(UserWarning, match="duplicate"):
            table = load_vectors(str(path))
        assert table.get("a") == pytest.approx([0, 1])

    def test_zero_vector_flagged(self, tmp_path):
        # no cosine is defined for a zero vector: WEAT drops its word as missing
        path = tmp_path / "v.txt"
        path.write_text("a 0 0\nb 1 0\nc 0 1\nd 1 1\n")
        test = WeatTest("z", ("a", "b"), ("c", "d"), ("b", "d"), ("c", "a"))
        x, y, a, b, coverage, dropped = apply_oov_policy(test, load_vectors(str(path)))
        assert (x, y, a, b, dropped) == (["b"], ["c"], ["b", "d"], ["c"], ("a", "a", "d"))
        assert coverage == {"targets_x": (2, 1), "targets_y": (2, 1), "attributes_a": (2, 2), "attributes_b": (2, 1)}

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        table = make_table({f"w{i}": rng.normal(size=4) for i in range(10)})
        path = tmp_path / "v.txt"
        save_vectors(table, str(path))
        loaded = load_vectors(str(path))
        assert loaded.vocab == table.vocab
        assert np.max(np.abs(loaded.vectors - table.vectors)) <= 1e-6

    @pytest.mark.parametrize("word", ["new york", "", "tab\there", "line\nend", "nbsp\u00a0"])
    def test_save_refuses_a_word_the_format_cannot_hold(self, tmp_path, word):
        path = tmp_path / "v.txt"
        with pytest.raises(EmbeddingError, match="a word in a vector file is non-empty and holds no whitespace"):
            save_vectors(make_table({"ok": [1.0, 0.0], word: [0.0, 1.0]}), str(path))
        assert not path.exists()

    def test_save_matches_per_float_formatting_on_edge_values(self, tmp_path):
        edge = [-0.0, float("nan"), float("inf"), -float("inf"), 1e300, -1e-9, 0.0078125, 0.5]
        table = make_table({"a": edge, "b%s%d": edge[::-1], "%": [1.0] * 8, "c": np.full(8, 2.5e-7)})
        assert_same_bytes_as_reference(table, tmp_path)
        with open(tmp_path / "fast.txt", encoding="utf-8") as fh:
            assert fh.readline() == "4 8\n"
            row = fh.readline()
            assert row.startswith("a -0.000000 nan inf -inf 1000000000000000052504760255204420248704468581108")
            assert row.endswith(".000000 -0.000000 0.007812 0.500000\n")
            assert fh.readline().startswith("b%s%d 0.500000 0.007812 ")

    def test_save_matches_per_float_formatting_on_float32(self, tmp_path):
        rng = np.random.default_rng(4)
        table = make_table({f"w{i}": rng.normal(scale=10.0 ** (i - 4), size=5) for i in range(9)})
        table = EmbeddingTable(dim=5, vocab=table.vocab, vectors=table.vectors.astype(np.float32))
        assert_same_bytes_as_reference(table, tmp_path)

    @settings(max_examples=50, deadline=None)
    @given(word_rows())
    def test_save_matches_per_float_formatting_on_random_tables(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            assert_same_bytes_as_reference(make_table(rows), pathlib.Path(tmp))

    @settings(max_examples=50, deadline=None)
    @given(word_rows())
    @example({"2019": [1.0], "1999": [-2.5]})  # a 1-dim first row that looks like a "V D" header
    def test_round_trip_keeps_vocab_and_six_decimals(self, rows):
        table = make_table(rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "v.txt")
            save_vectors(table, path)
            loaded = load_vectors(path)
        assert loaded.vocab == table.vocab
        expected = np.array([[float(f"{x:.6f}") for x in row] for row in table.vectors])
        assert np.array_equal(loaded.vectors, expected)

    def test_header_row_count_mismatch_names_path_and_counts(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3 2\na 1 0\nb 0 1\n")
        with pytest.raises(EmbeddingError) as exc:
            load_vectors(str(path))
        assert str(exc.value) == f"{path}: header says 3 rows of dimension 2, read 2 rows of dimension 2"

    def test_header_dimension_mismatch_names_path_and_counts(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 4\na 1 0 0\nb 0 1 0\n")
        with pytest.raises(EmbeddingError) as exc:
            load_vectors(str(path))
        assert str(exc.value) == f"{path}: header says 2 rows of dimension 4, read 2 rows of dimension 3"

    def test_header_counts_duplicate_rows(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3 2\na 1 0\nb 0 1\na 1 1\n")
        with pytest.warns(UserWarning, match="duplicate"):
            table = load_vectors(str(path))
        assert len(table) == 2 and table.get("a").tolist() == [1.0, 1.0]


def boundary_values():
    """Values where rounding to six decimals is hardest: at and 1-4 ulps either
    side of the half-way points (m + 0.5) / 1e6 at every magnitude, the exact
    ties k/128 and k/2048, values next to powers of ten and around 2**52 / 1e6
    (the largest whole number of millionths that floats hold exactly),
    subnormals, and tiny values of either sign."""
    centers = [(m + 0.5) / 1e6 for m in (0, 1, 7, 12, 499_999, 999_999, 1_000_000, 12_345_678, 987_654_321_012)]
    centers += [9.9999995, 99999.9999995, 0.9999995, 999999.9999995, 2.0**52 / 1e6, 2.0**53 / 1e6, 1e-6, 0.0]
    values = [np.nextafter(c, np.inf * step) if step else c for c in centers for step in (-1, 1, 0)]
    for c in centers:
        for ulps in range(1, 5):
            values += [c + ulps * np.spacing(c), c - ulps * np.spacing(c)]
    values += [k / 128 for k in range(-9, 10, 2)] + [k / 2048 for k in range(1, 40, 6)]
    values += [5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 4e-7, -4e-7, 5e-7, -5e-7, 0.0, -0.0]
    values += [0.1, 12345.6]  # two widths in one block
    values = np.array(values + [-v for v in values])
    return values[np.isfinite(values)]


class TestVectorWriter:
    """`save_vectors` formats blocks with numpy and falls back to one "%" call
    per row for near-ties and non-finite values; every byte must match the
    per-float reference writer."""

    # (_BLOCK_ROWS, _FORMAT_VALUES): blocks of 1, 3 and 1024 rows, and of 2
    # rows of 5 values when a block holds at most 12 values
    @pytest.mark.parametrize("block_rows, format_values", [(1, 1 << 16), (3, 1 << 16), (1024, 1 << 16), (1024, 12)])
    @pytest.mark.parametrize("dim", [1, 5])
    def test_boundary_values_match_per_float_formatting(self, tmp_path, monkeypatch, block_rows, format_values, dim):
        values = np.random.default_rng(dim).permutation(boundary_values())
        # pad to whole rows with values of mixed widths, 0.1 beside 12345.6
        pad = np.resize([0.1, 12345.6, -3.25e9, 7.0], -len(values) % dim)
        vectors = np.concatenate([values, pad]).reshape(-1, dim)
        order = np.random.default_rng(1).permutation(len(vectors))  # insertion order is not row order
        table = EmbeddingTable(dim=dim, vocab={f"w{i}": int(i) for i in order}, vectors=vectors)
        exact = []
        rounds_exactly = embeddings._rounds_exactly

        def recorded(*args):
            rows = rounds_exactly(*args)
            exact.extend(rows.tolist())
            return rows

        monkeypatch.setattr(embeddings, "_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(embeddings, "_FORMAT_VALUES", format_values)
        monkeypatch.setattr(embeddings, "_rounds_exactly", recorded)
        assert_same_bytes_as_reference(table, tmp_path)
        # both paths ran: numpy for most rows, "%" for the near-ties
        assert len(exact) == len(vectors)
        assert 0 < sum(exact) < len(vectors)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-10**16, 10**16), st.integers(-4, 4)), min_size=1, max_size=8))
    def test_values_near_half_way_points_match_per_float_formatting(self, points):
        # (m + 0.5) / 1e6 moved by -4..4 ulps, each in its own row; beyond
        # |m| = 2**52 the rows take the "%" path
        values = [(m + 0.5) / 1e6 + ulps * np.spacing((m + 0.5) / 1e6) for m, ulps in points]
        with tempfile.TemporaryDirectory() as tmp:
            assert_same_bytes_as_reference(make_table({f"w{i}": [v] for i, v in enumerate(values)}), pathlib.Path(tmp))

    @pytest.mark.parametrize("block_rows", [1, 3, 1024])
    def test_blocks_of_mixed_widths(self, tmp_path, monkeypatch, block_rows):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-8, 10, size=(40, 6))
        vectors[::7] = np.nan
        vectors[3, 2] = -np.inf
        monkeypatch.setattr(embeddings, "_BLOCK_ROWS", block_rows)
        assert_same_bytes_as_reference(make_table({f"w{i}": row for i, row in enumerate(vectors)}), tmp_path)

    def test_values_at_the_uint32_bound(self, tmp_path, monkeypatch):
        # whole millionths must stay below 2**32 - 1: 4294.9672949 rounds to
        # 4294967295 on the numpy path, 4294.967295 times 1e6 is just past the
        # bound. Each row also holds values of 1, 2, 3 and 4 integer digits.
        edges = [4294.967294, 4294.9672949, 4294.967295, 1e4]
        rows = [[sign * edge, 1.5, -22.25, 333.125, -1234.0625] for edge in edges for sign in (1, -1)]
        exact = []
        rounds_exactly = embeddings._rounds_exactly

        def recorded(*args):
            flags = rounds_exactly(*args)
            exact.extend(flags.tolist())
            return flags

        monkeypatch.setattr(embeddings, "_rounds_exactly", recorded)
        assert_same_bytes_as_reference(make_table({f"w{i}": row for i, row in enumerate(rows)}), tmp_path)
        assert exact == [True] * 4 + [False] * 4

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "v.txt"
        save_vectors(make_table({f"w{i}": [float(i), 1.0] for i in range(10)}), str(path))
        before = path.read_bytes()
        write_block = embeddings._write_block
        written = []

        def fail_on_second_block(fh, words, x):
            written.append(len(words))
            if len(written) == 2:
                raise OSError("No space left on device")
            return write_block(fh, words, x)

        monkeypatch.setattr(embeddings, "_BLOCK_ROWS", 3)
        monkeypatch.setattr(embeddings, "_write_block", fail_on_second_block)
        with pytest.raises(OSError, match="No space left"):
            save_vectors(make_table({f"u{i}": [0.5, float(i)] for i in range(10)}), str(path))
        assert written == [3, 3]
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["v.txt"]

    @pytest.mark.parametrize("vectors, dim", [(np.zeros((2, 0)), 0), (np.zeros((2, 3)), 2), (np.zeros(3), 3)])
    def test_save_refuses_vectors_of_another_shape(self, tmp_path, vectors, dim):
        path = tmp_path / "v.txt"
        table = EmbeddingTable(dim=dim, vocab={"a": 0, "b": 1}, vectors=vectors)
        with pytest.raises(EmbeddingError, match="cannot save vectors of shape"):
            save_vectors(table, str(path))
        assert not path.exists()


class TestLoaderAgainstPerRowParser:
    """`load_vectors` parses blocks of rows with np.loadtxt and falls back to
    float() row by row; the per-row reference parser is the specification.
    Every file gives the same vocabulary, bitwise the same vectors, the same
    zero words and warnings, or the same error message."""

    @settings(max_examples=300, deadline=None)
    @given(vector_files(), st.sampled_from([1, 2, 3, 1024]))
    def test_same_table_or_error_as_per_row_parser(self, text, block_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "v.txt")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            with mock.patch.object(embeddings, "_BLOCK_ROWS", block_rows):
                assert_loads_as_per_row(path)

    @settings(max_examples=50, deadline=None)
    @given(word_rows())
    @example({"2019": [1.0], "1999": [-2.5]})
    @example({"a": [-0.0, float("nan"), float("inf")], "b": [0.0] * 3, "\u00e9": [-float("inf"), 1e300, -1e-9]})
    def test_same_table_as_per_row_parser_on_saved_tables(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "v.txt")
            save_vectors(make_table(rows), path)
            with mock.patch.object(embeddings, "_BLOCK_ROWS", 2):
                assert_loads_as_per_row(path)

    @pytest.mark.parametrize(
        "row, values",
        [
            ("w 1_000 2", [1000.0, 2.0]),  # float() reads "_" between digits; loadtxt does not
            ("w \u0661\u0662 \uff13", [12.0, 3.0]),  # and non-ASCII decimal digits
            ("w 1.0\t 2.0\t", [1.0, 2.0]),  # and whitespace around a number
            ("w 1.0\t2.0", None),  # but a tab does not separate numbers
            ("w 1.0\x002.0", None),  # nor does a NUL
            # float() refuses the separators U+001C-U+001F after a number; loadtxt reads them as 1.0
            ("w 1\x1c 2", None),
            ("w 1\x1d 2", None),
            ("w 1\x1e 2", None),
            ("w 1\x1f 2", None),
        ],
    )
    def test_spellings_float_reads_are_kept(self, tmp_path, row, values):
        path = tmp_path / "v.txt"
        path.write_text(f"a 1 1\n{row}\n", encoding="utf-8")
        assert_loads_as_per_row(str(path))
        if values is None:
            with pytest.raises(EmbeddingError, match=":2: unparsable number"):
                load_vectors(str(path))
        else:
            assert load_vectors(str(path)).get("w").tolist() == values

    def test_word_only_row_refused(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1 2\nb\nc 3 4\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match=":2: dimension mismatch, expected 2 got 0"):
            load_vectors(str(path))
        path.write_text("b \na 1 2\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match=":1: row has no vector values"):
            load_vectors(str(path))

    def test_error_in_a_later_block_names_its_line(self, tmp_path):
        path = tmp_path / "v.txt"
        rows = [f"w{i} {i} 1" for i in range(2500)]
        rows[2100] = "w2100 1 x"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match=":2101: unparsable number"):
            load_vectors(str(path))

    def test_rows_before_undecodable_text_are_checked_first(self, tmp_path):
        # text is decoded in chunks of a few kB; a row read before the chunk
        # that cannot be decoded reports its own error, as with the per-row parser
        path = tmp_path / "v.txt"
        rows = [f"w{i} 1.000000 2.000000\n".encode() for i in range(1000)]
        rows[1] = b"b 1 x\n"
        rows[900] = b"c 3 \xe9\n"
        path.write_bytes(b"".join(rows))
        assert_loads_as_per_row(str(path))
        with pytest.raises(EmbeddingError, match=":2: unparsable number"):
            load_vectors(str(path))
        rows[1] = b"b 1 2\n"
        path.write_bytes(b"".join(rows))
        assert_loads_as_per_row(str(path))
        with pytest.raises(EmbeddingError, match="not UTF-8"):
            load_vectors(str(path))

    @pytest.mark.parametrize("header", ["100000000000 300", "-1 2", "0 2", "3 0"])
    def test_impossible_header_allocates_nothing_and_is_reported(self, tmp_path, header):
        path = tmp_path / "v.txt"
        path.write_text(f"{header}\na 1 2\nb 3 4\n", encoding="utf-8")
        h = header.split()
        with pytest.raises(EmbeddingError, match=f"header says {h[0]} rows of dimension {h[1]}, read 2 rows"):
            load_vectors(str(path))

    def test_header_file_filled_in_place(self, tmp_path, monkeypatch):
        # with a right header, the blocks go into one preallocated table
        rng = np.random.default_rng(6)
        table = make_table({f"w{i}": rng.normal(size=3) for i in range(10)})
        path = tmp_path / "v.txt"
        save_vectors(table, str(path))
        monkeypatch.setattr(embeddings, "_BLOCK_ROWS", 3)
        monkeypatch.setattr(np, "concatenate", None)
        assert load_vectors(str(path)).vectors.shape == (10, 3)

    def test_headerless_file_holds_one_table(self, tmp_path):
        # without a header, a first pass counts the rows, so the parse fills one
        # table as it does with a header, rather than keeping every block and
        # then joining them into a second table
        rows, dim = 20_000, 100
        values = np.random.default_rng(8).integers(-99, 100, size=(rows, dim)) / 10
        path = tmp_path / "v.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"w{i} " + " ".join(map(str, row)) + "\n" for i, row in enumerate(values.tolist()))
        tracemalloc.start()
        try:
            table = load_vectors(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(table.vectors, values)
        assert peak < 1.6 * values.nbytes


class TestSgnsGradients:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        dim, n_neg = 12, 5
        center = rng.normal(scale=0.5, size=dim)
        context = rng.normal(scale=0.5, size=dim)
        negatives = rng.normal(scale=0.5, size=(n_neg, dim))
        g_c, g_ctx, g_negs = sgns_pair_grads(center, context, negatives)
        h = 1e-6

        def fd(setter, base):
            grad = np.zeros_like(base)
            for i in range(base.size):
                plus, minus = base.copy().ravel(), base.copy().ravel()
                plus[i] += h
                minus[i] -= h
                grad.ravel()[i] = (
                    setter(plus.reshape(base.shape)) - setter(minus.reshape(base.shape))
                ) / (2 * h)
            return grad

        fd_c = fd(lambda c: sgns_pair_loss(c, context, negatives), center)
        fd_ctx = fd(lambda x: sgns_pair_loss(center, x, negatives), context)
        fd_negs = fd(lambda n: sgns_pair_loss(center, context, n), negatives)
        for analytic, numeric in ((g_c, fd_c), (g_ctx, fd_ctx), (g_negs, fd_negs)):
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
            assert np.max(rel) <= 1e-4

    def test_positive_pair_moves_center_toward_context(self):
        # zero negatives: the SGD step on the center is a positive multiple of
        # the context vector
        rng = np.random.default_rng(3)
        center = rng.normal(size=6)
        context = rng.normal(size=6)
        g_c, _, _ = sgns_pair_grads(center, context, np.zeros((0, 6)))
        step = -0.1 * g_c
        assert np.dot(step, context) > 0


def per_pair_reference(w_in, w_out, centers, contexts, negatives):
    """Full-size gradient tables: sgns_pair_grads of each pair, with the noise
    words equal to its context left out, scattered with np.add.at."""
    g_in, g_out = np.zeros_like(w_in), np.zeros_like(w_out)
    for center, context, negs in zip(centers, contexts, negatives):
        negs = negs[negs != context]
        g_c, g_ctx, g_negs = sgns_pair_grads(w_in[center], w_out[context], w_out[negs])
        np.add.at(g_in, center, g_c)
        np.add.at(g_out, context, g_ctx)
        np.add.at(g_out, negs, g_negs)
    return g_in, g_out


def assert_batch_matches_pairs(w_in, w_out, centers, contexts, negatives):
    in_rows, in_grads, out_rows, out_grads = sgns_batch_grads(w_in, w_out, centers, contexts, negatives)
    assert in_rows.tolist() == sorted(set(centers.tolist()))
    assert out_rows.tolist() == sorted(set(contexts.tolist()) | set(negatives.ravel().tolist()))
    ref_in, ref_out = per_pair_reference(w_in, w_out, centers, contexts, negatives)
    got_in, got_out = np.zeros_like(w_in), np.zeros_like(w_out)
    got_in[in_rows] = in_grads
    got_out[out_rows] = out_grads
    np.testing.assert_allclose(got_in, ref_in, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_out, ref_out, rtol=0, atol=1e-12)


class TestSgnsBatchKernel:
    def test_row_sums_equal_summed_pair_grads(self):
        rng = np.random.default_rng(21)
        w_in = rng.normal(scale=0.5, size=(7, 6))
        w_out = rng.normal(scale=0.5, size=(7, 6))
        # centers, contexts and noise words repeat rows across and within
        # pairs, and noise words 1 (pair 0) and 3 (pair 2) equal their contexts
        centers = np.array([0, 0, 2, 2, 5, 0])
        contexts = np.array([1, 3, 3, 1, 1, 6])
        negatives = np.array([[1, 4, 4], [2, 0, 6], [3, 3, 1], [4, 4, 4], [6, 2, 0], [5, 5, 2]])
        assert_batch_matches_pairs(w_in, w_out, centers, contexts, negatives)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_np_add_at_scatter_with_duplicate_rows(self, data):
        n_words = data.draw(st.integers(1, 6), label="n_words")
        n_pairs = data.draw(st.integers(1, 10), label="n_pairs")
        k = data.draw(st.integers(1, 4), label="k")
        rows = st.lists(st.integers(0, n_words - 1), min_size=n_pairs * (k + 2), max_size=n_pairs * (k + 2))
        drawn = np.array(data.draw(rows, label="rows"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        w_in = rng.normal(size=(n_words, 5))
        w_out = rng.normal(size=(n_words, 5))
        assert_batch_matches_pairs(
            w_in, w_out, drawn[:n_pairs], drawn[n_pairs : 2 * n_pairs], drawn[2 * n_pairs :].reshape(n_pairs, k)
        )


class TestNoiseDistribution:
    def test_probs_proportional_to_counts_power(self):
        counts = [100, 10, 1]
        probs = unigram_noise_probs(counts)
        expected = np.array([100**0.75, 10**0.75, 1.0])
        assert probs == pytest.approx(expected / expected.sum())

    def test_empirical_frequencies_within_3_stderr(self):
        corpus = corpus_from_token_lists(
            [["alpha"] * 50 + ["beta"] * 20 + ["gamma"] * 10 + ["delta"] * 5] * 4
        )
        config = SgnsConfig(dim=4, min_count=1, seed=11)
        state = _TrainState(corpus, config)
        probs = unigram_noise_probs(state.counts)
        n = 1_000_000
        draws = state.draw_negatives(np.random.default_rng(42), n)
        freqs = np.bincount(draws, minlength=len(probs)) / n
        stderr = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freqs - probs) <= 3 * stderr)


def two_cluster_corpus(rng, n_songs=60, song_len=40):
    clusters = [[f"red{i}" for i in range(8)], [f"sea{i}" for i in range(8)]]
    songs = []
    for s in range(n_songs):
        pool = clusters[s % 2]
        songs.append([pool[rng.integers(len(pool))] for _ in range(song_len)])
    return corpus_from_token_lists(songs), clusters


class TestTraining:
    def test_empty_vocabulary_after_min_count(self):
        corpus = corpus_from_token_lists([["rare", "words", "only"]])
        with pytest.raises(EmbeddingError, match="empty vocabulary"):
            train_sgns(corpus, SgnsConfig(dim=4, min_count=5, seed=0, epochs=1))

    def test_negative_seed_refused(self):
        with pytest.raises(EmbeddingError, match="seed must be >= 0, got -1"):
            SgnsConfig(seed=-1)

    @pytest.mark.parametrize("name", ["initial_learning_rate", "subsample_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rate_and_threshold_positive_and_finite(self, name, value):
        with pytest.raises(EmbeddingError, match=f"^{name} must be positive and finite, got {value}$"):
            SgnsConfig(**{name: value})

    def test_empty_corpus_empty_vocabulary(self):
        with pytest.raises(EmbeddingError, match="empty vocabulary"):
            train_sgns(Corpus.from_records(()), SgnsConfig(dim=4, min_count=1, seed=0, epochs=1))

    def test_deterministic_mode_reproduces_vector_file(self, tmp_path):
        rng = np.random.default_rng(0)
        corpus, _ = two_cluster_corpus(rng, n_songs=20, song_len=20)
        config = SgnsConfig(dim=8, min_count=1, epochs=2, seed=7)
        files = []
        for name in ("a.txt", "b.txt"):
            table = train_sgns(corpus, config)
            path = tmp_path / name
            save_vectors(table, str(path))
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_clusters_separate(self):
        rng = np.random.default_rng(12)
        corpus, clusters = two_cluster_corpus(rng)
        config = SgnsConfig(dim=16, window=4, min_count=1, epochs=5, seed=5, subsample_threshold=1.0)
        table = train_sgns(corpus, config)
        within, across = [], []
        for ci, cluster in enumerate(clusters):
            for w in cluster:
                for v in cluster:
                    if w < v:
                        within.append(cosine(table.get(w), table.get(v)))
                for v in clusters[1 - ci]:
                    if ci == 0:
                        across.append(cosine(table.get(w), table.get(v)))
        assert np.mean(within) > np.mean(across)

    def test_loss_decreases_across_epochs(self):
        rng = np.random.default_rng(2)
        corpus, _ = two_cluster_corpus(rng, n_songs=30, song_len=30)
        config = SgnsConfig(dim=8, min_count=1, epochs=3, seed=9, subsample_threshold=1.0)
        state = _TrainState(corpus, config)
        frozen = []
        probe_rng = np.random.default_rng(99)
        for sent in islice(state.sentences(), 10):
            for pos in range(0, len(sent) - 1, 5):
                negs = state.draw_negatives(probe_rng, config.negatives)
                frozen.append((int(sent[pos]), int(sent[pos + 1]), negs))

        # the epochs of train_sgns, each with the rng it draws from, and the
        # frozen triples' mean loss after each one
        losses = []
        for epoch in range(config.epochs):
            state.train_epoch(np.random.default_rng((config.seed, epoch)), epoch)
            losses.append(
                float(np.mean([sgns_pair_loss(state.w_in[c], state.w_out[x], state.w_out[n]) for c, x, n in frozen]))
            )
        assert losses[1] < losses[0]
        assert np.array_equal(state.w_in, train_sgns(corpus, config).vectors)

    def test_train_state_holds_nothing_token_sized(self):
        # 4M tokens of 1000 words, in 10-token lines and 30-line songs, built
        # straight from arrays: the state reads the corpus's own tokens
        n_songs = 4_000_000 // 300 + 1
        tokens = np.arange(300 * n_songs, dtype=np.int32) % 1000
        corpus = Corpus(
            vocab=tuple(f"w{i:03d}" for i in range(1000)),
            tokens=tokens,
            line_offsets=np.arange(0, len(tokens) + 1, 10, dtype=np.int64),
            song_offsets=np.arange(0, 30 * n_songs + 1, 30, dtype=np.int64),
            ids=tuple(f"s{i}" for i in range(n_songs)),
            years=np.full(n_songs, 2000, dtype=np.int64),
            cohorts=np.zeros(n_songs, dtype=np.int8),
            durations=np.full(n_songs, np.nan),
        )
        corpus.song_bounds  # cached before tracing: the corpus's own array
        tracemalloc.start()
        try:
            state = _TrainState(corpus, SgnsConfig(dim=4, min_count=1, seed=0))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(state.vocab) == 1000
        assert peak < tokens.nbytes
        assert held < tokens.nbytes / 4


def distinct_word_corpus(rng, n_songs, inclusion=(0.9, 0.7, 0.5, 0.35, 0.2, 0.1)):
    """Songs whose words are distinct within each song: word i of
    len(inclusion) words is in a song with probability inclusion[i], so the
    words' counts differ; every song holds at least two words."""
    words = [f"w{i}" for i in range(len(inclusion))]
    songs = []
    while len(songs) < n_songs:
        song = [w for w, p in zip(words, inclusion) if rng.random() < p]
        if len(song) >= 2:
            songs.append([song[i] for i in rng.permutation(len(song))])
    return corpus_from_token_lists(songs)


def recorded_batches(monkeypatch, corpus, config):
    """(centers, contexts, negatives) of every sgns_batch_grads call that
    training makes, in order."""
    calls = []
    original = embeddings.sgns_batch_grads

    def recording(w_in, w_out, centers, contexts, negatives):
        calls.append((centers.copy(), contexts.copy(), negatives.copy()))
        return original(w_in, w_out, centers, contexts, negatives)

    monkeypatch.setattr(embeddings, "sgns_batch_grads", recording)
    train_sgns(corpus, config)
    return calls


class TestNoiseDrawInTraining:
    """Training draws one row of k noise words per kept center position, and
    every (center, context) pair of that position takes its row. With words
    distinct within a song and no subsampling, a center word names one
    position of its sentence, and a sentence of at most 6 words (60 pairs) is
    one kernel call."""

    def test_pairs_of_one_center_share_its_noise_row(self, monkeypatch):
        corpus = distinct_word_corpus(np.random.default_rng(70), 200)
        config = SgnsConfig(dim=4, min_count=1, epochs=2, seed=71, subsample_threshold=1.0)
        calls = recorded_batches(monkeypatch, corpus, config)
        assert len(calls) == 2 * len(corpus)
        n_centers = n_rows = 0
        for centers, contexts, negatives in calls:
            assert negatives.shape == (len(centers), config.negatives)
            for center in np.unique(centers):
                rows = negatives[centers == center]
                assert (rows == rows[0]).all()
            n_centers += len(np.unique(centers))
            n_rows += len(np.unique(negatives, axis=0))
        # each center draws its own row: two rows of 5 words from 6 rarely
        # coincide, while one row shared by a whole call would give n_rows == len(calls)
        assert n_rows > 0.9 * n_centers > 2 * len(calls)

    def test_drawn_noise_words_follow_unigram_power(self, monkeypatch):
        corpus = distinct_word_corpus(np.random.default_rng(72), 3000)
        config = SgnsConfig(dim=4, min_count=1, epochs=3, seed=73, subsample_threshold=1.0)
        calls = recorded_batches(monkeypatch, corpus, config)
        rows = [negatives[np.unique(centers, return_index=True)[1]] for centers, _, negatives in calls]
        draws = np.concatenate(rows).ravel()
        probs = unigram_noise_probs(_TrainState(corpus, config).counts)
        n = len(draws)
        assert n > 100_000
        freqs = np.bincount(draws, minlength=len(probs)) / n
        assert np.all(np.abs(freqs - probs) <= 3 * np.sqrt(probs * (1 - probs) / n))


def planted_poles_corpus(test, rng, n_songs=500, n_filler=300, zipf_exponent=1.07):
    """Songs of 4-6 lines of 6-10 words, each word drawn with probability 0.7
    from one pole and otherwise from Zipf filler words. Even songs use the
    X and A words of `test`, odd songs its Y and B words."""
    poles = (test.targets_x + test.attributes_a, test.targets_y + test.attributes_b)
    filler = [f"filler{i}" for i in range(n_filler)]
    filler_cdf = np.cumsum(1.0 / np.arange(1, n_filler + 1) ** zipf_exponent)
    filler_cdf /= filler_cdf[-1]
    songs = []
    for s in range(n_songs):
        pole = poles[s % 2]
        words = []
        for length in rng.integers(6, 11, size=int(rng.integers(4, 7))).tolist():
            from_pole = rng.random(length) < 0.7
            pole_ids = rng.integers(len(pole), size=length)
            filler_ids = np.minimum(np.searchsorted(filler_cdf, rng.random(length), side="right"), n_filler - 1)
            words += [pole[p] if f else filler[q] for f, p, q in zip(from_pole, pole_ids, filler_ids)]
        songs.append(words)
    return corpus_from_token_lists(songs)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planted_poles_read_a_large_effect(seed):
    # one epoch at lr 0.1 and dim 50, as the command-line benchmark trains
    test = load_battery(default_battery_path())[0]
    corpus = planted_poles_corpus(test, np.random.default_rng([seed, 2]))
    table = train_sgns(corpus, SgnsConfig(dim=50, epochs=1, initial_learning_rate=0.1, seed=seed))
    [result] = run_battery([test], table)
    assert result.coverage["targets_x"] == (25, 25) and result.coverage["attributes_b"] == (25, 25)
    assert result.effect_size > 1.0


class TestFloat32Training:
    """Training holds its tables in float32; the kernel keeps the dtype it is given."""

    def test_float32_kernel_matches_float64(self):
        rng = np.random.default_rng(31)
        w_in = rng.normal(scale=0.5, size=(40, 16))
        w_out = rng.normal(scale=0.5, size=(40, 16))
        centers, contexts = rng.integers(40, size=(2, 256))
        negatives = rng.integers(40, size=(256, 5))
        want = sgns_batch_grads(w_in, w_out, centers, contexts, negatives)
        got = sgns_batch_grads(w_in.astype(np.float32), w_out.astype(np.float32), centers, contexts, negatives)
        for rows, rows64 in ((got[0], want[0]), (got[2], want[2])):
            assert np.array_equal(rows, rows64)
        for grads, grads64 in ((got[1], want[1]), (got[3], want[3])):
            assert grads.dtype == np.float32
            # each row's error against the row's size
            error = np.linalg.norm(grads - grads64, axis=1) / np.linalg.norm(grads64, axis=1)
            assert error.max() < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_and_float64_training_read_the_same_effect(self, seed):
        # float64 training: the epochs of train_sgns on the same state, its
        # float32 tables widened before the first one
        test = load_battery(default_battery_path())[0]
        corpus = planted_poles_corpus(test, np.random.default_rng([seed, 2]))
        config = SgnsConfig(dim=50, epochs=1, initial_learning_rate=0.1, seed=seed)
        state = _TrainState(corpus, config)
        state.w_in, state.w_out = state.w_in.astype(np.float64), state.w_out.astype(np.float64)
        for epoch in range(config.epochs):
            state.train_epoch(np.random.default_rng((config.seed, epoch)), epoch)
        assert state.w_in.dtype == np.float64
        wide = EmbeddingTable(dim=config.dim, vocab=state.vocab, vectors=state.w_in)
        d32 = run_battery([test], train_sgns(corpus, config))[0].effect_size
        d64 = run_battery([test], wide)[0].effect_size
        assert abs(d32 - d64) < 0.05

    def test_weat_reads_a_float32_table_as_its_float64_copy(self):
        tests = load_battery(default_battery_path())
        corpus = planted_poles_corpus(tests[0], np.random.default_rng([0, 2]), n_songs=200)
        table = train_sgns(corpus, SgnsConfig(dim=20, epochs=1, initial_learning_rate=0.1, seed=0))
        wide = EmbeddingTable(dim=table.dim, vocab=table.vocab, vectors=table.vectors.astype(np.float64))
        results = run_battery(tests, table, n_samples=1000)
        assert results[0].error is None
        assert results == run_battery(tests, wide, n_samples=1000)

    def test_float32_table_saves_as_its_float64_copy(self, tmp_path):
        corpus, _ = two_cluster_corpus(np.random.default_rng(1), n_songs=20, song_len=20)
        table = train_sgns(corpus, SgnsConfig(dim=8, min_count=1, epochs=2, seed=3))
        assert table.vectors.dtype == np.float32
        wide = EmbeddingTable(dim=table.dim, vocab=table.vocab, vectors=table.vectors.astype(np.float64))
        save_vectors(table, str(tmp_path / "narrow.txt"))
        save_vectors(wide, str(tmp_path / "wide.txt"))
        assert (tmp_path / "narrow.txt").read_bytes() == (tmp_path / "wide.txt").read_bytes()

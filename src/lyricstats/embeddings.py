"""Word vectors: text-format load/save and a skip-gram negative-sampling
trainer over a tokenized corpus."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import chain, pairwise
from typing import Iterator, Optional, Sequence

import numpy as np

from lyricstats.corpus import Corpus, atomic_write, ranked_ids, token_counts


class EmbeddingError(Exception):
    pass


@dataclass(frozen=True)
class EmbeddingTable:
    dim: int
    vocab: dict  # word -> row index
    vectors: np.ndarray  # (V, dim): float64 from load_vectors, float32 from train_sgns

    def __contains__(self, word: str) -> bool:
        return word in self.vocab

    def __len__(self) -> int:
        return len(self.vocab)

    def get(self, word: str) -> np.ndarray:
        return self.vectors[self.vocab[word]]


@dataclass(frozen=True)
class SgnsConfig:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    initial_learning_rate: float = 0.025
    min_count: int = 5
    subsample_threshold: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise EmbeddingError("dim must be >= 2")
        for name in ("window", "negatives", "epochs", "min_count"):
            if getattr(self, name) < 1:
                raise EmbeddingError(f"{name} must be positive")
        for name in ("initial_learning_rate", "subsample_threshold"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise EmbeddingError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.seed < 0:
            raise EmbeddingError(f"seed must be >= 0, got {self.seed}")


# rows whose numbers one np.loadtxt call parses, and the most rows that
# save_vectors formats at once: this bounds the text and the parsed or
# formatted block held besides the table
_BLOCK_ROWS = 1024
_PRINTABLE_ASCII = bytes(range(0x20, 0x7F))


def _header(line: str) -> Optional[tuple[int, int]]:
    """(V, D) when the line is a "V D" header: two integer fields."""
    parts = line.rstrip("\n").split(" ")
    if len(parts) == 2:
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            pass
    return None


def _row_blocks(lines):
    """(line_nos, words, rests) blocks of at most _BLOCK_ROWS rows from
    (line_no, line) pairs, blank lines skipped. A row's word runs to its first
    space; its rest is the text after that space."""
    block: tuple[list, list, list] = ([], [], [])
    try:
        for line_no, line in lines:
            if not line.strip():
                continue
            word, _, rest = line.rstrip("\n").partition(" ")
            block[0].append(line_no)
            block[1].append(word)
            block[2].append(rest)
            if len(block[0]) == _BLOCK_ROWS:
                yield block
                block = ([], [], [])
    except UnicodeDecodeError:
        # the rows read before the undecodable text are checked first
        if block[0]:
            yield block
        raise
    if block[0]:
        yield block


def _parse_block(path: str, line_nos: list, rests: list, dim: Optional[int]) -> np.ndarray:
    """The numbers of a block of rows as a (rows, dim) float64 array; with dim
    None the first row sets it. The numbers of a row are the non-empty fields
    of its rest split at single spaces, each read by float().

    A block of printable ASCII text goes to one np.loadtxt call, which reads
    such a field as float() does. Any other block (tabs, "_" in numbers,
    non-ASCII digits), or one that loadtxt refuses or reads as another shape
    (it skips rows without numbers), is parsed row by row with float(). That
    gives the values float() reads, or the error and line of the first bad
    row."""
    text = "".join(rests)
    # a block without any number never reaches loadtxt, which would warn
    if text.strip(" ") and text.isascii() and not text.encode("ascii").translate(None, _PRINTABLE_ASCII):
        try:
            values = np.loadtxt(rests, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if len(values) == len(rests) and dim in (None, values.shape[1]):
                return values
    rows = []
    for line_no, rest in zip(line_nos, rests):
        try:
            row = [float(x) for x in rest.split(" ") if x != ""]
        except ValueError as exc:
            raise EmbeddingError(f"{path}:{line_no}: unparsable number: {exc}") from exc
        if dim is None:
            dim = len(row)
            if dim == 0:
                raise EmbeddingError(f"{path}:{line_no}: row has no vector values")
        elif len(row) != dim:
            raise EmbeddingError(f"{path}:{line_no}: dimension mismatch, expected {dim} got {len(row)}")
        rows.append(row)
    return np.array(rows, dtype=float)


def _count_rows(path: str) -> int:
    """The file's non-blank lines, split and judged blank as `load_vectors`
    reads them. Bytes that are not UTF-8 count as text here; the parse that
    follows reports them."""
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        return sum(1 for line in fh if line.strip())


def load_vectors(path: str) -> EmbeddingTable:
    """Parse the text vector format: optional "V D" header, then one word and
    D space-separated reals per line. A header must match the V rows of
    dimension D that follow it. Duplicate words: the word keeps the row of its
    first occurrence and takes the values of its last. A UTF-8 byte-order
    mark before the first line is ignored.

    Every row is parsed and checked, in blocks of rows (see `_parse_block`),
    into one table filled in place. The header gives the table's rows, or,
    without one, a first pass that counts them. So parsing holds one table and
    one block."""
    index: dict = {}  # word -> table row
    dim: Optional[int] = None
    n_rows = 0
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            first = fh.readline()
            header = _header(first)
            if header is None:
                rows = _count_rows(path)
            else:
                # each row of a V x D table takes at least 2*D bytes, so a header
                # that promises more than the file holds is wrong and gets no table
                size = os.fstat(fh.fileno()).st_size
                rows = header[0] if min(header) > 0 and 2 * header[0] * header[1] <= size else 0
            lines = enumerate(chain([] if header else [first], fh), start=2 if header else 1)
            for line_nos, words, rests in _row_blocks(lines):
                values = _parse_block(path, line_nos, rests, dim)
                if dim is None:
                    dim = values.shape[1]
                    # a header of another dimension is wrong too and gets no table
                    vectors = np.empty((rows if header is None or header[1] == dim else 0, dim))
                # table row -> the block row its values come from: a repeated
                # word keeps its first table row and takes its last values
                last = {index.setdefault(word, len(index)): k for k, word in enumerate(words)}
                if len(index) <= len(vectors):
                    vectors[list(last)] = values[list(last.values())]
                # else the header is wrong, or the file grew, which the checks below report
                n_rows += len(values)
    except UnicodeDecodeError as exc:
        raise EmbeddingError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if dim is None:
        raise EmbeddingError(f"{path}: empty vector file")
    if header is not None and header != (n_rows, dim):
        raise EmbeddingError(
            f"{path}: header says {header[0]} rows of dimension {header[1]}, "
            f"read {n_rows} rows of dimension {dim}"
        )
    if n_rows != len(vectors):  # only without a header: the file changed between the passes
        raise EmbeddingError(f"{path}: changed while it was read")
    duplicates = n_rows - len(index)
    if duplicates:
        vectors = vectors[: len(index)]
        import warnings

        warnings.warn(f"{path}: {duplicates} duplicate words, last occurrence kept")
    return EmbeddingTable(dim=dim, vocab=index, vectors=vectors)


# values that save_vectors formats at once, at most: blocks of fewer than
# _BLOCK_ROWS rows when rows are wide, so that a block's temporaries do not
# grow with the dimension. Each float64 one takes 64 KB, under glibc's default
# 128 KB mmap threshold, so the blocks reuse the same heap pages. Writing the
# benchmark's 558 x 50 `train` table raised the peak RSS of `lyricstats train`
# by 0.4 MB; with 1 << 16 values a block, by 2.1 MB, at the same speed.
_FORMAT_VALUES = 1 << 13

# a byte that UTF-8 text never holds: the block layout of `_write_block` fills
# what a line leaves out with it, and deleting it joins the line
_GAP = b"\xff"


def _rounds_exactly(y: np.ndarray) -> np.ndarray:
    """Per row of values times 1e6 (`y`, the products rounded to floats),
    whether np.rint(y) rounds each value to millionths as "%.6f" does, half
    to even: each y is more than 2 spacings from a half-way point, so the
    product's own rounding cannot have moved it onto or across one, and
    |y| < 2**32 - 1, so that the whole millionths fit in a uint32. This fails
    NaN and +-inf too."""
    size = np.abs(y)
    with np.errstate(invalid="ignore"):
        return ((np.abs(size - np.floor(size) - 0.5) > 2 * np.spacing(size)) & (size < 2**32 - 1)).all(axis=1)


def _write_block(fh, words: Sequence[str], x: np.ndarray) -> None:
    """Write the lines "word v1 ... vD" of `words` and their float64 rows `x`
    to the binary file `fh`, each value as "%.6f" gives it.

    Rows that `_rounds_exactly` passes are formatted with numpy. The block is
    laid out as bytes, one layout row per line: the word and a space, then per
    value a sign slot, as many digit slots as the block's largest whole
    millionths need (at least 7) with "." before the last six, and a space.
    The digits come from repeated division of the whole millionths by 10. The
    padding after a short word, the sign slot of a value whose sign bit is
    clear and the slots of the integer part above its leading digit are _GAP
    bytes, and one bytes.translate call deletes them. Every other row (a
    near-tie such as k/128, NaN, +-inf, a value of 4294.967295 or more) is
    written with one "%" call, which shares CPython's float formatter with
    "{:.6f}"."""
    n, dim = x.shape
    with np.errstate(over="ignore"):
        y = x * 1e6
    slow = np.flatnonzero(~_rounds_exactly(y)).tolist()
    y[slow] = 0.0  # laid out as zeros, then written with "%"
    millionths = np.abs(np.rint(y)).astype(np.uint32)
    width = max(7, len(str(millionths.max())))

    encoded = np.frombuffer((" ".join(words) + " ").encode("utf-8"), np.uint8)
    word_lengths = np.diff(np.flatnonzero(encoded == ord(" ")), prepend=-1)
    word_bytes = int(word_lengths.max())
    text = bytearray(n * (word_bytes + dim * (width + 3)))
    layout = np.frombuffer(text, np.uint8).reshape(n, -1)
    layout[:, :word_bytes] = _GAP[0]
    layout[:, :word_bytes][np.arange(word_bytes) < word_lengths[:, None]] = encoded
    values = layout[:, word_bytes:].reshape(n, dim, width + 3)
    values[:, :, 0] = np.where(np.signbit(x), ord("-"), _GAP[0])
    values[:, :, width - 5] = ord(".")
    values[:, :, -1] = ord(" ")
    values[:, -1, -1] = ord("\n")
    # digit slots right to left: six fraction digits, the units digit, then
    # the integer digits above it, which are gaps once nothing is left
    for k, slot in enumerate([*range(width + 1, width - 5, -1), *range(width - 6, 0, -1)]):
        quotient = millionths // 10
        digit = millionths - quotient * 10 + ord("0")
        values[:, :, slot] = digit if k < 7 else np.where(millionths, digit, _GAP[0])
        millionths = quotient
    joined = memoryview(text.translate(None, _GAP))

    start = 0
    if slow:
        starts = [0, *(np.flatnonzero(np.frombuffer(joined, np.uint8) == ord("\n")) + 1).tolist()]
        row_format = " ".join(["%.6f"] * dim) + "\n"
        for row in slow:
            fh.write(joined[start : starts[row]])
            # the word stays out of the format string because it may contain "%"
            fh.write(f"{words[row]} ".encode("utf-8") + (row_format % tuple(x[row].tolist())).encode("ascii"))
            start = starts[row + 1]
    fh.write(joined[start:])


def save_vectors(table: EmbeddingTable, path: str) -> None:
    """Write the text vector format that `load_vectors` reads, each value as
    "%.6f" spells it, rows in row-index order. Raises EmbeddingError, before
    the file is opened, for a word that is empty or holds whitespace, which
    the format could not give back, or for vectors that are not (rows, dim)
    with dim >= 1.

    Rows are formatted in blocks of at most _BLOCK_ROWS rows and
    _FORMAT_VALUES values (see `_write_block`), so memory beyond the table
    does not grow with it. The file is written to a temporary file beside
    `path` and moved into place, so a failed write leaves any previous file
    as it was."""
    for word in table.vocab:
        if word.split() != [word]:
            raise EmbeddingError(f"cannot save {word!r}: a word in a vector file is non-empty and holds no whitespace")
    if table.dim < 1 or table.vectors.ndim != 2 or table.vectors.shape[1] != table.dim:
        raise EmbeddingError(f"cannot save vectors of shape {table.vectors.shape} as dimension {table.dim}")
    ordered = sorted(table.vocab.items(), key=lambda kv: kv[1])
    words = [word for word, _ in ordered]
    rows = np.array([row for _, row in ordered], dtype=np.intp)
    block_rows = min(_BLOCK_ROWS, max(1, _FORMAT_VALUES // table.dim))
    with atomic_write(path, "wb") as fh:
        fh.write(f"{len(rows)} {table.dim}\n".encode("ascii"))
        for lo in range(0, len(rows), block_rows):
            block = slice(lo, lo + block_rows)
            _write_block(fh, words[block], np.asarray(table.vectors[rows[block]], dtype=np.float64))


# ---------------------------------------------------------------------------
# SGNS training


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def unigram_noise_probs(counts: Sequence[int]) -> np.ndarray:
    """Negative-sampling distribution: unigram counts raised to the 3/4 power
    (Mikolov et al. 2013)."""
    arr = np.asarray(counts, dtype=float) ** 0.75
    return arr / arr.sum()


def sgns_batch_grads(
    w_in: np.ndarray,
    w_out: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the summed loss over a batch of pairs, all taken at the
    given parameters. A pair's loss is -log sigmoid(c.x) - sum_n log
    sigmoid(-c.n), for its center vector c, context vector x and noise
    vectors n.

    Pair p is (w_in[centers[p]], w_out[contexts[p]]) with the noise words in
    row p of `negatives`, shaped (pairs, k); a noise word equal to its pair's
    context word is left out, as in training. Returns
    (in_rows, in_grads, out_rows, out_grads): the distinct rows of w_in and of
    w_out that the batch touches, ascending, and each row's gradient summed
    over the batch.

    The loss is a sum over (center, output word) entries, each of which adds
    (sigmoid(score) - label) times the other word's vector to a gradient. So
    the kernel takes the scores of all distinct rows in one product, sums the
    entries' scalar weights into a (centers x output words) matrix, and gets
    both tables' row-summed gradients from two more products.
    """
    in_rows, in_index = np.unique(centers, return_inverse=True)
    out_rows, out_index = np.unique(np.concatenate((contexts, negatives.ravel())), return_inverse=True)
    v = w_in[in_rows]
    u = w_out[out_rows]
    # the pairs' (center, context) entries, then their (center, negative) ones
    # row by row, as flat indices into the (centers x output words) matrix
    centers_of = np.concatenate((in_index, np.repeat(in_index, negatives.shape[1])))
    cell = centers_of * len(out_rows) + out_index
    weight = _sigmoid((v @ u.T).ravel()[cell])
    weight[: len(centers)] -= 1.0
    weight[len(centers) :] *= (negatives != contexts[:, None]).ravel()
    # bincount sums in float64; the products run in the tables' dtype
    coupling = np.bincount(cell, weights=weight, minlength=len(in_rows) * len(out_rows)).astype(v.dtype)
    coupling = coupling.reshape(len(in_rows), len(out_rows))
    return in_rows, coupling @ u, out_rows, coupling.T @ v


# pairs per kernel call: a longer sentence is trained in consecutive batches,
# which bounds the kernel's temporaries and how many summed updates one step
# applies at once (on 1000-token Zipf songs at dim 100 and lr 0.1, one batch per
# song blew the vectors up to |v| ~ 4e6; 256-pair batches kept them below 1)
_BATCH_PAIRS = 256


class _TrainState:
    """Vocabulary, noise table, and vector arrays during training. The
    vectors are float32, as word2vec trains them (Mikolov et al. 2013): each
    batch's gathers, products and updates move half the bytes of float64."""

    def __init__(self, corpus: Corpus, config: SgnsConfig):
        counts = token_counts(corpus)
        kept = ranked_ids(counts)  # descending count, ties in word order
        kept = kept[counts[kept] >= config.min_count]
        if not len(kept):
            raise EmbeddingError(f"empty vocabulary after min_count={config.min_count}")
        self.vocab = {corpus.vocab[i]: row for row, i in enumerate(kept.tolist())}
        self.counts = counts[kept]
        self.noise_cdf = np.cumsum(unigram_noise_probs(self.counts))
        self.n_positions = int(self.counts.sum())  # the in-vocabulary tokens
        # keep probability per vocab word under frequent-word subsampling
        freq = self.counts / self.n_positions
        self.keep_prob = np.minimum(1.0, np.sqrt(config.subsample_threshold / freq))
        # each word's table row, -1 below min_count: `sentences` maps the tokens through it
        self.row_of = np.full(len(corpus.vocab), -1, dtype=np.int32)
        self.row_of[kept] = np.arange(len(kept))
        self.tokens, self.bounds = corpus.tokens, corpus.song_bounds
        rng = np.random.default_rng(config.seed)
        # drawn and scaled in place: no float64 array the size of the table
        self.w_in = rng.random((len(kept), config.dim), dtype=np.float32)
        self.w_in -= 0.5
        self.w_in /= config.dim
        self.w_out = np.zeros((len(kept), config.dim), dtype=np.float32)
        self.offsets = np.concatenate((np.arange(-config.window, 0), np.arange(1, config.window + 1)))
        self.config = config

    def sentences(self) -> Iterator[np.ndarray]:
        """Each song's in-vocabulary tokens as table rows (int32), song after song."""
        for a, b in pairwise(self.bounds.tolist()):
            rows = self.row_of[self.tokens[a:b]]
            yield rows[rows >= 0]

    def draw_negatives(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        """Noise-word indices of the given shape, from the unigram^0.75 table."""
        return np.searchsorted(self.noise_cdf, rng.random(size))

    def train_epoch(self, rng: np.random.Generator, epoch: int) -> None:
        cfg = self.config
        lr0 = cfg.initial_learning_rate
        lr_floor = 1e-4 * lr0
        total_positions = max(cfg.epochs * self.n_positions, 1)
        done = epoch * self.n_positions
        for sent in self.sentences():
            if len(sent) == 0:
                continue
            kept = sent[rng.random(len(sent)) < self.keep_prob[sent]]
            done += len(sent)
            if len(kept) < 2:
                continue
            lr = max(lr0 * (1.0 - done / total_positions), lr_floor)
            windows = rng.integers(1, cfg.window + 1, size=len(kept))
            # every (center, context) pair of the sentence, in position order;
            # the pairs of one center position share its k noise words
            ctx_pos = np.arange(len(kept))[:, None] + self.offsets
            valid = (np.abs(self.offsets) <= windows[:, None]) & (ctx_pos >= 0) & (ctx_pos < len(kept))
            center_pos = np.nonzero(valid)[0]
            centers = kept[center_pos]
            contexts = kept[ctx_pos[valid]]
            negatives = self.draw_negatives(rng, (len(kept), cfg.negatives))[center_pos]
            for lo in range(0, len(centers), _BATCH_PAIRS):
                batch = slice(lo, lo + _BATCH_PAIRS)
                in_rows, in_grads, out_rows, out_grads = sgns_batch_grads(
                    self.w_in, self.w_out, centers[batch], contexts[batch], negatives[batch]
                )
                self.w_in[in_rows] -= lr * in_grads
                self.w_out[out_rows] -= lr * out_grads


def train_sgns(corpus: Corpus, config: SgnsConfig) -> EmbeddingTable:
    """Skip-gram with negative sampling over the tokenized corpus.

    Training runs one sentence (one song's in-vocabulary tokens, after
    frequent-word subsampling) per batch: the sentence's (center, context)
    pairs and their negatives are drawn at once, one row of k noise words per
    center position, which all of that center's pairs share (Ji et al. 2016,
    "Parallelizing Word2Vec in Shared and Distributed Memory"). Every
    gradient is taken at the parameters as they stand at the start of the
    batch, and the summed row updates are applied together (see
    `sgns_batch_grads`). Sharing leaves fewer distinct noise rows for a batch
    to score. A sentence with more than 256 pairs is trained in consecutive
    batches of 256, which bounds memory and the size of one update. There is
    one code path, so a fixed seed gives bit-identical vectors. The table
    returned holds the float32 vectors that training updates.
    """
    state = _TrainState(corpus, config)
    for epoch in range(config.epochs):
        state.train_epoch(np.random.default_rng((config.seed, epoch)), epoch)
    return EmbeddingTable(dim=config.dim, vocab=state.vocab, vectors=state.w_in)

"""Word vectors: text-format load/save, cosine similarity, and a skip-gram
negative-sampling trainer over a tokenized corpus."""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from lyricstats.corpus import Corpus, token_counts


class EmbeddingError(Exception):
    pass


@dataclass(frozen=True)
class EmbeddingTable:
    dim: int
    vocab: dict  # word -> row index
    vectors: np.ndarray  # (V, dim) float64
    zero_words: frozenset = frozenset()  # flagged at load/train end, rejected in cosine

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
        if self.initial_learning_rate <= 0 or self.subsample_threshold <= 0:
            raise EmbeddingError("learning rate and subsample threshold must be positive")
        if self.seed < 0:
            raise EmbeddingError(f"seed must be >= 0, got {self.seed}")


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise EmbeddingError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise EmbeddingError("cosine undefined for a zero vector")
    return float(np.dot(u, v) / (nu * nv))


# rows whose numbers one np.loadtxt call parses: this bounds the text and the
# parsed block held besides the table
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
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return sum(1 for line in fh if line.strip())


def load_vectors(path: str) -> EmbeddingTable:
    """Parse the text vector format: optional "V D" header, then one word and
    D space-separated reals per line. A header must match the V rows of
    dimension D that follow it. Duplicate words: the word keeps the row of its
    first occurrence and takes the values of its last.

    Every row is parsed and checked, in blocks of rows (see `_parse_block`),
    into one table filled in place. The header gives the table's rows, or,
    without one, a first pass that counts them. So parsing holds one table and
    one block."""
    index: dict = {}  # word -> table row
    source: list[int] = []  # table row -> the file row its values come from
    dim: Optional[int] = None
    n_rows = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
                if n_rows + len(values) <= len(vectors):
                    vectors[n_rows : n_rows + len(values)] = values
                # else the header is wrong, or the file grew, which the checks below report
                for row, word in enumerate(words, start=n_rows):
                    i = index.setdefault(word, len(source))
                    if i == len(source):
                        source.append(row)
                    else:
                        source[i] = row
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
        vectors = vectors[source]
    vocab_words = list(index)
    zero = frozenset(vocab_words[i] for i in np.flatnonzero(~vectors.any(axis=1)))
    table = EmbeddingTable(dim=dim, vocab=index, vectors=vectors, zero_words=zero)
    if duplicates:
        import warnings

        warnings.warn(f"{path}: {duplicates} duplicate words, last occurrence kept")
    return table


def save_vectors(table: EmbeddingTable, path: str) -> None:
    # one % call per row; "%.6f" and "{:.6f}" share CPython's float formatter,
    # so the bytes match per-float formatting. The word stays out of the format
    # string because it may contain "%".
    row_format = " ".join(["%.6f"] * table.dim) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.vocab)} {table.dim}\n")
        for word, idx in sorted(table.vocab.items(), key=lambda kv: kv[1]):
            fh.write(f"{word} " + row_format % tuple(table.vectors[idx].tolist()))


# ---------------------------------------------------------------------------
# SGNS training


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def sgns_pair_loss(center: np.ndarray, context: np.ndarray, negatives: np.ndarray) -> float:
    """Negative log-likelihood for one (center, context, negatives) triple:
    -log sigma(c.x) - sum_neg log sigma(-c.n)."""
    loss = -np.log(_sigmoid(np.dot(center, context)))
    if len(negatives):
        loss -= np.sum(np.log(_sigmoid(-negatives @ center)))
    return float(loss)


def sgns_pair_grads(
    center: np.ndarray, context: np.ndarray, negatives: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of sgns_pair_loss w.r.t. center, context, and each
    negative vector."""
    g_pos = _sigmoid(np.dot(center, context)) - 1.0  # in (-1, 0)
    g_center = g_pos * context
    g_context = g_pos * center
    if len(negatives):
        g_negs_scal = _sigmoid(negatives @ center)  # in (0, 1)
        g_center = g_center + g_negs_scal @ negatives
        g_negatives = np.outer(g_negs_scal, center)
    else:
        g_negatives = np.zeros((0, len(center)))
    return g_center, g_context, g_negatives


def unigram_noise_probs(counts: Sequence[int], power: float = 0.75) -> np.ndarray:
    """Negative-sampling distribution: unigram counts raised to `power`."""
    arr = np.asarray(counts, dtype=float) ** power
    return arr / arr.sum()


def sgns_batch_grads(
    w_in: np.ndarray,
    w_out: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the summed sgns_pair_loss over a batch of pairs, all taken
    at the given parameters.

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
    coupling = np.bincount(cell, weights=weight, minlength=len(in_rows) * len(out_rows))
    coupling = coupling.reshape(len(in_rows), len(out_rows))
    return in_rows, coupling @ u, out_rows, coupling.T @ v


# pairs per kernel call: a longer sentence is trained in consecutive batches,
# which bounds the kernel's temporaries and how many summed updates one step
# applies at once (on 1000-token Zipf songs at dim 100 and lr 0.1, one batch per
# song blew the vectors up to |v| ~ 4e6; 256-pair batches kept them below 1)
_BATCH_PAIRS = 256


class _TrainState:
    """Vocabulary, noise table, and vector arrays during training."""

    def __init__(self, corpus: Corpus, config: SgnsConfig):
        counts = token_counts(corpus)
        kept = sorted(
            ((w, c) for w, c in counts.items() if c >= config.min_count),
            key=lambda kv: (-kv[1], kv[0]),
        )
        if not kept:
            raise EmbeddingError(f"empty vocabulary after min_count={config.min_count}")
        self.vocab = {w: i for i, (w, _) in enumerate(kept)}
        self.counts = np.array([c for _, c in kept], dtype=np.int64)
        self.noise_cdf = np.cumsum(unigram_noise_probs(self.counts))
        total = float(self.counts.sum())
        # keep probability per vocab word under frequent-word subsampling
        freq = self.counts / total
        self.keep_prob = np.minimum(1.0, np.sqrt(config.subsample_threshold / freq))
        self.sentences = [
            np.array([self.vocab[t] for line in song.lines for t in line if t in self.vocab], dtype=np.int64)
            for song in corpus
        ]
        self.n_positions = int(sum(len(s) for s in self.sentences))
        rng = np.random.default_rng(config.seed)
        self.w_in = (rng.random((len(kept), config.dim)) - 0.5) / config.dim
        self.w_out = np.zeros((len(kept), config.dim))
        self.offsets = np.concatenate((np.arange(-config.window, 0), np.arange(1, config.window + 1)))
        self.config = config

    def draw_negatives(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        """Noise-word indices of the given shape, from the unigram^0.75 table."""
        return np.searchsorted(self.noise_cdf, rng.random(size))

    def train_epoch(self, rng: np.random.Generator, epoch: int) -> None:
        cfg = self.config
        lr0 = cfg.initial_learning_rate
        lr_floor = 1e-4 * lr0
        total_positions = max(cfg.epochs * self.n_positions, 1)
        done = epoch * self.n_positions
        for sent in self.sentences:
            if len(sent) == 0:
                continue
            kept = sent[rng.random(len(sent)) < self.keep_prob[sent]]
            done += len(sent)
            if len(kept) < 2:
                continue
            lr = max(lr0 * (1.0 - done / total_positions), lr_floor)
            windows = rng.integers(1, cfg.window + 1, size=len(kept))
            # every (center, context) pair of the sentence, in position order
            ctx_pos = np.arange(len(kept))[:, None] + self.offsets
            valid = (np.abs(self.offsets) <= windows[:, None]) & (ctx_pos >= 0) & (ctx_pos < len(kept))
            centers = kept[np.nonzero(valid)[0]]
            contexts = kept[ctx_pos[valid]]
            negatives = self.draw_negatives(rng, (len(centers), cfg.negatives))
            for lo in range(0, len(centers), _BATCH_PAIRS):
                batch = slice(lo, lo + _BATCH_PAIRS)
                in_rows, in_grads, out_rows, out_grads = sgns_batch_grads(
                    self.w_in, self.w_out, centers[batch], contexts[batch], negatives[batch]
                )
                self.w_in[in_rows] -= lr * in_grads
                self.w_out[out_rows] -= lr * out_grads


def train_sgns(corpus: Corpus, config: SgnsConfig, epoch_callback=None) -> EmbeddingTable:
    """Skip-gram with negative sampling over the tokenized corpus.

    Training runs one sentence (one song's in-vocabulary tokens, after
    frequent-word subsampling) per batch: the sentence's (center, context)
    pairs and their negatives are drawn at once, every gradient is taken at
    the parameters as they stand at the start of the batch, and the summed
    row updates are applied together (see `sgns_batch_grads`). A sentence with
    more than 256 pairs is trained in consecutive batches of 256, which bounds
    memory and the size of one update. There is one code path, so a fixed seed
    gives bit-identical vectors. `epoch_callback(epoch, w_in, w_out)` runs
    after each epoch.
    """
    state = _TrainState(corpus, config)
    for epoch in range(config.epochs):
        state.train_epoch(np.random.default_rng((config.seed, epoch)), epoch)
        if epoch_callback is not None:
            epoch_callback(epoch, state.w_in, state.w_out)
    vectors = state.w_in.copy()
    zero = frozenset(w for w, i in state.vocab.items() if not np.any(vectors[i]))
    return EmbeddingTable(dim=config.dim, vocab=state.vocab, vectors=vectors, zero_words=zero)

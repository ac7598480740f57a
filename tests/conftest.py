import csv
import json

import numpy as np
import pytest

from lyricstats.corpus import SongRecord, ingest, tokenize
from lyricstats.embeddings import EmbeddingTable
from lyricstats.resources import mini_corpus_path


def make_record(song_id="s1", lyrics="la la\nla la", year=1990, cohort="other", duration=None):
    return SongRecord(id=song_id, year=year, cohort=cohort, duration_seconds=duration, lines=tokenize(lyrics))


def make_table(word_vectors: dict) -> EmbeddingTable:
    """Build an EmbeddingTable from {word: vector}."""
    vocab = {w: i for i, w in enumerate(word_vectors)}
    vectors = np.array([np.asarray(v, dtype=float) for v in word_vectors.values()])
    return EmbeddingTable(dim=vectors.shape[1], vocab=vocab, vectors=vectors)


def random_table(words, dim, rng) -> EmbeddingTable:
    return make_table({w: rng.normal(size=dim) for w in words})


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def jsonl_row(song_id="s1", **overrides):
    row = {
        "id": song_id,
        "title": "t",
        "artist": "a",
        "year": 1990,
        "duration_seconds": 200.0,
        "cohort": "other",
        "lyrics": "la la\nla la",
    }
    row.update(overrides)
    return row


@pytest.fixture(scope="session")
def mini_corpus():
    result = ingest(mini_corpus_path(), format="csv")
    assert not result.rejects
    return result.corpus


def read_cache(path):
    """The members of a corpus cache: its arrays by name, and its meta object."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    return arrays, json.loads(arrays.pop("meta").tobytes().decode("utf-8"))


def write_cache(path, arrays, meta):
    """A corpus cache holding the given members, as a hand-edited cache would."""
    meta_bytes = meta if isinstance(meta, bytes) else json.dumps(meta).encode("utf-8")
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(meta_bytes, dtype=np.uint8), **arrays)


def edit_cache(path, meta_edit=None, **arrays):
    """Rewrite the cache at `path` with some arrays replaced (None drops one)
    and its meta object passed through `meta_edit`."""
    old_arrays, meta = read_cache(path)
    new_arrays = {k: v for k, v in {**old_arrays, **arrays}.items() if v is not None}
    write_cache(path, new_arrays, meta_edit(meta) if meta_edit else meta)


def without_lines(song_offsets, song):
    """Song offsets under which `song` has no lines: the next song takes them."""
    edited = song_offsets.copy()
    edited[song + 1] = edited[song]
    return edited

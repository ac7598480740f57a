import json

import numpy as np
import pytest

from lyricstats.corpus import IngestConfig, SongRecord, TokenizeConfig, ingest, tokenize
from lyricstats.embeddings import EmbeddingTable
from lyricstats.resources import mini_corpus_path


def make_record(song_id="s1", lyrics="la la\nla la", year=1990, cohort="other", duration=None):
    return SongRecord(id=song_id, year=year, cohort=cohort, duration_seconds=duration, lines=tokenize(lyrics))


def make_table(word_vectors: dict) -> EmbeddingTable:
    """Build an EmbeddingTable from {word: vector}."""
    vocab = {w: i for i, w in enumerate(word_vectors)}
    vectors = np.array([np.asarray(v, dtype=float) for v in word_vectors.values()])
    zero = frozenset(w for w, i in vocab.items() if not np.any(vectors[i]))
    return EmbeddingTable(dim=vectors.shape[1], vocab=vocab, vectors=vectors, zero_words=zero)


def random_table(words, dim, rng) -> EmbeddingTable:
    return make_table({w: rng.normal(size=dim) for w in words})


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


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

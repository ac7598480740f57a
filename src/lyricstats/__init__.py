"""Corpus analytics for song lyrics: style metrics and embedding bias tests."""

from lyricstats.corpus import Corpus, IngestResult, SongRecord, ingest, select_songs, token_counts, tokenize
from lyricstats.embeddings import EmbeddingTable, SgnsConfig, load_vectors, save_vectors, train_sgns
from lyricstats.style import (
    StyleMetrics,
    aggregate,
    corpus_style_metrics,
    rank_series,
    top_words,
    year_rankings,
)
from lyricstats.weat import WeatResult, WeatTest, load_battery, run_battery

__version__ = "0.1.0"

"""Corpus analytics for song lyrics: style metrics and embedding bias tests."""

from lyricstats.corpus import (
    Corpus,
    IngestConfig,
    IngestResult,
    SongRecord,
    TokenizeConfig,
    ingest,
    token_counts,
    tokenize,
)
from lyricstats.embeddings import EmbeddingTable, SgnsConfig, cosine, load_vectors, save_vectors, train_sgns
from lyricstats.style import (
    StyleMetrics,
    aggregate,
    compute_style_metrics,
    corpus_style_metrics,
    fk_grade,
    rank_series,
    repetitiveness,
    speed,
    top_words,
    year_rankings,
)
from lyricstats.weat import (
    OovPolicy,
    WeatResult,
    WeatTest,
    association,
    effect_size,
    load_battery,
    permutation_p,
    run_battery,
    test_statistic,
)

__version__ = "0.1.0"

"""Walk through the style-analysis half of the library on the bundled
50-song mini-corpus: per-song metrics, year/cohort averages, top words,
and the year-wise rank comparison.

Run from the repo root:  python3 demos/style_analysis.py
"""

import numpy as np

from lyricstats.corpus import ingest, select_songs, token_counts
from lyricstats.resources import default_stopwords_path, default_swear_lexicon_path, mini_corpus_path
from lyricstats.style import (
    aggregate,
    corpus_style_metrics,
    load_swear_lexicon,
    load_wordlist,
    rank_series,
    top_words,
    year_rankings,
)

# --- ingest ----------------------------------------------------------------
result = ingest(mini_corpus_path(), format="csv")
corpus = result.corpus
print(f"ingested {len(corpus)} songs ({len(result.rejects)} rejects)")

# --- per-song metrics ------------------------------------------------------
lexicon = load_swear_lexicon(default_swear_lexicon_path())
metrics = corpus_style_metrics(corpus, lexicon)

print("\nfirst three songs:")
for i in range(3):
    spd = "no duration" if np.isnan(metrics.speed_wps[i]) else f"{metrics.speed_wps[i]:.2f} w/s"
    print(
        f"  {metrics.song_id[i]}: {metrics.length_words[i]} words, {spd}, "
        f"repetitiveness {metrics.repetitiveness_pct[i]:.0f}%, FK grade {metrics.fk_grade[i]:.2f}, "
        f"{metrics.swear_count[i]} swears"
    )

# --- year/cohort averages (the data behind length/duration/speed plots) ----
# one column per field; NaN stands for a missing duration
aggs = aggregate(metrics)
print("\nyear-wise averages:")
print(f"{'year':>6} {'cohort':>8} {'n':>3} {'len':>6} {'speed':>6} {'rep%':>6} {'FK':>6}")
for year, cohort, n, length, speed, rep, fk in zip(
    aggs.year, aggs.cohort, aggs.song_count, aggs.mean_length_words,
    aggs.mean_speed_wps, aggs.mean_repetitiveness_pct, aggs.mean_fk_grade,
):
    spd = "-" if np.isnan(speed) else f"{speed:.2f}"
    print(f"{year:>6} {cohort:>8} {n:>3} {length:>6.1f} {spd:>6} {rep:>6.1f} {fk:>6.2f}")

# --- top words per year ----------------------------------------------------
# one count and one sort per year serve both the top words and the ranks
rankings = year_rankings(corpus, cohort="popular")
stopwords = load_wordlist(default_stopwords_path())
print("\ntop 5 words, popular songs:")
for year, ranked in rankings.items():
    words = top_words(ranked, 5, stopwords)
    print(f"  {year}: {', '.join(words)}")

# --- rank comparison: how two words trade places over the years ------------
print("\nrank of 'rock' vs 'blues' in popular lyrics (1 = most frequent):")
for word, ranks in rank_series(rankings, ["rock", "blues"]).items():
    entries = ", ".join(f"{y}:{r}" for y, r in ranks.items())
    print(f"  {word}: {entries or 'never seen'}")

# sanity: counts really are exact multiset counts, one per vocabulary id
popular_1965 = select_songs(corpus, "popular", 1965)
counts_1965 = token_counts(corpus, popular_1965)
print(f"\n1965 popular vocabulary: {np.count_nonzero(counts_1965)} distinct words")

"""Walk through the style-analysis half of the library on the bundled
50-song mini-corpus: per-song metrics, year/cohort averages, top words,
and the year-wise rank comparison.

Run from the repo root:  python3 demos/style_analysis.py
"""

from lyricstats.corpus import ingest, token_counts
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
for m in metrics[:3]:
    spd = f"{m.speed_wps:.2f} w/s" if m.speed_wps is not None else "no duration"
    print(
        f"  {m.song_id}: {m.length_words} words, {spd}, "
        f"repetitiveness {m.repetitiveness_pct:.0f}%, FK grade {m.fk_grade:.2f}, "
        f"{m.swear_count} swears"
    )

# --- year/cohort averages (the data behind length/duration/speed plots) ----
print("\nyear-wise averages:")
print(f"{'year':>6} {'cohort':>8} {'n':>3} {'len':>6} {'speed':>6} {'rep%':>6} {'FK':>6}")
for agg in aggregate(corpus, metrics):
    spd = f"{agg.mean_speed_wps:.2f}" if agg.mean_speed_wps is not None else "-"
    print(
        f"{agg.year:>6} {agg.cohort:>8} {agg.song_count:>3} "
        f"{agg.mean_length_words:>6.1f} {spd:>6} "
        f"{agg.mean_repetitiveness_pct:>6.1f} {agg.mean_fk_grade:>6.2f}"
    )

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
for series in rank_series(rankings, ["rock", "blues"]):
    entries = ", ".join(f"{y}:{r}" for y, r in sorted(series.entries.items()))
    print(f"  {series.word}: {entries or 'never seen'}")

# sanity: counts really are exact multiset counts
counts_1965 = token_counts(s for s in corpus if s.year == 1965 and s.cohort == "popular")
print(f"\n1965 popular vocabulary: {len(counts_1965)} distinct words")

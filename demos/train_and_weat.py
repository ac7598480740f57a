"""Train skip-gram negative-sampling vectors on a small synthetic corpus and
measure bias with the WEAT battery.

The corpus is built so that male terms co-occur with career words and female
terms with family words; the career/family WEAT test should then report a
positive effect size. The name-based tests are expected to fail with an
under-filled-list error because the tiny vocabulary cannot cover them.

Run from the repo root:  python3 demos/train_and_weat.py
"""

import random

from lyricstats.corpus import Corpus, SongRecord, tokenize
from lyricstats.embeddings import SgnsConfig, cosine, train_sgns
from lyricstats.resources import default_battery_path
from lyricstats.weat import load_battery, run_battery

# --- build a corpus with a planted career/family gender association ---------
rng = random.Random(13)
MALE = ["john", "paul", "mike", "kevin", "steve", "greg", "jeff", "bill"]
FEMALE = ["amy", "joan", "lisa", "sarah", "diana", "kate", "ann", "donna"]
CAREER = ["executive", "management", "professional", "corporation", "salary", "office", "business", "career"]
FAMILY = ["home", "parents", "children", "family", "cousins", "marriage", "wedding", "relatives"]
FILLER = ["the", "a", "and", "was", "with", "of", "day", "long"]


def sentence(names, topics):
    words = []
    for _ in range(12):
        r = rng.random()
        if r < 0.35:
            words.append(rng.choice(names))
        elif r < 0.7:
            words.append(rng.choice(topics))
        else:
            words.append(rng.choice(FILLER))
    return " ".join(words)


records = []
for i in range(400):
    biased = (MALE, CAREER) if i % 2 == 0 else (FEMALE, FAMILY)
    lyrics = "\n".join(sentence(*biased) for _ in range(6))
    records.append(SongRecord(id=f"d{i}", year=2000, cohort="other", duration_seconds=None, lines=tokenize(lyrics)))
corpus = Corpus(records=tuple(records))

# --- train ------------------------------------------------------------------
config = SgnsConfig(dim=32, window=5, negatives=5, epochs=5, min_count=5, seed=42)
table = train_sgns(corpus, config)
print(f"trained {len(table)} vectors of dim {table.dim}")
print(f"cos(john, career)  = {cosine(table.get('john'), table.get('career')):+.3f}")
print(f"cos(john, family)  = {cosine(table.get('john'), table.get('family')):+.3f}")
print(f"cos(donna, career) = {cosine(table.get('donna'), table.get('career')):+.3f}")
print(f"cos(donna, family) = {cosine(table.get('donna'), table.get('family')):+.3f}")

# --- run the eight-test battery --------------------------------------------
tests = load_battery(default_battery_path())
results = run_battery(tests, table, p_mode="monte_carlo", n_samples=10_000, seed=7)

print(f"\n{'test':<55} {'effect':>8} {'p':>8}")
for r in results:
    if r.error:
        print(f"{r.test_name:<55} {'-':>8} {'-':>8}  ({r.error.split(':')[-1].strip()})")
    else:
        print(f"{r.test_name:<55} {r.effect_size:>8.3f} {r.p_value:>8.4f}")

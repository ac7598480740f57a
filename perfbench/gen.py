"""Seeded inputs for the three benchmark workloads, and a record of what was planted.

Every input is a pure function of (workload, seed): the same seed gives
byte-identical files. The program under test only ever sees the data files
(songs.jsonl, table.npz); the manifest and the count tables are the
benchmark's own answer key.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import unicodedata

import numpy as np

STYLE_SONGS = 3000
STYLE_YEARS = (1965, 2014)  # 50 years
STYLE_VOCAB = 20_000
ZIPF_EXPONENT = 1.07
POPULAR_SHARE = 0.10
NO_DURATION_SHARE = 0.10
DIRTY_SHARE = 0.01
DECORATED_SHARE = 0.15  # tokens carrying edge punctuation, a capital or a decomposed accent
RANK_WORD_RANKS = (40, 400, 4000)  # frequent, mid and rare words for --words

TRAIN_SONGS = 500
TRAIN_FILLER = 300
TRAIN_MIN_COUNT = 5  # the CLI default the train workload runs with
TRAIN_DIM = 50

VECTORS_ROWS = 6000
VECTORS_DIM = 300

# head of the style vocabulary: common lyric function words, so that top_words
# has stopwords to skip, and lexicon words, so that swear counts are non-zero
HEAD_WORDS = (
    "i you the and me a to my it in love we your on oh be all that is for yeah "
    "so baby no just don't know now like can't get go up down with what this "
    "damn hell crap shit"
).split()

_ONSETS = "b c d f g h j k l m n p r s t v w z br ch dr fl gr pl sh st th tr".split()
_VOWELS = "a e i o u a e i o u ai ea ou é ó ü á".split()
_CODAS = ["", "", "", "n", "r", "s", "l", "m", "nd", "st", "ñ"]
_PREFIXES = ["(", '"', "'", "¿", "¡", "…", "*"]
_SUFFIXES = [",", ".", "!", "?", "...", '"', ")", ";", ":", "!!", "'", "-"]


def _synthetic_words(rng: np.random.Generator, n: int, taken: set[str]) -> list[str]:
    """n distinct lowercase NFC words whose first and last characters are alphanumeric,
    with some accents, interior apostrophes and hyphens."""
    words: list[str] = []
    while len(words) < n:
        parts = []
        for _ in range(int(rng.integers(1, 4))):
            parts.append(_ONSETS[rng.integers(len(_ONSETS))] + _VOWELS[rng.integers(len(_VOWELS))])
        word = "".join(parts) + _CODAS[rng.integers(len(_CODAS))]
        roll = rng.random()
        if roll < 0.02 and len(word) > 3:
            word = word[:2] + "'" + word[2:]
        elif roll < 0.04 and len(word) > 3:
            word = word[:3] + "-" + word[3:]
        word = unicodedata.normalize("NFC", word)
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _zipf_cdf(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _sample(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), len(cdf) - 1)


def _surface(rng: np.random.Generator, word: str, line_start: bool) -> str:
    """A raw-text spelling of `word` that the tokenizer maps back to `word`."""
    roll = rng.random()
    if line_start and roll < 0.5:
        word = word[0].upper() + word[1:]
    if rng.random() >= DECORATED_SHARE:
        return word
    kind = rng.integers(3)
    if kind == 0:
        return word + _SUFFIXES[rng.integers(len(_SUFFIXES))]
    if kind == 1:
        return _PREFIXES[rng.integers(len(_PREFIXES))] + word
    if not word.isascii():
        return unicodedata.normalize("NFD", word)
    return word.upper()


def _render_line(rng: np.random.Generator, words: list[str]) -> str:
    out = [_surface(rng, w, i == 0) for i, w in enumerate(words)]
    if rng.random() < 0.03 and len(out) > 1:
        out.insert(1, "—")  # a token of punctuation only, which the tokenizer drops
    return " ".join(out)


def _write_jsonl(path: str, rows: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row if isinstance(row, str) else json.dumps(row, ensure_ascii=False))
            fh.write("\n")


def _song_row(i: int, year: int, cohort: str, duration, lyrics: str) -> dict:
    return {
        "id": f"song{i:06d}",
        "title": f"title {i}",
        "artist": f"artist {i % 97}",
        "year": year,
        "duration_seconds": duration,
        "cohort": cohort,
        "lyrics": lyrics,
    }


def generate_style(seed: int, out_dir: str, n_songs: int = STYLE_SONGS) -> dict:
    """Zipf-vocabulary songs over 50 years with repeated lines, decorated tokens,
    annotation lines, missing durations and about 1% malformed rows.

    Writes songs.jsonl (the program's input), oracle.csv (the valid songs as the
    style oracle reads them) and counts.npz (token counts per (year, cohort)).
    """
    rng = np.random.default_rng([seed, 1])
    taken = set(HEAD_WORDS)
    vocab = list(HEAD_WORDS) + _synthetic_words(rng, STYLE_VOCAB - len(HEAD_WORDS), taken)
    cdf = _zipf_cdf(len(vocab))
    first_year, last_year = STYLE_YEARS
    years = np.arange(first_year, last_year + 1)

    # all unique lines of all songs are drawn in one bulk sample
    n_unique = rng.integers(8, 16, size=n_songs)
    line_lens = rng.integers(4, 12, size=int(n_unique.sum()))
    token_ids = _sample(rng, cdf, int(line_lens.sum()))
    line_starts = np.concatenate([[0], np.cumsum(line_lens)])
    song_years = years[rng.integers(len(years), size=n_songs)]
    song_popular = rng.random(n_songs) < POPULAR_SHARE
    durations = np.round(rng.uniform(120.0, 360.0, size=n_songs), 1)
    no_duration = rng.random(n_songs) < NO_DURATION_SHARE

    cells = [(int(y), c) for y in years for c in ("other", "popular")]
    cell_index = {cell: k for k, cell in enumerate(cells)}
    cell_ids: list[list[np.ndarray]] = [[] for _ in cells]
    songs: list[dict] = []
    annotation_lines = 0
    line_cursor = 0
    for s in range(n_songs):
        k = int(n_unique[s])
        lines = [token_ids[line_starts[j]:line_starts[j + 1]] for j in range(line_cursor, line_cursor + k)]
        line_cursor += k
        n_chorus = int(rng.integers(2, 4))
        chorus, verses = list(range(n_chorus)), list(range(n_chorus, k))
        half = len(verses) // 2
        sections = [("[Verse 1]", verses[:half]), ("[Chorus]", chorus), ("[Verse 2]", verses[half:]),
                    ("[Chorus]", chorus), ("[Outro]", chorus[:1])]
        annotate = rng.random() < 0.3
        text_lines: list[str] = []
        order: list[int] = []
        for label, section in sections:
            if not section:
                continue
            if annotate:
                text_lines.append(label)
                annotation_lines += 1
            for j in section:
                text_lines.append(_render_line(rng, [vocab[t] for t in lines[j]]))
                order.append(j)
            if rng.random() < 0.5:
                text_lines.append("")
        year, cohort = int(song_years[s]), ("popular" if song_popular[s] else "other")
        duration = None if no_duration[s] else float(durations[s])
        songs.append(_song_row(s, year, cohort, duration, "\n".join(text_lines)))
        cell_ids[cell_index[(year, cohort)]].append(np.concatenate([lines[j] for j in order]))

    # malformed rows, each placed right after the song it is derived from, so
    # that a repeated id always comes after the original
    n_dirty = max(3, int(round(DIRTY_SHARE * n_songs)))
    anchors = rng.choice(n_songs, size=n_dirty, replace=False)
    dirty_after: dict[int, list] = {}
    dirty = []
    for d, anchor in enumerate(anchors.tolist()):
        kind = ("bad_json", "year_out_of_range", "duplicate_id")[d % 3]
        bad = dict(songs[anchor], id=f"bad{d:04d}", lyrics="la la la\nla la")
        if kind == "bad_json":
            text = json.dumps(bad, ensure_ascii=False)
            row = text[: len(text) // 2]
        elif kind == "year_out_of_range":
            row = dict(bad, year=int(rng.choice([1850, 2150])))
        else:
            row = dict(bad, id=songs[anchor]["id"])
        dirty_after.setdefault(anchor, []).append(row)
        dirty.append({"kind": kind, "id": row["id"] if isinstance(row, dict) else bad["id"]})
    rows = []
    for s, song in enumerate(songs):
        rows.append(song)
        rows.extend(dirty_after.get(s, []))

    os.makedirs(out_dir, exist_ok=True)
    _write_jsonl(os.path.join(out_dir, "songs.jsonl"), rows)
    with open(os.path.join(out_dir, "oracle.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "title", "artist", "year", "duration_seconds", "cohort", "lyrics"])
        for song in songs:
            duration = "" if song["duration_seconds"] is None else song["duration_seconds"]
            writer.writerow([song["id"], song["title"], song["artist"], song["year"], duration,
                             song["cohort"], song["lyrics"].replace("\n", "\\n")])
    # sparse token counts: one (cell, word, count) column per non-zero entry
    counts = []
    for k, ids in enumerate(cell_ids):
        if ids:
            per_word = np.bincount(np.concatenate(ids), minlength=len(vocab))
            nz = np.flatnonzero(per_word)
            counts.append(np.stack([np.full(len(nz), k), nz, per_word[nz]]))
    counts = np.concatenate(counts, axis=1).astype(np.int64)
    np.save(os.path.join(out_dir, "counts.npy"), counts)
    _write_json(os.path.join(out_dir, "counts_index.json"),
                {"vocab": vocab, "cells": [[y, c] for y, c in cells]})
    return {
        "workload": "style",
        "seed": seed,
        "songs": n_songs,
        "dirty_rows": dirty,
        "annotation_lines": annotation_lines,
        "rank_words": [vocab[r] for r in RANK_WORD_RANKS if r < len(vocab)],
        "tokens": int(counts[2].sum()),
    }


def battery_poles(battery_path: str) -> tuple[list[str], list[str]]:
    """The planted association: every X and A word in one pole, every Y and B word
    in the other. A word listed on both sides of the battery sits in both."""
    with open(battery_path, encoding="utf-8") as fh:
        battery = json.load(fh)
    first = sorted({w for t in battery for w in (*t["targets_x"], *t["attributes_a"])})
    second = sorted({w for t in battery for w in (*t["targets_y"], *t["attributes_b"])})
    return first, second


def generate_train(seed: int, out_dir: str, battery_path: str, n_songs: int = TRAIN_SONGS) -> dict:
    """Songs that each draw 70% of their tokens from one pole of the WEAT battery
    and the rest from Zipf filler, so that trained vectors carry X~A and Y~B."""
    rng = np.random.default_rng([seed, 2])
    poles = battery_poles(battery_path)
    taken = set(poles[0]) | set(poles[1])
    filler = _synthetic_words(rng, TRAIN_FILLER, taken)
    filler_cdf = _zipf_cdf(len(filler))
    counts: dict[str, int] = {}
    songs = []
    for s in range(n_songs):
        pole = poles[s % 2]
        lines = []
        for length in rng.integers(6, 11, size=int(rng.integers(4, 7))).tolist():
            from_pole = rng.random(length) < 0.7
            pole_ids = rng.integers(len(pole), size=length)
            filler_ids = _sample(rng, filler_cdf, length)
            words = [pole[p] if f else filler[q] for f, p, q in zip(from_pole, pole_ids, filler_ids)]
            for w in words:
                counts[w] = counts.get(w, 0) + 1
            lines.append(" ".join(words))
        year = 1965 + s % 50
        songs.append(_song_row(s, year, "popular" if s % 10 == 0 else "other",
                               float(np.round(rng.uniform(120.0, 360.0), 1)), "\n".join(lines)))
    os.makedirs(out_dir, exist_ok=True)
    _write_jsonl(os.path.join(out_dir, "songs.jsonl"), songs)
    in_vocab = {w: c for w, c in counts.items() if c >= TRAIN_MIN_COUNT}
    return {
        "workload": "train",
        "seed": seed,
        "songs": n_songs,
        "dirty_rows": [],
        "poles": poles,
        "dim": TRAIN_DIM,
        "vocab_size": len(in_vocab),
        "in_vocab_tokens": sum(in_vocab.values()),
        "tokens": sum(counts.values()),
    }


def generate_vectors(seed: int, out_dir: str, battery_path: str,
                     rows: int = VECTORS_ROWS, dim: int = VECTORS_DIM) -> dict:
    """A rows x dim table holding every battery word, with the poles planted along
    one direction, saved as words.json and vectors.npy."""
    rng = np.random.default_rng([seed, 3])
    poles = battery_poles(battery_path)
    battery_words = sorted(set(poles[0]) | set(poles[1]))
    words = battery_words + _synthetic_words(rng, rows - len(battery_words), set(battery_words))
    words = [words[i] for i in rng.permutation(rows)]
    vectors = rng.normal(scale=0.1, size=(rows, dim))
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    index = {w: i for i, w in enumerate(words)}
    for sign, pole in ((1.0, poles[0]), (-1.0, poles[1])):
        vectors[[index[w] for w in pole]] += sign * 0.5 * direction
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "words.json"), words)
    np.save(os.path.join(out_dir, "vectors.npy"), vectors)
    return {"workload": "vectors", "seed": seed, "rows": rows, "dim": dim, "poles": poles}


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, ensure_ascii=False, sort_keys=True)


def ensure_inputs(workload: str, seed: int, cache_dir: str, battery_path: str) -> tuple[str, dict]:
    """Generate the inputs for (workload, seed) once; later calls reuse them.

    Returns the input directory and its manifest."""
    out_dir = os.path.join(cache_dir, f"{workload}-{seed}")
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        shutil.rmtree(out_dir, ignore_errors=True)
        if workload == "style":
            manifest = generate_style(seed, out_dir)
        elif workload == "train":
            manifest = generate_train(seed, out_dir, battery_path)
        elif workload == "vectors":
            manifest = generate_vectors(seed, out_dir, battery_path)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        _write_json(manifest_path + ".tmp", manifest)
        os.replace(manifest_path + ".tmp", manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        return out_dir, json.load(fh)

"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Criterion 1 needs an external reference vector file (see
README); criterion 7 generates ~800 MB of scratch data and is marked slow."""

import csv
import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from lyricstats.cli import main
from lyricstats.corpus import ingest
from lyricstats.embeddings import (
    SgnsConfig,
    _TrainState,
    load_vectors,
    save_vectors,
    train_sgns,
    unigram_noise_probs,
)
from lyricstats.resources import default_battery_path, default_swear_lexicon_path, mini_corpus_path
from lyricstats.style import corpus_style_metrics, load_swear_lexicon
from lyricstats.weat import WeatTest, load_battery, run_battery
from tests.conftest import make_record, make_table, random_table
from tests.sgns_reference import sgns_pair_grads, sgns_pair_loss
from tests.test_embeddings import corpus_from_token_lists, two_cluster_corpus
from tests.test_style import lyric, metrics_of
from tests.test_weat import brute_force_p, combinations_p, pooled_scores, random_weat

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# published reference effect sizes for the eight bundled tests, measured on a
# large web-crawl corpus
REFERENCE_EFFECT_SIZES = [1.5, 1.53, 1.41, 1.81, 1.06, 1.24, 1.38, 1.21]

REFERENCE_VECTORS_ENV = "LYRICSTATS_REFERENCE_VECTORS"


def report(criterion, name):
    print(f"\nACCEPTANCE {criterion} ({name}): PASS", flush=True)


def test_criterion_1_weat_reference_reproduction():
    path = os.environ.get(REFERENCE_VECTORS_ENV)
    if not path:
        pytest.skip(
            f"set {REFERENCE_VECTORS_ENV} to a pre-trained web-crawl vector file "
            "(text format) to run the reference reproduction; this sandbox has no "
            "way to download one"
        )
    table = load_vectors(path)
    tests = load_battery(default_battery_path())
    start = time.perf_counter()
    results = run_battery(tests, table, n_samples=10_000, seed=97)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert len(results) == 8
    for result, reference in zip(results, REFERENCE_EFFECT_SIZES):
        assert result.error is None, result.error
        assert result.effect_size > 0
        assert abs(result.effect_size - reference) <= 0.25
    report(1, "WEAT reference reproduction")


def test_criterion_2_exact_permutation_oracle():
    rng = np.random.default_rng(202)
    for n in range(2, 7):  # all test sizes 2n <= 12
        for _ in range(4):
            test, table = random_weat(rng, n_targets=n, n_attrs=3)
            assert run_battery([test], table)[0].p_value == brute_force_p(pooled_scores(test, table), n)
    # Monte Carlo at 100,000 samples, fewer than the C(20, 10) = 184,756
    # partitions of 10 targets a side, against the enumerated p-value
    test, table = random_weat(rng, n_targets=10, n_attrs=3)
    p_exact = combinations_p(pooled_scores(test, table), 10)
    n_samples = 100_000
    [sampled] = run_battery([test], table, n_samples=n_samples, seed=5)
    assert sampled.p_method.startswith("monte_carlo")
    assert abs(sampled.p_value - p_exact) <= 3 * math.sqrt(p_exact * (1 - p_exact) / n_samples)
    report(2, "exact permutation oracle")


def test_criterion_3_weat_property_suite():
    rng = np.random.default_rng(303)
    for _ in range(50):
        test, table = random_weat(rng, n_targets=3, n_attrs=3)
        swap_t = WeatTest("t", test.targets_y, test.targets_x, test.attributes_a, test.attributes_b)
        swap_a = WeatTest("a", test.targets_x, test.targets_y, test.attributes_b, test.attributes_a)
        r, r_t, r_a = run_battery([test, swap_t, swap_a], table)
        d, s, p = r.effect_size, r.test_statistic, r.p_value
        assert abs(r_t.effect_size + d) <= 1e-12
        assert abs(r_a.effect_size + d) <= 1e-12
        assert abs(r_t.test_statistic + s) <= 1e-12
        scaled = make_table({w: 3.25 * table.get(w) for w in table.vocab})
        [r_scaled] = run_battery([test], scaled)
        assert abs(r_scaled.effect_size - d) <= 1e-12
        assert abs(r_scaled.test_statistic - s) <= 1e-12
        assert abs(r_scaled.p_value - p) <= 1e-12
    for _ in range(1000):
        test, table = random_weat(rng, n_targets=int(rng.integers(2, 6)), n_attrs=2, dim=4)
        assert abs(run_battery([test], table)[0].effect_size) <= 2.0 + 1e-12
    report(3, "WEAT property suite")


def test_criterion_4_style_golden_values():
    assert metrics_of(lyric("la la\nda da\nla la\nda da")).repetitiveness_pct[0] == 50.0
    assert metrics_of(lyric("one two\nthree four\nfive six")).repetitiveness_pct[0] == 0.0
    assert metrics_of(lyric("la la\n" * 5)).repetitiveness_pct[0] == pytest.approx(80.0, abs=1e-12)
    song = make_record(lyrics=" ".join(["la"] * 144), duration=240.0)
    assert metrics_of(song).speed_wps[0] == pytest.approx(0.6, abs=1e-12)
    assert metrics_of(lyric("the cat sat")).fk_grade[0] == pytest.approx(-2.62, abs=1e-9)
    text = "crazy money story little dreams summer night gold rain moon"
    assert metrics_of(lyric(text)).fk_grade[0] == pytest.approx(6.01, abs=1e-9)
    report(4, "style metric golden tests")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _compare_csv(got_path, want_path, tol=1e-9):
    got, want = _read_csv(got_path), _read_csv(want_path)
    assert len(got) == len(want)
    for grow, wrow in zip(got, want):
        assert len(grow) == len(wrow)
        for gcell, wcell in zip(grow, wrow):
            try:
                assert abs(float(gcell) - float(wcell)) <= tol
            except ValueError:
                assert gcell == wcell


def test_criterion_5_end_to_end_oracle(tmp_path):
    start = time.perf_counter()
    build = tmp_path / "build"
    style_out = tmp_path / "style"
    assert main(["ingest", "--input", mini_corpus_path(), "--format", "csv", "--out", str(build)]) == 0
    assert main(["style", "--cache", str(build / "corpus.cache"), "--out", str(style_out)]) == 0
    elapsed = time.perf_counter() - start
    oracle_out = tmp_path / "oracle"
    subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "recompute_style.py"),
         mini_corpus_path(), str(oracle_out)],
        check=True,
    )
    _compare_csv(style_out / "per_song.csv", oracle_out / "per_song.csv")
    _compare_csv(style_out / "aggregate.csv", oracle_out / "aggregate.csv")
    assert elapsed < 5.0
    report(5, "end-to-end oracle on mini-corpus")


def test_criterion_6_sgns_verification(tmp_path):
    # analytic gradient vs central finite differences
    rng = np.random.default_rng(606)
    center = rng.normal(scale=0.5, size=10)
    context = rng.normal(scale=0.5, size=10)
    negatives = rng.normal(scale=0.5, size=(4, 10))
    g_c, g_ctx, g_negs = sgns_pair_grads(center, context, negatives)
    h = 1e-6
    for arr, grad, rebuild in (
        (center, g_c, lambda v: sgns_pair_loss(v, context, negatives)),
        (context, g_ctx, lambda v: sgns_pair_loss(center, v, negatives)),
        (negatives, g_negs, lambda v: sgns_pair_loss(center, context, v)),
    ):
        flat = arr.ravel()
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            plus, minus = flat.copy(), flat.copy()
            plus[i] += h
            minus[i] -= h
            numeric[i] = (rebuild(plus.reshape(arr.shape)) - rebuild(minus.reshape(arr.shape))) / (2 * h)
        rel = np.abs(grad.ravel() - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert np.max(rel) <= 1e-4

    # negative-sampling frequencies vs unigram^0.75, 3 standard errors per word
    corpus = corpus_from_token_lists([["a"] * 40 + ["b"] * 20 + ["c"] * 8 + ["d"] * 2] * 5)
    state = _TrainState(corpus, SgnsConfig(dim=4, min_count=1, seed=1))
    probs = unigram_noise_probs(state.counts)
    n = 1_000_000
    draws = state.draw_negatives(np.random.default_rng(60), n)
    freqs = np.bincount(draws, minlength=len(probs)) / n
    assert np.all(np.abs(freqs - probs) <= 3 * np.sqrt(probs * (1 - probs) / n))

    # two-cluster toy corpus separates after 5 epochs at a fixed seed
    cluster_corpus, clusters = two_cluster_corpus(np.random.default_rng(61))
    table = train_sgns(
        cluster_corpus,
        SgnsConfig(dim=16, window=4, min_count=1, epochs=5, seed=62, subsample_threshold=1.0),
    )
    unit = table.vectors / np.linalg.norm(table.vectors, axis=1, keepdims=True)
    sims = unit @ unit.T
    idx = [[table.vocab[w] for w in cluster] for cluster in clusters]
    within = np.mean([sims[i, j] for group in idx for i in group for j in group if i < j])
    across = np.mean([sims[i, j] for i in idx[0] for j in idx[1]])
    assert within > across

    # deterministic mode is byte-identical across runs
    files = []
    for name in ("v1.txt", "v2.txt"):
        t = train_sgns(cluster_corpus, SgnsConfig(dim=8, min_count=1, epochs=2, seed=63))
        out = tmp_path / name
        save_vectors(t, str(out))
        files.append(out.read_bytes())
    assert files[0] == files[1]
    report(6, "SGNS verification")


@pytest.mark.slow
def test_criterion_7_throughput_half_million_songs(tmp_path):
    n_songs = 500_000
    chunk_songs = 25_000
    vocab = [f"word{i}" for i in range(800)]
    lexicon = load_swear_lexicon(default_swear_lexicon_path())
    rng = random.Random(7)

    def write_chunk(path, start, count):
        with open(path, "w") as fh:
            for i in range(start, start + count):
                lines = [
                    " ".join(rng.choice(vocab) for _ in range(10)) for _ in range(30)
                ]
                row = {
                    "id": f"s{i}",
                    "title": "t",
                    "artist": "a",
                    "year": 1965 + i % 50,
                    "duration_seconds": 180.0 + i % 120,
                    "cohort": "popular" if i % 50 == 0 else "other",
                    "lyrics": "\n".join(lines),
                }
                fh.write(json.dumps(row) + "\n")

    total_metrics = 0
    elapsed = 0.0
    for start in range(0, n_songs, chunk_songs):
        chunk_path = tmp_path / "chunk.jsonl"
        write_chunk(chunk_path, start, chunk_songs)
        t0 = time.perf_counter()
        result = ingest(str(chunk_path), format="jsonl")
        metrics = corpus_style_metrics(result.corpus, lexicon)
        elapsed += time.perf_counter() - t0
        total_metrics += len(metrics.song_id)
        os.remove(chunk_path)
    assert total_metrics == n_songs
    assert elapsed < 600.0, f"styled {total_metrics} songs in {elapsed:.1f}s"
    print(f"\nthroughput: {total_metrics} songs in {elapsed:.1f}s")
    report(7, "throughput budget")

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import lyricstats.weat as weat
from lyricstats import permutation
from lyricstats.embeddings import EmbeddingTable, load_vectors, save_vectors
from lyricstats.resources import default_battery_path
from lyricstats.weat import (
    WeatError,
    WeatTest,
    _scores,
    apply_oov_policy,
    load_battery,
    run_battery,
)
from tests.conftest import make_table, random_table
from tests.sgns_reference import cosine


def brute_force_p(pooled, n, inclusive=False):
    """Independent enumerator: every n-subset of the pooled scores is an X side."""
    idx_all = range(len(pooled))
    total = sum(pooled)

    def stat(subset):
        sx = sum(pooled[i] for i in subset)
        return 2 * sx - total

    observed = stat(tuple(range(n)))
    count = parts = 0
    for mask in range(1 << len(pooled)):
        subset = [i for i in idx_all if mask >> i & 1]
        if len(subset) != n:
            continue
        parts += 1
        s = stat(subset)
        if s > observed or (inclusive and s == observed):
            count += 1
    return count / parts


def combinations_p(pooled, n, inclusive=False):
    """Independent enumerator over itertools.combinations, with exactly rounded sums."""
    total = math.fsum(pooled)

    def stat(subset):
        return 2 * math.fsum(pooled[i] for i in subset) - total

    observed = stat(range(n))
    stats = [stat(subset) for subset in combinations(range(len(pooled)), n)]
    return sum(s > observed or (inclusive and s == observed) for s in stats) / len(stats)


def symmetric_table(n_targets=2):
    """X words identical to attribute direction a, Y words identical to b."""
    vecs = {"attr_a": [1.0, 0.0], "attr_b": [0.0, 1.0]}
    for i in range(n_targets):
        vecs[f"x{i}"] = [1.0, 0.0]
        vecs[f"y{i}"] = [0.0, 1.0]
    return make_table(vecs)


def symmetric_test(n_targets=2):
    return WeatTest(
        name="symmetric",
        targets_x=tuple(f"x{i}" for i in range(n_targets)),
        targets_y=tuple(f"y{i}" for i in range(n_targets)),
        attributes_a=("attr_a", "attr_a"),
        attributes_b=("attr_b", "attr_b"),
    )


def random_weat(rng, n_targets=4, n_attrs=3, dim=6):
    words = (
        [f"x{i}" for i in range(n_targets)]
        + [f"y{i}" for i in range(n_targets)]
        + [f"a{i}" for i in range(n_attrs)]
        + [f"b{i}" for i in range(n_attrs)]
    )
    table = random_table(words, dim, rng)
    test = WeatTest(
        name="random",
        targets_x=tuple(f"x{i}" for i in range(n_targets)),
        targets_y=tuple(f"y{i}" for i in range(n_targets)),
        attributes_a=tuple(f"a{i}" for i in range(n_attrs)),
        attributes_b=tuple(f"b{i}" for i in range(n_attrs)),
    )
    return test, table


def cosine_association(w, attributes_a, attributes_b, table):
    """Independent oracle: the mean cosine of w to the A words minus its mean
    cosine to the B words, one cosine at a time."""
    return (np.mean([cosine(table.get(w), table.get(a)) for a in attributes_a])
            - np.mean([cosine(table.get(w), table.get(b)) for b in attributes_b]))


class TestAssociation:
    """Each check reads the first target's pooled score from `_scores`."""

    def test_identical_to_a_orthogonal_to_b(self):
        table = make_table(
            {"w": [1.0, 0.0], "v": [0.0, 1.0], "a1": [1.0, 0.0], "a2": [2.0, 0.0], "b1": [0.0, 1.0], "b2": [0.0, 3.0]}
        )
        s, _ = _scores("t", ["w", "v"], ["v", "w"], ["a1", "a2"], ["b1", "b2"], table)
        assert s[0] == pytest.approx(1.0)

    def test_a_equals_b_gives_zero(self):
        # every target scores 0 against A == B, in either order, so the
        # scores are all equal and no effect size is defined
        rng = np.random.default_rng(0)
        table = random_table(["w", "v", "u", "t", "p", "q"], 5, rng)
        for b in (["p", "q"], ["q", "p"]):
            assert _scores("t", ["w", "v"], ["u", "t"], ["p", "q"], b, table) == (
                "all association scores equal; effect size undefined"
            )

    def test_matches_two_mean_oracle(self):
        rng = np.random.default_rng(1)
        table = random_table(["w", "v", "u", "t", "a1", "a2", "b1", "b2"], 7, rng)
        expected = (
            (cosine(table.get("w"), table.get("a1")) + cosine(table.get("w"), table.get("a2"))) / 2
            - (cosine(table.get("w"), table.get("b1")) + cosine(table.get("w"), table.get("b2"))) / 2
        )
        s, _ = _scores("t", ["w", "v"], ["u", "t"], ["a1", "a2"], ["b1", "b2"], table)
        assert s[0] == pytest.approx(expected, abs=1e-12)

    def test_equidistant_attribute_is_neutral(self):
        rng = np.random.default_rng(5)
        dim = 6
        table = random_table(["w", "v", "u", "t", "a0", "a1", "a2", "b0", "b1"], dim, rng)
        w = table.get("w")
        m = np.mean([cosine(w, table.get(a)) for a in ("a0", "a1", "a2")])
        # construct a* with cos(w, a*) exactly m
        w_hat = w / np.linalg.norm(w)
        perp = rng.normal(size=dim)
        perp -= perp.dot(w_hat) * w_hat
        perp /= np.linalg.norm(perp)
        a_star = m * w_hat + math.sqrt(1 - m * m) * perp
        vecs = {word: table.get(word) for word in table.vocab}
        vecs["a_star"] = a_star
        table2 = make_table(vecs)
        targets = (["w", "v"], ["u", "t"])
        base, _ = _scores("t", *targets, ["a0", "a1", "a2"], ["b0", "b1"], table2)
        extended, _ = _scores("t", *targets, ["a0", "a1", "a2", "a_star"], ["b0", "b1"], table2)
        assert extended[0] == pytest.approx(base[0], abs=1e-12)


class TestEffectSize:
    def test_symmetric_table_d_is_two(self):
        [result] = run_battery([symmetric_test()], symmetric_table())
        assert result.effect_size == pytest.approx(2.0, abs=1e-12)

    def test_identical_score_multisets_d_zero(self):
        rng = np.random.default_rng(2)
        base = random_table(["w1", "w2", "a1", "a2", "b1", "b2"], 5, rng)
        vecs = {w: base.get(w) for w in base.vocab}
        vecs["x1"], vecs["x2"] = vecs["w1"], vecs["w2"]
        vecs["y1"], vecs["y2"] = vecs["w1"], vecs["w2"]
        table = make_table(vecs)
        test = WeatTest("same", ("x1", "x2"), ("y1", "y2"), ("a1", "a2"), ("b1", "b2"))
        assert run_battery([test], table)[0].effect_size == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_statistic(self):
        rng = np.random.default_rng(3)
        table = random_table(["x1", "x2", "y1", "y2", "a1", "a2"], 4, rng)
        # A == B forces every association score to zero
        test = WeatTest("degen", ("x1", "x2"), ("y1", "y2"), ("a1", "a2"), ("a1", "a2"))
        [r] = run_battery([test], table)
        assert r.error == "all association scores equal; effect size undefined"
        assert (r.effect_size, r.test_statistic, r.p_value) == (None, None, None)

    def test_sign_agreement_with_statistic(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            test, table = random_weat(rng)
            [r] = run_battery([test], table)
            if r.effect_size != 0:
                assert math.copysign(1, r.test_statistic) == math.copysign(1, r.effect_size)

    def test_bounded_by_two_for_equal_targets(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            test, table = random_weat(rng, n_targets=int(rng.integers(2, 6)))
            assert abs(run_battery([test], table)[0].effect_size) <= 2.0 + 1e-12


class TestStatistic:
    def test_symmetric_is_4c(self):
        # every x scores +1, every y scores -1, |X|=|Y|=2
        [r] = run_battery([symmetric_test()], symmetric_table())
        assert r.test_statistic == pytest.approx(4.0, abs=1e-12)

    def test_swap_negates(self):
        rng = np.random.default_rng(7)
        test, table = random_weat(rng)
        swapped = WeatTest("sw", test.targets_y, test.targets_x, test.attributes_a, test.attributes_b)
        r, r_swapped = run_battery([test, swapped], table)
        assert r_swapped.test_statistic == pytest.approx(-r.test_statistic, abs=1e-12)

    def test_matches_script_oracle(self):
        rng = np.random.default_rng(8)
        test, table = random_weat(rng)
        s = sum(cosine_association(x, test.attributes_a, test.attributes_b, table) for x in test.targets_x)
        s -= sum(cosine_association(y, test.attributes_a, test.attributes_b, table) for y in test.targets_y)
        assert run_battery([test], table)[0].test_statistic == pytest.approx(s, abs=1e-12)


def pooled_scores(test, table):
    """Independent oracle: the X then Y association scores of a test whose
    words are all in the table, each target list against each attribute list
    in its own product."""

    def unit_rows(words):
        mat = np.vstack([table.get(w) for w in words])
        return mat / np.linalg.norm(mat, axis=1, keepdims=True)

    a, b = unit_rows(test.attributes_a), unit_rows(test.attributes_b)
    targets = (unit_rows(test.targets_x), unit_rows(test.targets_y))
    return list(np.concatenate([(t @ a.T).mean(axis=1) - (t @ b.T).mean(axis=1) for t in targets]))


class TestPermutationP:
    def test_maximal_separation_exact_zero(self):
        # observed partition strictly dominates all 6 partitions of 4 targets
        assert run_battery([symmetric_test()], symmetric_table())[0].p_value == 0.0

    def test_exchangeable_case_matches_enumeration(self):
        rng = np.random.default_rng(9)
        test, table = random_weat(rng, n_targets=3, n_attrs=3)
        expected = brute_force_p(pooled_scores(test, table), 3)
        assert run_battery([test], table)[0].p_value == expected

    def test_exact_matches_oracle_all_sizes_up_to_12(self):
        rng = np.random.default_rng(10)
        for n in range(1, 7):
            for _ in range(3):
                test, table = random_weat(rng, n_targets=n, n_attrs=2)
                [r] = run_battery([test], table)
                if n < 2:
                    assert "under-filled" in r.error and r.p_value is None
                    continue
                assert r.p_value == brute_force_p(pooled_scores(test, table), n)

    def test_exact_over_several_chunks_matches_combinations(self):
        # C(18, 9) = 48,620 partitions: more than one chunk of subsets
        rng = np.random.default_rng(21)
        test, table = random_weat(rng, n_targets=9, n_attrs=3)
        pooled = pooled_scores(test, table)
        for inclusive in (False, True):
            assert run_battery([test], table, inclusive=inclusive)[0].p_value == combinations_p(
                pooled, 9, inclusive
            )

    def test_budget_exceeded_directs_to_monte_carlo(self):
        # n_samples is the budget: up to C(2n, n) samples every partition is counted
        rng = np.random.default_rng(11)
        for n in (3, 5, 9):
            test, table = random_weat(rng, n_targets=n, n_attrs=2)
            partitions = math.comb(2 * n, n)
            [exact] = run_battery([test], table, n_samples=partitions)
            assert exact.p_method == "exact"
            [sampled] = run_battery([test], table, n_samples=partitions - 1, seed=6)
            assert sampled.p_method == f"monte_carlo(n={partitions - 1}, seed=6)"
            # more samples than partitions change nothing: the p-value is exact
            assert exact.p_value == run_battery([test], table, n_samples=partitions + 1, seed=9)[0].p_value
        rng = np.random.default_rng(22)
        for _ in range(10):
            test, table = random_weat(rng, n_targets=int(rng.integers(2, 7)), n_attrs=int(rng.integers(2, 5)))
            inclusive = bool(rng.integers(2))
            # 5 samples are fewer than the C(4, 2) = 6 partitions of the smallest
            # test, 3000 more than the C(12, 6) = 924 of the largest
            for n_samples, method in ((5, "monte_carlo(n=5, seed=4)"), (3000, "exact")):
                [r] = run_battery([test], table, n_samples=n_samples, seed=4, inclusive=inclusive)
                assert r.error is None and r.p_method == method

    def test_monte_carlo_agrees_with_exact(self):
        # C(20, 10) = 184,756 partitions: 100,000 samples take the sampled path
        rng = np.random.default_rng(12)
        test, table = random_weat(rng, n_targets=10, n_attrs=3)
        p_exact = run_battery([test], table, n_samples=math.comb(20, 10))[0].p_value
        n = 100_000
        [sampled] = run_battery([test], table, n_samples=n, seed=123)
        assert sampled.p_method.startswith("monte_carlo")
        tol = 3 * math.sqrt(max(p_exact * (1 - p_exact), 1e-12) / n)
        assert abs(sampled.p_value - p_exact) <= max(tol, 1e-3)

    def test_monte_carlo_requires_seed(self):
        # refused on the exact path too: C(8, 4) = 70 partitions
        test, table = random_weat(np.random.default_rng(13))
        with pytest.raises(WeatError, match="seed"):
            run_battery([test], table, seed=None)
        with pytest.raises(WeatError, match="seed"):
            run_battery([test], table, n_samples=10, seed=None)

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_monte_carlo_needs_a_sample(self, n_samples):
        test, table = random_weat(np.random.default_rng(13))
        with pytest.raises(WeatError, match="n_samples >= 1"):
            run_battery([test], table, n_samples=n_samples, seed=1)

    def test_inclusive_at_least_strict(self):
        test, table = random_weat(np.random.default_rng(14), n_targets=3)
        [strict] = run_battery([test], table)
        [inclusive] = run_battery([test], table, inclusive=True)
        assert inclusive.p_value >= strict.p_value


class TestOovPolicy:
    def test_drop_and_truncate_from_end(self):
        rng = np.random.default_rng(15)
        table = random_table(["x1", "x2", "x3", "y1", "y2", "a1", "a2", "b1", "b2"], 4, rng)
        test = WeatTest(
            "oov", ("x1", "x2", "x3"), ("y1", "y2", "ymissing"), ("a1", "a2"), ("b1", "b2")
        )
        x, y, a, b, coverage, dropped = apply_oov_policy(test, table)
        assert x == ["x1", "x2"] and y == ["y1", "y2"]
        assert "ymissing" in dropped and "x3" in dropped
        assert coverage["targets_x"] == (3, 2)

    def test_underfilled_after_filtering(self):
        rng = np.random.default_rng(16)
        table = random_table(["x1", "y1", "a1", "a2", "b1", "b2"], 4, rng)
        test = WeatTest("uf", ("x1", "x9"), ("y1", "y9"), ("a1", "a2"), ("b1", "b2"))
        x, y, _, _, coverage, dropped = apply_oov_policy(test, table)
        assert x == ["x1"] and y == ["y1"] and len(x) < weat.MIN_WORDS
        assert coverage["targets_y"] == (2, 1) and dropped == ("x9", "y9")

    def test_zero_vector_words_treated_as_missing(self):
        table = make_table(
            {"x1": [1.0, 0.0], "x2": [0.0, 0.0], "x3": [1.0, 0.5], "y1": [0.0, 1.0],
             "y2": [1.0, 1.0], "y3": [0.5, 1.0], "a1": [1.0, 2.0], "a2": [2.0, 1.0],
             "b1": [0.5, 1.0], "b2": [1.0, 0.5]}
        )
        test = WeatTest("z", ("x1", "x2", "x3"), ("y1", "y2", "y3"), ("a1", "a2"), ("b1", "b2"))
        x, y, _, _, _, dropped = apply_oov_policy(test, table)
        assert x == ["x1", "x3"] and y == ["y1", "y2"]
        assert "x2" in dropped and "y3" in dropped

    def test_zero_row_result_same_built_directly_and_after_a_round_trip(self, tmp_path):
        words = ["x1", "x2", "x3", "y1", "y2", "y3", "a1", "a2", "b1", "b2"]
        # values that %.6f writes exactly, so the file holds the same table
        vectors = np.random.default_rng(17).integers(-8, 9, size=(len(words), 4)) / 8
        vectors[words.index("x2")] = 0.0
        table = EmbeddingTable(dim=4, vocab={w: i for i, w in enumerate(words)}, vectors=vectors)
        path = tmp_path / "v.txt"
        save_vectors(table, str(path))
        test = WeatTest("z", ("x1", "x2", "x3"), ("y1", "y2", "y3"), ("a1", "a2"), ("b1", "b2"))
        direct = run_battery([test], table, n_samples=1000, seed=3)
        assert direct == run_battery([test], load_vectors(str(path)), n_samples=1000, seed=3)
        assert direct[0].error is None and "x2" in direct[0].dropped_words


ENTRY = {"name": "t", "targets_x": ["x1"], "targets_y": ["y1"], "attributes_a": ["a1"], "attributes_b": ["b1"]}


class TestBattery:
    def test_bundled_file_has_eight_tests(self):
        tests = load_battery(default_battery_path())
        assert len(tests) == 8
        for t in tests:
            for words in (t.targets_x, t.targets_y, t.attributes_a, t.attributes_b):
                assert words and all(w == w.lower() for w in words)

    def test_full_vocab_table_yields_eight_results(self):
        rng = np.random.default_rng(17)
        tests = load_battery(default_battery_path())
        words = sorted({w for t in tests for w in (*t.targets_x, *t.targets_y, *t.attributes_a, *t.attributes_b)})
        table = random_table(words, 8, rng)
        results = run_battery(tests, table, n_samples=2000, seed=1)
        assert len(results) == 8
        assert [r.test_name for r in results] == [t.name for t in tests]
        assert all(r.error is None for r in results)

    @pytest.mark.parametrize(
        "content, message",
        [
            (json.dumps({"name": "t"}), "a battery is a JSON list of tests"),
            (json.dumps([["x1"]]), "entry 0: not an object"),
            (json.dumps([{"targets_x": ["x1"]}]), 'entry 0: not an object with a string "name"'),
            (json.dumps([ENTRY, {**ENTRY, "name": "u", "attributes_b": None}]), r"entry 1 \(u\): attributes_b"),
            (json.dumps([{**ENTRY, "targets_y": "y1 y2"}]), r"entry 0 \(t\): targets_y is not"),
            (json.dumps([{**ENTRY, "attributes_a": ["a1", 2]}]), r"entry 0 \(t\): attributes_a is not"),
            (json.dumps([{**ENTRY, "targets_x": []}]), r"entry 0 \(t\): targets_x is not a non-empty list"),
            ("[{", "not a JSON battery"),
        ],
        ids=["not_a_list", "entry_not_an_object", "no_name", "missing_list", "string_for_list",
             "word_not_a_string", "empty_list", "invalid_json"],
    )
    def test_malformed_file_names_path_and_entry(self, tmp_path, content, message):
        path = tmp_path / "tests.json"
        path.write_text(content)
        with pytest.raises(WeatError, match=f"^{path}: {message}"):
            load_battery(str(path))

    def test_not_utf8_names_path(self, tmp_path):
        path = tmp_path / "tests.json"
        path.write_bytes(json.dumps([ENTRY]).encode().replace(b"x1", b"x\xe9"))
        with pytest.raises(WeatError, match=f"^{path}: not a JSON battery"):
            load_battery(str(path))

    def test_missing_name_words_fail_only_that_test(self):
        rng = np.random.default_rng(18)
        tests = load_battery(default_battery_path())
        name_test = tests[2]  # the name-based test the corpus cannot cover
        words = sorted(
            {
                w
                for t in tests
                for w in (*t.targets_x, *t.targets_y, *t.attributes_a, *t.attributes_b)
            }
            - set(name_test.targets_x)
            - set(name_test.targets_y)
        )
        table = random_table(words, 8, rng)
        results = run_battery(tests, table, n_samples=1000, seed=2)
        assert results[2].error is not None and "under-filled" in results[2].error
        assert all(r.error is None for i, r in enumerate(results) if i != 2)


class TestRunTest:
    def test_filters_and_scores_once(self, monkeypatch):
        import lyricstats.weat as weat

        calls = {"apply_oov_policy": 0, "_scores": 0}
        for name in calls:
            original = getattr(weat, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(weat, name, counted)
        test, table = random_weat(np.random.default_rng(23))
        assert run_battery([test], table, n_samples=500, seed=1)[0].error is None
        assert calls == {"apply_oov_policy": 1, "_scores": 1}

    def test_degenerate_result_keeps_coverage(self):
        rng = np.random.default_rng(24)
        table = random_table(["x1", "x2", "y1", "y2", "a1", "a2"], 4, rng)
        test = WeatTest("degen", ("x1", "x2", "x9"), ("y1", "y2"), ("a1", "a2"), ("a1", "a2"))
        [r] = run_battery([test], table)
        assert r.error is not None and "effect size undefined" in r.error
        assert r.p_value is None and r.p_method == "none"
        assert r.coverage["targets_x"] == (3, 2) and r.coverage["attributes_b"] == (2, 2)
        assert r.dropped_words == ("x9",)

    @pytest.mark.parametrize("word, value", [("x1", np.nan), ("a0", np.inf), ("y2", -np.inf)])
    def test_non_finite_scores_keep_coverage(self, word, value):
        test, table = random_weat(np.random.default_rng(26), n_targets=3)
        table.vectors[table.vocab[word], 1] = value
        tests = [dataclasses.replace(test, name="t", targets_x=(*test.targets_x, "x9")), test]
        first, second = run_battery(tests, table, n_samples=10, seed=1)
        assert first.error == "t: association scores are not all finite (a vector holds nan or inf)"
        assert (first.effect_size, first.test_statistic, first.p_value, first.p_method) == (None, None, None, "none")
        assert first.coverage["targets_x"] == (4, 3) and first.dropped_words == ("x9",)
        assert second.error == first.error.replace("t:", "random:", 1)
        assert run_battery([test], table)[0] == second

    def test_underfilled_result_keeps_coverage(self):
        rng = np.random.default_rng(25)
        table = random_table(["x1", "y1", "a1", "a2", "b1", "b2"], 4, rng)
        test = WeatTest("uf", ("x1", "x9"), ("y1", "y9"), ("a1", "a2"), ("b1", "b2"))
        [r] = run_battery([test], table)
        assert r.error == "uf: target lists under-filled after filtering (|X|=|Y|=1)"
        assert (r.effect_size, r.test_statistic, r.p_value, r.p_method) == (None, None, None, "none")
        assert r.coverage["targets_x"] == (2, 1) and r.coverage["attributes_b"] == (2, 2)
        assert r.dropped_words == ("x9", "y9")

    def test_underfilled_attributes_keep_coverage(self):
        table = random_table(["x1", "x2", "y1", "y2", "a1", "b1", "b2"], 4, np.random.default_rng(27))
        test = WeatTest("ua", ("x1", "x2"), ("y1", "y2"), ("a1", "a9"), ("b1", "b2"))
        [r] = run_battery([test], table)
        assert r.error == "ua: attribute lists under-filled after filtering (|A|=1, |B|=2)"
        assert r.coverage["attributes_a"] == (2, 1) and r.dropped_words == ("a9",)


class TestProperties:
    def test_antisymmetry_target_and_attribute_swaps(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            test, table = random_weat(rng)
            swapped_t = WeatTest("t", test.targets_y, test.targets_x, test.attributes_a, test.attributes_b)
            swapped_a = WeatTest("a", test.targets_x, test.targets_y, test.attributes_b, test.attributes_a)
            r, r_t, r_a = run_battery([test, swapped_t, swapped_a], table)
            assert r_t.effect_size == pytest.approx(-r.effect_size, abs=1e-12)
            assert r_a.effect_size == pytest.approx(-r.effect_size, abs=1e-12)

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(20)
        test, table = random_weat(rng, n_targets=3)
        scaled = make_table({w: 7.5 * table.get(w) for w in table.vocab})
        [r], [r_scaled] = run_battery([test], table), run_battery([test], scaled)
        assert r_scaled.effect_size == pytest.approx(r.effect_size, abs=1e-12)
        assert r_scaled.test_statistic == pytest.approx(r.test_statistic, abs=1e-12)
        assert r_scaled.p_value == pytest.approx(r.p_value, abs=1e-12)


def mixed_battery(rng, sizes, dim=6):
    """One table and a battery with a test per entry of `sizes`: (n_targets,
    missing) makes n_targets words per target list, of which the last
    `missing` X words are out of vocabulary, so the test runs at size
    n_targets - missing, or fails when fewer than two are left."""
    vocab, tests = [], []
    for t, (n, missing) in enumerate(sizes):
        x = [f"t{t}x{i}" for i in range(n)]
        y = [f"t{t}y{i}" for i in range(n)]
        a = [f"t{t}a{i}" for i in range(3)]
        b = [f"t{t}b{i}" for i in range(3)]
        vocab += x[: n - missing] + y + a + b
        tests.append(WeatTest(f"t{t}", tuple(x), tuple(y), tuple(a), tuple(b)))
    return tests, random_table(vocab, dim, rng)


class TestSharedDraw:
    """run_battery draws each chunk of subsets once per target-list size and
    counts every test of that size against it; each p-value must be the one
    the test gets alone."""

    SIZES = [(4, 0), (3, 0), (5, 1), (4, 0), (6, 0), (3, 0), (3, 2), (4, 3), (6, 0)]

    # sizes 3, 4 and 6 have 20, 70 and 924 partitions: 45,000 samples make every
    # p-value exact, 500 sample the tests of size 6 and enumerate the others
    @pytest.mark.parametrize("n_samples", [45_000, 500], ids=["exact", "monte_carlo"])
    @pytest.mark.parametrize("inclusive", [False, True])
    def test_battery_p_values_equal_each_test_alone(self, n_samples, inclusive):
        tests, table = mixed_battery(np.random.default_rng(31), self.SIZES)
        kwargs = dict(n_samples=n_samples, seed=8, inclusive=inclusive)
        results = run_battery(tests, table, **kwargs)
        assert [r.error is not None for r in results] == [False] * 6 + [True, True, False]
        for test, r in zip(tests, results):
            assert r == run_battery([test], table, **kwargs)[0]
            if r.error is None:
                n = r.coverage["targets_x"][1]
                exact = math.comb(2 * n, n) <= n_samples
                assert r.p_method == ("exact" if exact else f"monte_carlo(n={n_samples}, seed=8)")
        assert 0.0 < min(r.p_value for r in results if r.p_value is not None)

    # 924 samples reach C(12, 6) = 924, so every size is enumerated; 19 are
    # fewer than the C(6, 3) = 20 partitions of the smallest size
    @pytest.mark.parametrize("n_samples", [924, 19], ids=["exact", "monte_carlo"])
    def test_one_draw_per_chunk_per_list_size(self, monkeypatch, n_samples):
        calls: list[tuple[int, int, str, int]] = []  # (n, columns, method, chunks) per p_values call
        draws = []
        original, real_islice, real_rng = permutation.p_values, permutation.islice, np.random.default_rng

        def counted(scores, n, *args):
            before = len(draws)
            method, p = original(scores, n, *args)
            calls.append((n, scores.shape[1], method, len(draws) - before))
            return method, p

        def counting_islice(*args):
            draws.append("enumerated")
            return real_islice(*args)

        class CountingRng:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def random(self, out):
                draws.append("drawn")
                return self.rng.random(out=out)

        tests, table = mixed_battery(np.random.default_rng(32), self.SIZES)
        monkeypatch.setattr(permutation, "p_values", counted)
        monkeypatch.setattr(permutation, "islice", counting_islice)
        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        monkeypatch.setattr(permutation, "_SUBSET_CHUNK", 7)
        results = run_battery(tests, table, n_samples=n_samples, seed=2)
        # list sizes 4, 3 and 6 in order of first test, with 3, 2 and 2 tests
        # (the third test runs at 4, two tests fail)
        sizes = {4: 70, 3: 20, 6: 924} if n_samples == 924 else {4: 19, 3: 19, 6: 19}
        method = "exact" if n_samples == 924 else "monte_carlo(n=19, seed=2)"
        assert calls == [(n, columns, method, -(-size // 7)) for (n, size), columns in zip(sizes.items(), (3, 2, 2))]
        assert set(draws) == {"enumerated" if n_samples == 924 else "drawn"}
        assert sum(r.p_value is not None for r in results) == 7

    # lists of 7 and 8 targets have 3,432 and 12,870 partitions, so 3,001
    # samples are drawn for each size, over chunks that neither 7 nor 2,000
    # rows fill evenly
    @pytest.mark.parametrize("sizes, n_samples", [
        (SIZES, 3001), (SIZES, 19), ([(7, 0), (8, 0), (8, 1)], 3001),
    ], ids=["exact", "monte_carlo", "monte_carlo_over_chunks"])
    def test_p_values_do_not_depend_on_the_chunk_size(self, monkeypatch, sizes, n_samples):
        tests, table = mixed_battery(np.random.default_rng(35), sizes)
        runs = []
        for chunk in (7, 1000, 2_000, 20_000):
            monkeypatch.setattr(permutation, "_SUBSET_CHUNK", chunk)
            runs.append([(r.p_method, r.p_value) for r in run_battery(tests, table, n_samples=n_samples, seed=3)])
        assert all(run == runs[0] for run in runs)

    def test_group_over_exact_budget_keeps_each_effect_size(self):
        # two tests of 11 targets per list: C(22, 11) = 705,432 partitions exceed
        # the 100,000 default samples and are sampled, C(6, 3) = 20 are not
        tests, table = mixed_battery(np.random.default_rng(33), [(11, 0), (3, 0), (11, 0)])
        results = run_battery(tests, table)
        sampled = "monte_carlo(n=100000, seed=0)"
        assert [r.p_method for r in results] == [sampled, "exact", sampled]
        for test, r in zip(tests, results):
            assert r.error is None and r == run_battery([test], table)[0]
        assert results[0].effect_size != results[2].effect_size

    def test_negative_seed_refused(self, monkeypatch):
        import lyricstats.weat as weat

        test, table = random_weat(np.random.default_rng(34))
        # refused before any test is prepared, on the exact path too
        monkeypatch.setattr(weat, "apply_oov_policy", None)
        with pytest.raises(WeatError, match="seed >= 0"):
            run_battery([test], table, seed=-1)


def argsort_reference_p_values(pairs, n_samples, seed, inclusive):
    """The scoring that integer masks replaced: each subset's X-side indices
    from itertools.combinations, or drawn as the first n of an argsort of 2n
    uniforms per row of one default_rng(seed) stream, then sorted, gathered
    with take and summed in float64, with the observed statistic computed by
    the same operations."""
    n = len(pairs[0][0])
    size = math.comb(2 * n, n)
    if size <= n_samples:
        method, blocks = "exact", [np.array(list(combinations(range(2 * n), n)))]
    else:
        method, size = f"monte_carlo(n={n_samples}, seed={seed})", n_samples
        rng = np.random.default_rng(seed)
        blocks = (np.sort(np.argsort(rng.random((min(1000, size - start), 2 * n)), axis=1)[:, :n], axis=1)
                  for start in range(0, size, 1000))
    pooled = [np.concatenate(pair) for pair in pairs]
    totals = [scores.sum() for scores in pooled]
    observed = [2.0 * scores[:n].sum() - total for scores, total in zip(pooled, totals)]
    hits = [0] * len(pairs)
    for subsets in blocks:
        for i, (scores, total, obs) in enumerate(zip(pooled, totals, observed)):
            stats = 2.0 * np.take(scores, subsets).sum(axis=1) - total
            hits[i] += int(np.count_nonzero(stats >= obs if inclusive else stats > obs))
    return method, [h / size for h in hits]


def score_matrix(pairs):
    return np.column_stack([np.concatenate(pair) for pair in pairs])


class TestIntegerMaskScoring:
    """`permutation.p_values` scores each chunk of subsets as 0/1 masks against the
    scores rounded to integers: every subset sum is exact, and each p-value
    is the one the argsort-and-gather scoring gave."""

    # 13 sizes x 2 groups x 3 sample counts x 2 tails: 156 p-value lists, exact
    # for n <= 6 at 3,001 samples and n <= 8 at 20,000, sampled otherwise
    @pytest.mark.parametrize("n", [*range(2, 13), 24, 48])
    @pytest.mark.parametrize("duplicated", [False, True], ids=["plain", "duplicated_pairs"])
    def test_p_values_equal_the_argsort_scoring(self, n, duplicated):
        rng = np.random.default_rng(100 + n)
        sx, sy = rng.normal(0.02, 0.1, n), rng.normal(0.0, 0.1, n)
        # a duplicated group holds one pair twice and once swapped
        pairs = [(sx, sy), (sx, sy), (sy, sx)] if duplicated else [(sx, sy), (rng.normal(0.0, 0.3, n), sy)]
        for n_samples in (50, 3001, 20_000):
            for inclusive in (False, True):
                assert permutation.p_values(score_matrix(pairs), n, n_samples, 7, inclusive) == (
                    argsort_reference_p_values(pairs, n_samples, 7, inclusive)
                )

    def test_tied_uniforms_take_the_argsort_subsets(self, monkeypatch):
        n, rows = 5, 40
        rng = np.random.default_rng(41)
        uniforms = rng.random((rows, 2 * n))
        argsorted = np.argsort(uniforms, axis=1)
        # even rows: the (n + 1)-th smallest uniform equals the n-th
        even = np.arange(0, rows, 2)
        uniforms[even, argsorted[even, n]] = uniforms[even, argsorted[even, n - 1]]
        argsorted = np.sort(np.argsort(uniforms, axis=1)[:, :n], axis=1)
        cut = np.sort(uniforms, axis=1)[:, n - 1 : n]
        assert (uniforms <= cut).sum(axis=1).tolist() == [n + 1, n] * (rows // 2)

        class TiedRng:
            def __init__(self, seed):
                assert seed == 0

            def random(self, out):
                out[...] = uniforms
                return out

        sx, sy = rng.normal(0.0, 0.1, n), rng.normal(0.0, 0.1, n)
        monkeypatch.setattr(np.random, "default_rng", TiedRng)
        pooled = np.concatenate([sx, sy])
        observed = 2.0 * sx.sum() - pooled.sum()
        stats = 2.0 * np.take(pooled, argsorted).sum(axis=1) - pooled.sum()
        p = permutation.p_values(score_matrix([(sx, sy)]), n, rows, 0, False)
        assert p == (f"monte_carlo(n={rows}, seed=0)", [np.count_nonzero(stats > observed) / rows])
        # the masks with n + 1 ones would have counted otherwise
        tied_sums = np.where(uniforms <= cut, pooled, 0.0).sum(axis=1)
        assert np.count_nonzero(2.0 * tied_sums - pooled.sum() > observed) != np.count_nonzero(stats > observed)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exact_ties_match_fraction_enumeration(self, n):
        # multiples of 1/8 between -3/8 and 3/8: many subsets tie exactly
        rng = np.random.default_rng(60 + n)
        pooled = rng.integers(-3, 4, 2 * n) / 8
        values = [Fraction(float(v)) for v in pooled]
        observed = sum(values[:n])
        sums = [sum(values[i] for i in subset) for subset in combinations(range(2 * n), n)]
        size = math.comb(2 * n, n)
        for inclusive in (False, True):
            expected = sum(s > observed or (inclusive and s == observed) for s in sums) / size
            assert permutation.p_values(pooled[:, None], n, size, 0, inclusive) == ("exact", [expected])
            # the sums are exact in float too, so drawn subsets count as the reference does
            pairs = [(pooled[:n], pooled[n:])]
            assert permutation.p_values(pooled[:, None], n, size - 1, 3, inclusive) == (
                argsort_reference_p_values(pairs, size - 1, 3, inclusive)
            )

    def test_all_zero_column_ties_every_subset(self):
        scores = np.column_stack([np.zeros(8), np.random.default_rng(70).normal(size=8)])
        for n_samples, method in ((70, "exact"), (50, "monte_carlo(n=50, seed=0)")):
            strict = permutation.p_values(scores, 4, n_samples, 0, False)
            assert strict[:1] == (method,) and strict[1][0] == 0.0
            assert strict[1][1] == permutation.p_values(scores[:, 1:], 4, n_samples, 0, False)[1][0]
            assert permutation.p_values(scores, 4, n_samples, 0, True)[1][0] == 1.0

    def test_unequal_sides_match_enumeration(self):
        # 3 of 7 items on the X side: C(7, 3) = 35 subsets
        pooled = np.random.default_rng(80).normal(size=7)
        sums = [math.fsum(pooled[list(subset)]) for subset in combinations(range(7), 3)]
        observed = math.fsum(pooled[:3])
        for inclusive in (False, True):
            expected = sum(s > observed or (inclusive and s == observed) for s in sums) / 35
            assert permutation.p_values(pooled[:, None], 3, 35, 0, inclusive) == ("exact", [expected])

    def test_chunk_buffers_are_bounded_at_large_n(self):
        # at N = 2**14 a chunk takes 2**22 // N = 256 subsets, not 500, so its
        # two (rows, N) float64 buffers, the masks and the uniforms, hold 64 MiB
        scores = np.random.default_rng(90).normal(size=(2**14, 1))
        tracemalloc.start()
        try:
            method, _ = permutation.p_values(scores, 2, 500, 0, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert method == "monte_carlo(n=500, seed=0)"
        assert peak < 2.5 * 2**22 * 8

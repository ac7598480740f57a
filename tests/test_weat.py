import json
import math
from itertools import combinations

import numpy as np
import pytest

from lyricstats.embeddings import cosine
from lyricstats.resources import default_battery_path
from lyricstats.weat import (
    DegenerateStatisticError,
    ExactBudgetError,
    OovPolicy,
    UnderfilledListError,
    WeatError,
    WeatTest,
    apply_oov_policy,
    association,
    effect_size,
    load_battery,
    permutation_p,
    run_battery,
    run_test,
)
from lyricstats.weat import test_statistic as weat_statistic
from tests.conftest import make_table, random_table


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


class TestAssociation:
    def test_identical_to_a_orthogonal_to_b(self):
        table = make_table({"w": [1.0, 0.0], "a1": [1.0, 0.0], "b1": [0.0, 1.0]})
        assert association("w", ["a1"], ["b1"], table) == pytest.approx(1.0)

    def test_a_equals_b_gives_zero(self):
        rng = np.random.default_rng(0)
        table = random_table(["w", "p", "q"], 5, rng)
        assert association("w", ["p", "q"], ["p", "q"], table) == pytest.approx(0.0, abs=1e-15)

    def test_matches_two_mean_oracle(self):
        rng = np.random.default_rng(1)
        table = random_table(["w", "a1", "a2", "b1", "b2"], 7, rng)
        expected = (
            (cosine(table.get("w"), table.get("a1")) + cosine(table.get("w"), table.get("a2"))) / 2
            - (cosine(table.get("w"), table.get("b1")) + cosine(table.get("w"), table.get("b2"))) / 2
        )
        assert association("w", ["a1", "a2"], ["b1", "b2"], table) == pytest.approx(expected, abs=1e-12)

    def test_oov_is_programming_error(self):
        table = make_table({"w": [1.0, 0.0]})
        with pytest.raises(WeatError, match="not in vocabulary"):
            association("missing", ["w"], ["w"], table)

    def test_equidistant_attribute_is_neutral(self):
        rng = np.random.default_rng(5)
        dim = 6
        table = random_table(["w", "a0", "a1", "a2", "b0", "b1"], dim, rng)
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
        base = association("w", ["a0", "a1", "a2"], ["b0", "b1"], table2)
        extended = association("w", ["a0", "a1", "a2", "a_star"], ["b0", "b1"], table2)
        assert extended == pytest.approx(base, abs=1e-12)


class TestEffectSize:
    def test_symmetric_table_d_is_two(self):
        result = effect_size(symmetric_test(), symmetric_table())
        assert result.effect_size == pytest.approx(2.0, abs=1e-12)

    def test_identical_score_multisets_d_zero(self):
        rng = np.random.default_rng(2)
        base = random_table(["w1", "w2", "a1", "a2", "b1", "b2"], 5, rng)
        vecs = {w: base.get(w) for w in base.vocab}
        vecs["x1"], vecs["x2"] = vecs["w1"], vecs["w2"]
        vecs["y1"], vecs["y2"] = vecs["w1"], vecs["w2"]
        table = make_table(vecs)
        test = WeatTest("same", ("x1", "x2"), ("y1", "y2"), ("a1", "a2"), ("b1", "b2"))
        assert effect_size(test, table).effect_size == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_statistic(self):
        rng = np.random.default_rng(3)
        table = random_table(["x1", "x2", "y1", "y2", "a1", "a2"], 4, rng)
        # A == B forces every association score to zero
        test = WeatTest("degen", ("x1", "x2"), ("y1", "y2"), ("a1", "a2"), ("a1", "a2"))
        with pytest.raises(DegenerateStatisticError):
            effect_size(test, table)

    def test_sign_agreement_with_statistic(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            test, table = random_weat(rng)
            r = effect_size(test, table)
            if r.effect_size != 0:
                assert math.copysign(1, r.test_statistic) == math.copysign(1, r.effect_size)

    def test_bounded_by_two_for_equal_targets(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            test, table = random_weat(rng, n_targets=int(rng.integers(2, 6)))
            assert abs(effect_size(test, table).effect_size) <= 2.0 + 1e-12


class TestStatistic:
    def test_symmetric_is_4c(self):
        # every x scores +1, every y scores -1, |X|=|Y|=2
        assert weat_statistic(symmetric_test(), symmetric_table()) == pytest.approx(4.0, abs=1e-12)

    def test_swap_negates(self):
        rng = np.random.default_rng(7)
        test, table = random_weat(rng)
        swapped = WeatTest("sw", test.targets_y, test.targets_x, test.attributes_a, test.attributes_b)
        assert weat_statistic(swapped, table) == pytest.approx(-weat_statistic(test, table), abs=1e-12)

    def test_matches_script_oracle(self):
        rng = np.random.default_rng(8)
        test, table = random_weat(rng)
        s = sum(association(x, test.attributes_a, test.attributes_b, table) for x in test.targets_x)
        s -= sum(association(y, test.attributes_a, test.attributes_b, table) for y in test.targets_y)
        assert weat_statistic(test, table) == pytest.approx(s, abs=1e-12)


class TestPermutationP:
    def test_maximal_separation_exact_zero(self):
        # observed partition strictly dominates all 6 partitions of 4 targets
        assert permutation_p(symmetric_test(), symmetric_table(), mode="exact") == 0.0

    def test_exchangeable_case_matches_enumeration(self):
        rng = np.random.default_rng(9)
        test, table = random_weat(rng, n_targets=3, n_attrs=3)
        from lyricstats.weat import _association_scores

        sx = _association_scores(list(test.targets_x), test.attributes_a, test.attributes_b, table)
        sy = _association_scores(list(test.targets_y), test.attributes_a, test.attributes_b, table)
        pooled = list(np.concatenate([sx, sy]))
        expected = brute_force_p(pooled, 3)
        assert permutation_p(test, table, mode="exact") == expected

    def test_exact_matches_oracle_all_sizes_up_to_12(self):
        rng = np.random.default_rng(10)
        for n in range(1, 7):
            for _ in range(3):
                test, table = random_weat(rng, n_targets=n, n_attrs=2)
                if n < 2:
                    with pytest.raises(UnderfilledListError):
                        permutation_p(test, table, mode="exact")
                    continue
                from lyricstats.weat import _association_scores

                sx = _association_scores(
                    list(test.targets_x), test.attributes_a, test.attributes_b, table
                )
                sy = _association_scores(
                    list(test.targets_y), test.attributes_a, test.attributes_b, table
                )
                pooled = list(np.concatenate([sx, sy]))
                assert permutation_p(test, table, mode="exact") == brute_force_p(pooled, n)

    def test_exact_over_several_chunks_matches_combinations(self):
        # C(18, 9) = 48,620 partitions: more than one chunk of subsets
        rng = np.random.default_rng(21)
        test, table = random_weat(rng, n_targets=9, n_attrs=3)
        from lyricstats.weat import _association_scores

        sx = _association_scores(list(test.targets_x), test.attributes_a, test.attributes_b, table)
        sy = _association_scores(list(test.targets_y), test.attributes_a, test.attributes_b, table)
        pooled = list(np.concatenate([sx, sy]))
        for inclusive in (False, True):
            assert permutation_p(test, table, mode="exact", inclusive=inclusive) == combinations_p(
                pooled, 9, inclusive
            )

    def test_budget_exceeded_directs_to_monte_carlo(self):
        rng = np.random.default_rng(11)
        test, table = random_weat(rng, n_targets=11, n_attrs=2)
        with pytest.raises(ExactBudgetError, match="monte_carlo"):
            permutation_p(test, table, mode="exact")

    def test_monte_carlo_agrees_with_exact(self):
        rng = np.random.default_rng(12)
        test, table = random_weat(rng, n_targets=5, n_attrs=3)
        p_exact = permutation_p(test, table, mode="exact")
        n = 100_000
        p_mc = permutation_p(test, table, mode="monte_carlo", n_samples=n, seed=123)
        tol = 3 * math.sqrt(max(p_exact * (1 - p_exact), 1e-12) / n)
        assert abs(p_mc - p_exact) <= max(tol, 1e-3)

    def test_monte_carlo_requires_seed(self):
        test, table = random_weat(np.random.default_rng(13))
        with pytest.raises(WeatError, match="seed"):
            permutation_p(test, table, mode="monte_carlo", seed=None)

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_monte_carlo_needs_a_sample(self, n_samples):
        test, table = random_weat(np.random.default_rng(13))
        with pytest.raises(WeatError, match="n_samples >= 1"):
            permutation_p(test, table, mode="monte_carlo", n_samples=n_samples, seed=1)

    def test_inclusive_at_least_strict(self):
        test, table = random_weat(np.random.default_rng(14), n_targets=3)
        strict = permutation_p(test, table, mode="exact")
        inclusive = permutation_p(test, table, mode="exact", inclusive=True)
        assert inclusive >= strict


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
        with pytest.raises(UnderfilledListError):
            apply_oov_policy(test, table)

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
        results = run_battery(tests, table, p_mode="monte_carlo", n_samples=2000, seed=1)
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
        results = run_battery(tests, table, p_mode="monte_carlo", n_samples=1000, seed=2)
        assert results[2].error is not None and "under-filled" in results[2].error
        assert all(r.error is None for i, r in enumerate(results) if i != 2)


class TestRunTest:
    def test_agrees_with_public_functions(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            test, table = random_weat(rng, n_targets=int(rng.integers(2, 7)), n_attrs=int(rng.integers(2, 5)))
            inclusive = bool(rng.integers(2))
            for mode in ("exact", "monte_carlo"):
                r = run_test(test, table, p_mode=mode, n_samples=3000, seed=4, inclusive=inclusive)
                assert r.error is None
                assert r.effect_size == effect_size(test, table).effect_size
                assert r.test_statistic == weat_statistic(test, table)
                assert r.p_value == permutation_p(
                    test, table, mode=mode, n_samples=3000, seed=4, inclusive=inclusive
                )

    def test_filters_and_scores_once(self, monkeypatch):
        import lyricstats.weat as weat

        calls = {"apply_oov_policy": 0, "_association_scores": 0}
        for name in calls:
            original = getattr(weat, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(weat, name, counted)
        test, table = random_weat(np.random.default_rng(23))
        assert run_test(test, table, p_mode="monte_carlo", n_samples=500, seed=1).error is None
        assert calls == {"apply_oov_policy": 1, "_association_scores": 2}

    def test_degenerate_result_keeps_coverage(self):
        rng = np.random.default_rng(24)
        table = random_table(["x1", "x2", "y1", "y2", "a1", "a2"], 4, rng)
        test = WeatTest("degen", ("x1", "x2", "x9"), ("y1", "y2"), ("a1", "a2"), ("a1", "a2"))
        r = run_test(test, table, p_mode="exact")
        assert r.error is not None and "effect size undefined" in r.error
        assert r.p_value is None and r.p_method == "none"
        assert r.coverage["targets_x"] == (3, 2) and r.coverage["attributes_b"] == (2, 2)
        assert r.dropped_words == ("x9",)

    def test_exact_over_budget_keeps_effect_size(self):
        # C(22, 11) = 705,432 partitions exceed the exact budget: only the p-value fails
        test, table = random_weat(np.random.default_rng(26), n_targets=11)
        r = run_test(test, table, p_mode="exact")
        assert r.error is not None and "exact budget" in r.error
        assert r.p_value is None and r.p_method == "none"
        assert r.effect_size == effect_size(test, table).effect_size
        assert r.test_statistic == weat_statistic(test, table)
        assert r.coverage["targets_x"] == (11, 11)

    def test_underfilled_result_has_no_coverage(self):
        rng = np.random.default_rng(25)
        table = random_table(["x1", "y1", "a1", "a2", "b1", "b2"], 4, rng)
        test = WeatTest("uf", ("x1", "x9"), ("y1", "y9"), ("a1", "a2"), ("b1", "b2"))
        r = run_test(test, table)
        assert "under-filled" in r.error and r.coverage == {} and r.dropped_words == ()


class TestProperties:
    def test_antisymmetry_target_and_attribute_swaps(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            test, table = random_weat(rng)
            d = effect_size(test, table).effect_size
            swapped_t = WeatTest("t", test.targets_y, test.targets_x, test.attributes_a, test.attributes_b)
            swapped_a = WeatTest("a", test.targets_x, test.targets_y, test.attributes_b, test.attributes_a)
            assert effect_size(swapped_t, table).effect_size == pytest.approx(-d, abs=1e-12)
            assert effect_size(swapped_a, table).effect_size == pytest.approx(-d, abs=1e-12)

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(20)
        test, table = random_weat(rng, n_targets=3)
        scaled = make_table({w: 7.5 * table.get(w) for w in table.vocab})
        assert effect_size(test, scaled).effect_size == pytest.approx(
            effect_size(test, table).effect_size, abs=1e-12
        )
        assert weat_statistic(test, scaled) == pytest.approx(weat_statistic(test, table), abs=1e-12)
        assert permutation_p(test, scaled, mode="exact") == pytest.approx(
            permutation_p(test, table, mode="exact"), abs=1e-12
        )


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

    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    @pytest.mark.parametrize("inclusive", [False, True])
    def test_battery_p_values_equal_each_test_alone(self, mode, inclusive):
        tests, table = mixed_battery(np.random.default_rng(31), self.SIZES)
        kwargs = dict(p_mode=mode, n_samples=45_000, seed=8, inclusive=inclusive)
        results = run_battery(tests, table, **kwargs)
        assert [r.error is not None for r in results] == [False] * 6 + [True, True, False]
        for test, r in zip(tests, results):
            assert r == run_test(test, table, **kwargs)
            if r.error is None:
                assert r.p_value == permutation_p(
                    test, table, mode=mode, n_samples=45_000, seed=8, inclusive=inclusive
                )
                assert r.effect_size == effect_size(test, table).effect_size
        assert 0.0 < min(r.p_value for r in results if r.p_value is not None)

    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    def test_one_draw_per_chunk_per_list_size(self, monkeypatch, mode):
        import lyricstats.weat as weat

        chunks: dict[int, int] = {}
        original = weat._subset_chunks

        def counted(n, *args):
            size, draws = original(n, *args)

            def counting():
                for subsets in draws:
                    chunks[n] = chunks.get(n, 0) + 1
                    yield subsets

            return size, counting()

        monkeypatch.setattr(weat, "_subset_chunks", counted)
        monkeypatch.setattr(weat, "_SUBSET_CHUNK", 100)
        tests, table = mixed_battery(np.random.default_rng(32), self.SIZES)
        results = run_battery(tests, table, p_mode=mode, n_samples=450, seed=2)
        # list sizes 3, 4 and 6 (the third test runs at 4, two tests fail)
        expected = {3: 20, 4: 70, 6: 924} if mode == "exact" else {3: 450, 4: 450, 6: 450}
        assert chunks == {n: -(-size // 100) for n, size in expected.items()}
        assert sum(r.p_value is not None for r in results) == 7

    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    def test_p_values_do_not_depend_on_the_chunk_size(self, monkeypatch, mode):
        import lyricstats.weat as weat

        tests, table = mixed_battery(np.random.default_rng(35), self.SIZES)
        runs = []
        for chunk in (7, 1000, 20_000):
            monkeypatch.setattr(weat, "_SUBSET_CHUNK", chunk)
            runs.append([r.p_value for r in run_battery(tests, table, p_mode=mode, n_samples=3001, seed=3)])
        assert runs[0] == runs[1] == runs[2]

    def test_group_over_exact_budget_keeps_each_effect_size(self):
        # two tests of 11 targets per list: C(22, 11) partitions exceed the budget
        tests, table = mixed_battery(np.random.default_rng(33), [(11, 0), (3, 0), (11, 0)])
        results = run_battery(tests, table, p_mode="exact")
        for test, r in zip(tests, results):
            if test.name == "t1":
                assert r.error is None and r.p_method == "exact"
                continue
            assert "exact budget" in r.error and r.p_value is None and r.p_method == "none"
            assert r.effect_size == effect_size(test, table).effect_size
            assert r.test_statistic == weat_statistic(test, table)
            assert r.coverage["targets_x"] == (11, 11)
        assert results[0].effect_size != results[2].effect_size

    def test_negative_seed_refused(self):
        test, table = random_weat(np.random.default_rng(34))
        with pytest.raises(WeatError, match="seed >= 0"):
            permutation_p(test, table, mode="monte_carlo", seed=-1)
        r = run_test(test, table, p_mode="monte_carlo", seed=-1)
        assert "seed >= 0" in r.error and r.effect_size is not None

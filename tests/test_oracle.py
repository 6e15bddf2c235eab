import numpy as np
import pytest

from submax import (
    CutObjective,
    InvalidSubsetError,
    ModularObjective,
    NonmonotoneParams,
    Objective,
    QueryLedger,
    RevenueObjective,
    SaturatedCoverageObjective,
    Subset,
    WeightedGraph,
    adaptive_nonmonotone_max,
    batch_marginals,
    batch_pair_gains,
    evaluate_batch,
    evaluate_offline,
    greedy,
    make_rng,
    sample_without_replacement,
    spawn_seeds,
)


def path_graph():
    return WeightedGraph(n=3, edges=[(0, 1, 1.0), (1, 2, 1.0)])


class TestSubset:
    def test_dedup_and_order(self):
        s = Subset([3, 1, 3, 0])
        assert s.indices == (0, 1, 3)
        assert len(s) == 3
        assert 1 in s and 2 not in s

    def test_union_and_add(self):
        s = Subset([0]).union([2, 1]).add(2)
        assert s.indices == (0, 1, 2)

    def test_hash_eq(self):
        assert Subset([1, 2]) == Subset([2, 1])
        assert hash(Subset([1, 2])) == hash(Subset([2, 1]))
        assert Subset([1]) != Subset([1, 2])

    @pytest.mark.parametrize("make", [np.array, list, frozenset,
                                      lambda xs: (x for x in xs)],
                             ids=["ndarray", "list", "frozenset", "generator"])
    def test_every_iterable_gives_the_same_set(self, make):
        s = Subset(make([5, 2, 9, 2, 0]))
        assert s.indices == (0, 2, 5, 9)
        assert all(type(i) is int for i in s.indices)
        assert s.to_array().dtype == np.int64
        assert s.to_array().tolist() == [0, 2, 5, 9]
        assert s == Subset([0, 2, 5, 9]) and hash(s) == hash(Subset([9, 5, 2, 0]))

    def test_range_gives_the_same_set(self):
        assert Subset(range(2, 6)) == Subset(np.array([5, 3, 2, 4, 4]))
        assert Subset(range(0)) == Subset() and len(Subset(range(0))) == 0

    def test_one_read_only_array(self):
        # A write through to_array() would make the set score other members
        # than it reports; the array refuses it.
        assert Subset.__slots__ == ("_array",)
        s = Subset([0, 1])
        with pytest.raises(ValueError, match="read-only"):
            s.to_array()[0] = 2
        assert s.indices == (0, 1) and 2 not in s
        assert evaluate_offline(ModularObjective([1.0, 10.0, 100.0]), s) == 11.0

    def test_input_array_stays_writable_and_unshared(self):
        given = np.array([4, 1], dtype=np.int64)
        s = Subset(given)
        given[0] = 0
        assert given.flags.writeable and s.indices == (1, 4)

    @pytest.mark.parametrize("other", [[3, 1], (3, 1), np.array([3, 1]),
                                       Subset([1, 3]), frozenset({1, 3}), range(1, 4, 2)],
                             ids=["list", "tuple", "ndarray", "subset", "frozenset", "range"])
    def test_union_takes_any_index_collection(self, other):
        assert Subset([5, 1]).union(other) == Subset([1, 3, 5])
        assert Subset().union(other).to_array().tolist() == [1, 3]

    def test_membership_of_values_outside_the_set(self):
        s = Subset([2, 7])
        assert [x in s for x in (-1, 0, 2, 3, 7, 8)] == [False, False, True,
                                                          False, True, False]
        assert 2 in s and np.int64(7) in s and 2.5 not in s
        assert 0 not in Subset()

    def test_negative_index_rejected(self):
        for bad in ([-1], [3, -2, 3], np.array([0, -5])):
            with pytest.raises(InvalidSubsetError):
                Subset(bad)


class TestEvaluateBatch:
    def test_modular_example(self):
        f = ModularObjective([1.0, 2.0, 3.0])
        led = QueryLedger()
        vals = evaluate_batch(f, [Subset([0]), Subset([0, 1]), Subset()], led)
        assert list(vals) == [1.0, 3.0, 0.0]
        assert led.rounds == 1
        assert led.total_queries == 3

    def test_empty_set_single_query(self):
        f = ModularObjective([5.0])
        led = QueryLedger()
        vals = evaluate_batch(f, [Subset()], led)
        assert vals[0] == 0.0
        assert (led.rounds, led.total_queries) == (1, 1)

    def test_path_cut_counts_both_incident_edges(self):
        f = CutObjective(path_graph())
        led = QueryLedger()
        vals = evaluate_batch(f, [Subset([1])], led)
        assert vals[0] == 2.0

    def test_out_of_range_rejected(self):
        f = ModularObjective([1.0, 2.0])
        with pytest.raises(InvalidSubsetError):
            evaluate_batch(f, [Subset([2])], QueryLedger())

    def test_duplicate_array_query_rejected(self):
        f = ModularObjective([1.0, 2.0, 3.0])
        with pytest.raises(InvalidSubsetError):
            evaluate_batch(f, [np.array([1, 1])], QueryLedger())

    def test_empty_batch_rejected(self):
        f = ModularObjective([1.0, 2.0, 3.0])
        led = QueryLedger()
        for batch in ([], np.zeros((0, 3), dtype=bool)):
            with pytest.raises(ValueError, match="nonempty"):
                evaluate_batch(f, batch, led)
        assert led.rounds == 0

    @pytest.mark.parametrize("mask", [
        np.zeros((2, 4), dtype=bool), np.zeros((2, 2), dtype=bool),
        np.zeros(3, dtype=bool), np.zeros((1, 1, 3), dtype=bool),
        np.zeros((2, 3), dtype=np.int64), np.ones((2, 3)),
    ], ids=["wide", "narrow", "1d", "3d", "int", "float"])
    def test_malformed_mask_rejected(self, mask):
        f = ModularObjective([1.0, 2.0, 3.0])
        led = QueryLedger()
        with pytest.raises(ValueError, match="mask batch"):
            evaluate_batch(f, mask, led)
        assert led.rounds == 0

    def test_mask_rows_are_the_subsets(self):
        f = ModularObjective([1.0, 2.0, 4.0])
        led = QueryLedger()
        masks = np.array([[False, False, False], [True, False, True],
                          [True, True, True]])
        assert evaluate_batch(f, masks, led).tolist() == [0.0, 5.0, 7.0]
        assert led.per_round == [(1, 3)]

    def test_array_queries_match_subsets(self):
        g = WeightedGraph(n=5, edges=[(0, 1, 0.3), (1, 2, 0.7), (2, 4, 1.1)])
        f = RevenueObjective(g)
        queries = [np.array([2, 0]), np.array([4]), np.array([], dtype=np.int64)]
        vals = evaluate_batch(f, queries, QueryLedger())
        for q, v in zip(queries, vals):
            assert v == pytest.approx(evaluate_offline(f, Subset(q)), abs=1e-12)


class TestBatchMarginals:
    def test_modular_marginals_equal_weights(self):
        f = ModularObjective([1.0, 2.0, 3.0])
        led = QueryLedger()
        gains = batch_marginals(f, Subset(), [0, 1, 2], 0.0, led)
        assert list(gains) == [1.0, 2.0, 3.0]
        assert (led.rounds, led.total_queries) == (1, 3)

    def test_readding_member_is_zero(self):
        f = ModularObjective([1.0, 2.0, 3.0])
        gains = batch_marginals(f, Subset([0]), [0], 1.0, QueryLedger())
        assert gains[0] == 0.0

    def test_revenue_two_node_marginal(self):
        f = RevenueObjective(WeightedGraph(n=2, edges=[(0, 1, 1.0)]))
        gains = batch_marginals(f, Subset(), [0], 0.0, QueryLedger())
        assert gains[0] == pytest.approx(1.0)

    def test_matches_offline_differences(self):
        g = WeightedGraph(n=6, edges=[(0, 1, 0.5), (1, 2, 0.9), (3, 4, 0.2),
                                      (0, 5, 1.3), (2, 5, 0.4)])
        f = CutObjective(g)
        base = Subset([0, 3])
        base_val = evaluate_offline(f, base)
        gains = batch_marginals(f, base, range(6), base_val, QueryLedger())
        for x in range(6):
            expect = evaluate_offline(f, base.add(x)) - base_val
            assert gains[x] == pytest.approx(expect, abs=1e-9)


class TestBatchPairGains:
    def test_fast_path_matches_generic(self):
        g = WeightedGraph(n=7, edges=[(0, 1, 0.5), (1, 2, 0.9), (3, 4, 0.2),
                                      (0, 5, 1.3), (2, 6, 0.4), (5, 6, 0.8)])
        fast = RevenueObjective(g)

        class SlowRevenue(RevenueObjective):
            def _gain_batch(self, base_idx, t_mat, xs):
                return None

        slow = SlowRevenue(g)
        base = Subset([3])
        t_mat = np.array([[0, 1], [2, 5], [1, 6], [0, 6]])
        xs = np.array([2, 6, 0, 3])  # last row: x already in base
        got = batch_pair_gains(fast, base, t_mat, xs, QueryLedger())
        want = batch_pair_gains(slow, base, t_mat, xs, QueryLedger())
        assert np.allclose(got, want, atol=1e-9)
        assert got[3] == 0.0

    def test_ledger_counts_two_per_sample(self):
        f = ModularObjective(np.ones(4))
        led = QueryLedger()
        batch_pair_gains(f, Subset(), np.empty((5, 0), dtype=np.int64),
                         np.arange(4)[[0, 1, 2, 3, 0]], led)
        assert led.rounds == 1
        assert led.total_queries == 10
        assert led.logical_samples == 5


class TestQueryLedger:
    def test_conservation(self):
        led = QueryLedger()
        led.add_round(3)
        led.add_round(7, logical_samples=2)
        assert led.total_queries == sum(q for _, q in led.per_round) == 10
        assert led.rounds == len(led.per_round) == 2
        assert led.cumulative_queries() == [3, 10]
        assert led.logical_samples == 2

    def test_rejects_empty_round(self):
        with pytest.raises(ValueError):
            QueryLedger().add_round(0)

    def test_extend_parallel(self):
        a, b = QueryLedger(), QueryLedger()
        a.add_round(5)
        a.record_value(1.5)
        a.add_round(2, logical_samples=1)
        a.record_value(3.0)
        b.add_round(1)
        b.record_value(2.0)
        b.add_round(4, logical_samples=2)
        b.add_round(10)
        b.record_value(0.5)
        merged = QueryLedger()
        merged.add_round(7)
        merged.record_value(1.0)
        merged.extend_parallel([a, b])
        assert merged.rounds == 4
        assert merged.total_queries == 7 + a.total_queries + b.total_queries
        assert [q for _, q in merged.per_round] == [7, 6, 6, 10]
        assert merged.logical_samples == 3
        assert merged.values == {1: 1.0, 2: 2.0, 3: 3.0, 4: 0.5}

    def test_record_value_keeps_best_of_round(self):
        led = QueryLedger()
        with pytest.raises(ValueError):
            led.record_value(1.0)  # no round to attach it to
        led.add_round(3)
        led.record_value(np.float64(2.0))
        led.record_value(1.0)
        assert led.values == {1: 2.0}
        assert type(led.values[1]) is float


class _FallbackModular(Objective):
    """Modular weights with no batched kernel, so every call takes the fallback."""

    def __init__(self, weights):
        super().__init__(len(weights))
        self.weights = np.asarray(weights, dtype=np.float64)

    def _evaluate(self, idx):
        return float(self.weights[idx].sum())


NON_FINITE = [(make, bad) for make in (ModularObjective, _FallbackModular)
              for bad in (np.nan, np.inf)]


class TestNonFiniteValuesRejected:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("make,bad", NON_FINITE)
    def test_evaluate_batch(self, make, bad):
        f = make([1.0, bad, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            evaluate_batch(f, [Subset([0]), Subset([0, 1])], QueryLedger())

    @pytest.mark.parametrize("make,bad", NON_FINITE)
    def test_batch_marginals(self, make, bad):
        f = make([1.0, bad, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            batch_marginals(f, Subset([0]), [1, 2], 1.0, QueryLedger())

    @pytest.mark.parametrize("make,bad", NON_FINITE)
    def test_batch_pair_gains(self, make, bad):
        f = make([1.0, bad, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            batch_pair_gains(f, Subset(), np.array([[0]]), np.array([1]),
                             QueryLedger())

    def test_nan_coverage_contribution_fails_at_first_round(self):
        # A NaN set after construction still stops at the batch layer.
        f = SaturatedCoverageObjective(np.array([[1.0], [2.0]]), np.array([5.0]))
        f.a[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            evaluate_batch(f, [Subset([0, 1])], QueryLedger())

    def test_algorithms_fail_instead_of_returning(self):
        f = ModularObjective([1.0, np.nan, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            greedy(f, 2, QueryLedger())
        params = NonmonotoneParams(k=2, eps=0.3, delta=0.1, sample_override=20)
        with pytest.raises(ValueError, match="non-finite"):
            adaptive_nonmonotone_max(f, params, 0)


class TestRandomness:
    def test_identical_seed_identical_stream(self):
        a, b = make_rng(123), make_rng(123)
        assert np.array_equal(a.random(100), b.random(100))

    def test_spawned_streams_differ(self):
        kids = spawn_seeds(7, 3)
        draws = [np.random.default_rng(k).random(8) for k in kids]
        assert not np.array_equal(draws[0], draws[1])
        again = [np.random.default_rng(k).random(8) for k in spawn_seeds(7, 3)]
        for x, y in zip(draws, again):
            assert np.array_equal(x, y)

    def test_sample_without_replacement(self):
        pool = np.arange(10, 20)
        got = sample_without_replacement(make_rng(5), pool, 4)
        assert got.size == 4
        assert len(set(got.tolist())) == 4
        assert set(got.tolist()) <= set(pool.tolist())
        again = sample_without_replacement(make_rng(5), pool, 4)
        assert np.array_equal(got, again)
        everything = sample_without_replacement(make_rng(1), pool, 99)
        assert sorted(everything.tolist()) == list(range(10, 20))

    @pytest.mark.parametrize("size_of_pool,size", [
        (0, 0), (0, 3), (1, 0), (1, 1), (7, 0), (7, 1), (7, 3), (7, 7),
        (7, 12), (40, 39), (300, 25)])
    def test_sample_without_replacement_equals_swap_loop(self, size_of_pool, size):
        def loop_reference(rng, pool, size):
            # One draw per swap: the partial Fisher-Yates loop as first written.
            arr = np.array(pool, dtype=np.int64, copy=True)
            size = min(int(size), arr.size)
            for i in range(size):
                j = i + int(rng.integers(arr.size - i))
                arr[i], arr[j] = arr[j], arr[i]
            return arr[:size]

        pool = np.arange(size_of_pool, dtype=np.int64) * 3 + 11
        for seed in range(6):
            rng, ref = make_rng(seed), make_rng(seed)
            got = sample_without_replacement(rng, pool, size)
            want = loop_reference(ref, pool, size)
            assert got.dtype == np.int64
            assert got.tolist() == want.tolist()
            assert rng.integers(2**40) == ref.integers(2**40)
        assert pool.tolist() == (np.arange(size_of_pool) * 3 + 11).tolist()

    def test_sample_without_replacement_uniform_ish(self):
        pool = np.arange(5)
        rng = make_rng(0)
        counts = np.zeros(5)
        reps = 4000
        for _ in range(reps):
            for x in sample_without_replacement(rng, pool, 2):
                counts[x] += 1
        freq = counts / (2 * reps)
        assert np.all(np.abs(freq - 0.2) < 0.03)


def test_evaluate_offline_leaves_no_trace():
    f = ModularObjective([1.0, 2.0])
    assert evaluate_offline(f, Subset([1])) == 2.0
    assert evaluate_offline(f, [1, 0]) == 3.0


def test_evaluate_offline_rejects_duplicates_like_evaluate_batch():
    f = ModularObjective([1.0, 2.0])
    with pytest.raises(InvalidSubsetError, match="duplicate"):
        evaluate_batch(f, [[1, 1]], QueryLedger())
    with pytest.raises(InvalidSubsetError, match="duplicate"):
        evaluate_offline(f, [1, 1])

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submax import (
    ModularObjective,
    QueryLedger,
    RevenueObjective,
    WeightedGraph,
    brute_force_opt,
    evaluate_offline,
    generate_synthetic,
    greedy,
    make_rng,
    random_lazy_greedy,
    random_prefix,
)
from submax.baselines import _top_k
from submax.objectives import make_random_coverage


class TestGreedy:
    def test_modular_top_k(self):
        f = ModularObjective([1.0, 2.0, 3.0])
        led = QueryLedger()
        out = greedy(f, 2, led)
        assert out.tolist() == [1, 2]
        assert evaluate_offline(f, out) == 5.0
        # One initial round for the empty set, then one batch per pick.
        assert led.rounds == 3
        assert led.total_queries == 1 + 3 + 2

    def test_revenue_stops_when_gains_turn_negative(self):
        f = RevenueObjective(WeightedGraph(n=2, edges=[(0, 1, 1.0)]))
        out = greedy(f, 2, QueryLedger())
        assert out.tolist() == [0]  # tie on the first pick goes to index 0
        assert evaluate_offline(f, out) == pytest.approx(1.0)

    def test_all_zero_selects_nothing(self):
        f = ModularObjective(np.zeros(5))
        led = QueryLedger()
        out = greedy(f, 3, led)
        assert out.size == 0
        assert led.rounds == 2  # empty-set round plus one fruitless scan

    def test_ledger_bounds(self):
        f = generate_synthetic("synthetic-cut", 30, 0.2, seed=1).objective()
        k = 6
        led = QueryLedger()
        out = greedy(f, k, led)
        assert led.rounds <= k + 1
        assert led.total_queries <= 30 * k + 30
        assert led.rounds == len(out) + 1

    def test_progress_is_nondecreasing(self):
        f = generate_synthetic("synthetic-cut", 20, 0.3, seed=2).objective()
        led = QueryLedger()
        greedy(f, 5, led)
        values = [led.values[r] for r in sorted(led.values)]
        assert values == sorted(values)


class TestRandomPrefix:
    def test_full_length_prefix_for_modular(self):
        f = ModularObjective(np.full(6, 1.0))
        out = random_prefix(f, 6, make_rng(0), QueryLedger())
        assert out.tolist() == list(range(6))

    def test_k_one(self):
        f = ModularObjective([2.0, 3.0])
        out = random_prefix(f, 1, make_rng(0), QueryLedger())
        assert len(out) <= 1

    def test_ledger_single_round(self):
        f = ModularObjective(np.ones(10))
        led = QueryLedger()
        random_prefix(f, 4, make_rng(1), led)
        assert led.rounds == 1
        assert led.total_queries == 5

    def test_two_node_revenue_always_value_one(self):
        # Both orderings of the two nodes yield a best prefix of value 1.
        f = RevenueObjective(WeightedGraph(n=2, edges=[(0, 1, 1.0)]))
        for seed in range(200):
            out = random_prefix(f, 2, make_rng(seed), QueryLedger())
            assert evaluate_offline(f, out) == pytest.approx(1.0)


class TestRandomLazyGreedy:
    def test_modular_selects_everything_when_k_equals_n(self):
        f = ModularObjective([1.0, 2.0, 3.0])
        out = random_lazy_greedy(f, 3, 0.01, make_rng(0), QueryLedger())
        assert out.tolist() == [0, 1, 2]

    def test_k_one_matches_greedy(self):
        for seed in range(5):
            f = generate_synthetic("synthetic-cut", 15, 0.3, seed=seed).objective()
            lazy = random_lazy_greedy(f, 1, 0.01, make_rng(seed), QueryLedger())
            plain = greedy(f, 1, QueryLedger())
            assert lazy.tolist() == plain.tolist()

    def test_each_pick_is_among_true_top_k(self):
        # Replay the run against exhaustively recomputed marginals.
        f = generate_synthetic("synthetic-cut", 12, 0.4, seed=3).objective()
        k = 3
        out = random_lazy_greedy(f, k, 0.01, make_rng(7), QueryLedger())
        picked = []
        # Order of picks is not exposed, so verify set-wise: simulate all
        # prefixes of the run by checking each chosen element against the
        # top-k marginals of some consistent growth order.
        remaining = set(out.tolist())
        s = []
        while remaining:
            base = evaluate_offline(f, s)
            gains = {x: evaluate_offline(f, s + [x]) - base
                     for x in range(f.n) if x not in s}
            order = sorted(gains, key=lambda x: (-gains[x], x))
            top = {x for x in order[:k] if gains[x] > 0}
            inter = remaining & top
            assert inter, (remaining, top)
            x = inter.pop()
            remaining.discard(x)
            s.append(x)
            picked.append(x)
        assert set(picked) == set(out.tolist())

    def test_stops_without_positive_gain(self):
        f = ModularObjective(np.zeros(6))
        out = random_lazy_greedy(f, 3, 0.01, make_rng(0), QueryLedger())
        assert out.size == 0

    def test_one_over_e_statistics_on_coverage(self):
        f = make_random_coverage(10, 5, seed=4)
        k = 4
        _, opt = brute_force_opt(f, k)
        vals = []
        for i in range(500):
            out = random_lazy_greedy(f, k, 0.01, make_rng(i), QueryLedger())
            vals.append(evaluate_offline(f, out))
        assert np.mean(vals) >= (1 / np.e - 0.05) * opt


@st.composite
def tied_bounds(draw):
    """(bounds, k): bounds drawn from at most three values, 0.0 and -0.0
    among the choices, and k below, at or above the number of bounds."""
    values = draw(st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0, 3.0, 5e-324]),
                           min_size=1, max_size=3))
    bounds = draw(st.lists(st.sampled_from(values), min_size=1, max_size=60))
    return np.array(bounds), draw(st.integers(1, len(bounds) + 3))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=tied_bounds())
@example(case=(np.full(9, 2.5), 4))
@example(case=(np.array([0.0, -0.0, 0.0, -0.0, 1.0]), 3))
@example(case=(np.array([-0.0, 0.0, 1.0]), 3))
@example(case=(np.array([1.0, 1.0]), 5))
def test_top_k_equals_the_stable_sort(case):
    # Lazy greedy's pool and its random pick index this order, so it must be
    # the full stable sort's to the last tie: highest bound first, then the
    # lower candidate.
    bounds, k = case
    candidates = np.arange(bounds.size, dtype=np.int64) * 3 + 1
    got = _top_k(candidates, bounds, k)
    want = candidates[np.argsort(-bounds, kind="stable")[:k]]
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()

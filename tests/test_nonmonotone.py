import dataclasses
import itertools
import math

import numpy as np
import pytest

from submax import (
    BreakReason,
    InvalidSubsetError,
    ModularObjective,
    NonmonotoneParams,
    QueryLedger,
    RevenueObjective,
    ThresholdParams,
    WeightedGraph,
    adaptive_nonmonotone_max,
    best_prefix,
    brute_force_opt,
    downsample,
    evaluate_offline,
    generate_synthetic,
    make_rng,
    max_singleton,
    oracle,
    spawn_seeds,
    threshold_grid,
    threshold_sampling,
)
from submax.nonmonotone import C1, C3


class _Offset(ModularObjective):
    """A constant plus modular weights: submodular, with f(empty) > 0."""

    def __init__(self, offset, weights):
        super().__init__(weights)
        self.offset = offset

    def _evaluate(self, idx):
        return self.offset + super()._evaluate(idx)

    def _evaluate_batch(self, masks):
        return self.offset + super()._evaluate_batch(masks)


class TestParams:
    def test_grid_example(self):
        # k=10, eps=0.6: eps_hat=0.1, r=47, first threshold 1/70 per unit.
        p = NonmonotoneParams(k=10, eps=0.6, delta=0.1)
        d = p.derive()
        assert d.eps_hat == pytest.approx(0.1)
        assert d.r == 47
        grid = threshold_grid(1.0, p)
        assert len(grid) == 48
        assert grid[0] == pytest.approx(1.0 / 70.0)
        assert d.break_size == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            NonmonotoneParams(k=0, eps=0.3, delta=0.1)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sample_override_below_one_rejected(self, samples):
        with pytest.raises(ValueError, match="sample_override"):
            NonmonotoneParams(k=2, eps=0.3, delta=0.1, sample_override=samples)
        assert NonmonotoneParams(k=2, eps=0.3, delta=0.1,
                                 sample_override=None).sample_override is None

    def test_fields_are_the_run_inputs_only(self):
        names = [f.name for f in dataclasses.fields(NonmonotoneParams)]
        assert names == ["k", "eps", "delta", "sample_override"]
        assert (C1, C3) == (1.0 / 7.0, 3.0)


class TestMaxSingleton:
    def test_modular(self):
        f = ModularObjective([1.0, 2.0, 3.0])
        led = QueryLedger()
        assert max_singleton(f, led) == 3.0
        # ANM's round 1: f(empty) and the three singletons.
        assert led.per_round == [(1, 4)]
        assert led.values == {1: 3.0}

    def test_revenue_two_node(self):
        f = RevenueObjective(WeightedGraph(n=2, edges=[(0, 1, 1.0)]))
        assert max_singleton(f, QueryLedger()) == pytest.approx(1.0)

    def test_all_zero_short_circuits_full_run(self):
        f = ModularObjective(np.zeros(6))
        params = NonmonotoneParams(k=2, eps=0.3, delta=0.1, sample_override=20)
        out, ledger, trials = adaptive_nonmonotone_max(f, params, 0)
        assert out.size == 0
        assert trials == []
        assert ledger.rounds == 1


class TestDownsample:
    def test_identity_when_small(self):
        u = np.array([1, 2, 3])
        assert downsample(u, 3, make_rng(0)) is u
        assert downsample(np.empty(0, dtype=np.int64), 2, make_rng(0)).size == 0

    def test_uniform_k_subset(self):
        u = np.arange(8)
        got = downsample(u, 3, make_rng(1))
        assert len(got) == 3
        assert set(got.tolist()) <= set(range(8))

    def test_modular_exhaustive_expectation(self):
        # Average over all 3-subsets of a 6-set equals half the full value.
        weights = np.array([0.3, 1.1, 0.7, 2.2, 0.5, 1.9])
        f = ModularObjective(weights)
        u = list(range(6))
        full = evaluate_offline(f, u)
        vals = [evaluate_offline(f, c) for c in itertools.combinations(u, 3)]
        assert np.mean(vals) == pytest.approx(0.5 * full, abs=1e-12)


class TestBestPrefix:
    def test_empty(self):
        f = ModularObjective([1.0])
        out, value = best_prefix(f, np.empty(0, dtype=np.int64), make_rng(0),
                                 QueryLedger())
        assert out.size == 0
        assert value == 0.0

    def test_modular_full_set_is_best(self):
        f = ModularObjective([0.5, 1.5, 1.0])
        led = QueryLedger()
        out, value = best_prefix(f, np.array([0, 1, 2]), make_rng(3), led)
        assert out.tolist() == [0, 1, 2]
        assert (led.rounds, led.total_queries) == (1, 4)
        assert value == led.values[1] == 3.0

    def test_revenue_two_node_picks_length_one(self):
        f = RevenueObjective(WeightedGraph(n=2, edges=[(0, 1, 1.0)]))
        out, _ = best_prefix(f, np.array([0, 1]), make_rng(0), QueryLedger())
        assert len(out) == 1
        assert evaluate_offline(f, out) == pytest.approx(1.0)

    def test_repeated_element_rejected(self):
        # Unchecked, the prefix [3, 3] came back with value 3.0.
        f = ModularObjective(np.arange(8.0))
        led = QueryLedger()
        with pytest.raises(InvalidSubsetError, match="duplicate"):
            best_prefix(f, np.array([3, 3]), make_rng(0), led)
        assert led.rounds == 0

    def test_two_dimensional_order_rejected_by_name(self):
        # Unchecked, numpy's "shape mismatch ... could not be broadcast"
        # named neither the order nor the entry point.
        f = ModularObjective(np.arange(8.0))
        led = QueryLedger()
        with pytest.raises(ValueError, match="pool or order must be one-dimensional"):
            oracle.prefix_round(f, np.array([[0, 1]]), led)
        assert led.rounds == 0


class TestGridCoverage:
    def test_some_threshold_brackets_the_optimum_scale(self):
        for kind, n, param, seed in (("revenue", 10, 0.4, 1),
                                     ("synthetic-cut", 10, 0.4, 2),
                                     ("image", 10, None, 3)):
            f = generate_synthetic(kind, n, param, seed=seed).objective()
            k = 4
            params = NonmonotoneParams(k=k, eps=0.3, delta=0.1)
            d = params.derive()
            delta_star = max(evaluate_offline(f, [x]) for x in range(n))
            _, opt = brute_force_opt(f, k)
            assert 0 < opt <= k * delta_star + 1e-12
            target = C1 * opt / k
            grid = threshold_grid(delta_star, params)
            assert any(tau <= target <= tau * (1 + d.eps_hat) + 1e-12
                       for tau in grid)


class TestAdaptiveNonmonotoneMax:
    def test_modular_reaches_scaled_optimum(self):
        weights = np.linspace(0.2, 3.0, 20)
        f = ModularObjective(weights)
        k, eps = 5, 0.3
        params = NonmonotoneParams(k=k, eps=eps, delta=0.1, sample_override=60)
        _, opt = brute_force_opt(f, k)
        out, _, _ = adaptive_nonmonotone_max(f, params, 7)
        assert len(out) <= k
        assert evaluate_offline(f, out) >= (1 - eps) * C1 * opt

    def test_output_never_exceeds_k(self):
        f = generate_synthetic("revenue", 14, 0.3, seed=4).objective()
        params = NonmonotoneParams(k=3, eps=0.3, delta=0.1, sample_override=40)
        for seed in range(5):
            out, _, trials = adaptive_nonmonotone_max(f, params, seed)
            assert len(out) <= 3
            for t in trials:
                assert len(t.outcome.s) <= 3
                if t.downsampled is not None:
                    assert len(t.downsampled) <= 3

    def test_trial_invariants(self):
        f = generate_synthetic("revenue", 14, 0.3, seed=5).objective()
        params = NonmonotoneParams(k=3, eps=0.3, delta=0.1, sample_override=40)
        _, _, trials = adaptive_nonmonotone_max(f, params, 11)
        assert len(trials) == params.derive().r + 1
        for t in trials:
            small = t.outcome.break_reason is BreakReason.SMALL_A
            assert (t.unconstrained_set is not None) == small
            # The surviving pool is the sampler's own int64 array.
            assert t.outcome.a is t.outcome.snapshots[-1]["a"]
            assert t.outcome.a.dtype == np.int64
            if small:
                assert set(t.unconstrained_set.tolist()) <= set(t.outcome.a.tolist())
                assert set(t.downsampled.tolist()) <= set(t.unconstrained_set.tolist())
                assert set(t.prefix_set.tolist()) <= set(t.downsampled.tolist())
                assert t.prefix_value == pytest.approx(
                    evaluate_offline(f, t.prefix_set), abs=1e-9)

    def test_ledger_merges_parallel_trials(self):
        f = generate_synthetic("revenue", 14, 0.3, seed=6).objective()
        params = NonmonotoneParams(k=3, eps=0.3, delta=0.1, sample_override=40)
        _, ledger, trials = adaptive_nonmonotone_max(f, params, 13)
        per_trial = [t.outcome.ledger for t in trials]
        assert ledger.rounds == 1 + max(led.rounds for led in per_trial)
        assert ledger.total_queries == f.n + 1 + sum(led.total_queries
                                                     for led in per_trial)
        assert ledger.per_round[0] == (1, f.n + 1)  # f(empty) and each singleton

    def test_empty_a_trial_has_no_rounds_and_merges_cleanly(self):
        # f = 10 + modular weights: three heavy elements gain 2.0, the rest
        # 0.001, and delta* = 12 puts the grid at 0.86..3.4. Trials with
        # tau <= 2 keep the three heavy elements, fewer than 3k, and fall
        # back; the others find an empty pool on the sweep, so the sampler
        # asks nothing and their ledgers hold no rounds.
        weights = np.concatenate([np.full(3, 2.0), np.full(27, 0.001)])
        f = _Offset(10.0, weights)
        params = NonmonotoneParams(k=2, eps=0.3, delta=0.1, sample_override=20)
        _, ledger, trials = adaptive_nonmonotone_max(f, params, 5)
        reasons = [t.outcome.break_reason for t in trials]
        assert set(reasons) == {BreakReason.SMALL_A, BreakReason.EMPTY_A}
        for t in trials:
            if t.outcome.break_reason is BreakReason.EMPTY_A:
                assert t.tau > 2.0
                assert t.outcome.a.size == 0 and t.outcome.s.size == 0
                assert t.outcome.f_s == t.outcome.f_empty == 10.0
                led = t.outcome.ledger
                assert (led.per_round, led.values, led.logical_samples) == ([], {}, 0)
        fallbacks = [t.outcome.ledger for t in trials
                     if t.outcome.break_reason is BreakReason.SMALL_A]
        assert {led.rounds for led in fallbacks} == {2}
        assert ledger.per_round == [
            (1, f.n + 1), (2, sum(led.per_round[0][1] for led in fallbacks)),
            (3, sum(led.per_round[1][1] for led in fallbacks))]
        assert ledger.values[1] == 12.0
        assert ledger.values[3] == max(led.values[2] for led in fallbacks)
        alone = QueryLedger()
        alone.extend_parallel([t.outcome.ledger for t in trials
                               if t.outcome.break_reason is BreakReason.EMPTY_A])
        assert (alone.per_round, alone.values) == ([], {})

    def test_returned_set_is_best_candidate_seen(self):
        f = generate_synthetic("revenue", 14, 0.3, seed=8).objective()
        params = NonmonotoneParams(k=3, eps=0.3, delta=0.1, sample_override=40)
        out, _, trials = adaptive_nonmonotone_max(f, params, 17)
        candidates = [trials[0].outcome.f_empty]
        candidates += [t.outcome.f_s for t in trials]
        candidates += [t.prefix_value for t in trials if t.prefix_value is not None]
        assert evaluate_offline(f, out) == pytest.approx(max(candidates), abs=1e-9)

    def test_determinism(self):
        f = generate_synthetic("revenue", 14, 0.3, seed=9).objective()
        params = NonmonotoneParams(k=3, eps=0.3, delta=0.1, sample_override=40)
        out1, led1, _ = adaptive_nonmonotone_max(f, params, 23)
        out2, led2, _ = adaptive_nonmonotone_max(f, params, 23)
        assert out1.tolist() == out2.tolist()
        assert led1.per_round == led2.per_round

    def test_random_subset_lower_bound_statistics(self):
        # Break-variant outputs S keep E[f(S + S*)] >= (1 - 1/c3) f(S*):
        # every element joins S with probability at most 1/c3.
        f = generate_synthetic("revenue", 12, 0.35, seed=10).objective()
        k = 3
        star, opt = brute_force_opt(f, k)
        delta_star = max(evaluate_offline(f, [x]) for x in range(f.n))
        tp = ThresholdParams(k=k, tau=0.5 * delta_star / k, eps=0.6, delta=0.1,
                             break_size=3 * k, sample_override=60)
        vals = []
        for i in range(1000):
            out = threshold_sampling(f, tp, make_rng(i))
            vals.append(evaluate_offline(f, np.union1d(out.s, star)))
        mean = np.mean(vals)
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert mean >= (1 - 1 / 3) * opt - 2 * se


@pytest.mark.parametrize("kind,param,k", [("revenue", 0.15, 5), ("synthetic-cut", 0.15, 5),
                                          ("image", None, 5), ("movie", None, 8)])
def test_each_trial_equals_a_standalone_sampler_run(kind, param, k):
    # The trials run in lockstep; each must be the run threshold_sampling
    # makes alone with the trial's tau and its own child seed. Every case
    # mixes at least two break reasons.
    f = generate_synthetic(kind, 40, param, seed=3).objective()
    params = NonmonotoneParams(k=k, eps=0.3, delta=0.1, sample_override=30)
    d = params.derive()
    _, _, trials = adaptive_nonmonotone_max(f, params, 11)
    reasons = set()
    for trial, child in zip(trials, spawn_seeds(11, len(trials))):
        tp = ThresholdParams(k=params.k, tau=trial.tau, eps=d.eps_hat, delta=d.delta_hat,
                             break_size=d.break_size, sample_override=30)
        alone = threshold_sampling(f, tp, np.random.default_rng(child))
        got = trial.outcome
        reasons.add(got.break_reason)
        assert got.s.tolist() == alone.s.tolist() and got.a.tolist() == alone.a.tolist()
        assert got.break_reason is alone.break_reason
        assert (got.f_s, got.f_empty) == (alone.f_s, alone.f_empty)
        # The trial is the standalone run without its round 1, the sweep
        # ANM's round 1 already made; the fallback of a small_A trial adds
        # its two rounds after the sampler's.
        assert alone.ledger.per_round[0] == (1, f.n + 1)
        rounds = alone.ledger.rounds - 1
        fallback = 2 if got.break_reason is BreakReason.SMALL_A else 0
        assert got.ledger.rounds == rounds + fallback
        assert got.ledger.per_round[:rounds] == [
            (r - 1, q) for r, q in alone.ledger.per_round[1:]]
        assert {r: v for r, v in got.ledger.values.items() if r <= rounds} == {
            r - 1: v for r, v in alone.ledger.values.items() if r > 1}
        assert got.ledger.logical_samples == alone.ledger.logical_samples
        assert len(got.snapshots) == len(alone.snapshots)
        for mine, theirs in zip(got.snapshots, alone.snapshots):
            assert (mine["t"], mine["mu"], mine["estimates"]) == (
                theirs["t"], theirs["mu"], theirs["estimates"])
    assert len(reasons) >= 2, reasons

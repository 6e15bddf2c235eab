import dataclasses
import itertools
import math

import numpy as np
import pytest

from submax import (
    BreakReason,
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
    threshold_grid,
    threshold_sampling,
)
from submax.nonmonotone import C1, C3


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
        assert (led.rounds, led.total_queries) == (1, 3)

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
        assert ledger.total_queries == f.n + sum(led.total_queries
                                                 for led in per_trial)
        assert ledger.per_round[0] == (1, f.n)

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

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from submax import (
    BreakReason,
    CutObjective,
    ModularObjective,
    QueryLedger,
    ThresholdParams,
    WeightedGraph,
    estimate_mean,
    evaluate_offline,
    generate_synthetic,
    make_rng,
    threshold_sampling,
    verify_termination_marginals,
)
from submax.objectives import make_random_coverage
from submax.oracle import draws_below, singleton_round
from submax.threshold import _probes, draw_blocks, lockstep_threshold_sampling


def path_cut():
    return CutObjective(WeightedGraph(n=3, edges=[(0, 1, 1.0), (1, 2, 1.0)]))


EMPTY = np.empty(0, dtype=np.int64)


def exhaustive_indicator_mean(f, s, pool, t, tau):
    """Average the threshold indicator over every (T, x) outcome."""
    hits, total = 0, 0
    for t_set in itertools.combinations(pool, t - 1):
        base = np.union1d(s, np.array(t_set, dtype=np.int64))
        f_base = evaluate_offline(f, base)
        for x in pool:
            if x in t_set:
                continue
            gain = evaluate_offline(f, np.union1d(base, [x])) - f_base
            hits += gain >= tau
            total += 1
    return hits / total


class TestParams:
    def test_derived_constants(self):
        p = ThresholdParams(k=10, tau=0.5, eps=0.25, delta=0.05)
        d = p.derive(50)
        assert d.eps_hat == pytest.approx(1.0 / 12.0)
        assert d.r == 88
        assert d.m == 28
        assert d.delta_hat == pytest.approx(0.05 / (2 * 88 * 29))
        assert d.ell == d.ell_theoretical == 28176

    def test_sample_override(self):
        p = ThresholdParams(k=10, tau=0.5, eps=0.25, delta=0.05,
                            sample_override=100)
        d = p.derive(50)
        assert d.ell == 100
        assert d.ell_theoretical == 28176

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdParams(k=0, tau=0.5, eps=0.25, delta=0.05)
        with pytest.raises(ValueError):
            ThresholdParams(k=1, tau=-1.0, eps=0.25, delta=0.05)
        with pytest.raises(ValueError):
            ThresholdParams(k=1, tau=0.5, eps=1.5, delta=0.05)


class TestSampleIndicator:
    """Single indicator samples, drawn as estimate_mean with ell=1."""

    def test_singleton_pool(self):
        f = ModularObjective([2.0])
        led = QueryLedger()
        bit = estimate_mean(f, EMPTY, np.array([0]), 1, 1.0, 1, make_rng(0), led)
        assert bit == 1
        assert (led.rounds, led.total_queries, led.logical_samples) == (1, 2, 1)

    def test_threshold_dominates_all_marginals(self):
        f = ModularObjective([1.0, 2.0, 3.0])
        rng = make_rng(1)
        for t in (1, 2, 3):
            assert estimate_mean(f, EMPTY, np.array([0, 1, 2]), t, 10.0, 1,
                                 rng, QueryLedger()) == 0

    def test_t_out_of_range(self):
        f = ModularObjective([1.0, 2.0])
        with pytest.raises(ValueError):
            estimate_mean(f, EMPTY, np.array([0, 1]), 3, 0.5, 1, make_rng(0),
                          QueryLedger())

    def test_path_graph_estimate_matches_enumeration(self):
        f = path_cut()
        pool = np.array([0, 1, 2])
        for tau, t in ((1.0, 2), (2.0, 2)):
            exact = exhaustive_indicator_mean(f, EMPTY, pool, t, tau)
            led = QueryLedger()
            est = estimate_mean(f, EMPTY, pool, t, tau, 100_000, make_rng(3), led)
            assert est == pytest.approx(exact, abs=0.01)
            assert led.rounds == 1
            assert led.total_queries == 200_000


class TestEstimateMean:
    def test_all_marginals_clear_threshold(self):
        f = ModularObjective([1.0, 2.0, 3.0])
        mu = estimate_mean(f, EMPTY, np.array([0, 1, 2]), 2, 1.0, 50,
                           make_rng(0), QueryLedger())
        assert mu == 1.0

    def test_threshold_above_everything(self):
        f = ModularObjective([1.0, 2.0, 3.0])
        mu = estimate_mean(f, EMPTY, np.array([0, 1, 2]), 2, 100.0, 50,
                           make_rng(0), QueryLedger())
        assert mu == 0.0

    def test_concentration_at_ell_100(self):
        # At 100 samples the estimate should land within 0.15 of the exact
        # mean nearly always; allow the usual 3-sigma slack on the 99% rate.
        f = path_cut()
        pool = np.array([0, 1, 2])
        exact = exhaustive_indicator_mean(f, EMPTY, pool, 2, 1.0)
        reps, hits = 200, 0
        for i in range(reps):
            est = estimate_mean(f, EMPTY, pool, 2, 1.0, 100, make_rng(i),
                                QueryLedger())
            hits += abs(est - exact) <= 0.15
        floor = math.floor(0.99 * reps - 3 * math.sqrt(reps * 0.99 * 0.01))
        assert hits >= floor


class TestThresholdSampling:
    def test_tau_above_max_marginal_empties_pool(self):
        f = ModularObjective(np.full(20, 2.0))
        p = ThresholdParams(k=5, tau=100.0, eps=0.25, delta=0.05)
        out = threshold_sampling(f, p, make_rng(0))
        assert out.break_reason is BreakReason.EMPTY_A
        assert len(out.s) == 0
        assert len(out.snapshots) == 1  # exactly one filter ran
        assert out.ledger.rounds == 1  # the sweep of f(empty) and singletons is it
        assert out.ledger.per_round == [(1, 21)]

    def test_modular_saturation_fills_k(self):
        f = ModularObjective(np.full(20, 2.0))
        p = ThresholdParams(k=5, tau=1.0, eps=0.25, delta=0.05,
                            sample_override=50)
        out = threshold_sampling(f, p, make_rng(0))
        assert out.break_reason is BreakReason.FULL_S
        assert len(out.s) == 5
        assert out.f_s == pytest.approx(10.0)

    def test_break_size_fires_when_pool_shrinks(self):
        # 5 heavy elements survive the filter; 15 light ones do not.
        weights = np.concatenate([np.full(5, 10.0), np.full(15, 0.1)])
        f = ModularObjective(weights)
        p = ThresholdParams(k=2, tau=1.0, eps=0.25, delta=0.05, break_size=6,
                            sample_override=50)
        out = threshold_sampling(f, p, make_rng(0))
        assert out.break_reason is BreakReason.SMALL_A
        assert 0 < len(out.a) < 6
        assert len(out.s) == 0

    def test_candidate_pools_shrink_monotonically(self):
        f = make_random_coverage(30, 8, seed=2)
        p = ThresholdParams(k=6, tau=0.8, eps=0.5, delta=0.1, sample_override=60)
        out = threshold_sampling(f, p, make_rng(4))
        pools = [set(snap["a"]) for snap in out.snapshots]
        for earlier, later in zip(pools, pools[1:]):
            assert later <= earlier

    def test_cardinality_never_exceeds_k(self):
        for seed in range(5):
            f = make_random_coverage(25, 6, seed=seed)
            p = ThresholdParams(k=4, tau=0.3, eps=0.5, delta=0.1,
                                sample_override=40)
            out = threshold_sampling(f, p, make_rng(seed))
            assert len(out.s) <= 4
            for snap in out.snapshots:
                assert len(snap["s"]) <= 4

    def test_filter_soundness(self):
        # Right after each filter, every surviving candidate clears tau
        # against the solution the filter used (the previous round's).
        f = make_random_coverage(30, 8, seed=3)
        tau = 0.5
        p = ThresholdParams(k=6, tau=tau, eps=0.5, delta=0.1, sample_override=60)
        out = threshold_sampling(f, p, make_rng(7))
        prev_s = EMPTY
        for snap in out.snapshots:
            survivors = snap["a"]
            if len(survivors):
                base_val = evaluate_offline(f, prev_s)
                from submax import batch_marginals
                gains = batch_marginals(f, prev_s, list(survivors), base_val,
                                        QueryLedger())
                assert np.all(gains >= tau)
            prev_s = snap["s"]

    def test_adaptivity_hard_ceiling(self):
        f = make_random_coverage(40, 10, seed=5)
        p = ThresholdParams(k=8, tau=0.4, eps=0.5, delta=0.1, sample_override=60)
        d = p.derive(f.n)
        out = threshold_sampling(f, p, make_rng(9))
        assert out.ledger.rounds <= 3 * d.r * (d.m + 2)

    def test_average_marginal_lower_bound(self):
        # Returned sets keep an average gain of about (1-2*eps_hat)*tau.
        f = make_random_coverage(30, 8, seed=6)
        tau = 0.4
        p = ThresholdParams(k=8, tau=tau, eps=0.75, delta=0.1)
        eps_hat = p.derive(f.n).eps_hat
        slack = []
        for i in range(300):
            out = threshold_sampling(f, p, make_rng(i))
            slack.append(out.f_s - (1 - 2 * eps_hat) * tau * len(out.s))
        mean = np.mean(slack)
        se = np.std(slack, ddof=1) / math.sqrt(len(slack))
        assert mean >= -2 * se

    def test_determinism(self):
        f = make_random_coverage(30, 8, seed=8)
        p = ThresholdParams(k=5, tau=0.5, eps=0.5, delta=0.1, sample_override=80)
        a = threshold_sampling(f, p, make_rng(11))
        b = threshold_sampling(f, p, make_rng(11))
        assert np.array_equal(a.s, b.s) and a.s.dtype == np.int64
        assert np.array_equal(a.a, b.a) and a.a.dtype == np.int64
        assert a.break_reason == b.break_reason
        assert a.ledger.per_round == b.ledger.per_round

    def test_ledger_breakdown_is_exact(self):
        # Per-round query counts follow the run structure exactly: round 1
        # asks f(empty) and all n singletons, which is the first filter. Each
        # later outer round opens with a filter of |A| queries plus f(S) of
        # the previous update; estimate rounds of 2*ell queries each follow;
        # the update that ends the run asks f(S) in a 1-query round.
        f = ModularObjective(np.full(12, 2.0))
        ell = 40
        p = ThresholdParams(k=4, tau=1.0, eps=0.25, delta=0.05,
                            sample_override=ell)
        out = threshold_sampling(f, p, make_rng(0))
        assert out.break_reason is BreakReason.FULL_S
        rounds = [q for _, q in out.ledger.per_round]
        expected = [1 + 12]
        pool_size = 12
        for i, snap in enumerate(out.snapshots):
            if i:
                expected.append(pool_size + 1)  # filter plus the previous f(S)
            expected.extend([2 * ell] * len(snap["estimates"]))
            pool_size = len(snap["a"])
        expected.append(1)  # f(S) of the last update: no filter follows
        assert rounds == expected
        assert len(out.snapshots) >= 2  # so a folded f(S) is exercised
        n_estimates = sum(len(s["estimates"]) for s in out.snapshots)
        assert out.ledger.logical_samples == n_estimates * ell
        assert out.ledger.total_queries == sum(expected)

    def test_ledger_values_track_solution_growth(self):
        f = ModularObjective(np.full(10, 2.0))
        p = ThresholdParams(k=5, tau=1.0, eps=0.25, delta=0.05,
                            sample_override=30)
        out = threshold_sampling(f, p, make_rng(0))
        values = out.ledger.values
        assert values[1] == 2.0  # the best of f(empty) and the singletons
        # Every f(S) but the last is recorded in the filter round that asked
        # it, the one opening the next outer round.
        starts, rnd = [], 1
        for snap in out.snapshots:
            starts.append(rnd)
            rnd += len(snap["estimates"]) + 1
        folded = {start: 2.0 * len(snap["s"])
                  for start, snap in zip(starts[1:], out.snapshots)}
        assert len(folded) >= 1
        assert values == {1: 2.0, **folded, out.ledger.rounds: out.f_s}
        assert out.f_s == 2.0 * len(out.s)


class TestDrawBlockAndProbe:
    @pytest.mark.parametrize("size,t", [(3, 2), (5, 3), (6, 1), (4, 4)])
    def test_exact_distribution_small_pool(self, size, t):
        # Every (set(T), x) outcome is equally likely: C(P, t-1)·(P-t+1) cells.
        from submax.threshold import draw_block_and_probe
        pool = np.arange(10, 10 + size) * 3
        outcomes = math.comb(size, t - 1) * (size - t + 1)
        reps = 2000 * outcomes
        t_mat, xs = draw_block_and_probe(make_rng(0), pool, t, reps)
        counts = {}
        for row, x in zip(t_mat.tolist(), xs.tolist()):
            key = (frozenset(row), x)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == outcomes
        assert all(x not in block for block, x in counts)
        for key, c in counts.items():
            assert abs(c / reps - 1 / outcomes) < 0.1 / outcomes, (key, c)

    def test_same_seed_same_arrays(self):
        from submax.threshold import draw_block_and_probe
        pool = np.arange(3, 40, 2)
        first = draw_block_and_probe(make_rng(7), pool, 6, 300)
        second = draw_block_and_probe(make_rng(7), pool, 6, 300)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_probe_never_in_block(self):
        from submax.threshold import draw_block_and_probe
        pool = np.arange(8)
        t_mat, xs = draw_block_and_probe(make_rng(3), pool, 5, 500)
        assert t_mat.shape == (500, 4)
        for row, x in zip(t_mat, xs):
            assert x not in row
            assert len(set(row.tolist())) == 4

    def test_large_pool_memory_is_independent_of_pool_size(self):
        # Memory scales with count·t, not with count·|pool|.
        from submax.threshold import draw_block_and_probe
        pool = np.arange(50_000)
        tracemalloc.start()
        try:
            t_mat, xs = draw_block_and_probe(make_rng(1), pool, 5, 400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
        assert t_mat.shape == (400, 4)
        assert xs.shape == (400,)
        rows = np.hstack([t_mat, xs[:, None]])
        assert all(len(set(r.tolist())) == 5 for r in rows)


def reference_blocks(rngs, pools, t, counts):
    """draw_blocks from numpy's own bounded draws: per trial
    ``rng.integers(np.arange(P-t+1, P+1), size=(count, t))`` then
    ``rng.integers(t, size=count)``, then Floyd's column pass row-major.
    Returns (t_mat, xs) of every row, the trials' rows laid end to end."""
    sizes = np.array([pool.size for pool in pools])
    idx, pick = [], []
    for rng, size, count in zip(rngs, sizes.tolist(), counts):
        idx.append(rng.integers(np.arange(size - t + 1, size + 1), size=(count, t)))
        pick.append(rng.integers(t, size=count))
    idx, pick = np.concatenate(idx), np.concatenate(pick)
    last = np.repeat(sizes - t, counts)
    for i in range(1, t):
        seen = (idx[:, :i] == idx[:, i:i + 1]).any(axis=1)
        idx[seen, i] = last[seen] + i
    rows = np.arange(idx.shape[0])
    x_idx = idx[rows, pick]
    idx[rows, pick] = idx[:, t - 1]
    start = np.repeat(np.cumsum(sizes) - sizes, counts)
    flat = np.concatenate(pools)
    return flat[idx[:, :t - 1] + start[:, None]], flat[x_idx + start]


# PCG64(0) advanced this many steps next yields a 64-bit output whose low 32
# bits w have (w * 641) mod 2**32 < (2**32 - 641) mod 641 = 640: numpy
# rejects w for the bound 641 and takes the next word instead.
REJECTED_AT = 4_809_817


def _generator(seed, advance=0, cached=False):
    """A generator that is advance steps in, with a cached 32-bit half when
    cached: one word drawn from the step before."""
    bits = np.random.PCG64(seed)
    bits.advance(advance - cached)
    rng = np.random.Generator(bits)
    if cached:
        rng.integers(0, 2**32, 1, dtype=np.uint32)
    return rng


def _assert_same_draws(got, want, rngs, twins):
    (t_mat, xs), (t_want, x_want) = got, want
    assert t_mat.shape == t_want.shape
    assert t_mat.tobytes() == t_want.tobytes()
    assert xs.tobytes() == x_want.tobytes()
    for rng, twin in zip(rngs, twins):
        assert rng.bit_generator.state == twin.bit_generator.state
        # The next draws agree too, the cached half first.
        assert (rng.integers(0, 2**32, 3, dtype=np.uint32).tolist()
                == twin.integers(0, 2**32, 3, dtype=np.uint32).tolist())
        assert rng.random() == twin.random()


class TestRawWordDraws:
    """draw_blocks reads numpy's 32-bit words and applies numpy's bounded
    method itself; every draw and the generator's end state must equal
    numpy's own array-bound draws, so a numpy release that changes its
    method fails here rather than moving streams silently."""

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("t,sizes,counts", [
        (1, [1, 6, 9], [3, 4, 2]),          # t = 1: no pick word
        (4, [4, 9, 4], [5, 3, 6]),          # t = |pool| for two trials
        (2, [2, 3, 50], [7, 1, 40]),
        (5, [20, 7, 33, 5], [50, 1, 17, 9]),
        (12, [12, 13, 400], [30, 30, 100]),
    ])
    def test_equals_numpy_array_bound_draws(self, t, sizes, counts, cached):
        pools = [np.arange(size) * 7 + i for i, size in enumerate(sizes)]
        seeds = [11 * len(sizes) + i for i in range(len(sizes))]
        rngs = [_generator(s, 5, cached) for s in seeds]
        twins = [_generator(s, 5, cached) for s in seeds]
        got = draw_blocks(rngs, pools, t, counts)
        _assert_same_draws(got, reference_blocks(twins, pools, t, counts), rngs, twins)

    @pytest.mark.parametrize("cached", [False, True])
    def test_a_rejected_word_is_redrawn_as_numpy_does(self, cached):
        bits = np.random.PCG64(0)
        bits.advance(REJECTED_AT)
        word = int(bits.random_raw()) & 0xFFFFFFFF
        assert (word * 641) % 2**32 < (2**32 - 641) % 641
        # The rejected word meets the bound 641: as the first word (bounds
        # 641, 642, 643), or after the cached half (bounds 640, 641, 642).
        size = 642 if cached else 643
        pools = [np.arange(size), np.arange(30)]
        rngs = [_generator(0, REJECTED_AT, cached), _generator(1)]
        twins = [_generator(0, REJECTED_AT, cached), _generator(1)]
        got = draw_blocks(rngs, pools, 3, [100, 20])
        # The rejection took one word more than 100 rows of 4 words.
        plain = _generator(0, REJECTED_AT, cached)
        plain.integers(0, 2**32, 401, dtype=np.uint32)
        assert rngs[0].bit_generator.state == plain.bit_generator.state
        _assert_same_draws(got, reference_blocks(twins, pools, 3, [100, 20]),
                           rngs, twins)

    @pytest.mark.parametrize("cached", [False, True])
    def test_draws_below_redraws_rejections_near_2_to_32(self, cached):
        # Bounds just above 2**31 reject about half of all words.
        bounds = np.array([2**32 - 1, 2**31 + 1, 3 * 2**30, 2, 2**32 - 5, 7] * 30,
                          dtype=np.uint64)
        for seed in range(8):
            rng, twin = _generator(seed, 3, cached), _generator(seed, 3, cached)
            words = rng.integers(0, 2**32, bounds.size, dtype=np.uint32)
            got = draws_below(rng, bounds, words)
            assert got.tolist() == twin.integers(bounds.astype(np.int64)).tolist()
            assert rng.bit_generator.state == twin.bit_generator.state


class TestTauZeroDegenerateMode:
    def test_monotone_objective_runs_to_full_k(self):
        # Threshold zero never filters a monotone objective.
        f = make_random_coverage(12, 4, seed=12)
        p = ThresholdParams(k=4, tau=0.0, eps=0.5, delta=0.1, sample_override=30)
        out = threshold_sampling(f, p, make_rng(2))
        assert out.break_reason is BreakReason.FULL_S
        assert len(out.s) == 4

    def test_pool_excludes_solution_and_every_update_grows_it(self):
        # Members of S gain exactly 0.0, which clears tau = 0: they must
        # still leave the pool, or a block can re-draw them and add nothing.
        f = generate_synthetic("revenue", 30, 0.2, seed=2).objective()
        p = ThresholdParams(k=8, tau=0.0, eps=0.3, delta=0.1, sample_override=20)
        out = threshold_sampling(f, p, make_rng(0))
        prev = EMPTY
        for snap in out.snapshots:
            assert not set(snap["a"].tolist()) & set(prev.tolist())
            if snap["t"] is not None:
                assert len(snap["s"]) > len(prev)
            prev = snap["s"]
        assert out.break_reason is BreakReason.FULL_S


class TestVerifyTermination:
    def test_true_when_pool_emptied(self):
        f = ModularObjective(np.full(20, 2.0))
        p = ThresholdParams(k=5, tau=100.0, eps=0.25, delta=0.05)
        out = threshold_sampling(f, p, make_rng(0))
        assert verify_termination_marginals(f, out, 100.0)

    def test_statistical_acceptance_on_monotone_instance(self):
        f = make_random_coverage(20, 6, seed=10, big_elements=3, big_scale=6.0)
        p = ThresholdParams(k=8, tau=3.0, eps=0.5, delta=0.1, sample_override=60)
        passes = runs = 0
        for i in range(200):
            out = threshold_sampling(f, p, make_rng(i))
            if out.break_reason is BreakReason.EMPTY_A and len(out.s) < 8:
                runs += 1
                passes += verify_termination_marginals(f, out, 3.0)
        assert runs > 0
        assert passes >= (1 - p.delta) * runs

    def test_corrupted_outcome_detected(self):
        # All weights clear tau, so k > n drives the run to an empty pool;
        # removing a chosen element restores a marginal of 2*tau >= tau.
        f = ModularObjective(np.full(5, 2.0))
        p = ThresholdParams(k=10, tau=1.0, eps=0.25, delta=0.05,
                            sample_override=30)
        out = threshold_sampling(f, p, make_rng(0))
        assert out.break_reason is BreakReason.EMPTY_A
        assert len(out.s) == 5
        assert verify_termination_marginals(f, out, 1.0)
        out.s = out.s[1:]  # drop the smallest member
        out.f_s = evaluate_offline(f, out.s)
        assert not verify_termination_marginals(f, out, 1.0)


@pytest.mark.parametrize("eps,k", [(0.25, 30), (0.1, 5), (0.5, 100), (0.3, 1), (0.05, 60)])
def test_scan_probes_are_the_distinct_clipped_powers(eps, k):
    n = 400
    d = ThresholdParams(k=k, tau=1.0, eps=eps, delta=0.1).derive(n)
    for size in range(1, n + 1):
        want = sorted({min(int((1.0 + d.eps_hat) ** i), size) for i in range(d.m + 1)})
        got = _probes(d, size)
        assert got == want, size
        assert all(type(t) is int for t in got)


def test_lockstep_trials_of_mixed_block_sizes_equal_standalone_runs():
    # Trials of other eps, or whose small pools cap their probes, scan other
    # block sizes at the same step, so a scan round carries several T widths;
    # each trial must still be the run threshold_sampling makes alone.
    f = generate_synthetic("revenue", 40, 0.15, seed=3).objective()
    sweep = singleton_round(f, QueryLedger())
    top = np.sort(sweep[1:] - sweep[0])[::-1]
    params = [ThresholdParams(k=k, tau=tau, eps=eps, delta=0.1, sample_override=20)
              for k, eps in [(12, 0.3), (12, 0.9), (6, 0.5)]
              for tau in (0.0, float(top[20]), float(top[5]))]
    got = lockstep_threshold_sampling(f, params, [make_rng(i) for i in range(9)], sweep)
    widths = set()
    for i, (p, out) in enumerate(zip(params, got)):
        alone = threshold_sampling(f, p, make_rng(i))
        assert (out.s.tolist(), out.a.tolist()) == (alone.s.tolist(), alone.a.tolist())
        assert (out.break_reason, out.f_s) == (alone.break_reason, alone.f_s)
        assert out.ledger.per_round == [(r - 1, q) for r, q in alone.ledger.per_round[1:]]
        assert out.ledger.logical_samples == alone.ledger.logical_samples
        assert [(snap["t"], snap["mu"], snap["estimates"]) for snap in out.snapshots] == [
            (snap["t"], snap["mu"], snap["estimates"]) for snap in alone.snapshots]
        widths |= {(snap["round"], j, t) for snap in out.snapshots
                   for j, (t, _) in enumerate(snap["estimates"])}
    # Some scan step of some outer round probed more than one block size.
    steps = {(rnd, j) for rnd, j, _ in widths}
    assert len(widths) > len(steps)

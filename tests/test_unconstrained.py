import math

import numpy as np
import pytest

from submax import (
    InvalidSubsetError,
    ModularObjective,
    QueryLedger,
    UnconstrainedParams,
    brute_force_opt,
    evaluate_offline,
    generate_synthetic,
    make_rng,
    unconstrained_max,
)


class TestParams:
    def test_iteration_bound_example(self):
        p = UnconstrainedParams(eps=0.25, delta=0.05)
        assert p.t == 11  # ceil(log(20)/log(4/3))

    def test_large_eps_flagged(self):
        with pytest.warns(UserWarning):
            UnconstrainedParams(eps=0.3, delta=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            UnconstrainedParams(eps=0.0, delta=0.1)
        with pytest.raises(ValueError):
            UnconstrainedParams(eps=0.1, delta=1.0)


class TestUnconstrainedMax:
    def test_singleton_pool_modular(self):
        f = ModularObjective([1.0])
        p = UnconstrainedParams(eps=0.25, delta=0.05)
        out = unconstrained_max(f, [0], p, make_rng(0), QueryLedger())
        assert out.tolist() == [0]

    def test_output_subset_of_pool(self):
        f = generate_synthetic("revenue", 15, 0.3, seed=2).objective()
        pool = [1, 3, 4, 8, 9, 12]
        p = UnconstrainedParams(eps=0.2, delta=0.1)
        for seed in range(10):
            out = unconstrained_max(f, pool, p, make_rng(seed), QueryLedger())
            assert set(out.tolist()) <= set(pool)

    def test_array_pool_draws_as_its_subset_does(self):
        # A sampler hands over its pool as an int64 array; the draw must be
        # the one the same elements as a plain list give.
        f = generate_synthetic("revenue", 15, 0.3, seed=2).objective()
        p = UnconstrainedParams(eps=0.2, delta=0.1)
        pool = np.array([1, 3, 4, 8, 9, 12], dtype=np.int64)
        for seed in range(5):
            got = unconstrained_max(f, pool, p, make_rng(seed), QueryLedger())
            want = unconstrained_max(f, pool.tolist(), p, make_rng(seed), QueryLedger())
            assert got.tolist() == want.tolist()
        assert pool.tolist() == [1, 3, 4, 8, 9, 12]
        with pytest.raises(ValueError):
            unconstrained_max(f, pool[:0], p, make_rng(0), QueryLedger())

    def test_ledger_one_round_t_queries(self):
        f = ModularObjective(np.ones(6))
        p = UnconstrainedParams(eps=0.2, delta=0.1)
        led = QueryLedger()
        unconstrained_max(f, range(6), p, make_rng(1), led)
        assert led.rounds == 1
        assert led.total_queries == p.t

    def test_pool_outside_ground_set_rejected(self):
        f = ModularObjective([1.0, 2.0])
        p = UnconstrainedParams(eps=0.2, delta=0.1)
        with pytest.raises(InvalidSubsetError):
            unconstrained_max(f, [0, 2], p, make_rng(0), QueryLedger())

    def test_empty_pool_rejected(self):
        f = ModularObjective([1.0])
        p = UnconstrainedParams(eps=0.2, delta=0.1)
        with pytest.raises(ValueError):
            unconstrained_max(f, [], p, make_rng(0), QueryLedger())

    def test_quarter_approximation_statistics(self):
        eps, delta, runs = 0.2, 0.1, 300
        p = UnconstrainedParams(eps=eps, delta=delta)
        threshold = (1 - delta) - 3 * math.sqrt(delta * (1 - delta) / runs)
        for kind, n, param, seed in (("revenue", 10, 0.4, 3),
                                     ("synthetic-cut", 10, 0.4, 4),
                                     ("movie", 10, None, 5)):
            f = generate_synthetic(kind, n, param, seed=seed).objective()
            _, opt = brute_force_opt(f, n)
            pool = np.arange(n)
            hits = 0
            for i in range(runs):
                out = unconstrained_max(f, pool, p, make_rng(i), QueryLedger())
                hits += evaluate_offline(f, out) >= (0.25 - eps) * opt
            assert hits / runs >= threshold

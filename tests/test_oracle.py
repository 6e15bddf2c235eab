import itertools

import numpy as np
import pytest

from submax import (
    CutObjective,
    InvalidSubsetError,
    ModularObjective,
    MovieRecommendationObjective,
    NonmonotoneParams,
    Objective,
    ParamError,
    QueryLedger,
    RevenueObjective,
    SaturatedCoverageObjective,
    WeightedGraph,
    adaptive_nonmonotone_max,
    batch_marginals,
    batch_pair_gains,
    best_prefix,
    brute_force_opt,
    check_submodularity,
    downsample,
    evaluate_batch,
    evaluate_offline,
    generate_synthetic,
    greedy,
    make_rng,
    paired_gain_round,
    random_lazy_greedy,
    random_prefix,
    sample_without_replacement,
    spawn_seeds,
    unconstrained_max,
)
from submax.threshold import ThresholdParams
from submax.unconstrained import UnconstrainedParams
from test_kernels import grouped_round


def path_graph():
    return WeightedGraph(n=3, edges=[(0, 1, 1.0), (1, 2, 1.0)])


class TestEvaluateBatch:
    def test_modular_example(self):
        f = ModularObjective([1.0, 2.0, 3.0])
        led = QueryLedger()
        vals = evaluate_batch(f, [[0], [0, 1], []], led)
        assert list(vals) == [1.0, 3.0, 0.0]
        assert led.rounds == 1
        assert led.total_queries == 3

    def test_empty_set_single_query(self):
        f = ModularObjective([5.0])
        led = QueryLedger()
        vals = evaluate_batch(f, [[]], led)
        assert vals[0] == 0.0
        assert (led.rounds, led.total_queries) == (1, 1)

    def test_path_cut_counts_both_incident_edges(self):
        f = CutObjective(path_graph())
        led = QueryLedger()
        vals = evaluate_batch(f, [[1]], led)
        assert vals[0] == 2.0

    def test_out_of_range_rejected(self):
        f = ModularObjective([1.0, 2.0])
        for bad in ([2], [-1], [1, -2]):
            with pytest.raises(InvalidSubsetError):
                evaluate_batch(f, [bad], QueryLedger())

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
            assert v == pytest.approx(evaluate_offline(f, q.tolist()), abs=1e-12)


class TestBatchMarginals:
    def test_modular_marginals_equal_weights(self):
        f = ModularObjective([1.0, 2.0, 3.0])
        led = QueryLedger()
        gains = batch_marginals(f, [], [0, 1, 2], 0.0, led)
        assert list(gains) == [1.0, 2.0, 3.0]
        assert (led.rounds, led.total_queries) == (1, 3)

    def test_readding_member_is_zero(self):
        f = ModularObjective([1.0, 2.0, 3.0])
        gains = batch_marginals(f, [0], [0], 1.0, QueryLedger())
        assert gains[0] == 0.0

    def test_revenue_two_node_marginal(self):
        f = RevenueObjective(WeightedGraph(n=2, edges=[(0, 1, 1.0)]))
        gains = batch_marginals(f, [], [0], 0.0, QueryLedger())
        assert gains[0] == pytest.approx(1.0)

    def test_matches_offline_differences(self):
        g = WeightedGraph(n=6, edges=[(0, 1, 0.5), (1, 2, 0.9), (3, 4, 0.2),
                                      (0, 5, 1.3), (2, 5, 0.4)])
        f = CutObjective(g)
        base = np.array([0, 3])
        base_val = evaluate_offline(f, base)
        gains = batch_marginals(f, base, range(6), base_val, QueryLedger())
        for x in range(6):
            expect = evaluate_offline(f, np.union1d(base, [x])) - base_val
            assert gains[x] == pytest.approx(expect, abs=1e-9)


class TestBatchPairGains:
    def test_fast_path_matches_generic(self):
        g = WeightedGraph(n=7, edges=[(0, 1, 0.5), (1, 2, 0.9), (3, 4, 0.2),
                                      (0, 5, 1.3), (2, 6, 0.4), (5, 6, 0.8)])
        fast = RevenueObjective(g)

        class SlowRevenue(RevenueObjective):
            _gain_batch = Objective._gain_batch
            _base_state = Objective._base_state

        slow = SlowRevenue(g)
        base = np.array([3])
        t_mat = np.array([[0, 1], [2, 5], [1, 6], [0, 6]])
        xs = np.array([2, 6, 0, 3])  # last row: x already in base
        got = batch_pair_gains(fast, base, t_mat, xs, QueryLedger())
        want = batch_pair_gains(slow, base, t_mat, xs, QueryLedger())
        assert np.allclose(got, want, atol=1e-9)
        assert got[3] == 0.0

    def test_ledger_counts_two_per_sample(self):
        f = ModularObjective(np.ones(4))
        led = QueryLedger()
        batch_pair_gains(f, [], np.empty((5, 0), dtype=np.int64),
                         np.arange(4)[[0, 1, 2, 3, 0]], led)
        assert led.rounds == 1
        assert led.total_queries == 10
        assert led.logical_samples == 5

    def test_repeating_t_row_rejected(self):
        # Unchecked, the row [1, 1] gave 2.4808 against the true
        # f({1, 3}) - f({1}) = 2.5600.
        f = generate_synthetic("synthetic-cut", 8, 0.6, seed=1).objective()
        led = QueryLedger()
        with pytest.raises(InvalidSubsetError, match="T row"):
            batch_pair_gains(f, [], np.array([[0, 2], [1, 1]]), np.array([3, 3]), led)
        assert led.rounds == 0
        got = batch_pair_gains(f, [], np.array([[1]]), np.array([3]), led)
        assert got[0] == pytest.approx(evaluate_offline(f, [1, 3])
                                       - evaluate_offline(f, [1]))

    @pytest.mark.parametrize("width", [2, 3, 16, 17, 29])
    def test_a_repeat_in_any_two_columns_is_rejected(self, width):
        # Narrow rows are checked by column compares, wide ones by sorting;
        # a repeat in any pair of columns of any row must fail either way.
        f = generate_synthetic("revenue", 40, 0.2, seed=2).objective()
        rng = np.random.default_rng(width)
        t_mat = np.argsort(rng.random((7, 39)), axis=1)[:, :width] + 1
        xs = np.zeros(7, dtype=np.int64)
        led = QueryLedger()
        assert batch_pair_gains(f, [], t_mat, xs, led).size == 7
        for i, j in itertools.combinations(range(width), 2):
            bad = t_mat.copy()
            bad[(i + j) % 7, j] = bad[(i + j) % 7, i]
            with pytest.raises(InvalidSubsetError, match="T row"):
                batch_pair_gains(f, [], bad, xs, led)
        assert led.rounds == 1


def _paired_gains_on(f, make_base, led):
    """Both paired-gain entry points against the base make_base() builds."""
    xs = np.array([1, 4, 5])
    return (batch_marginals(f, make_base(), xs, evaluate_offline(f, [2, 3]), led),
            batch_pair_gains(f, make_base(), np.array([[6], [1], [6]]), xs, led))


# The base {2, 3} as each kind of index collection.
BASES = {"ndarray": lambda: np.array([2, 3]), "list": lambda: [2, 3],
         "tuple": lambda: (2, 3), "frozenset": lambda: frozenset({2, 3}),
         "range": lambda: range(2, 4), "generator": lambda: (x for x in (2, 3))}


class TestPairedGainBase:
    """The base of a paired-gain round is a strictly increasing index set."""

    @pytest.mark.parametrize("make_base", list(BASES.values()), ids=list(BASES))
    def test_base_may_be_any_index_collection(self, make_base):
        f = generate_synthetic("revenue", 7, 0.6, seed=2).objective()
        want = _paired_gains_on(f, BASES["ndarray"], QueryLedger())
        got = _paired_gains_on(f, make_base, QueryLedger())
        for g, w in zip(got, want):
            assert g.tolist() == w.tolist()

    @pytest.mark.parametrize("base", [[3, 0], [0, 2, 2], np.array([2, 0, 3])],
                             ids=["unsorted", "duplicate", "unsorted-array"])
    def test_unsorted_or_repeating_base_rejected(self, base):
        # A sorted wrapper used to guarantee this order; it keys the base-state
        # memo and orders the kernels' sums, and a repeat would count twice.
        f = generate_synthetic("revenue", 7, 0.6, seed=2).objective()
        led = QueryLedger()
        with pytest.raises(InvalidSubsetError, match="strictly increasing"):
            batch_marginals(f, base, [1, 4], 0.0, led)
        with pytest.raises(InvalidSubsetError, match="strictly increasing"):
            batch_pair_gains(f, base, np.array([[5], [6]]), np.array([1, 4]), led)
        assert led.rounds == 0

    def test_negative_index_rejected(self):
        f = ModularObjective(np.ones(4))
        led = QueryLedger()
        for bad in ([-1], [-2, 3], np.array([-5, 0])):
            with pytest.raises(InvalidSubsetError):
                batch_marginals(f, bad, [1], 0.0, led)
            with pytest.raises(InvalidSubsetError):
                batch_pair_gains(f, bad, np.array([[2]]), np.array([1]), led)
        assert led.rounds == 0


class TestIndexTypes:
    """Indices reach the metered boundary as integers, in the shapes named."""

    def test_non_integer_indices_rejected(self):
        # A cast used to truncate them: x = 1.7 and 2.2 were answered for 1
        # and 2, and the T rows [[1.5], [2.5]] for T = {1} and {2}.
        f = ModularObjective(np.arange(8.0))
        led = QueryLedger()
        calls = [lambda: batch_marginals(f, [0], [1.7, 2.2], 1.0, led),
                 lambda: batch_marginals(f, [0], np.array([True, False]), 1.0, led),
                 lambda: batch_marginals(f, [0.0], [1], 1.0, led),
                 lambda: batch_pair_gains(f, [0], np.array([[1.5], [2.5]]),
                                          np.array([3, 4]), led),
                 lambda: batch_pair_gains(f, [0], np.array([[1], [2]]),
                                          np.array([3.0, 4.0]), led)]
        for call in calls:
            with pytest.raises(InvalidSubsetError, match="integers"):
                call()
        assert led.rounds == 0
        # An empty collection carries no index, whatever its dtype.
        assert batch_pair_gains(f, np.empty(0), np.empty((2, 0)), [1, 2],
                                led).tolist() == [1.0, 2.0]

    def test_two_dimensional_candidates_or_base_rejected_by_name(self):
        f = ModularObjective(np.arange(8.0))
        led = QueryLedger()
        with pytest.raises(ValueError, match="candidates must be one-dimensional"):
            batch_marginals(f, [0], np.array([[1], [2]]), 0.0, led)
        with pytest.raises(ValueError, match="base must be one-dimensional"):
            batch_marginals(f, np.array([[0]]), [1], 0.0, led)
        with pytest.raises(ValueError, match="base must be one-dimensional"):
            batch_pair_gains(f, np.array([[0]]), np.array([[1]]), np.array([2]), led)
        assert led.rounds == 0


class _NoKernelRevenue(RevenueObjective):
    _gain_batch = Objective._gain_batch
    _base_state = Objective._base_state


def _revenue(cls=RevenueObjective):
    return cls(generate_synthetic("revenue", 9, 0.5, seed=3).data)


# Each case: (objective, base, t_mat rows for a pairs group, xs). Element 5 of
# the NaN objective is never touched by the other groups of a grouped round.
LONE_GROUP_CASES = {
    "out-of-range": (_revenue, [1], [[3], [4]], [2, 9]),
    "negative": (_revenue, [1], [[3], [4]], [-1, 2]),
    "unsorted-base": (_revenue, [4, 1], [[3], [5]], [2, 6]),
    "repeating-base": (_revenue, [1, 1], [[3], [5]], [2, 6]),
    "repeating-T-row": (_revenue, [1], [[3, 3], [4, 6]], [2, 5]),
    "member": (_revenue, [1, 4], [[3, 8], [2, 6], [5, 8]], [1, 6, 2]),
    "non-finite": (lambda: ModularObjective([1.0, 2.0, 3.0, 4.0, 0.5, np.nan,
                                             1.0, 2.0, 1.5]),
                   [1], [[3], [4]], [2, 5]),
    "no-kernel": (lambda: _revenue(_NoKernelRevenue), [1, 4], [[3, 8], [2, 6], [5, 8]],
                  [0, 6, 7]),
}
# A marginals round knows each f(base) or, as "asks", asks it in the round.
LONE_GROUPS = [(case, kind) for case in LONE_GROUP_CASES
               for kind in ("marginals", "asks", "pairs")
               if not (case == "repeating-T-row" and kind != "pairs")]


def _lone_group_outcome(case, kind, alone):
    """Gains and ledger of the case's group, or the error it raised, run
    alone or in the middle of a round with two more groups of its widths."""
    make, base, t_rows, xs = LONE_GROUP_CASES[case]
    f = make()
    led = QueryLedger()
    # The other groups are of the round's kind: "asks" asks each f(base) in
    # the round, "marginals" knows it.
    if kind == "pairs":
        group = (base, np.array(t_rows), np.array(xs), led)
        others = [([0], np.array([[6], [7]]), np.array([7, 8]), QueryLedger()),
                  ([6, 8], np.array([[7], [0]]), np.array([0, 7]), QueryLedger())]
    else:
        group = (base, None, xs, led)
        others = [([0], None, [7, 8], QueryLedger()), ([6, 8], None, [0, 7], QueryLedger())]
    groups = [group] if alone else [others[0], group, others[1]]
    try:
        gains = grouped_round(f, groups, asks=kind == "asks")[groups.index(group)]
    except ValueError as err:  # InvalidSubsetError included
        return type(err), str(err), [g[3].rounds for g in groups]
    return gains.tobytes(), led.per_round, led.logical_samples, f, gains, led.values


@pytest.mark.parametrize("case,kind", LONE_GROUPS, ids=[f"{c}-{k}" for c, k in LONE_GROUPS])
def test_lone_group_is_checked_as_in_a_grouped_round(case, kind):
    lone = _lone_group_outcome(case, kind, alone=True)
    grouped = _lone_group_outcome(case, kind, alone=False)
    assert lone[:2] == grouped[:2]
    _, base, t_rows, xs = LONE_GROUP_CASES[case]
    entry = "batch_pair_gains" if kind == "pairs" else "batch_marginals"
    expected_error = {"out-of-range": (InvalidSubsetError, "out of range"),
                      "negative": (InvalidSubsetError, "out of range"),
                      "unsorted-base": (InvalidSubsetError, "strictly increasing"),
                      "repeating-base": (InvalidSubsetError, "strictly increasing"),
                      "repeating-T-row": (InvalidSubsetError, "T row"),
                      "non-finite": (ValueError, f"{entry}: the oracle returned a "
                                                 "non-finite value")}
    if case in expected_error:
        kind_of_error, text = expected_error[case]
        assert lone[0] is kind_of_error and text in lone[1]
        # A check fails before any group is metered; a bad gain after.
        metered = int(case == "non-finite")
        assert lone[2] == [metered] and grouped[2] == [metered] * 3
        return
    assert lone[2] == grouped[2] and lone[5] == grouped[5]
    _, per_round, samples, f, gains, values = lone
    rows = t_rows if kind == "pairs" else [[]] * len(xs)
    assert (per_round, samples) == {"marginals": ([(1, len(xs))], 0),
                                    "asks": ([(1, len(xs) + 1)], 0),
                                    "pairs": ([(1, 2 * len(xs))], len(xs))}[kind]
    f_base = evaluate_offline(f, base)
    if kind == "asks":  # f(base) by one whole-set evaluation, recorded
        assert values == {1: evaluate_batch(f, [base], QueryLedger())[0]}
        f_base = values[1]
    else:
        assert values == {}
    for j, x in enumerate(xs):
        b = sorted(set(base) | set(rows[j]))
        if x in b:  # a member row is exactly zero, whichever path ran
            assert gains[j] == 0.0 and not np.signbit(gains[j])
            continue
        want = evaluate_offline(f, b + [x]) - (f_base if b == sorted(base)
                                               else evaluate_offline(f, b))
        if case == "no-kernel":  # the default kernel: two evaluations per row
            assert gains[j] == want
        else:
            assert gains[j] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warmed"])
def test_a_round_of_no_groups_returns_no_gains_and_keeps_the_memo(warm):
    f = _revenue()
    if warm:
        batch_marginals(f, [1, 4], [0, 2], 0.0, QueryLedger())
    memo = f._base_memo
    assert (memo is None) is not warm
    for t_mats in (None, []):
        gains = paired_gain_round(f, np.empty(0, dtype=np.int64), t_mats, [0], [], [])
        assert gains.dtype == np.float64 and gains.size == 0
        assert f._base_memo is memo


def test_asked_base_value_must_be_finite():
    f = ModularObjective([1.0, np.nan, 2.0, 3.0])
    led = QueryLedger()
    with pytest.raises(ValueError, match="batch_marginals: the oracle returned a non-finite"):
        paired_gain_round(f, [0, 2], None, [0, 2], [[1]], [led], asks=True)
    assert led.per_round == [(1, 3)]  # metered before it was answered


def test_asking_the_base_value_changes_no_gain():
    # The asked f(base) is the value evaluate_batch gives the base, and each
    # gain is what a round told that value answers.
    f = generate_synthetic("revenue", 30, 0.2, seed=4).objective()
    base = np.array([2, 7, 11, 19])
    xs = np.arange(30)
    told = evaluate_batch(f, [base], QueryLedger())[0]
    asked_led, told_led = QueryLedger(), QueryLedger()
    asked = paired_gain_round(f, xs, None, [0, 30], [base], [asked_led], asks=True)
    told_gains = paired_gain_round(f, xs, None, [0, 30], [base], [told_led])
    assert asked.tobytes() == told_gains.tobytes()
    assert asked_led.per_round == [(1, 31)] and told_led.per_round == [(1, 30)]
    assert asked_led.values == {1: told}


# Each case: one malformed round, (xs, t_mats, offsets, bases, asks), and
# the error's text.
MALFORMED_ROUNDS = {
    "offsets-short-of-xs": (([0, 2, 3], None, [0, 2], [[1]], False), "offsets must cover"),
    "offsets-past-xs": (([0, 2], None, [0, 3], [[1]], False), "offsets must cover"),
    "T-rows-short-of-xs": (([0, 2, 3], [np.array([[4], [5]])], [0, 3], [[1]], False),
                           "t_mat must be"),
    "T-rows-past-xs": (([0, 2], [np.array([[4], [5]]), np.array([[6]])], [0, 2], [[1]],
                        False), "t_mat must be"),
    "empty-marginals-group": (([0, 2], None, [0, 0, 2], [[1], [3]], False),
                              "batch_marginals requires at least one candidate"),
    "empty-sample-group": (([0, 2], [np.array([[4], [5]])], [0, 2, 2], [[1], [3]], False),
                           "batch_pair_gains requires at least one pair"),
    "sample-round-asks": (([0, 2], [np.array([[4], [5]])], [0, 2], [[1]], True),
                          "cannot ask"),
    "two-dimensional-xs": (([[0], [2]], None, [0, 2], [[1]], False),
                           "candidates must be one-dimensional"),
}


@pytest.mark.parametrize("case,text", list(MALFORMED_ROUNDS.values()),
                         ids=list(MALFORMED_ROUNDS))
def test_malformed_round_fails_before_it_is_metered(case, text):
    xs, t_mats, offsets, bases, asks = case
    f = _revenue()
    batch_marginals(f, [3, 5], [0], 0.0, QueryLedger())
    memo = f._base_memo
    ledgers = [QueryLedger() for _ in bases]
    with pytest.raises(ValueError, match=text) as info:
        paired_gain_round(f, xs, t_mats, offsets, bases, ledgers, asks=asks)
    assert type(info.value) is ValueError
    assert [led.rounds for led in ledgers] == [0] * len(bases)
    assert f._base_memo is memo


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
    """Modular weights through ``_evaluate`` alone, so every call takes
    ``Objective``'s default kernels."""

    def __init__(self, weights):
        super().__init__(len(weights))
        self.weights = np.asarray(weights, dtype=np.float64)

    def _evaluate(self, idx):
        return float(self.weights[idx].sum())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_kernels_run_the_algorithms_as_a_kernel_does(seed):
    # Integer weights sum exactly in any order, so the default kernels and
    # ModularObjective's vectorized ones must agree bit for bit.
    weights = np.random.default_rng(5 + seed).integers(0, 20, 40).astype(np.float64)
    runs = []
    for f in (_FallbackModular(weights), ModularObjective(weights)):
        params = NonmonotoneParams(k=5, eps=0.3, delta=0.1, sample_override=30)
        out, ledger, _ = adaptive_nonmonotone_max(f, params, seed)
        greedy_ledger, lazy_ledger = QueryLedger(), QueryLedger()
        runs.append((out.tolist(), ledger.per_round, ledger.values, ledger.logical_samples,
                     greedy(f, 5, greedy_ledger).tolist(), greedy_ledger.per_round,
                     random_lazy_greedy(f, 5, None, make_rng(seed), lazy_ledger).tolist(),
                     lazy_ledger.per_round, lazy_ledger.values))
    assert runs[0] == runs[1]
    assert runs[0][3] > 0  # the sampler drew indicator samples


NON_FINITE = [(make, bad) for make in (ModularObjective, _FallbackModular)
              for bad in (np.nan, np.inf)]


class TestNonFiniteValuesRejected:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("make,bad", NON_FINITE)
    def test_evaluate_batch(self, make, bad):
        f = make([1.0, bad, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            evaluate_batch(f, [[0], [0, 1]], QueryLedger())

    @pytest.mark.parametrize("make,bad", NON_FINITE)
    def test_batch_marginals(self, make, bad):
        f = make([1.0, bad, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            batch_marginals(f, [0], [1, 2], 1.0, QueryLedger())

    @pytest.mark.parametrize("make,bad", NON_FINITE)
    def test_batch_pair_gains(self, make, bad):
        f = make([1.0, bad, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            batch_pair_gains(f, [], np.array([[0]]), np.array([1]),
                             QueryLedger())

    def test_nan_coverage_contribution_fails_at_first_round(self):
        # A NaN set after construction still stops at the batch layer.
        f = SaturatedCoverageObjective(np.array([[1.0], [2.0]]), np.array([5.0]))
        f.a[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            evaluate_batch(f, [[0, 1]], QueryLedger())

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

    def test_negative_sample_size_rejected(self):
        rng = make_rng(3)
        with pytest.raises(ValueError, match="sample size must be >= 0"):
            sample_without_replacement(rng, [1, 2, 3], -1)
        with pytest.raises(ValueError, match="sample size must be >= 0"):
            downsample(np.arange(5), -2, rng)
        assert rng.integers(2**40) == make_rng(3).integers(2**40)  # nothing drawn

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
    assert evaluate_offline(f, np.array([1])) == 2.0
    assert evaluate_offline(f, [1, 0]) == 3.0


@pytest.mark.parametrize("query", [[[0, 1]], np.array([[0, 1]]), 3, np.int64(3)],
                         ids=["nested-list", "2d-array", "int", "numpy-int"])
def test_query_that_is_not_one_dimensional_rejected(query):
    # Unchecked, a 2-D query was flattened into one set: [[0, 1]] was
    # answered as f({0, 1}). A 0-d query failed with "'int' object is not
    # iterable".
    f = ModularObjective([1.0, 2.0, 4.0])
    led = QueryLedger()
    with pytest.raises(ValueError, match="query 0 must be a one-dimensional"):
        evaluate_batch(f, [query], led)
    with pytest.raises(ValueError, match="one-dimensional"):
        evaluate_offline(f, query)
    assert led.rounds == 0
    assert evaluate_batch(f, [[2], [0, 1]], led).tolist() == [4.0, 3.0]


def test_evaluate_offline_rejects_duplicates_like_evaluate_batch():
    f = ModularObjective([1.0, 2.0])
    with pytest.raises(InvalidSubsetError, match="duplicate"):
        evaluate_batch(f, [[1, 1]], QueryLedger())
    with pytest.raises(InvalidSubsetError, match="duplicate"):
        evaluate_offline(f, [1, 1])


def _anm_output():
    f = generate_synthetic("revenue", 30, 0.2, seed=4).objective()
    params = NonmonotoneParams(k=6, eps=0.3, delta=0.1, sample_override=20)
    return adaptive_nonmonotone_max(f, params, 3)[0]


# Each returns an index set built in some other order than ascending: picks
# by gain, prefixes of a shuffle, draws from an unsorted pool.
WEIGHTS = ModularObjective([1.0, 5.0, 3.0, 4.0, 2.0, 6.0, 0.5, 7.0])
INDEX_SET_OUTPUTS = {
    "adaptive_nonmonotone_max": _anm_output,
    "greedy": lambda: greedy(WEIGHTS, 4, QueryLedger()),
    "random_prefix": lambda: random_prefix(WEIGHTS, 5, make_rng(1), QueryLedger()),
    "random_lazy_greedy": lambda: random_lazy_greedy(WEIGHTS, 4, None, make_rng(1),
                                                     QueryLedger()),
    "unconstrained_max": lambda: unconstrained_max(
        WEIGHTS, np.array([7, 2, 5, 0, 3]), UnconstrainedParams(eps=0.2, delta=0.1),
        make_rng(1), QueryLedger()),
    "downsample": lambda: downsample(np.arange(8), 4, make_rng(1)),
    "best_prefix": lambda: best_prefix(WEIGHTS, np.array([0, 2, 4, 6]), make_rng(1),
                                       QueryLedger())[0],
    "brute_force_opt": lambda: brute_force_opt(WEIGHTS, 3)[0],
}


@pytest.mark.parametrize("run", list(INDEX_SET_OUTPUTS.values()),
                         ids=list(INDEX_SET_OUTPUTS))
def test_every_returned_set_is_a_sorted_int64_array(run):
    out = run()
    assert type(out) is np.ndarray and out.dtype == np.int64 and out.ndim == 1
    assert out.size >= 2 and (out[1:] > out[:-1]).all()


_MOVIE_DATA = generate_synthetic("movie", 6, seed=2).data

# Each constructor that takes a setting, one bad value of it per case.
BAD_SETTINGS = {
    "threshold-tau-nan": (lambda: ThresholdParams(k=2, tau=float("nan"), eps=0.3,
                                                  delta=0.1), "tau", "nan"),
    "threshold-k": (lambda: ThresholdParams(k=0, tau=1.0, eps=0.3, delta=0.1),
                    "k", "0"),
    "threshold-break_size": (lambda: ThresholdParams(k=2, tau=1.0, eps=0.3, delta=0.1,
                                                     break_size=0), "break_size", "0"),
    "threshold-sample_override": (lambda: ThresholdParams(
        k=2, tau=1.0, eps=0.3, delta=0.1, sample_override=0), "sample_override", "0"),
    "unconstrained-eps": (lambda: UnconstrainedParams(eps=1.5, delta=0.1), "eps", "1.5"),
    "unconstrained-delta-nan": (lambda: UnconstrainedParams(eps=0.2, delta=float("nan")),
                                "delta", "nan"),
    "nonmonotone-delta": (lambda: NonmonotoneParams(k=2, eps=0.3, delta=1.0),
                          "delta", "1.0"),
    "nonmonotone-sample_override": (lambda: NonmonotoneParams(
        k=2, eps=0.3, delta=0.1, sample_override=-5), "sample_override", "-5"),
    "greedy": (lambda: greedy(WEIGHTS, 0, QueryLedger()), "k", "0"),
    "random_prefix": (lambda: random_prefix(WEIGHTS, -1, make_rng(1), QueryLedger()),
                      "k", "-1"),
    "random_lazy_greedy": (lambda: random_lazy_greedy(WEIGHTS, 0, None, make_rng(1),
                                                      QueryLedger()), "k", "0"),
    "synthetic-n": (lambda: generate_synthetic("revenue", 0), "n", "0"),
    "synthetic-seed": (lambda: generate_synthetic("image", 10, seed=-1), "seed", "-1"),
    "synthetic-p": (lambda: generate_synthetic("revenue", 10, 1.5), "p", "1.5"),
    "synthetic-dim-inf": (lambda: generate_synthetic("image", 10, float("inf")),
                          "dim", "inf"),
    "movie-lam": (lambda: MovieRecommendationObjective(_MOVIE_DATA, lam=7), "lam", "7"),
    "adaptive_nonmonotone_max-seed": (lambda: adaptive_nonmonotone_max(
        WEIGHTS, NonmonotoneParams(k=2, eps=0.3, delta=0.1), -1), "seed", "-1"),
    "check_submodularity-seed": (lambda: check_submodularity(WEIGHTS, 5, seed=-3),
                                 "seed", "-3"),
    "brute_force_opt-k": (lambda: brute_force_opt(WEIGHTS, -1), "k", "-1"),
    # A count must be an integer: with k = 2.5, S could never reach k.
    "nonmonotone-k-fraction": (lambda: NonmonotoneParams(k=2.5, eps=0.3, delta=0.1),
                               "k", "2.5"),
    "threshold-k-bool": (lambda: ThresholdParams(k=True, tau=1.0, eps=0.3, delta=0.1),
                         "k", "True"),
    "threshold-break_size-fraction": (lambda: ThresholdParams(
        k=2, tau=1.0, eps=0.3, delta=0.1, break_size=6.5), "break_size", "6.5"),
    "nonmonotone-sample_override-float": (lambda: NonmonotoneParams(
        k=2, eps=0.3, delta=0.1, sample_override=20.0), "sample_override", "20.0"),
    "synthetic-n-float": (lambda: generate_synthetic("revenue", 10.0), "n", "10.0"),
    "synthetic-seed-bool": (lambda: generate_synthetic("image", 10, seed=False),
                            "seed", "False"),
    "check_submodularity-trials-fraction": (lambda: check_submodularity(WEIGHTS, 4.5),
                                            "trials", "4.5"),
    "adaptive_nonmonotone_max-seed-fraction": (lambda: adaptive_nonmonotone_max(
        WEIGHTS, NonmonotoneParams(k=2, eps=0.3, delta=0.1), 1.5), "seed", "1.5"),
}


@pytest.mark.parametrize("build,field,shown", list(BAD_SETTINGS.values()),
                         ids=list(BAD_SETTINGS))
def test_out_of_range_setting_raises_param_error(build, field, shown):
    with pytest.raises(ParamError) as info:
        build()
    assert info.value.field == field
    assert f"{field} " in str(info.value) and f"got {shown}" in str(info.value)


def test_seed_sequence_and_empty_brute_force_stay_valid():
    # A SeedSequence seeds the run as the int it was built from, and numpy's
    # integers are counts as int's are; k = 0 is brute_force_opt's one
    # exception to the k >= 1 rule.
    f = generate_synthetic("revenue", 14, 0.3, seed=2).objective()
    numpy_sized = generate_synthetic("revenue", np.int64(14), 0.3, seed=np.uint32(2))
    assert np.array_equal(numpy_sized.objective().w, f.w)
    params = NonmonotoneParams(k=3, eps=0.3, delta=0.1, sample_override=20)
    by_int = adaptive_nonmonotone_max(f, params, 5)
    by_sequence = adaptive_nonmonotone_max(f, params, np.random.SeedSequence(5))
    by_numpy = adaptive_nonmonotone_max(f, NonmonotoneParams(
        k=np.int32(3), eps=0.3, delta=0.1, sample_override=np.int64(20)), np.int64(5))
    for other in (by_sequence, by_numpy):
        assert other[0].tolist() == by_int[0].tolist()
        assert other[1].per_round == by_int[1].per_round
    assert brute_force_opt(WEIGHTS, 0)[0].tolist() == []


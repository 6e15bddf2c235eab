"""Differential tests of every objective's batched fast paths.

``_gain_batch`` and ``_evaluate_batch`` are checked against ``_evaluate`` on
generated instances, and the revenue neighbour kernel against the dense
all-nodes formula it replaced, kept below as the reference, on random graphs
and on a skewed one whose hub has many times the mean degree. The rules every
kernel relies on (overlapping pools, exact zeros for members) hold at the
metered entry point ``batch_pair_gains``, so they are checked there. So is the
base-state memo: a kernel fed a memoized base aggregate must answer exactly as
one that built it afresh. A grouped paired-gain round must answer every group
bit for bit as that group's own one-group call does, and a row's gain must not
depend on which rows share its kernel call.
"""

import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submax import (
    CutObjective,
    ImageSummarizationObjective,
    ModularObjective,
    NonmonotoneParams,
    QueryLedger,
    RevenueObjective,
    WeightedGraph,
    adaptive_nonmonotone_max,
    batch_marginals,
    batch_pair_gains,
    evaluate_batch,
    evaluate_offline,
    generate_synthetic,
    greedy,
    load_edge_list,
    load_similarity_csv,
    make_random_coverage,
    make_rng,
    oracle,
    paired_gain_round,
    random_lazy_greedy,
)
from submax.objectives import SimilarityMatrix

EPS = np.finfo(np.float64).eps
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def dense_revenue_gain_batch(w, base_idx, t_mat, xs):
    """The revenue gain kernel over all n nodes: an (n, m, t-1) gather of w.

    Each gain sums its n increments one node at a time, in node order, as a
    running sum; its last entry is the gain, whatever layout numpy gave inc.
    T rows must be disjoint from base; a row whose x_j lies in B_j is 0.0.
    """
    n = w.shape[0]
    m = xs.size
    w_into_base = w[:, base_idx].sum(axis=1) if base_idx.size else np.zeros(n)
    if t_mat.shape[1]:
        w_b = w_into_base[:, None] + w[:, t_mat].sum(axis=2)  # (n, m)
    else:
        w_b = np.broadcast_to(w_into_base[:, None], (n, m)).copy()
    inc = np.sqrt(w_b + w[:, xs]) - np.sqrt(w_b)
    members = np.zeros((n, m), dtype=bool)
    if base_idx.size:
        members[base_idx, :] = True
    if t_mat.shape[1]:
        members[t_mat.ravel(), np.repeat(np.arange(m), t_mat.shape[1])] = True
    members[xs, np.arange(m)] = True
    inc[members] = 0.0
    own = np.sqrt(w_b[xs, np.arange(m)])
    gains = np.add.accumulate(inc, axis=0)[-1] - own
    gains[np.isin(xs, base_idx) | (t_mat == xs[:, None]).any(axis=1)] = 0.0
    return gains


def make_objective(kind, n, seed):
    if kind == "modular":
        return ModularObjective(np.random.default_rng(seed).random(n) * 3.0)
    if kind == "coverage":
        return make_random_coverage(n, 5, seed=seed, big_elements=n // 4)
    if kind in ("revenue", "synthetic-cut"):
        return generate_synthetic(kind, n, 0.4, seed=seed).objective()
    return generate_synthetic(kind, n, seed=seed).objective()


KINDS = ["modular", "coverage", "revenue", "synthetic-cut", "image", "movie"]


def metered_gains(f, base, t_mat, xs):
    """Paired gains through the metered entry point, on a throwaway ledger."""
    return batch_pair_gains(f, base, t_mat, xs, QueryLedger())


def grouped_round(f, groups, asks=False):
    """Each group's gains from one flat ``paired_gain_round``.

    A group is (base, t_mat, xs, ledger), and a round is one kind: every
    t_mat is None in a marginals round, which asks each f(base) when asks is
    True, and none is in a sample round. A sample round's groups are laid out
    by T width, in the order of each width's first group, with one T array
    per width; the gains come back in the order of ``groups``.
    """
    marginals = groups[0][1] is None
    assert all((t_mat is None) == marginals for _, t_mat, _, _ in groups)
    widths = [0 if t_mat is None else np.shape(t_mat)[1] for _, t_mat, _, _ in groups]
    order = sorted(range(len(groups)), key=lambda i: widths.index(widths[i]))
    xs = [np.asarray(groups[i][2], dtype=np.int64) for i in order]
    offsets = np.concatenate([[0], np.cumsum([x.size for x in xs])])
    t_mats = {}
    for i in order:
        t_mats.setdefault(widths[i], []).append(groups[i][1])
    gains = paired_gain_round(
        f, np.concatenate(xs), None if marginals else [np.concatenate(t) for t in t_mats.values()],
        offsets, [groups[i][0] for i in order], [groups[i][3] for i in order], asks=asks)
    out = [None] * len(groups)
    for i, a, b in zip(order, offsets[:-1], offsets[1:]):
        out[i] = gains[a:b]
    return out


@st.composite
def gain_queries(draw, max_t=6):
    """(n, base, t_mat, xs): T rows disjoint from base, any x in 0..n-1."""
    n = draw(st.integers(2, 14))
    perm = draw(st.permutations(range(n)))
    b = draw(st.integers(0, n - 1))
    base = np.sort(np.asarray(perm[:b], dtype=np.int64))
    rest = perm[b:]
    t = draw(st.integers(0, min(max_t, len(rest))))
    m = draw(st.integers(1, 6))
    t_mat = np.asarray([draw(st.permutations(rest))[:t] for _ in range(m)],
                       dtype=np.int64).reshape(m, t)
    xs = np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)),
                    dtype=np.int64)
    return n, base, t_mat, xs


def reference_gain(f, base, t_row, x):
    """f(B + x) - f(B) from two evaluations, B = base + T, and their scale."""
    b = np.union1d(base, t_row).astype(np.int64)
    f_b = f._evaluate(b)
    f_bx = f._evaluate(np.union1d(b, [x]).astype(np.int64))
    return f_bx - f_b, max(1.0, abs(f_b), abs(f_bx))


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(q=gain_queries(), seed=st.integers(0, 2**16))
def test_gain_batch_matches_evaluate(kind, q, seed):
    n, base, t_mat, xs = q
    f = make_objective(kind, n, seed)
    state, rows = f._round_state([base])
    got = f._gain_batch(state, t_mat, xs, np.repeat(rows, xs.size))
    assert got is not None and got.shape == xs.shape
    metered = metered_gains(f, base, t_mat, xs)
    for j, x in enumerate(xs):
        if x in base or x in t_mat[j]:
            assert metered[j] == 0.0  # exactly; the kernel's row is ignored
            continue
        assert metered[j] == got[j]
        want, scale = reference_gain(f, base, t_mat[j], x)
        assert abs(got[j] - want) <= 16 * n * EPS * scale, (j, got[j], want)


@pytest.mark.parametrize("kind", KINDS)
def test_evaluate_batch_mask_form_equals_list_form(kind):
    f = make_objective(kind, 17, seed=4)
    rng = np.random.default_rng(9)
    masks = rng.random((12, f.n)) < 0.4
    masks[0] = False
    masks[1] = True
    queries = [np.flatnonzero(m).tolist() if j % 2 else rng.permutation(np.flatnonzero(m))
               for j, m in enumerate(masks)]
    by_mask, by_list = QueryLedger(), QueryLedger()
    got = evaluate_batch(f, masks, by_mask)
    want = evaluate_batch(f, queries, by_list)
    assert got.tobytes() == want.tobytes()
    assert by_mask.per_round == by_list.per_round == [(1, 12)]


@st.composite
def member_batches(draw):
    """A (rows, n) mask batch whose rows hold only a drawn member set.

    The member set has 0 to n elements, so batches land on both sides of the
    whole-set product's rule: at most half of n members multiply only their
    rows of the objective's matrix, more take the full product.
    """
    n = draw(st.integers(2, 14))
    members = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    rows = draw(st.integers(1, 5))
    masks = np.zeros((rows, n), dtype=bool)
    masks[:, members] = np.asarray(draw(st.lists(
        st.lists(st.booleans(), min_size=len(members), max_size=len(members)),
        min_size=rows, max_size=rows)), dtype=bool).reshape(rows, len(members))
    return masks


def _batch(n, *rows):
    masks = np.zeros((len(rows), n), dtype=bool)
    for i, row in enumerate(rows):
        masks[i, list(row)] = True
    return masks


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(masks=member_batches(), seed=st.integers(0, 2**16))
@example(masks=_batch(8, (), ()), seed=0)  # no members
@example(masks=_batch(8, (1, 6), (2, 6), (5,)), seed=1)  # n/2 members
@example(masks=_batch(8, (0, 3), (3, 4, 7), (6,)), seed=2)  # n/2 + 1
@example(masks=_batch(9, (0, 2, 3, 8)), seed=3)  # one row
def test_evaluate_batch_matches_evaluate(kind, masks, seed):
    f = make_objective(kind, masks.shape[1], seed)
    got = f._evaluate_batch(masks)
    for mask, value in zip(masks, got):
        want = f._evaluate(np.flatnonzero(mask).astype(np.int64))
        assert abs(value - want) <= 16 * f.n * EPS * max(1.0, abs(want))


@pytest.mark.parametrize("kind", KINDS)
def test_overlapping_pool_defers_to_fallback(kind):
    # Only row 0, whose T row overlaps the base, leaves the kernel: row 1
    # gets the bytes it gets in a call without row 0 (for every kind here,
    # the two-evaluation difference would round it otherwise).
    f = make_objective(kind, 6, seed=3)
    seen = []
    kernel = f._gain_batch
    f._gain_batch = lambda st, t, x, rows: seen.append(t) or kernel(st, t, x, rows)
    base = np.array([1, 4], dtype=np.int64)
    t_mat = np.array([[0, 4], [0, 3], [0, 2]], dtype=np.int64)  # row 0 reuses 4
    xs = np.array([5, 5, 2], dtype=np.int64)  # row 2: x already in T
    got = metered_gains(f, base, t_mat, xs)
    assert [t.tolist() for t in seen] == [[[0, 3], [0, 2]]]
    b = np.union1d(base, t_mat[0])
    assert got[0] == f._evaluate(np.union1d(b, xs[0])) - f._evaluate(b)
    assert got[1:2].tobytes() == metered_gains(f, base, t_mat[1:], xs[1:])[:1].tobytes()
    assert got[2] == 0.0


@st.composite
def revenue_cases(draw):
    n = draw(st.integers(2, 60))
    p = draw(st.sampled_from([0.0, 0.05, 0.2, 1.0]))
    seed = draw(st.integers(0, 2**16))
    b = draw(st.integers(0, n - 1))
    t = draw(st.integers(0, min(12, n - b)))
    m = draw(st.sampled_from([1, 2, 7, 30]))
    bases = draw(st.sampled_from([1, 2, 3]))
    return n, p, seed, b, t, m, bases


def _revenue_query(n, b, t, m, rng):
    perm = rng.permutation(n)
    base = np.sort(perm[:b])
    rest = perm[b:]
    t_mat = np.stack([rng.choice(rest, t, replace=False) for _ in range(m)])
    return base, t_mat.reshape(m, t), rng.integers(0, n, m)


def _revenue_round(case):
    """The objective and one query per base of a revenue case."""
    n, p, seed, b, t, m, bases = case
    f = generate_synthetic("revenue", n, p, seed=seed).objective()
    rng = np.random.default_rng(seed)
    return f, [_revenue_query(n, b, t, m, rng) for _ in range(bases)]


# The kernel sums each W_B(v) over the T elements it reads; the sum order
# shows only where a neighbour v of x_j has 3 or more neighbours in T_j.
# NEIGHBOUR_WITH_3_IN_T has such a row, NEIGHBOUR_IN_T a neighbour of x_j in
# T_j (a member row of the sum), and MULTI_BASE both, over three bases in one
# round; test_revenue_examples_cover_their_cases checks that they do.
NEIGHBOUR_WITH_3_IN_T = (40, 0.2, 0, 5, 10, 1, 1)
NEIGHBOUR_IN_T = (30, 0.05, 1, 3, 8, 2, 1)
MULTI_BASE = (24, 0.2, 0, 4, 6, 7, 3)


@SETTINGS
@given(case=revenue_cases())
@example(case=(40, 0.2, 1, 5, 0, 1, 1))     # m = 1, empty T
@example(case=(40, 0.2, 2, 5, 12, 1, 1))    # m = 1, t-1 >= 8
@example(case=(50, 0.05, 3, 10, 12, 30, 1))  # t-1 >= 8 over 30 rows
@example(case=(20, 1.0, 4, 3, 9, 7, 1))     # complete graph
@example(case=(9, 0.0, 5, 2, 4, 7, 1))      # no edges at all
@example(case=NEIGHBOUR_WITH_3_IN_T)
@example(case=NEIGHBOUR_IN_T)
@example(case=MULTI_BASE)
def test_revenue_kernel_equals_dense_formula(case):
    # Every group of one round, each on its own base, equals the all-nodes
    # formula on that base.
    f, queries = _revenue_round(case)
    got = grouped_round(f, [(base, t_mat, xs, QueryLedger()) for base, t_mat, xs in queries])
    for (base, t_mat, xs), gains in zip(queries, got):
        assert np.array_equal(gains, dense_revenue_gain_batch(f.w, base, t_mat, xs))


def _sum_order_cases(f, queries):
    """(a neighbour of some x_j has 3+ neighbours in T_j, some T_j holds a
    neighbour of x_j), over the rows the kernel answers."""
    adjacent = f.w > 0
    three = in_t = False
    for base, t_mat, xs in queries:
        for row, x in zip(t_mat.tolist(), xs.tolist()):
            if x in base or x in row:
                continue
            for v in np.flatnonzero(adjacent[x]).tolist():
                in_t |= v in row
                three |= v not in base and np.count_nonzero(adjacent[v, row]) >= 3
    return three, in_t


def test_revenue_examples_cover_their_cases():
    assert _sum_order_cases(*_revenue_round(NEIGHBOUR_WITH_3_IN_T))[0]
    assert _sum_order_cases(*_revenue_round(NEIGHBOUR_IN_T))[1]
    f, queries = _revenue_round(MULTI_BASE)
    assert len({base.tobytes() for base, _, _ in queries}) == 3
    assert _sum_order_cases(f, queries) == (True, True)


@pytest.mark.parametrize("n,p,seed", [(2, 1.0, 0), (12, 0.2, 1), (30, 0.1, 2),
                                      (40, 0.05, 3), (9, 0.0, 4), (25, 0.6, 5)])
def test_revenue_reach_is_the_two_hop_table(n, p, seed):
    f = generate_synthetic("revenue", n, p, seed=seed).objective()
    adjacent = (f.w > 0).astype(np.int64)
    assert f.reach.dtype == bool
    assert np.array_equal(f.reach, (adjacent + adjacent @ adjacent) > 0)


def test_revenue_kernel_isolated_node_and_zero_weight_edge(tmp_path):
    # Node 5 is isolated, so its CSR row is empty; edge (2, 3) has weight 0
    # and so no entry in either row.
    p = tmp_path / "g.csv"
    p.write_text("0,1,0.7\n1,2,0.3\n2,3,0.0\n3,4,1.9\n0,4,0.2\n1,4,0.5\n")
    f = RevenueObjective(load_edge_list(p, n=6))
    assert f.w[2, 3] == 0.0
    assert f.indptr.tolist() == [0, 2, 5, 6, 7, 10, 10]
    assert f.indices.tolist() == [1, 4, 0, 2, 4, 1, 4, 0, 1, 3]
    assert f.data.tolist() == [0.7, 0.2, 0.7, 0.3, 0.5, 0.3, 1.9, 0.2, 0.5, 1.9]
    rng = np.random.default_rng(7)
    for b, t, m in [(0, 0, 6), (1, 0, 4), (0, 3, 5), (2, 2, 1), (1, 4, 6)]:
        base, t_mat, xs = _revenue_query(6, b, t, m, rng)
        xs[0] = 5  # the isolated node: no neighbours, gain 0
        want = dense_revenue_gain_batch(f.w, base, t_mat, xs)
        assert np.array_equal(metered_gains(f, base, t_mat, xs), want)


def _skewed_graph():
    """Node 0 is a hub with 40 leaves (1..40); 41..45 form a sparse cycle
    with a chord, and node 47 is isolated. Mean degree is under 2."""
    rng = np.random.default_rng(11)
    edges = [(0, v, w) for v, w in zip(range(1, 41), rng.random(40).tolist())]
    edges += [(1, 2, 0.8), (41, 42, 0.6), (42, 43, 1.3), (43, 44, 0.2),
              (44, 45, 0.9), (41, 45, 0.4), (41, 43, 0.7)]
    return WeightedGraph(n=48, edges=edges)


@pytest.mark.parametrize("m", [1, 2, 30])
@pytest.mark.parametrize("width", [0, 1, 8, 12])
def test_revenue_kernel_on_a_skewed_graph(width, m):
    # Rows of the hub (40 neighbours), the isolated node (none) and small-
    # degree nodes, from two bases, share one kernel call; each group must
    # equal the all-nodes formula on its own base.
    f = RevenueObjective(_skewed_graph())
    degree = np.diff(f.indptr)
    assert degree[0] == 40 and degree[47] == 0 and degree.mean() < 2
    rng = np.random.default_rng(100 * width + m)
    groups, wants = [], []
    for base, lead in [([2, 41], [0, 47, 5]), ([7, 9, 43], [47, 0, 42])]:
        base = np.asarray(base, dtype=np.int64)
        rest = np.setdiff1d(np.arange(f.n), base)
        t_mat = np.stack([rng.choice(rest, width, replace=False)
                          for _ in range(m)]).reshape(m, width)
        xs = rng.integers(0, f.n, m)
        xs[:3] = lead[:m]  # hub, isolated node and a leaf or tail node
        groups.append((base, t_mat, xs, QueryLedger()))
        wants.append(dense_revenue_gain_batch(f.w, base, t_mat, xs))
    rows = []
    kernel = f._gain_batch
    f._gain_batch = lambda st_, t, x, of: rows.append(x.size) or kernel(st_, t, x, of)
    got = grouped_round(f, groups)
    assert rows == [2 * m]  # every row went through one kernel call
    for gains, want in zip(got, wants):
        assert np.array_equal(gains, want)



@st.composite
def memo_sequences(draw):
    """(n, bases, calls): 2-3 bases and calls that revisit them in any order.

    Each call is (base number, t_mat, xs); t_mat has no columns for a
    batch_marginals call and draws its rows from outside the base otherwise.
    """
    n = draw(st.integers(3, 14))
    bases = [np.sort(np.asarray(draw(st.permutations(range(n)))[:b], dtype=np.int64))
             for b in draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=3))]
    calls = []
    for which in draw(st.lists(st.integers(0, len(bases) - 1), min_size=3,
                               max_size=8)):
        rest = np.setdiff1d(np.arange(n), bases[which])
        m = draw(st.integers(1, 5))
        t = draw(st.integers(0, min(3, rest.size)))
        t_mat = np.asarray([draw(st.permutations(rest.tolist()))[:t]
                            for _ in range(m)], dtype=np.int64).reshape(m, t)
        xs = np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=m,
                                      max_size=m)), dtype=np.int64)
        calls.append((which, t_mat, xs))
    return n, bases, calls


def _metered_call(f, base, t_mat, xs):
    if t_mat.shape[1]:
        return batch_pair_gains(f, base, t_mat, xs, QueryLedger())
    return batch_marginals(f, base, xs, evaluate_offline(f, base),
                           QueryLedger())


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(q=memo_sequences(), seed=st.integers(0, 2**16))
@example(q=(5, [np.array([0, 3]), np.array([], dtype=np.int64)],
            [(0, np.empty((2, 0), dtype=np.int64), np.array([1, 4])),
             (0, np.array([[1], [2]]), np.array([4, 2])),
             (1, np.array([[0, 3]]), np.array([2])),
             (0, np.empty((1, 0), dtype=np.int64), np.array([3]))]),
         seed=1)  # A, A, B, A
def test_memoized_base_state_equals_fresh_objective(kind, q, seed):
    n, bases, calls = q
    f = make_objective(kind, n, seed)
    for which, t_mat, xs in calls:
        got = _metered_call(f, bases[which], t_mat, xs)
        want = _metered_call(make_objective(kind, n, seed), bases[which], t_mat, xs)
        assert np.array_equal(got, want)


def _state_key(state):
    return b"".join(arr.tobytes() for arr in state)


def _membership_row(n, base):
    row = np.zeros(n, dtype=bool)
    row[base] = True
    return row


def _assert_base_states(f, stacked, rows, bases):
    """Row rows[j] of the stack is bases[j]'s state: its membership row, then
    its _base_state."""
    for row, base in zip(rows.tolist(), bases):
        assert np.array_equal(stacked[0][row], _membership_row(f.n, base))
        want = f._base_state(np.asarray(base, dtype=np.int64))
        assert len(stacked) == 1 + len(want)
        for got, arr in zip(stacked[1:], want):
            assert np.array_equal(got[row], arr)


def test_lazy_greedy_builds_each_base_state_once():
    # Lazy greedy's rounds have one base each, so a round's stacked state has
    # the bytes of that base's own state: its membership row, then the
    # aggregates _base_state builds.
    f = generate_synthetic("image", 60, seed=2).objective()
    built, asked = [], []
    state, kernel = f._base_state, f._gain_batch

    def build(b):
        got = state(b)
        built.append(_state_key((_membership_row(f.n, b), *got)))
        return got

    f._base_state = build
    f._gain_batch = lambda st, t, x, rows: asked.append(_state_key(st)) or kernel(
        st, t, x, rows)
    ledger = QueryLedger()
    out = random_lazy_greedy(f, 8, 0.01, make_rng(4), ledger)
    changes = [key for j, key in enumerate(asked) if j == 0 or key != asked[j - 1]]
    assert built == changes
    assert len(built) < len(asked) == ledger.rounds - 1
    fresh = generate_synthetic("image", 60, seed=2).objective()
    assert out.tolist() == random_lazy_greedy(fresh, 8, 0.01, make_rng(4),
                                              QueryLedger()).tolist()


def test_base_state_memo_keys_on_int64_elements():
    # Little-endian int32 [1, 0] has the bytes of int64 [1], but its elements
    # are 1, 0: a base out of order, not a hit on [1].
    narrow, wide = np.array([1, 0], dtype=np.int32), np.array([1], dtype=np.int64)
    assert narrow.tobytes() == wide.tobytes()
    f = make_objective("image", 5, seed=0)
    first, rows = f._round_state([wide])
    _assert_base_states(f, first, rows, [wide])
    memo = f._base_memo
    with pytest.raises(oracle.InvalidSubsetError, match="strictly increasing"):
        f._round_state([narrow])
    assert f._base_memo is memo
    # The same elements in another dtype share the int64 entry.
    pair = np.array([0, 1], dtype=np.int32)
    stacked, rows = f._round_state([wide.astype(np.int32), pair])
    assert stacked[0].shape[0] == 2
    assert f._base_memo[wide.tobytes()] is memo[wide.tobytes()]  # a hit
    assert set(f._base_memo) == {wide.tobytes(), pair.astype(np.int64).tobytes()}
    _assert_base_states(f, stacked, rows, [wide, pair])
    assert not np.array_equal(stacked[0][rows[0]], stacked[0][rows[1]])


def test_base_state_memo_holds_the_latest_rounds_bases():
    f = make_objective("movie", 9, seed=1)
    a, b, c = (np.array(x, dtype=np.int64) for x in ([0, 3], [1], []))
    f._round_state([a, b])
    kept = f._base_memo[a.tobytes()]
    f._round_state([c, a])  # b leaves the memo; a's state is reused
    assert set(f._base_memo) == {c.tobytes(), a.tobytes()}
    assert f._base_memo[a.tobytes()] is kept
    stacked, rows = f._round_state([a, c, a])  # a subset: the same stack
    assert all(got is arr for got, arr in zip(stacked, f._base_memo.stack))
    assert rows.tolist() == [1, 0, 1]
    _assert_base_states(f, stacked, rows, (a, c, a))


@pytest.mark.parametrize("kind", KINDS)
def test_round_state_leads_with_each_bases_membership_row(kind):
    f = make_objective(kind, 9, seed=3)
    bases = [np.array(x, dtype=np.int64) for x in ([2, 5, 8], [], [0], [2, 5, 8])]
    stacked, rows = f._round_state(bases)
    assert stacked[0].dtype == np.bool_
    for row, base in zip(rows.tolist(), bases):
        assert np.array_equal(stacked[0][row], _membership_row(f.n, base))


class _StateOnlyCut(CutObjective):
    """Cut's base aggregates with the default gain kernel."""

    _gain_batch = oracle.Objective._gain_batch


def test_base_state_without_its_kernel_answers_as_the_full_kernel():
    graph = generate_synthetic("synthetic-cut", 16, 0.4, seed=5).data
    full, state_only = CutObjective(graph), _StateOnlyCut(graph)
    base = np.array([1, 6, 9], dtype=np.int64)
    t_mat = np.array([[0, 4], [2, 3], [5, 7], [4, 6]])
    xs = np.array([3, 11, 9, 15])
    want = metered_gains(full, base, t_mat, xs)
    got = metered_gains(state_only, base, t_mat, xs)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    params = NonmonotoneParams(k=4, eps=0.3, delta=0.2, sample_override=8)
    out, ledger, _ = adaptive_nonmonotone_max(full, params, 3)
    got_out, got_ledger, _ = adaptive_nonmonotone_max(state_only, params, 3)
    assert got_out.tolist() == out.tolist()
    assert got_ledger.per_round == ledger.per_round


def test_memoized_base_state_is_read_only():
    f = make_objective("revenue", 8, seed=0)
    bases = [np.array([2, 5], dtype=np.int64), np.array([1], dtype=np.int64)]
    stacked, _ = f._round_state(bases)
    memoized = [arr for state in f._base_memo.values() for arr in state]
    for arr in list(stacked) + memoized:
        with pytest.raises(ValueError):
            arr[0] = arr[0]


@st.composite
def grouped_rounds(draw):
    """(n, seed, specs): one spec (base size, T width, rows, kind) per group.

    kind is "marginals" (no T, f(base) known), "pairs", or "overlap": pairs
    whose first T row takes an element of the base when both are non-empty.
    """
    n = draw(st.integers(12, 20))
    seed = draw(st.integers(0, 2**16))
    specs = draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0, 1, 8, 9]),
                                    st.sampled_from([1, 2, 3, 7]),
                                    st.sampled_from(["marginals", "pairs", "overlap"])),
                          min_size=1, max_size=5))
    return n, seed, specs


def _grouped_inputs(n, seed, specs):
    """(base, t_mat or None, xs, base_value or None) per spec."""
    rng = np.random.default_rng(seed)
    groups = []
    for b, width, rows, kind in specs:
        perm = rng.permutation(n)
        base, rest = np.sort(perm[:b]), perm[b:]
        xs = rng.integers(0, n, rows)
        if kind == "marginals":
            groups.append((base, None, xs, None))
            continue
        t_mat = np.stack([rng.choice(rest, width, replace=False)
                          for _ in range(rows)]).reshape(rows, width)
        if kind == "overlap" and b and width:
            t_mat[0, 0] = base[0]
        groups.append((base, t_mat, xs, None))
    return groups


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(case=grouped_rounds())
@example(case=(16, 3, [(2, 0, 7, "marginals"), (1, 1, 3, "pairs"), (3, 9, 7, "overlap"),
                       (0, 8, 1, "pairs"), (2, 8, 7, "pairs")]))
@example(case=(12, 5, [(3, 8, 7, "overlap")]))
def test_grouped_round_equals_one_group_calls(kind, case):
    n, seed, specs = case
    f = make_objective(kind, n, seed)
    inputs = _grouped_inputs(n, seed, specs)
    inputs = [(base, t_mat, xs, evaluate_offline(f, base) if t_mat is None else None)
              for base, t_mat, xs, _ in inputs]
    ledgers = [QueryLedger() for _ in inputs]
    calls = []
    kernel = f._gain_batch
    f._gain_batch = lambda st_, t, x, rows: calls.append(x.size) or kernel(st_, t, x, rows)
    budget = 4  # rows per call: the 7-row groups span chunks
    got = [None] * len(inputs)
    # One round per kind, marginals first.
    rounds = [[i for i, (_, t_mat, _, _) in enumerate(inputs) if (t_mat is None) == marginals]
              for marginals in (True, False)]
    with pytest.MonkeyPatch.context() as patch:
        # One cell per row at every T width, so the budget counts rows.
        patch.setattr(oracle, "GAIN_CELL_BUDGET", budget)
        patch.setattr(f, "_gain_row_cells", lambda width: 1)
        for members in filter(None, rounds):
            gains = grouped_round(f, [(*inputs[i][:3], ledgers[i]) for i in members])
            for i, g in zip(members, gains):
                got[i] = g
    del f._gain_batch

    # Only the rows whose own T row overlaps their base skip the kernel. Each
    # round's T widths, in the order of each width's first group, send their
    # other rows end to end in consecutive chunks of the budget, the
    # remainder last.
    want_calls = []
    for members in rounds:
        kernel_rows: dict[int, int] = {}
        for base, t_mat, xs, _ in [inputs[i] for i in members]:
            width = 0 if t_mat is None else t_mat.shape[1]
            overlap = 0 if t_mat is None else int(np.isin(t_mat, base).any(axis=1).sum())
            kernel_rows[width] = kernel_rows.get(width, 0) + xs.size - overlap
        want_calls += [min(budget, rows - a) for rows in kernel_rows.values()
                       for a in range(0, rows, budget)]
    assert calls == want_calls
    for (base, t_mat, xs, value), gains, led in zip(inputs, got, ledgers):
        alone = QueryLedger()
        if value is None:
            want = batch_pair_gains(f, base, t_mat, xs, alone)
            assert (led.per_round, led.logical_samples) == ([(1, 2 * xs.size)], xs.size)
            members = np.isin(xs, base) | (t_mat == xs[:, None]).any(axis=1)
        else:
            want = batch_marginals(f, base, xs, value, alone)
            assert (led.per_round, led.logical_samples) == ([(1, xs.size)], 0)
            members = np.isin(xs, base)
        assert gains.tobytes() == want.tobytes()
        assert (led.per_round, led.logical_samples) == (alone.per_round, alone.logical_samples)
        assert (gains[members] == 0.0).all()


def _graph_objective(kind, graph):
    """kind's objective on "G400" (revenue and cut: G(400, 3/399), graph
    seed 61) or "hub" (revenue and cut: _skewed_graph(), n = 48); the other
    kinds take their make_objective instance at that n."""
    if kind not in ("revenue", "synthetic-cut"):
        return make_objective(kind, 400 if graph == "G400" else 48, 61)
    if graph == "hub":
        return (RevenueObjective if kind == "revenue" else CutObjective)(_skewed_graph())
    return generate_synthetic(kind, 400, 3.0 / 399, seed=61).objective()


@st.composite
def call_independence_cases(draw):
    """(graph, base, T width, leading candidates, seed of the other rows,
    rows)."""
    graph = draw(st.sampled_from(["G400", "hub"]))
    n = 400 if graph == "G400" else 48
    base = sorted(draw(st.sets(st.integers(0, n - 1), max_size=12)))
    width = draw(st.sampled_from([0, 1, 8, 12]))
    lead = draw(st.lists(st.integers(0, n - 1), max_size=3))
    return graph, base, width, lead, draw(st.integers(0, 2**16)), 30


# 4,000 rows at T width 12 on G400 straddle each kernel's own cut: 3,938
# rows a call for revenue, whose rows hold a few cells per neighbour of x_j,
# 39 for image, whose rows hold n cells per T column and n more, and 512 for
# the kernels whose rows hold n cells.
STRADDLES_THE_CUT = ("G400", [5, 17, 96, 230], 12, [275, 281], 4, 4000)


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, max_examples=20, deadline=None)
@given(case=call_independence_cases())
@example(case=("G400", [2, 3, 48, 102, 153, 207, 244, 256, 264, 304], 0, [275, 281], 0, 30))
@example(case=("hub", [2, 41], 8, [0, 47, 5], 1, 30))    # the hub, 40 neighbours
@example(case=("hub", [7, 9, 43], 12, [47, 0, 42], 2, 30))
@example(case=("hub", [], 1, [0], 3, 30))
@example(case=STRADDLES_THE_CUT)
def test_a_rows_gain_does_not_depend_on_its_call(kind, case):
    # Each of the first 30 rows, and each row around the kernel's own cut,
    # asked as a one-row group, inside the whole group, and with the round
    # cut into calls of 1, 2 and 3 rows, gets the same bytes.
    graph, base, width, lead, seed, count = case
    f = _graph_objective(kind, graph)
    base = np.asarray(base, dtype=np.int64)
    rng = np.random.default_rng(seed)
    rest = np.setdiff1d(np.arange(f.n), base)
    t_mat = np.stack([rng.choice(rest, width, replace=False)
                      for _ in range(count)]).reshape(count, width)
    xs = rng.integers(0, f.n, count)
    xs[:len(lead)] = lead
    cut = max(1, oracle.GAIN_CELL_BUDGET // f._gain_row_cells(width))
    assert count == 30 or 30 < cut < count - 3  # the example straddles the cut
    value = evaluate_offline(f, base)

    def gains(rows, per_call=None):
        with pytest.MonkeyPatch.context() as patch:
            if per_call is not None:
                patch.setattr(oracle, "GAIN_CELL_BUDGET",
                              per_call * f._gain_row_cells(width))
            if width:
                return batch_pair_gains(f, base, t_mat[rows], xs[rows], QueryLedger())
            # A marginals group against the known f(base).
            return batch_marginals(f, base, xs[rows], value, QueryLedger())

    together = gains(slice(None))
    near = [j for j in range(count) if j < 30 or abs(j - cut) <= 3]
    alone = np.concatenate([gains(slice(j, j + 1)) for j in near])
    assert alone.tobytes() == together[near].tobytes()
    for per_call in (1, 2, 3):
        assert gains(slice(0, 30), per_call).tobytes() == together[:30].tobytes(), per_call


# (kind, T width, groups of 512 rows, bound in bytes). A kernel row's arrays
# grow with the width, so the bound does; at width 0 only many rows outgrow it.
@pytest.mark.parametrize("kind,width,groups,bound", [
    ("revenue", 0, 16, 4e6), ("revenue", 9, 4, 6e6), ("revenue", 17, 4, 11e6),
    ("image", 0, 4, 2.5e6), ("image", 9, 1, 5e6), ("image", 17, 1, 5e6),
], ids=["0", "9", "17", "image-0", "image-9", "image-17"])
def test_grouped_round_memory_is_bounded_by_the_row_budget(kind, width, groups, bound):
    # Revenue on G(400, 0.05), bases of 20. Cut at the kernel's own row
    # cells, the round's traced peak was 1.6, 3.2 and 5.5 MB at widths 0, 9
    # and 17; in one kernel call over all rows, 10.1, 12.5 and 21.9 MB: about
    # twice the bound below the one and above the other. Image (n = 400)
    # gathers n cells per T column of a row: 1.6 MB at widths 9 and 17 when
    # cut, 16.4 and 29.5 MB in one call. At width 0 its groups share one base,
    # so the round takes the cover-sum memo, and each call builds its one
    # (rows, n) array in place: 1.8 MB when cut, 6.7 MB in one call, where a
    # kernel that gathers the rows and then takes their maximum holds two
    # such arrays, 3.4 MB when cut.
    f = (generate_synthetic("revenue", 400, 0.05, seed=61) if kind == "revenue"
         else generate_synthetic("image", 400, seed=61)).objective()
    rng = np.random.default_rng(0)
    bases, t_mats = [], []
    for _ in range(groups):
        perm = rng.permutation(f.n)
        rest = perm[20:]
        t_mats.append(rest[np.argsort(rng.random((512, rest.size)), axis=1)[:, :width]])
        bases.append(np.sort(perm[:20]))
    if kind == "image" and width == 0:
        bases = bases[:1] * groups
    t_mat, xs = np.concatenate(t_mats), rng.integers(0, f.n, 512 * groups)
    offsets = np.arange(groups + 1) * 512
    f._round_state(bases)  # both rounds find their bases' states built

    def traced(budget):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "GAIN_CELL_BUDGET", budget)
            patch.setattr(f, "_cover_memo", None, raising=False)  # no sum known
            ledgers = [QueryLedger() for _ in bases]
            tracemalloc.start()
            try:
                gains = paired_gain_round(f, xs, [t_mat], offsets, bases, ledgers)
                return gains, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    (gains, cut), (whole, uncut) = traced(oracle.GAIN_CELL_BUDGET), traced(10**9)
    assert gains.tobytes() == whole.tobytes()
    assert cut < bound < uncut, (cut, uncut)


def test_image_kernel_reads_columns_of_a_nearly_symmetric_matrix():
    # Within the 1e-9 tolerance s may differ from its transpose; the cover
    # term reads column x of s, so a kernel reading row x would be 1e-10 off.
    s = generate_synthetic("image", 12, seed=5).data.s.copy()
    exact = ImageSummarizationObjective(SimilarityMatrix(s))
    assert exact._cols is exact.s  # no copy for an exactly symmetric s
    s[3, 8] += 1e-10
    matrix = SimilarityMatrix(s)
    assert not matrix.exactly_symmetric
    f = ImageSummarizationObjective(matrix)
    got = batch_marginals(f, [], [8], 0.0, QueryLedger())[0]
    assert abs(got - evaluate_offline(f, [8])) < 1e-13
    t_gain = batch_pair_gains(f, [1], np.array([[5, 6]]), np.array([8]), QueryLedger())[0]
    want, _ = reference_gain(f, np.array([1]), np.array([5, 6]), 8)
    assert abs(t_gain - want) < 1e-13


@pytest.mark.parametrize("nudge", [0.0, 1e-10], ids=["symmetric", "nearly-symmetric"])
def test_image_base_state_equals_column_reductions_bit_for_bit(nudge):
    # The state is gathered from rows of _cols; it must equal the reductions
    # of s[:, base] to the last bit, since every image gain reads it.
    s = generate_synthetic("image", 40, seed=7).data.s.copy()
    s[3, 8] += nudge
    f = ImageSummarizationObjective(SimilarityMatrix(s))
    rng = np.random.default_rng(1)
    for size in (0, 1, 2, 7, 8, 9, 17, 25, 40):
        base = np.sort(rng.choice(f.n, size, replace=False))
        cols = s[:, base]
        want = (cols.max(axis=1) if size else np.zeros(f.n), cols.sum(axis=1))
        for got, expect in zip(f._base_state(base), want):
            assert got.tobytes() == expect.tobytes(), size


@pytest.mark.parametrize("nudge", [0.0, 1e-10], ids=["symmetric", "nearly-symmetric"])
@pytest.mark.parametrize("n", [30, 300])
def test_image_evaluate_batch_equals_evaluate_bit_for_bit(n, nudge):
    # Every whole-set round on image goes through _evaluate_batch, so each
    # row must be _evaluate's value to the last bit: empty rows, the
    # singleton sweep, the prefixes of an order and random masks.
    s = generate_synthetic("image", n, seed=4).data.s.copy()
    s[3, 8] += nudge
    f = ImageSummarizationObjective(SimilarityMatrix(s))
    rng = np.random.default_rng(2)
    order = rng.permutation(n)[:50]
    batches = [np.zeros((3, n), dtype=bool),
               np.eye(n + 1, n, -1, dtype=bool),
               np.tri(order.size + 1, order.size, -1, dtype=bool),
               rng.random((25, n)) < rng.random((25, 1)) * 0.3]
    batches[2] = oracle.pool_masks(f, order, batches[2])
    batches[3][[0, 7]] = False
    for masks in batches:
        got = f._evaluate_batch(masks)
        want = [f._evaluate(np.flatnonzero(mask)) for mask in masks]
        assert got.tobytes() == np.array(want).tobytes()


# The image kernel's cover-sum memo. A width-0 call against one base keeps
# each cover sum it knows that the change of best covers cannot touch, and
# computes the rest; every gain must still be the fresh objective's, to the
# byte, however the bases move.


def _image_matrix(kind, n, seed):
    """An image matrix: "synthetic", "nudged" 1e-10 off symmetric, so that
    _cols is a transposed copy of s, or "negative", loaded from a CSV of
    signed entries."""
    if kind == "synthetic":
        return generate_synthetic("image", n, seed=seed).data
    rng = np.random.default_rng(seed)
    if kind == "nudged":
        s = generate_synthetic("image", n, seed=seed).data.s.copy()
        s[1, 3] += 1e-10
        return SimilarityMatrix(s)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sim.csv"
        path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n"
                                for row in rng.standard_normal((n, n))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # negative entries
            return load_similarity_csv(path)


@st.composite
def cover_memo_sequences(draw):
    """(matrix kind, n, seed, steps): a step moves the base (grow by one,
    shrink by one, jump, empty or the same again), then asks one round of a
    kind: one-base marginals, one-base samples of T width 0, 1 or 3, or a
    marginals round over two bases."""
    kind = draw(st.sampled_from(["synthetic", "nudged", "negative"]))
    n = draw(st.integers(5, 40))
    steps = draw(st.lists(st.tuples(
        st.sampled_from(["grow", "shrink", "jump", "empty", "same"]),
        st.sampled_from(["marginals", "samples", "bases"]),
        st.integers(0, 2**16)), min_size=1, max_size=12))
    return kind, n, draw(st.integers(0, 2**16)), steps


def _moved(base, move, n, rng):
    outside = np.setdiff1d(np.arange(n), base)
    if move == "grow" and outside.size:
        return np.union1d(base, rng.choice(outside, 1))
    if move == "shrink" and base.size:
        return np.delete(base, rng.integers(base.size))
    if move == "jump":
        return np.sort(rng.choice(n, rng.integers(0, n), replace=False))
    if move == "empty":
        return np.empty(0, dtype=np.int64)
    return base


def _memo_round(f, base, kind, rng):
    """One round of a kind against base: its candidates and gains."""
    xs = rng.integers(0, f.n, rng.integers(2, 2 * f.n + 1))
    if kind == "marginals":
        return xs, batch_marginals(f, base, xs, evaluate_offline(f, base), QueryLedger())
    if kind == "samples":
        rest = np.setdiff1d(np.arange(f.n), base)
        width = min(rest.size, int(rng.choice([0, 1, 3])))
        t_mat = np.stack([rng.choice(rest, width, replace=False)
                          for _ in range(xs.size)]).reshape(xs.size, width)
        return xs, batch_pair_gains(f, base, t_mat, xs, QueryLedger())
    other = np.sort(rng.choice(f.n, rng.integers(0, f.n), replace=False))
    return xs, paired_gain_round(f, xs, None, (0, xs.size // 2, xs.size), [base, other],
                                 [QueryLedger(), QueryLedger()])


@SETTINGS
@given(case=cover_memo_sequences())
@example(case=("synthetic", 40, 1, [("grow", "marginals", s) for s in range(8)]))
@example(case=("nudged", 30, 2, [("grow", "marginals", 0), ("same", "samples", 1),
                                 ("grow", "marginals", 2), ("shrink", "marginals", 3),
                                 ("jump", "bases", 4), ("empty", "marginals", 5),
                                 ("same", "marginals", 6)]))
@example(case=("negative", 24, 3, [("grow", "marginals", s) for s in range(6)]
               + [("shrink", "marginals", 6), ("same", "samples", 7)]))
def test_cover_memo_gains_equal_a_fresh_objectives(case):
    kind, n, seed, steps = case
    matrix = _image_matrix(kind, n, seed)
    warm = ImageSummarizationObjective(matrix)
    assert (warm._cols is warm.s) == (kind != "nudged")
    base = np.empty(0, dtype=np.int64)
    for move, round_kind, step_seed in steps:
        base = _moved(base, move, n, np.random.default_rng(step_seed))
        xs, got = _memo_round(warm, base, round_kind, np.random.default_rng(step_seed))
        _, want = _memo_round(ImageSummarizationObjective(matrix), base, round_kind,
                              np.random.default_rng(step_seed))
        assert got.tobytes() == want.tobytes(), (move, round_kind)
        if round_kind == "marginals" and len(warm._base_memo) == 1:
            # A round whose stack holds its one base (not a latest stack of
            # two that holds it) leaves the memo with this base's best
            # covers, knowing every x.
            best, _, known = warm._cover_memo
            assert best.tobytes() == warm._round_state([base])[0][1][0].tobytes()
            assert known[xs].all()


def test_greedy_on_image_recomputes_fewer_cover_sums_than_it_asks():
    f = generate_synthetic("image", 300, seed=3).objective()
    computed = []
    cover_sums = f._cover_sums
    f._cover_sums = lambda best, xs: computed.append(xs.size) or cover_sums(best, xs)
    ledger = QueryLedger()
    out = greedy(f, 20, ledger)
    asked = ledger.total_queries - 1  # the first round asks f(empty)
    assert sum(computed) < asked
    fresh_ledger = QueryLedger()
    assert out.tolist() == greedy(generate_synthetic("image", 300, seed=3).objective(),
                                  20, fresh_ledger).tolist()
    assert (ledger.per_round, ledger.values) == (fresh_ledger.per_round, fresh_ledger.values)


def test_cover_memo_is_exact_under_concurrent_rounds():
    # Threads share one objective, each asking rounds on its own sequence of
    # bases; a memo written in place, or read half old and half new, would
    # give some round another base's sums.
    matrix = generate_synthetic("image", 60, seed=9).data
    f = ImageSummarizationObjective(matrix)
    # Prefixes of one order: most pairs differ in few best covers, so a
    # round mostly keeps the sums of another thread's base.
    order = np.random.default_rng(0).permutation(60)
    bases = [np.sort(order[:size]) for size in range(12)]
    xs = np.arange(60)
    want = [batch_marginals(ImageSummarizationObjective(matrix), base, xs, 0.0,
                            QueryLedger()).tobytes() for base in bases]
    wrong = []

    def work(seed):
        picks = np.random.default_rng(seed).integers(0, len(bases), 1000)
        for i in picks.tolist():
            got = batch_marginals(f, bases[i], xs, 0.0, QueryLedger())
            if got.tobytes() != want[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []

"""Evaluation-oracle core: objectives, query metering, batched rounds.

Adaptivity is a measured quantity here, not a convention. Every oracle access
made by an algorithm flows through the batched entry points in this module
(``evaluate_batch``, ``batch_marginals``, ``batch_pair_gains``), and each call
is exactly one adaptive round on the attached :class:`QueryLedger`. Algorithm
modules never touch ``Objective._evaluate`` directly. The ledger is the one
per-round record of a run: queries, logical samples, and the best value each
round found, which algorithms note with ``QueryLedger.record_value`` right
after the round that paid for it. The entry points reject NaN and infinite
oracle values, so a bad value fails at the round that produced it.

Whole-set rounds reach ``evaluate_batch`` as a (batch, n) boolean membership
matrix, the form the objectives score. A round that builds a structured
family of sets (random subsets of a pool, the prefixes of an order, the
singletons) writes that matrix directly; a sequence of index collections is
turned into it first. Every index set the algorithms carry (a solution, a
pool, a fallback set) is a sorted, duplicate-free int64 array, and the entry
points read such an array as it is.

Randomness is always drawn by single-threaded orchestration code before a
batch is issued, so results are reproducible regardless of how a batch is
evaluated internally.

Every module imports this one, so it also holds the range of every setting
(``PARAM_RANGES``): ``check_params`` raises ``ParamError``, naming the field
and the value, for a setting outside its range.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np


class InvalidSubsetError(ValueError):
    """An index set is malformed: an element outside the oracle's ground set,
    a repeated element, or a paired-gain base out of order."""


class ParamError(ValueError):
    """A parameter outside its range: ``field`` names it, ``value`` is what
    was given and ``rule`` the range it broke."""

    def __init__(self, field: str, value, rule: str):
        super().__init__(f"{field} {rule}, got {value}")
        self.field, self.value, self.rule = field, value, rule


# The one home of every setting's range: field -> (test, rule). The tests are
# written as comparisons that hold inside the range, so NaN fails every one.
PARAM_RANGES = {
    "k": (lambda v: v >= 1, "must be >= 1"),
    "n": (lambda v: v >= 1, "must be >= 1"),
    "tau": (lambda v: v >= 0, "must be >= 0"),
    "eps": (lambda v: 0 < v < 1, "must lie in (0,1)"),
    "delta": (lambda v: 0 < v < 1, "must lie in (0,1)"),
    "break_size": (lambda v: v is None or v >= 1, "must be >= 1 when set"),
    "sample_override": (lambda v: v is None or v >= 1, "must be >= 1 when set"),
    "seed": (lambda v: v >= 0, "must be >= 0"),
    "trials": (lambda v: v >= 1, "must be >= 1"),
    "p": (lambda v: 0 <= v <= 1, "must lie in [0,1]"),
    "dim": (lambda v: 1 <= v < math.inf, "must be a finite embedding dimension >= 1"),
    "lam": (lambda v: 0 <= v <= 1, "must lie in [0,1]"),
}


def check_params(**values) -> None:
    """Raise ParamError for the first value outside its field's range."""
    for name, value in values.items():
        test, rule = PARAM_RANGES[name]
        if not test(value):
            raise ParamError(name, value, rule)


class Subset:
    """Retired: every index set is a sorted, duplicate-free int64 array.

    The name stays only because the benchmark tracer (``perfbench/tracer.py``)
    imports it and wraps its ``__init__`` to count constructions, a counter
    that now reads 0. It goes when the tracer drops that import.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("Subset is retired; pass a sorted int64 index array")


class Objective(ABC):
    """Evaluation oracle for a nonnegative set function over n elements.

    Subclasses implement :meth:`_evaluate` on a sorted int64 index array.
    Evaluation must be deterministic, pure, and safe for concurrent read-only
    calls; nonnegativity is validated by the submodularity checker rather than
    assumed. The underscore methods are the raw oracle: algorithm code goes
    through the module-level batch functions so every query is metered.

    A :meth:`_gain_batch` kernel that reads an aggregate of a base (say,
    each element's weight into it) computes it in :meth:`_base_state`; the
    oracle hands the kernel those aggregates for every base of a round,
    stacked, through :meth:`_round_state`. That memo keeps the states of the
    latest round's bases, so the many rounds an algorithm issues against
    unchanged bases build each aggregate once. A hit returns the very arrays
    a fresh call would compute, so the gains are bit-identical. The memo
    cannot see changes to an objective's data: objectives must not be
    mutated after construction.
    """

    # {base key: state} of the latest round's bases; an instance attribute
    # once set.
    _base_memo: dict[bytes, tuple] | None = None

    def __init__(self, n: int):
        check_params(n=n)
        self.n = int(n)

    @abstractmethod
    def _evaluate(self, idx: np.ndarray) -> float:
        """Value of the subset given as a sorted index array."""

    def _base_state(self, base_idx: np.ndarray) -> tuple[np.ndarray, ...]:
        """The aggregates of one base that :meth:`_gain_batch` reads.

        A tuple of arrays computed from base_idx alone; the default has none.
        Kernels must not write to them: the memo hands the same arrays to
        every later round on the same base.
        """
        return ()

    def _round_state(self, bases: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
        """:meth:`_base_state` of each base, stacked: array i of the result
        holds array i of every base's state, one leading row per base.

        Each base's state is memoized until a round without that base: the
        memo keeps exactly the states of the latest call's bases. The key is
        a base's elements as int64 bytes: the same elements in any integer
        dtype share an entry, and two bases whose raw bytes merely agree
        (int32 [1, 0], int64 [1]) do not. The memo is one dict, read once and
        replaced whole, so concurrent callers can at worst recompute a state,
        never read a mismatched one. Every returned array is read-only.
        """
        memo = self._base_memo or {}
        states, per_base = {}, []
        for base_idx in bases:
            key = _as_index_array(base_idx).tobytes()
            state = states.get(key, memo.get(key))
            if state is None:
                state = self._base_state(base_idx)
                for arr in state:
                    arr.flags.writeable = False
            states[key] = state
            per_base.append(state)
        self._base_memo = states
        if len(per_base) == 1:  # views of the memoized arrays, read-only too
            return tuple(arr[None] for arr in per_base[0])
        stacked = tuple(np.stack(arrays) for arrays in zip(*per_base))
        for arr in stacked:
            arr.flags.writeable = False
        return stacked

    def _gain_batch(self, state: tuple[np.ndarray, ...], t_mat: np.ndarray,
                    xs: np.ndarray, base_of: np.ndarray) -> np.ndarray | None:
        """Optional vectorized path for paired gain queries.

        Row j asks for f(B_j + x_j) - f(B_j) with B_j = base + t_mat[j], where
        base is the round's base number base_of[j] and state is the round's
        :meth:`_round_state`: a kernel reads row j's aggregates at index
        base_of[j] of each state array. The rows of one call may come from
        many bases and many groups, but share one T width (t_mat may have no
        columns, a base may be empty). The oracle calls it only with t_mat
        rows duplicate-free and disjoint from their base, at most
        ``oracle.GAIN_CELL_BUDGET`` // n rows at a time, and sets rows whose
        x_j already lies in B_j to 0.0 itself, so their value here is ignored.
        A row's gain must not depend on the other rows of the call, with one
        exception the oracle keeps apart: numpy reduces a lone row in another
        order than a batch, so a call holds a single row only when that row
        is a whole group. Return None (the default) to fall back to two
        evaluations per row.
        """
        return None

    def _evaluate_batch(self, masks: np.ndarray) -> np.ndarray | None:
        """Optional vectorized path for whole-subset batches.

        masks is a (batch, n) boolean membership matrix. Return None (the
        default) to fall back to one :meth:`_evaluate` call per row.
        """
        return None


@dataclass
class QueryLedger:
    """The per-round record of a run: queries, logical samples and values.

    ``per_round`` holds one ``(round, queries)`` pair per adaptive round;
    ``total_queries`` and ``rounds`` are derived from it, so the conservation
    invariant (total = sum over rounds) holds by construction.
    ``logical_samples`` counts indicator samples one-per-sample, while the
    query counters meter the two raw evaluations each sample costs.
    ``values`` maps a round to the best value of a feasible set found in that
    round; rounds that found none have no entry.
    """

    per_round: list[tuple[int, int]] = field(default_factory=list)
    logical_samples: int = 0
    values: dict[int, float] = field(default_factory=dict)

    @property
    def total_queries(self) -> int:
        return sum(q for _, q in self.per_round)

    @property
    def rounds(self) -> int:
        return len(self.per_round)

    def add_round(self, queries: int, logical_samples: int = 0) -> None:
        if queries < 1:
            raise ValueError("a round must contain at least one query")
        self.per_round.append((len(self.per_round) + 1, int(queries)))
        self.logical_samples += int(logical_samples)

    def record_value(self, value: float) -> None:
        """Note a feasible set's value, found in the latest round."""
        if not self.per_round:
            raise ValueError("a value needs a round on the ledger")
        rnd = self.rounds
        self.values[rnd] = max(float(value), self.values.get(rnd, -np.inf))

    def extend_parallel(self, ledgers: Sequence["QueryLedger"]) -> None:
        """Append the rounds of logically parallel runs after this ledger's.

        Appended round j holds every run's round-j queries, so the ledger
        grows by the deepest run's rounds; queries and logical samples are
        summed over runs and each round keeps the best of their values.
        """
        offset = self.rounds
        depth = max((led.rounds for led in ledgers), default=0)
        for j in range(depth):
            self.add_round(sum(led.per_round[j][1] for led in ledgers
                               if led.rounds > j))
        self.logical_samples += sum(led.logical_samples for led in ledgers)
        for led in ledgers:
            for rnd, value in led.values.items():
                best = self.values.get(offset + rnd, -np.inf)
                self.values[offset + rnd] = max(value, best)

    def cumulative_queries(self) -> list[int]:
        totals, acc = [], 0
        for _, q in self.per_round:
            acc += q
            totals.append(acc)
        return totals


def _as_index_array(candidates) -> np.ndarray:
    if isinstance(candidates, np.ndarray):
        # A dtype test first: astype costs a call even when it copies nothing.
        return candidates if candidates.dtype == np.int64 else candidates.astype(np.int64)
    return np.asarray(list(candidates), dtype=np.int64)


def _finite(values, entry_point: str) -> np.ndarray:
    out = np.asarray(values, dtype=np.float64)
    if not np.isfinite(out).all():
        raise ValueError(f"{entry_point}: the oracle returned a non-finite value")
    return out


def _check_bounds(f: Objective, idx: np.ndarray) -> None:
    # Read as unsigned, a negative index lies above every index in range.
    idx = _as_index_array(idx)
    if np.count_nonzero(idx.view(np.uint64) >= f.n):
        lo, hi = int(idx.min()), int(idx.max())
        raise InvalidSubsetError(
            f"element index out of range [0, {f.n}): saw {lo if lo < 0 else hi}")


def _membership(f: Objective, queries) -> np.ndarray:
    """The (batch, n) boolean membership matrix of a batch of queries.

    A bool ndarray is taken as that matrix and must have n columns; any other
    query batch is a sequence of duplicate-free index collections.
    """
    if isinstance(queries, np.ndarray):
        if queries.dtype != np.bool_ or queries.ndim != 2 or queries.shape[1] != f.n:
            raise ValueError(f"a mask batch must be a (batch, {f.n}) bool array, "
                             f"got {queries.dtype} {queries.shape}")
        return queries
    arrays = [_as_index_array(q) for q in queries]
    sizes = [a.size for a in arrays]
    flat = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
    _check_bounds(f, flat)
    masks = np.zeros((len(arrays), f.n), dtype=bool)
    masks[np.repeat(np.arange(len(arrays)), sizes), flat] = True
    if int(np.count_nonzero(masks)) != flat.size:
        raise InvalidSubsetError("duplicate element in subset query")
    return masks


def pool_masks(f: Objective, pool: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mask batch for ``evaluate_batch`` of sets drawn from a pool.

    Column j of ``rows`` (batch, |pool|) says which rows hold pool[j]; every
    other element is absent. pool must be duplicate-free. Raises
    InvalidSubsetError for a pool element outside [0, n).
    """
    _check_bounds(f, pool)
    masks = np.zeros((rows.shape[0], f.n), dtype=bool)
    masks[:, pool] = rows
    return masks


def evaluate_batch(f: Objective, queries, ledger: QueryLedger) -> np.ndarray:
    """Evaluate a batch of subsets in one adaptive round.

    queries is a (batch, n) boolean membership matrix, one row per subset, or
    a sequence of duplicate-free index collections, which is turned into that
    matrix. Returns values in row order; the ledger gains exactly one
    round and batch queries. Queries within the batch are mutually
    independent, so implementations may evaluate them concurrently (here: the
    objective's vectorized mask path when it has one, else one evaluation per
    row). Raises ValueError for an empty batch, a mask of the wrong shape or
    dtype, or a NaN or infinite value.
    """
    masks = _membership(f, queries)
    if masks.shape[0] == 0:
        raise ValueError("evaluate_batch requires a nonempty batch")
    ledger.add_round(masks.shape[0])
    values = f._evaluate_batch(masks)
    if values is None:
        values = [f._evaluate(np.flatnonzero(row)) for row in masks]
    return _finite(values, "evaluate_batch")


def prefix_round(f: Objective, order: np.ndarray,
                 ledger: QueryLedger) -> tuple[np.ndarray, float]:
    """Best prefix (lengths 0..len(order)) of an order, in one adaptive round.

    order is a duplicate-free int64 array. Records the best value on the
    ledger and returns the best prefix as a sorted array, with its value;
    ties go to the shortest prefix.
    """
    prefixes = np.tri(order.size + 1, order.size, -1, dtype=bool)  # row i: first i
    values = evaluate_batch(f, pool_masks(f, order, prefixes), ledger)
    best = int(np.argmax(values))
    ledger.record_value(values[best])
    return np.sort(order[:best]), float(values[best])


# Float cells (rows x n) per _gain_batch call in a paired-gain round. The
# revenue and image kernels hold O(n) floats per row, so this bounds a round's
# working memory however many groups and rows it carries; at n = 400 a call
# holds 512 rows, at n = 50 4,096.
GAIN_CELL_BUDGET = 512 * 400


class GainGroup(NamedTuple):
    """One group of a paired-gain round, metered on its own ledger.

    Row j asks f(B_j + x_j) - f(B_j) with B_j = base + t_mat[j]. With
    ``base_value`` = f(base) known and t_mat None (no T columns), the group
    is a marginals batch of one query per row; otherwise each row is one
    indicator sample metered as two queries.
    """

    base: object
    t_mat: np.ndarray | None
    xs: object
    ledger: QueryLedger
    base_value: float | None = None


def _base_array(f: Objective, base) -> np.ndarray:
    """The base of a paired-gain group as an int64 array, checked.

    The base must be strictly increasing: its order keys the base-state memo
    and orders the kernels' sums, and a repeated element would count twice.
    """
    base_idx = _as_index_array(base)
    if base_idx.size > 1 and np.count_nonzero(base_idx[1:] <= base_idx[:-1]):
        raise InvalidSubsetError("the base must be strictly increasing")
    # Sorted, so its ends bound it; _check_bounds names the offender.
    if base_idx.size and (base_idx[0] < 0 or base_idx[-1] >= f.n):
        _check_bounds(f, base_idx)
    return base_idx


def _checked_group(f: Objective, group: GainGroup) -> GainGroup:
    """The group with int64 arrays; raises for a malformed group."""
    if group.base_value is not None:
        if group.t_mat is not None:
            raise ValueError("a marginals group takes no T columns")
        xs = _as_index_array(group.xs)
        if xs.size == 0:
            raise ValueError("batch_marginals requires at least one candidate")
        t_mat = np.empty((xs.size, 0), dtype=np.int64)
    else:
        t_mat = np.asarray(group.t_mat, dtype=np.int64)
        xs = np.asarray(group.xs, dtype=np.int64)
        if xs.ndim != 1 or t_mat.ndim != 2 or t_mat.shape[0] != xs.size:
            raise ValueError("t_mat must be (m, t-1) and xs length m")
        if xs.size == 0:
            raise ValueError("batch_pair_gains requires at least one pair")
    return GainGroup(_base_array(f, group.base), t_mat, xs, group.ledger,
                     group.base_value)


def _kernel_calls(sizes: list[int], budget: int) -> list[tuple[int, int]]:
    """Row spans [a, b) of the kernel calls for consecutive groups of these
    sizes: a one-row group alone, the rest cut to at most budget (>= 2) rows
    without leaving a row of a larger group alone."""
    spans, start, run = [], 0, 0
    for size in sizes + [1]:  # the sentinel closes the last run
        if size > 1:
            run += size
            continue
        end = start + run
        while end - start > budget:
            cut = start + budget - (end - start == budget + 1)
            spans.append((start, cut))
            start = cut
        if run:
            spans.append((start, end))
        spans.append((end, end + size))
        start, run = end + size, 0
    return spans[:-1]


def _exact_gains(f: Objective, group: GainGroup, rows: np.ndarray) -> np.ndarray:
    """Gains of the given rows of a group from two evaluations each.

    The values are memoized within the group; a known base_value seeds the
    memo, so then each row costs one evaluation.
    """
    base_members = frozenset(group.base.tolist())
    memo: dict[frozenset, float] = {}
    if group.base_value is not None:
        memo[base_members] = group.base_value

    def value(members: frozenset) -> float:
        got = memo.get(members)
        if got is None:
            got = f._evaluate(np.asarray(sorted(members), dtype=np.int64))
            memo[members] = got
        return got

    gains = np.empty(rows.size, dtype=np.float64)
    for out, j in enumerate(rows.tolist()):
        b = base_members.union(group.t_mat[j].tolist())
        gains[out] = value(b | {int(group.xs[j])}) - value(b)
    return gains


def _in_own_base(in_base: np.ndarray, row_base: np.ndarray,
                 idx: np.ndarray) -> np.ndarray:
    """in_base[row_base[j], idx[j]]: whether each entry of idx (one per row,
    or one row of entries per row) lies in its row's base."""
    if in_base.shape[0] == 1:
        return in_base[0][idx]
    return in_base[row_base if idx.ndim == 1 else row_base[:, None], idx]


def paired_gain_round(f: Objective, groups: Sequence[GainGroup]) -> list[np.ndarray]:
    """Gains of every row of every group, as one adaptive round per group.

    All groups go in before any answer comes back, so each is one round on
    its own ledger: a marginals group adds len(xs) queries, any other group
    2 * len(xs) queries and len(xs) logical samples. Groups may have
    different bases and T widths. The round is also the one home of the
    paired-gain rules the kernels rely on: a group whose T rows overlap its
    base takes the exact fallback alone, and a kernel that returns None
    sends every group of its T width there; a row whose x_j lies in
    base + T_j is 0.0 exactly, whichever path ran. The other rows go to the
    objective's ``_gain_batch``, one call per T width and at most
    ``GAIN_CELL_BUDGET`` // n rows (never fewer than 2) a call, so a row's
    gain is the same in any grouping.

    The groups of one T width are laid end to end and checked together, and
    membership in a row's base is read from one row of n booleans per
    distinct base. A round of one group, such as every round of greedy and
    lazy greedy, concatenates nothing: it costs its checks, that one row,
    its base's memoized state and one kernel call per row chunk.

    Every group is checked before any is metered: InvalidSubsetError for an
    element outside [0, n), an unsorted or repeating base, or a T row that
    repeats an element; ValueError for a malformed or empty group, and if
    any gain is NaN or infinite. Returns one gains array per group.
    """
    groups = [_checked_group(f, g) for g in groups]
    numbers: dict[bytes, int] = {}
    bases, base_of = [], []
    by_width: dict[int, list[int]] = {}
    for i, g in enumerate(groups):
        b = numbers.setdefault(g.base.tobytes(), len(bases))
        if b == len(bases):
            bases.append(g.base)
        base_of.append(b)
        by_width.setdefault(g.t_mat.shape[1], []).append(i)
    in_base = np.zeros((len(bases), f.n), dtype=bool)
    for b, base in enumerate(bases):
        in_base[b][base] = True

    exact = [False] * len(groups)  # the group's T rows touch its base
    batches = []
    for width, members in by_width.items():
        if len(members) == 1:  # nothing to lay end to end
            g = groups[members[0]]
            sizes, xs, t_mat = [g.xs.size], g.xs, g.t_mat
            row_base = np.empty(xs.size, dtype=np.int64)
            row_base.fill(base_of[members[0]])
        else:
            sizes = [groups[i].xs.size for i in members]
            xs = np.concatenate([groups[i].xs for i in members])
            t_mat = np.concatenate([groups[i].t_mat for i in members])
            row_base = np.repeat([base_of[i] for i in members], sizes)
        _check_bounds(f, xs)
        member = _in_own_base(in_base, row_base, xs)
        if width:
            _check_bounds(f, t_mat)
            if width > 1:
                rows = np.sort(t_mat, axis=1)
                if np.count_nonzero(rows[:, 1:] == rows[:, :-1]):
                    raise InvalidSubsetError("duplicate element in a T row")
            member |= (t_mat == xs[:, None]).any(axis=1)
            touch = _in_own_base(in_base, row_base, t_mat).any(axis=1)
            starts = np.cumsum(sizes) - sizes
            for i, hit in zip(members, np.logical_or.reduceat(touch, starts).tolist()):
                exact[i] = hit
        batches.append((members, sizes, row_base, t_mat, xs, member))

    for g in groups:
        if g.base_value is not None:
            g.ledger.add_round(int(g.xs.size))
        else:
            g.ledger.add_round(2 * g.xs.size, logical_samples=g.xs.size)

    # The kernels read the states of the other groups' bases only.
    kernel_base = None
    if any(exact):
        used = sorted({b for b, slow in zip(base_of, exact) if not slow})
        kernel_base = np.zeros(len(bases), dtype=np.int64)
        kernel_base[used] = np.arange(len(used))
        bases = [bases[b] for b in used]
    state = f._round_state(bases) if bases else ()

    budget = max(2, GAIN_CELL_BUDGET // f.n)
    out: list[np.ndarray] = [None] * len(groups)
    for members, sizes, row_base, t_mat, xs, member in batches:
        gains = np.empty(xs.size, dtype=np.float64)
        slow = [exact[i] for i in members]
        if any(slow):
            keep = np.repeat(np.logical_not(slow), sizes)
            fast_t, fast_xs, fast_of = t_mat[keep], xs[keep], kernel_base[row_base[keep]]
            fast_gains = np.empty(fast_xs.size, dtype=np.float64)
        else:
            fast_t, fast_xs, fast_gains = t_mat, xs, gains
            fast_of = row_base if kernel_base is None else kernel_base[row_base]
        for a, b in _kernel_calls([n for n, s in zip(sizes, slow) if not s], budget):
            got = f._gain_batch(state, fast_t[a:b], fast_xs[a:b], fast_of[a:b])
            if got is None:  # no kernel: every group of this width is exact
                slow = [True] * len(members)
                break
            fast_gains[a:b] = got
        else:
            if fast_gains is not gains:
                gains[keep] = fast_gains
        end = 0
        for i, size, exact_rows in zip(members, sizes, slow):
            start, end = end, end + size
            if exact_rows:
                todo = np.flatnonzero(~member[start:end])
                gains[start + todo] = _exact_gains(f, groups[i], todo)
            out[i] = gains[start:end]
        gains[member] = 0.0
        if np.count_nonzero(np.isfinite(gains)) != gains.size:
            first = int(np.flatnonzero(~np.isfinite(gains))[0])
            bad = groups[members[np.searchsorted(np.cumsum(sizes), first, side="right")]]
            kind = "batch_marginals" if bad.base_value is not None else "batch_pair_gains"
            raise ValueError(f"{kind}: the oracle returned a non-finite value")
    return out


def batch_marginals(f: Objective, base, candidates,
                    base_value: float, ledger: QueryLedger) -> np.ndarray:
    """Gains f(base + x) - base_value for each candidate x, one adaptive round.

    The one-group case of :func:`paired_gain_round`. base is a strictly
    increasing index collection. base_value must already be known, so the
    round costs exactly len(candidates) queries. A candidate already in base
    has gain 0. Raises InvalidSubsetError for an unsorted or repeating base
    and ValueError if any gain is NaN or infinite.
    """
    return paired_gain_round(f, [GainGroup(base, None, candidates, ledger,
                                           float(base_value))])[0]


def batch_pair_gains(f: Objective, base, t_mat: np.ndarray,
                     xs: np.ndarray, ledger: QueryLedger) -> np.ndarray:
    """Gains f(base + T_j + x_j) - f(base + T_j) for each row j, one round.

    The one-group case of :func:`paired_gain_round`. Each row simulates one
    indicator sample and is metered as two raw evaluations (2 * len(xs)
    queries) plus one logical sample per row. base is a strictly increasing
    index collection and rows of t_mat must be duplicate-free. A row that
    overlaps base is answered exactly, and a row whose x_j lies in
    base + T_j has gain 0. Raises InvalidSubsetError for an unsorted or
    repeating base or a T row that repeats an element, and ValueError if any
    gain is NaN or infinite.
    """
    return paired_gain_round(f, [GainGroup(base, t_mat, xs, ledger)])[0]


def evaluate_offline(f: Objective, subset) -> float:
    """Evaluate one index collection without touching any ledger.

    For tests, validators, and brute-force oracles only; algorithm modules
    must use the metered batch functions. Rejects out-of-range and duplicate
    indices as evaluate_batch does.
    """
    return float(f._evaluate(np.flatnonzero(_membership(f, [subset])[0])))


def make_rng(seed) -> np.random.Generator:
    """Deterministic generator; identical seed gives an identical draw stream."""
    return np.random.default_rng(seed)


def spawn_seeds(seed: int | np.random.SeedSequence,
                count: int) -> list[np.random.SeedSequence]:
    """Independent child seed sequences derived by mixing the child index."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return ss.spawn(count)


def sample_without_replacement(rng: np.random.Generator, pool,
                               size: int) -> np.ndarray:
    """Uniform random size-subset of pool via a partial Fisher-Yates shuffle.

    Swap i takes position i + j_i with j_i uniform on [0, |pool| - i); all
    j_i come from one draw, which leaves the generator where one draw per
    swap would.
    """
    items = _as_index_array(pool).tolist()
    size = min(int(size), len(items))
    steps = np.arange(size)
    for i, j in enumerate((steps + rng.integers(len(items) - steps)).tolist()):
        items[i], items[j] = items[j], items[i]
    return np.array(items[:size], dtype=np.int64)

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
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

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


def _count(v) -> bool:
    """Whether v is an integer, numpy's too, but not a bool: as a count, k =
    2.5 would never be reached."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# The one home of every setting's range: field -> (test, rule). The tests are
# written as comparisons that hold inside the range, so NaN fails every one.
PARAM_RANGES = {
    "k": (lambda v: _count(v) and v >= 1, "must be an integer >= 1"),
    "n": (lambda v: _count(v) and v >= 1, "must be an integer >= 1"),
    "tau": (lambda v: v >= 0, "must be >= 0"),
    "eps": (lambda v: 0 < v < 1, "must lie in (0,1)"),
    "delta": (lambda v: 0 < v < 1, "must lie in (0,1)"),
    "break_size": (lambda v: v is None or _count(v) and v >= 1,
                   "must be an integer >= 1 when set"),
    "sample_override": (lambda v: v is None or _count(v) and v >= 1,
                        "must be an integer >= 1 when set"),
    "seed": (lambda v: _count(v) and v >= 0, "must be an integer >= 0"),
    "trials": (lambda v: _count(v) and v >= 1, "must be an integer >= 1"),
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


class _BaseMemo(dict):
    """{base key: state} of the bases of one stack, in row order.

    ``row`` maps a key to its row and ``stack`` holds the states stacked:
    array i of ``stack`` holds array i of every state, one leading row per
    base. Each state's arrays are read-only, and so are the stacked ones.
    """

    def __init__(self, states: dict[bytes, tuple[np.ndarray, ...]]):
        super().__init__(states)
        self.row = {key: i for i, key in enumerate(states)}
        per_base = list(states.values())
        if len(per_base) == 1:  # views of the memoized arrays, read-only too
            self.stack = tuple(arr[None] for arr in per_base[0])
        else:
            self.stack = tuple(np.stack(arrays) for arrays in zip(*per_base))
            for arr in self.stack:
                arr.flags.writeable = False


class Objective(ABC):
    """Evaluation oracle for a nonnegative set function over n elements.

    Subclasses implement :meth:`_evaluate` on a sorted int64 index array.
    Evaluation must be deterministic, pure, and safe for concurrent read-only
    calls; nonnegativity is validated by the submodularity checker rather than
    assumed. The underscore methods are the raw oracle: algorithm code goes
    through the module-level batch functions so every query is metered.
    The batch kernels (:meth:`_evaluate_batch`, :meth:`_gain_batch` with its
    :meth:`_base_state`) have working defaults built on :meth:`_evaluate`;
    subclasses override them with vectorized formulas, and the oracle always
    calls them, so there is one answer path.

    A base's state is its membership row, which the oracle checks the base
    for and builds, followed by the aggregates :meth:`_base_state` returns
    (say, each element's weight into the base). The oracle hands
    :meth:`_gain_batch` the states of every base of a round, stacked,
    through :meth:`_round_state`. That memo keeps the stacked states of the
    latest stack's bases, so the many rounds an algorithm issues against
    unchanged bases check each base, build its state, and stack them, once.
    A hit returns the very arrays a fresh call would compute, so the gains
    are bit-identical. The memo cannot see changes to an objective's data:
    objectives must not be mutated after construction.
    """

    # The states of the latest stack's bases; an instance attribute once set.
    _base_memo: "_BaseMemo | None" = None

    def __init__(self, n: int):
        check_params(n=n)
        self.n = int(n)

    @abstractmethod
    def _evaluate(self, idx: np.ndarray) -> float:
        """Value of the subset given as a sorted index array."""

    def _base_state(self, base_idx: np.ndarray) -> tuple[np.ndarray, ...]:
        """The aggregates of one base that :meth:`_gain_batch` reads beyond
        its membership, which the oracle builds.

        A tuple of arrays computed from base_idx, a strictly increasing int64
        array in [0, n), alone; the default is empty. Kernels must not write
        to them: the memo hands the same arrays to every later round on the
        same base.
        """
        return ()

    def _round_state(self, bases: Sequence[np.ndarray]
                     ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The state of each base, stacked, and each base's row.

        A base's state is its membership row (n booleans) followed by its
        :meth:`_base_state`. Returns (state, rows): array i of state holds
        array i of the states of the memo's bases, one leading row per base,
        and bases[j]'s state is at row rows[j]. The memo keeps the states of
        the bases of the latest stack, stacked: a round whose bases all lie
        among them, as in consecutive scan steps of the sampler, gets that
        stack back with no copy; any other round stacks its own distinct
        bases, reusing each memoized state it finds. A base the memo does
        not hold is checked before its state is built: InvalidSubsetError
        for one out of order or repeating, or with an element outside
        [0, n). The key is a base's elements as int64 bytes, so a hit is a
        base that passed those checks: the same elements in any integer
        dtype share an entry, and two bases whose raw bytes merely agree
        (int32 [1, 0], int64 [1]) do not. The memo is one object, read once
        and replaced whole, so concurrent callers can at worst recompute a
        state, never read a mismatched one. Every returned array is
        read-only.
        """
        bases = [_as_index_array(base_idx) for base_idx in bases]
        if any(base_idx.ndim != 1 for base_idx in bases):
            raise ValueError("the base must be one-dimensional")
        keys = [base_idx.tobytes() for base_idx in bases]
        memo = self._base_memo
        if memo is None or not memo.row.keys() >= set(keys):
            states = {}
            for key, base_idx in zip(keys, bases):
                if key in states:
                    continue
                state = None if memo is None else memo.get(key)
                if state is None:
                    # Each base keys the memo and orders the kernels' sums,
                    # and a repeated element would count twice.
                    if np.count_nonzero(base_idx[1:] <= base_idx[:-1]):
                        raise InvalidSubsetError("the base must be strictly increasing")
                    # Sorted, so its ends bound it; _check_bounds names the offender.
                    if base_idx.size and (base_idx[0] < 0 or base_idx[-1] >= self.n):
                        _check_bounds(self, base_idx)
                    in_base = np.zeros(self.n, dtype=bool)
                    in_base[base_idx] = True
                    state = (in_base, *self._base_state(base_idx))
                    for arr in state:
                        arr.flags.writeable = False
                states[key] = state
            memo = self._base_memo = _BaseMemo(states)
        row = memo.row
        return memo.stack, np.array([row[key] for key in keys], dtype=np.int64)

    def _gain_row_cells(self, width: int) -> int:
        """The float cells, at most n, that a :meth:`_gain_batch` row holds at
        T width ``width``: a call gets ``oracle.GAIN_CELL_BUDGET`` // cells
        rows. The default, n, fits rows as long as the ground set."""
        return self.n

    def _gain_batch(self, state: tuple[np.ndarray, ...], t_mat: np.ndarray,
                    xs: np.ndarray, base_of: np.ndarray) -> np.ndarray:
        """Gains of paired queries: f(B_j + x_j) - f(B_j) for each row j.

        B_j = base + t_mat[j], where state is the stack of
        :meth:`_round_state` and base_of[j] the row of row j's base in it: a
        kernel reads row j's aggregates at index base_of[j] of each state
        array. The rows of one call may come from many bases and many
        groups, but share one T width (t_mat may have no columns, a base may
        be empty). The oracle calls it only with t_mat rows duplicate-free
        and disjoint from their base, at most ``oracle.GAIN_CELL_BUDGET`` //
        :meth:`_gain_row_cells` rows at a time, and sets rows whose x_j already lies in B_j to 0.0
        itself, so their value here is ignored. A row's gain must not depend
        on the other rows of the call: the oracle cuts a round's rows into
        calls by count alone, so one row may be alone in a call or share it
        with any others.

        The default reads B_j off the base's membership row (array 0 of every
        state) and evaluates B_j and B_j + x_j with :meth:`_evaluate`, once
        per distinct set in the call. It also answers T rows that overlap
        their base, which the oracle sends it directly.
        """
        in_base = state[0]
        values: dict[bytes, float] = {}

        def value(mask: np.ndarray) -> float:
            key = mask.tobytes()
            got = values.get(key)
            if got is None:
                got = values[key] = self._evaluate(np.flatnonzero(mask))
            return got

        gains = np.empty(xs.size, dtype=np.float64)
        for j, (b, x) in enumerate(zip(base_of.tolist(), xs.tolist())):
            mask = in_base[b].copy()
            mask[t_mat[j]] = True
            before = value(mask)
            mask[x] = True
            gains[j] = value(mask) - before
        return gains

    def _evaluate_batch(self, masks: np.ndarray) -> np.ndarray:
        """Values of a whole-set batch, given as a (batch, n) boolean
        membership matrix. The default takes one :meth:`_evaluate` per row."""
        return np.array([self._evaluate(np.flatnonzero(row)) for row in masks],
                        dtype=np.float64)


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
    """candidates as an int64 array. Raises InvalidSubsetError for a nonempty
    collection of anything but integers: a cast would truncate 1.7 to 1 and
    read True as 1."""
    if isinstance(candidates, np.ndarray):
        # A dtype test first: astype costs a call even when it copies nothing.
        if candidates.dtype == np.int64:
            return candidates
        arr = candidates
    else:
        arr = np.asarray(list(candidates))
    if arr.dtype.kind not in "iu" and arr.size:
        raise InvalidSubsetError(f"element indices must be integers, got {arr.dtype}")
    return arr.astype(np.int64, copy=False)


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
    query batch is a sequence of duplicate-free, one-dimensional index
    collections (ValueError for one that is not).
    """
    if isinstance(queries, np.ndarray):
        if queries.dtype != np.bool_ or queries.ndim != 2 or queries.shape[1] != f.n:
            raise ValueError(f"a mask batch must be a (batch, {f.n}) bool array, "
                             f"got {queries.dtype} {queries.shape}")
        return queries
    arrays = [_as_index_array(q) if np.iterable(q) else np.asarray(q) for q in queries]
    for i, arr in enumerate(arrays):
        if arr.ndim != 1:
            raise ValueError(f"query {i} must be a one-dimensional index collection, "
                             f"got shape {arr.shape}: {arr!r}")
    sizes = [a.size for a in arrays]
    flat = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
    _check_bounds(f, flat)
    masks = np.zeros((len(arrays), f.n), dtype=bool)
    masks[np.repeat(np.arange(len(arrays)), sizes), flat] = True
    if int(np.count_nonzero(masks)) != flat.size:
        raise InvalidSubsetError("duplicate element in subset query")
    return masks


def pool_masks(f: Objective, pool: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mask batch for ``evaluate_batch`` of sets drawn from a pool (or the
    prefixes of an order).

    Column j of ``rows`` (batch, |pool|) says which rows hold pool[j]; every
    other element is absent. Raises ValueError for a pool that is not
    one-dimensional, and InvalidSubsetError for a pool element outside
    [0, n) or repeated: its column would overwrite the other's.
    """
    if pool.ndim != 1:
        raise ValueError(f"the pool or order must be one-dimensional, "
                         f"got shape {pool.shape}")
    _check_bounds(f, pool)
    in_pool = np.zeros(f.n, dtype=bool)
    in_pool[pool] = True
    if np.count_nonzero(in_pool) != pool.size:
        raise InvalidSubsetError("duplicate element in pool")
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
    objective's ``_evaluate_batch``). Raises ValueError for an empty batch, a
    mask of the wrong shape or dtype, or a NaN or infinite value, and
    InvalidSubsetError for an index that is not an integer.
    """
    masks = _membership(f, queries)
    if masks.shape[0] == 0:
        raise ValueError("evaluate_batch requires a nonempty batch")
    ledger.add_round(masks.shape[0])
    return _mask_values(f, masks, "evaluate_batch")


def _mask_values(f: Objective, masks: np.ndarray, entry_point: str) -> np.ndarray:
    """Values of the rows of a mask batch, each checked finite."""
    return _finite(f._evaluate_batch(masks), entry_point)


def singleton_round(f: Objective, ledger: QueryLedger) -> np.ndarray:
    """f(empty), then f({x}) for each x, in one adaptive round of n + 1
    queries. Records the best of these values on the ledger; returns all
    n + 1 in that order."""
    values = evaluate_batch(f, np.eye(f.n + 1, f.n, -1, dtype=bool), ledger)
    ledger.record_value(values.max())
    return values


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


# Float cells per _gain_batch call: a T array's rows go to the kernel in calls
# of GAIN_CELL_BUDGET // f._gain_row_cells(width) rows, which bounds a round's
# working memory and keeps a call's arrays near the cache (image: n cells a
# row, 512 rows at n = 400; revenue: a few per neighbour of x_j).
GAIN_CELL_BUDGET = 512 * 400


def _in_own_base(in_base: np.ndarray, row_base: np.ndarray,
                 idx: np.ndarray) -> np.ndarray:
    """in_base[row_base[j], idx[j]]: whether each entry of idx (one per row,
    or one row of entries per row) lies in its row's base, read at flat
    offsets."""
    if in_base.shape[0] == 1:
        return in_base[0][idx]
    rows = row_base if idx.ndim == 1 else row_base[:, None]
    return in_base.ravel()[rows * in_base.shape[1] + idx]


def _repeats_in_a_row(t_mat: np.ndarray) -> bool:
    """Whether some row of t_mat repeats an element. Up to 16 columns, each
    pair of columns is compared, which costs a third of numpy's per-row sort
    over an anm_sampler run; wider rows are sorted (pairs grow as width²)."""
    width = t_mat.shape[1]
    if width > 16:
        ordered = np.sort(t_mat, axis=1)
        return bool(np.count_nonzero(ordered[:, 1:] == ordered[:, :-1]))
    cols = np.ascontiguousarray(t_mat.T)
    return any(np.count_nonzero(cols[d:] == cols[:-d]) for d in range(1, width))


def paired_gain_round(f: Objective, xs, t_mats, offsets, bases: Sequence,
                      ledgers: Sequence[QueryLedger], asks: bool = False) -> np.ndarray:
    """Gains of every row of one round, given flat: one adaptive round per
    group.

    Row j asks f(B_j + x_j) - f(B_j), B_j = base + T_j. xs holds every row's
    x_j, the groups' rows end to end: group i owns rows
    offsets[i]:offsets[i + 1] (at least one), has base bases[i], a strictly
    increasing index collection, and ledger ledgers[i]. A round is one kind.
    With t_mats None it is a marginals round (T_j empty): rows queries a
    group, plus one with asks, whose f(base) is one whole-set evaluation
    recorded on the ledger (``ledger.values[ledger.rounds]``). Otherwise it
    is a sample round, which cannot ask: t_mats holds the T_j as (rows,
    width) arrays end to end, one per width (0 too), and a group's rows are
    indicator samples, 2 * rows queries and rows logical samples.

    The round is the one home of the paired-gain rules the kernels rely on.
    One ``f._round_state`` call numbers, checks and builds its bases' states
    before anything is metered. Each row's route depends on that row alone:
    a row whose T_j overlaps its base goes to the default
    ``Objective._gain_batch``, one whose x_j lies in B_j is 0.0 exactly, and
    the rest of a T array go to ``f._gain_batch``, GAIN_CELL_BUDGET //
    ``f._gain_row_cells(width)`` consecutive rows a call. A round of no
    groups returns no gains and touches nothing.

    InvalidSubsetError, before anything is metered, for an element outside
    [0, n), an index that is not an integer, an unsorted or repeating base,
    or a T row that repeats an element; ValueError, also before, for a
    malformed round, an empty group or a sample round that asks, and if any
    gain or asked f(base) is NaN or infinite.
    """
    groups = len(ledgers)
    if not groups:
        return np.empty(0, dtype=np.float64)
    sample = t_mats is not None
    entry = "batch_pair_gains" if sample else "batch_marginals"
    if sample and asks:
        raise ValueError("a sample round cannot ask f(base)")
    xs = _as_index_array(xs)
    if xs.ndim != 1:
        raise ValueError(f"the candidates must be one-dimensional, got shape {xs.shape}")
    offsets = np.asarray(offsets, dtype=np.int64)
    if (len(bases) != groups or offsets.shape != (groups + 1,) or offsets[0] != 0
            or offsets[-1] != xs.size):
        raise ValueError("offsets must cover xs, with one base and ledger per group")
    sizes = offsets[1:] - offsets[:-1]
    size_list = sizes.tolist()
    if min(size_list) <= 0:
        raise ValueError(f"{entry} requires at least one {'pair' if sample else 'candidate'}")
    spans = []  # (first row, T array) per T array
    end = 0
    for t_mat in t_mats if sample else [np.empty((xs.size, 0), dtype=np.int64)]:
        t_mat = _as_index_array(t_mat)
        if t_mat.ndim != 2:
            raise ValueError("t_mat must be (m, t-1) and xs length m")
        start, end = end, end + t_mat.shape[0]
        spans.append((start, t_mat))
    if end != xs.size:
        raise ValueError("t_mat must be (m, t-1) and xs length m")
    state, base_of = f._round_state(bases)
    in_base = state[0]
    row_base = base_of.repeat(sizes)

    _check_bounds(f, xs)
    member = _in_own_base(in_base, row_base, xs)
    overlap = None  # the rows whose T row touches their base
    for start, t_mat in spans:
        width = t_mat.shape[1]
        if not width:
            continue
        rows = slice(start, start + t_mat.shape[0])
        _check_bounds(f, t_mat)
        if width > 1 and _repeats_in_a_row(t_mat):
            raise InvalidSubsetError("duplicate element in a T row")
        # Rows of the few True cells: x_j in T_j, and T_j touching B_j.
        member[start + np.flatnonzero(t_mat == xs[rows, None]) // width] = True
        touch = np.flatnonzero(_in_own_base(in_base, row_base[rows], t_mat))
        if touch.size:
            if overlap is None:
                overlap = np.zeros(xs.size, dtype=bool)
            overlap[start + touch // width] = True

    for ledger, size in zip(ledgers, size_list):
        ledger.add_round(size * (1 + sample) + asks, size * sample)
    if asks:
        for ledger, row in zip(ledgers, base_of.tolist()):
            # One whole-set evaluation per base; its membership row is its mask.
            ledger.record_value(float(_mask_values(f, in_base[row][None], entry)[0]))

    gains = np.empty(xs.size, dtype=np.float64)
    for start, t_mat in spans:
        rows = slice(start, start + t_mat.shape[0])
        out, x, row_of = gains[rows], xs[rows], row_base[rows]
        fast = out
        if overlap is not None and overlap[rows].any():
            own = overlap[rows]
            out[own] = Objective._gain_batch(f, state, t_mat[own], x[own], row_of[own])
            t_mat, x, row_of = t_mat[~own], x[~own], row_of[~own]
            fast = np.empty(x.size, dtype=np.float64)
        per_call = max(1, GAIN_CELL_BUDGET // f._gain_row_cells(t_mat.shape[1]))
        for a in range(0, x.size, per_call):
            chunk = slice(a, a + per_call)
            fast[chunk] = f._gain_batch(state, t_mat[chunk], x[chunk], row_of[chunk])
        if fast is not out:
            out[~own] = fast
    gains[member] = 0.0
    if np.count_nonzero(np.isfinite(gains)) != gains.size:
        raise ValueError(f"{entry}: the oracle returned a non-finite value")
    return gains


def batch_marginals(f: Objective, base, candidates,
                    base_value: float, ledger: QueryLedger) -> np.ndarray:
    """Gains f(base + x) - base_value for each candidate x, one adaptive round.

    The one-group marginals round of :func:`paired_gain_round`. base is a
    strictly increasing index collection. base_value must already be known,
    so the round costs exactly len(candidates) queries. A candidate already
    in base has gain 0. Raises InvalidSubsetError for an index that is not
    an integer or an unsorted or repeating base, and ValueError for a base
    or candidates that are not one-dimensional, or if any gain is NaN or
    infinite.
    """
    xs = _as_index_array(candidates)
    return paired_gain_round(f, xs, None, (0, xs.size), [base], [ledger])


def batch_pair_gains(f: Objective, base, t_mat: np.ndarray,
                     xs: np.ndarray, ledger: QueryLedger) -> np.ndarray:
    """Gains f(base + T_j + x_j) - f(base + T_j) for each row j, one round.

    The one-group sample round of :func:`paired_gain_round`. Each row
    simulates one indicator sample and is metered as two raw evaluations
    (2 * len(xs) queries) plus one logical sample per row. base is a strictly
    increasing index collection and rows of t_mat must be duplicate-free.
    A row whose T row overlaps base is answered by the default
    ``Objective._gain_batch`` (two ``_evaluate`` calls), any other by the
    kernel; a row whose x_j lies in base + T_j has gain 0. Raises
    InvalidSubsetError for an index that is not an integer, an unsorted or
    repeating base or a T row that repeats an element, and ValueError if any
    gain is NaN or infinite.
    """
    xs = _as_index_array(xs)
    return paired_gain_round(f, xs, [t_mat], (0, xs.size), [base], [ledger])


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


def draws_below(rng: np.random.Generator, bounds: np.ndarray,
                words: np.ndarray) -> np.ndarray:
    """The integers ``rng.integers`` draws below ``bounds`` (uint64, each in
    [2, 2**32)), one per bound in order, when ``words`` holds the next
    bounds.size 32-bit words of its stream; any further word is drawn here.

    numpy maps a word w to (w * b) >> 32 (Lemire, "Fast random integer
    generation in an interval", ACM TOMACS 2019) and rejects w when the low
    32 bits of w * b fall below (2**32 - b) % b, taking the next word for
    the same bound. A rejection shifts every later draw by one word, so the
    draws are redone from that element on, with one more word.
    """
    out = np.empty(bounds.size, dtype=np.int64)
    done = 0
    while True:
        b = bounds[done:]
        prod = words.astype(np.uint64) * b
        bad = np.flatnonzero((prod & np.uint64(0xFFFFFFFF)) < (np.uint64(1 << 32) - b) % b)
        stop = int(bad[0]) if bad.size else b.size
        out[done:done + stop] = prod[:stop] >> np.uint64(32)
        if not bad.size:
            return out
        done += stop
        words = np.concatenate([words[stop + 1:],
                                rng.integers(0, 1 << 32, 1, dtype=np.uint32)])


def sample_without_replacement(rng: np.random.Generator, pool,
                               size: int) -> np.ndarray:
    """Uniform random size-subset of pool via a partial Fisher-Yates shuffle.

    Swap i takes position i + j_i with j_i uniform on [0, |pool| - i); all
    j_i come from one draw, which leaves the generator where one draw per
    swap would. A size above |pool| takes the whole pool; ValueError for a
    negative size.
    """
    if size < 0:
        raise ValueError(f"the sample size must be >= 0, got {size}")
    items = _as_index_array(pool).tolist()
    size = min(int(size), len(items))
    steps = np.arange(size)
    for i, j in enumerate((steps + rng.integers(len(items) - steps)).tolist()):
        items[i], items[j] = items[j], items[i]
    return np.array(items[:size], dtype=np.int64)

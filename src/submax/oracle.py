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
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class InvalidSubsetError(ValueError):
    """An index set is malformed: an element outside the oracle's ground set,
    a repeated element, or a paired-gain base out of order."""


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

    A :meth:`_gain_batch` kernel that reads an aggregate of the base (say,
    each element's weight into it) computes it in :meth:`_base_state` and
    fetches it through :meth:`_cached_base_state`. That memo holds the state
    of the last base asked for, so the many rounds an algorithm issues
    against one unchanged base build the aggregate once. A hit returns the
    very arrays a fresh call would compute, so the gains are bit-identical.
    The memo cannot see changes to an objective's data: objectives must not
    be mutated after construction.
    """

    # The last (base key, state) pair; an instance attribute once set.
    _base_memo: tuple[bytes, tuple] | None = None

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"ground set size must be >= 1, got {n}")
        self.n = int(n)

    @abstractmethod
    def _evaluate(self, idx: np.ndarray) -> float:
        """Value of the subset given as a sorted index array."""

    def _base_state(self, base_idx: np.ndarray) -> tuple[np.ndarray, ...]:
        """The aggregates of the base that :meth:`_gain_batch` reads.

        A tuple of arrays computed from base_idx alone; the default has none.
        Kernels must not write to them: the memo hands the same arrays to
        every later call on the same base.
        """
        return ()

    def _cached_base_state(self, base_idx: np.ndarray) -> tuple[np.ndarray, ...]:
        """:meth:`_base_state` of base_idx, memoized for the latest base.

        The key is base_idx's elements as int64 bytes: the same elements in
        any integer dtype share an entry, and two bases whose raw bytes merely
        agree (int32 [1, 0], int64 [1]) do not. The memo is one tuple,
        read once and replaced whole, so concurrent callers can at worst
        recompute a state, never read a mismatched one.
        """
        key = base_idx.astype(np.int64, copy=False).tobytes()
        memo = self._base_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        state = self._base_state(base_idx)
        for arr in state:
            arr.flags.writeable = False
        self._base_memo = (key, state)
        return state

    def _gain_batch(self, base_idx: np.ndarray, t_mat: np.ndarray,
                    xs: np.ndarray) -> np.ndarray | None:
        """Optional vectorized path for paired gain queries.

        Row j asks for f(B_j + x_j) - f(B_j) with B_j = base + t_mat[j]. The
        oracle calls it only with t_mat rows duplicate-free and disjoint from
        base (t_mat may have no columns, base may be empty), and sets rows
        whose x_j already lies in B_j to 0.0 itself, so their value here is
        ignored. Return None (the default) to fall back to two evaluations
        per row.
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
        return candidates.astype(np.int64, copy=False)
    return np.asarray(list(candidates), dtype=np.int64)


def _finite(values, entry_point: str) -> np.ndarray:
    out = np.asarray(values, dtype=np.float64)
    if not np.isfinite(out).all():
        raise ValueError(f"{entry_point}: the oracle returned a non-finite value")
    return out


def _check_bounds(f: Objective, idx: np.ndarray) -> None:
    if idx.size == 0:
        return
    lo, hi = int(idx.min()), int(idx.max())
    if lo < 0 or hi >= f.n:
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


def _paired_gains(f: Objective, base_idx: np.ndarray, t_mat: np.ndarray,
                  xs: np.ndarray, entry_point: str,
                  base_value: float | None = None) -> np.ndarray:
    """Gains f(B_j + x_j) - f(B_j) with B_j = base + t_mat[j], for each row j.

    The one home of the paired-gain rules the objectives' kernels rely on:
    when any T row overlaps the base, the whole batch takes the exact
    fallback and ``_gain_batch`` is not called; a row whose x_j already lies
    in B_j is 0.0 exactly, whichever path ran. The fallback evaluates both
    sets of each remaining row, memoized within the batch; a known
    ``base_value`` seeds the memo, so then each row costs one evaluation.
    """
    in_base = np.zeros(f.n, dtype=bool)
    in_base[base_idx] = True
    member = in_base[xs] | (t_mat == xs[:, None]).any(axis=1)
    gains = None if in_base[t_mat].any() else f._gain_batch(base_idx, t_mat, xs)
    if gains is None:
        base_members = frozenset(base_idx.tolist())
        memo: dict[frozenset, float] = {}
        if base_value is not None:
            memo[base_members] = base_value

        def value(members: frozenset) -> float:
            got = memo.get(members)
            if got is None:
                got = f._evaluate(np.asarray(sorted(members), dtype=np.int64))
                memo[members] = got
            return got

        gains = np.zeros(xs.size, dtype=np.float64)
        for j in np.flatnonzero(~member):
            b = base_members.union(t_mat[j].tolist())
            gains[j] = value(b | {int(xs[j])}) - value(b)
    return _finite(np.where(member, 0.0, gains), entry_point)


def _base_array(f: Objective, base) -> np.ndarray:
    """The base of a paired-gain round as an int64 array, checked.

    The base must be strictly increasing: its order keys the base-state memo
    and orders the kernels' sums, and a repeated element would count twice.
    """
    base_idx = _as_index_array(base)
    if base_idx.size > 1 and not (base_idx[1:] > base_idx[:-1]).all():
        raise InvalidSubsetError("the base must be strictly increasing")
    # Sorted, so its ends bound it; _check_bounds names the offender.
    if base_idx.size and (base_idx[0] < 0 or base_idx[-1] >= f.n):
        _check_bounds(f, base_idx)
    return base_idx


def batch_marginals(f: Objective, base, candidates,
                    base_value: float, ledger: QueryLedger) -> np.ndarray:
    """Gains f(base + x) - base_value for each candidate x, one adaptive round.

    base is a strictly increasing index collection. base_value must already
    be known, so the round costs exactly len(candidates) queries. A candidate
    already in base has gain 0. Raises InvalidSubsetError for an unsorted or
    repeating base and ValueError if any gain is NaN or infinite.
    """
    cand = _as_index_array(candidates)
    if cand.size == 0:
        raise ValueError("batch_marginals requires at least one candidate")
    _check_bounds(f, cand)
    base_idx = _base_array(f, base)
    ledger.add_round(int(cand.size))
    empty_t = np.empty((cand.size, 0), dtype=np.int64)
    return _paired_gains(f, base_idx, empty_t, cand, "batch_marginals",
                         base_value=base_value)


def batch_pair_gains(f: Objective, base, t_mat: np.ndarray,
                     xs: np.ndarray, ledger: QueryLedger) -> np.ndarray:
    """Gains f(base + T_j + x_j) - f(base + T_j) for each row j, one round.

    Each row simulates one indicator sample and is metered as two raw
    evaluations (2 * len(xs) queries) plus one logical sample per row.
    base is a strictly increasing index collection and rows of t_mat must be
    duplicate-free. A row that overlaps base is answered exactly, and a row
    whose x_j lies in base + T_j has gain 0. Raises InvalidSubsetError for an
    unsorted or repeating base and ValueError if any gain is NaN or infinite.
    """
    t_mat = np.asarray(t_mat, dtype=np.int64)
    xs = np.asarray(xs, dtype=np.int64)
    if xs.ndim != 1 or t_mat.ndim != 2 or t_mat.shape[0] != xs.size:
        raise ValueError("t_mat must be (m, t-1) and xs length m")
    if xs.size == 0:
        raise ValueError("batch_pair_gains requires at least one pair")
    _check_bounds(f, xs)
    if t_mat.size:
        _check_bounds(f, t_mat.ravel())
    base_idx = _base_array(f, base)
    ledger.add_round(2 * xs.size, logical_samples=xs.size)
    return _paired_gains(f, base_idx, t_mat, xs, "batch_pair_gains")


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

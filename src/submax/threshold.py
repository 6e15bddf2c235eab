"""Threshold sampling: filter candidates by marginal gain, add random blocks.

Given a threshold tau, the sampler repeatedly discards candidates whose gain
over the current solution falls below tau, estimates the largest block size t
whose random insertions still clear tau with frequency near 1, and adds a
uniform random t-block. An optional break_size turns it into the early-exit
variant that stops as soon as the candidate pool gets small, which caps every
element's inclusion probability. The solution and the candidate pool are
both sorted, duplicate-free int64 arrays, from the first round to the
returned outcome.

A run's first round asks f(empty) and every singleton at once; the first
filter is read off those values. Each later outer round opens with a filter
round that also asks f(S) of the previous update, a known set, so no round
is spent on f(S) alone unless no filter follows.

Many samplers run in lockstep (``lockstep_threshold_sampling``) after one
shared first round: each later outer round is one filter round for all live
trials, and each step of the block-size scan one grouped paired-gain round
for the trials still scanning. Every trial draws from its own generator in
the order a lone run does and meters on its own ledger, so a trial's stream,
rounds and result do not depend on the others; ``threshold_sampling`` is
the first round plus the one-trial case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .oracle import (
    Objective,
    QueryLedger,
    batch_marginals,
    batch_pair_gains,
    check_params,
    draws_below,
    evaluate_batch,
    paired_gain_round,
    sample_without_replacement,
    singleton_round,
)


class BreakReason(str, Enum):
    EXHAUSTED_ROUNDS = "exhausted_rounds"
    EMPTY_A = "empty_A"
    FULL_S = "full_S"
    SMALL_A = "small_A"


@dataclass(frozen=True)
class DerivedThresholdValues:
    """Internal constants derived from (n, k, eps, delta); natural logs."""

    eps_hat: float
    r: int
    m: int
    delta_hat: float
    ell: int
    ell_theoretical: int


@dataclass
class ThresholdParams:
    """Inputs for one threshold-sampling run.

    break_size, when set, is the early-exit pool bound; sample_override pins
    the per-estimate sample count for experiment parity (the theoretical count
    is still reported in the derived values). Each field's range lives in
    ``oracle.PARAM_RANGES``; a value outside it, NaN included, raises
    ``ParamError`` naming the field and the value.
    """

    k: int
    tau: float
    eps: float
    delta: float
    break_size: int | None = None
    sample_override: int | None = None

    def __post_init__(self):
        check_params(**vars(self))

    def derive(self, n: int) -> DerivedThresholdValues:
        eps_hat = self.eps / 3.0
        r = math.ceil(math.log(2.0 * n / self.delta) / math.log(1.0 / (1.0 - eps_hat)))
        m = math.ceil(math.log(self.k) / eps_hat)
        delta_hat = self.delta / (2.0 * r * (m + 1))
        ell_theoretical = 16 * math.ceil(math.log(2.0 / delta_hat) / eps_hat ** 2)
        ell = self.sample_override if self.sample_override is not None else ell_theoretical
        return DerivedThresholdValues(eps_hat=eps_hat, r=r, m=m,
                                      delta_hat=delta_hat, ell=ell,
                                      ell_theoretical=ell_theoretical)


@dataclass
class SamplingOutcome:
    """Result of a threshold-sampling run.

    s is the solution and a the surviving pool, both sorted int64 arrays.
    f_s and f_empty are the values already paid for during the run, so
    downstream argmax steps need no fresh queries; the ledger also holds
    each f(S) in ``ledger.values`` at the round that asked it (f_empty comes
    from the first round, which a lockstep trial does not hold). snapshots
    holds one dict per outer round with keys ``round``, ``a`` (the pool
    array after the filter), ``s`` (the solution array after the update),
    ``t`` and ``mu`` (chosen block size and its estimate, None when the
    round broke before the scan) and ``estimates`` (every (t, mu) probed).
    Pool and solution are held by reference, never copied.
    """

    s: np.ndarray
    a: np.ndarray
    break_reason: BreakReason
    ledger: QueryLedger
    f_s: float
    f_empty: float
    snapshots: list[dict] = field(default_factory=list)


def draw_blocks(rngs: Sequence[np.random.Generator], pools: Sequence[np.ndarray],
                t: int, counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """For each trial, draw counts[i] independent (T, x) pairs from pools[i]
    with its own generator rngs[i]: T uniform over (t-1)-subsets of the pool,
    then x uniform over the rest.

    Each row picks a uniform t-subset of pool positions with Floyd's algorithm
    (Bentley & Floyd, CACM 1987), vectorized over rows: column i draws r from
    [0, P-t+i] and takes P-t+i instead when r is already among the row's
    earlier columns. One more integer per row picks which of the t elements
    is x, so a uniform t-set with a uniform x gives exactly the pair law
    above. That is t+1 random integers per row and O(count*t) memory,
    whatever the pool size.

    The integers are exactly those of ``rng.integers(np.arange(P-t+1, P+1),
    size=(count, t))`` then ``rng.integers(t, size=count)``, and the
    generator ends where those two calls leave it, but each trial makes one
    raw word draw (``oracle.draws_below`` has numpy's method): its position
    words row by row, then its pick words, a bound of 1 taking none. The
    multiply-shift then runs once for the whole group, column by column,
    and a trial with a rejected word is redone exactly from its own words.
    Each trial draws from its own generator only, so its stream does not
    depend on the other trials. Returns (t_mat of shape (rows, t-1), xs) of
    every row, the trials' rows end to end in trial order.
    """
    sizes = np.array([pool.size for pool in pools], dtype=np.int64)
    for size in sizes.tolist():
        if not 1 <= t <= size:
            raise ValueError(f"t must lie in [1, {size}], got {t}")
    counts = np.asarray(counts, dtype=np.int64)
    rows = int(counts.sum())
    skip = sizes == t  # column 0 has bound 1: no word
    width = t - skip  # position words per row
    per_trial = counts * (width + (t > 1))
    # The words laid end to end, and one stand-in word after them.
    flat_words = np.concatenate([rng.integers(0, 1 << 32, size, dtype=np.uint32)
                                 for rng, size in zip(rngs, per_trial.tolist())]
                                + [np.zeros(1, dtype=np.uint32)])
    # Row r's position words start at at[r], and its pick word follows all
    # its trial's position words.
    every = np.arange(rows)
    first = per_trial.cumsum() - per_trial
    row_start = counts.cumsum() - counts
    at = np.repeat(first - row_start * width, counts) + every * np.repeat(width, counts)
    skip_rows = np.repeat(skip, counts)
    size_row = np.repeat(sizes, counts)  # P, per row
    # Column-major from here: column i of every row is one contiguous run.
    # Word times bound, (t, rows).
    prod = np.multiply(flat_words[at - skip_rows + np.arange(t)[:, None]],
                       (size_row - t + 1).astype(np.uint64)
                       + np.arange(t, dtype=np.uint64)[:, None], dtype=np.uint64)
    # A bound-1 column takes no word: it read the word before its row's
    # (the stand-in, for the first row), and takes this one instead, which
    # gives 0 and is never suspect.
    prod[0, skip_rows] = 0xFFFFFFFF
    idx = np.right_shift(prod, np.uint64(32)).view(np.int64)
    # A rejected word's product has its low 32 bits below the bound, and so
    # below P; the trials of such rows are redone.
    suspect = np.flatnonzero(prod.astype(np.uint32) < size_row) % rows
    if t > 1:
        picks = np.repeat(first + counts * width - row_start, counts) + every
        pick_prod = np.multiply(flat_words[picks], np.uint64(t))
        pick = np.right_shift(pick_prod, np.uint64(32)).view(np.int64)
        suspect = np.concatenate([suspect, np.flatnonzero(pick_prod.astype(np.uint32) < t)])
    else:
        pick = np.zeros(rows, dtype=np.int64)
    ends = counts.cumsum()
    for i in np.unique(np.searchsorted(ends, suspect, side="right")).tolist():
        # Redo trial i's integers from its own words, in their order; only a
        # true rejection changes them.
        size, count, w = int(sizes[i]), int(counts[i]), int(width[i])
        lo = int(ends[i]) - count
        seq = [np.tile(np.arange(size - w + 1, size + 1, dtype=np.uint64), count)]
        if t > 1:
            seq.append(np.full(count, t, dtype=np.uint64))
        got = draws_below(rngs[i], np.concatenate(seq),
                          flat_words[first[i]:first[i] + per_trial[i]])
        idx[t - w:, lo:lo + count] = got[:count * w].reshape(count, w).T
        if t > 1:
            pick[lo:lo + count] = got[count * w:]
    last = size_row - t
    for i in range(1, t):
        seen = (idx[:i] == idx[i]).any(axis=0)
        idx[i, seen] = last[seen] + i
    # Positions index each row's own pool within the pools laid end to end.
    idx += np.repeat(np.cumsum(sizes) - sizes, counts)
    x_idx = idx[pick, every]
    idx[pick, every] = idx[t - 1]
    flat = np.concatenate(pools)
    # Gathered row-major straight into the result; every position is in
    # range, and mode="clip" lets take skip its buffered copy.
    t_all = np.take(flat, idx[:t - 1].T, mode="clip",
                    out=np.empty((rows, t - 1), dtype=flat.dtype))
    return t_all, flat[x_idx]


def draw_block_and_probe(rng: np.random.Generator, pool: np.ndarray, t: int,
                         count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` (T, x) pairs from one pool: the one-trial case of
    :func:`draw_blocks`."""
    return draw_blocks([rng], [pool], t, [count])


def estimate_mean(f: Objective, s: np.ndarray, pool: np.ndarray, t: int,
                  tau: float, ell: int, rng: np.random.Generator,
                  ledger: QueryLedger) -> float:
    """Mean of ell indicator samples, all issued in one adaptive round.

    Each sample asks whether the t-th random insertion from the sorted int64
    candidate array ``pool`` into the sorted int64 array s clears tau, at two
    oracle evaluations. One trial's scan estimate, as the sampler makes it.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    t_mat, xs = draw_block_and_probe(rng, pool, t, ell)
    gains = batch_pair_gains(f, s, t_mat, xs, ledger)
    return np.count_nonzero(gains >= tau) / gains.size


@dataclass(eq=False)
class _Trial:
    """One sampler's state while it runs in lockstep with others."""

    params: ThresholdParams
    d: DerivedThresholdValues
    rng: np.random.Generator
    ledger: QueryLedger
    s: np.ndarray
    f_s: float
    f_empty: float
    pool: np.ndarray
    snapshots: list[dict]
    reason: BreakReason | None = None  # set when the trial stops


def lockstep_threshold_sampling(
        f: Objective, params: Sequence[ThresholdParams],
        rngs: Sequence[np.random.Generator], sweep: np.ndarray,
        ledgers: Sequence[QueryLedger] | None = None) -> list[SamplingOutcome]:
    """Run one sampler per (params[i], rngs[i], ledgers[i]), in lockstep,
    from a first round already paid for.

    sweep holds f(empty), then f({x}) for each x: the values of
    :func:`oracle.singleton_round`, which the caller has already paid for.
    Each trial is exactly the sampler :func:`threshold_sampling` describes
    with that first round removed: it starts from S = empty and reads its
    first filter, {x : f({x}) - f(empty) >= tau}, off the sweep. Running the
    trials together changes no trial's random stream, rounds, queries or
    result. Each outer round after the first opens with one filter round for
    all live trials, in which each trial also asks f(S) of its last update;
    then comes the block-size scan, step by step: at each step every trial
    still scanning draws its samples from its own generator, and all those
    estimates go out as one flat paired-gain round (one round on each
    trial's ledger). A trial whose update is its last (full S, or its r-th
    outer round) asks that f(S) in a one-query round of its own.
    """
    if ledgers is None:
        ledgers = [QueryLedger() for _ in params]
    f_empty = float(sweep[0])
    singleton_gains = sweep[1:] - sweep[0]
    trials = [_Trial(params=p, d=p.derive(f.n), rng=rng, ledger=ledger,
                     s=np.empty(0, dtype=np.int64), f_s=f_empty, f_empty=f_empty,
                     pool=np.flatnonzero(singleton_gains >= p.tau), snapshots=[])
              for p, rng, ledger in zip(params, rngs, ledgers)]

    outer = 0
    live = trials
    while live:
        outer += 1
        if outer > 1:
            # f(S) of each trial's latest update is asked beside its filter.
            offsets = np.cumsum([0] + [tr.pool.size for tr in live])
            gains = paired_gain_round(f, np.concatenate([tr.pool for tr in live]), None,
                                      offsets, [tr.s for tr in live],
                                      [tr.ledger for tr in live], asks=True)
            for tr, a, b in zip(live, offsets[:-1].tolist(), offsets[1:].tolist()):
                tr.f_s = tr.ledger.values[tr.ledger.rounds]
                tr.pool = tr.pool[gains[a:b] >= tr.params.tau]
                if tr.params.tau == 0:  # members of s gain exactly 0.0
                    tr.pool = np.setdiff1d(tr.pool, tr.s, assume_unique=True)
        scanning = []
        for tr in live:
            tr.snapshots.append({"round": outer, "a": tr.pool, "s": tr.s,
                                 "t": None, "mu": None, "estimates": []})
            if tr.pool.size == 0:
                tr.reason = BreakReason.EMPTY_A
            elif tr.params.break_size is not None and tr.pool.size < tr.params.break_size:
                tr.reason = BreakReason.SMALL_A
            else:
                scanning.append(tr)

        for tr, t, mu, estimates in zip(scanning, *_scan(f, scanning)):
            block = sample_without_replacement(tr.rng, tr.pool,
                                               min(t, tr.params.k - tr.s.size))
            tr.s = np.union1d(tr.s, block)
            tr.snapshots[-1].update(s=tr.s, t=t, mu=mu, estimates=estimates)
            if tr.s.size == tr.params.k:
                tr.reason = BreakReason.FULL_S
            elif outer == tr.d.r:
                tr.reason = BreakReason.EXHAUSTED_ROUNDS
            if tr.reason is not None:  # no filter round follows to ask f(S)
                tr.f_s = float(evaluate_batch(f, [tr.s], tr.ledger)[0])
                tr.ledger.record_value(tr.f_s)
        live = [tr for tr in live if tr.reason is None]

    return [SamplingOutcome(s=tr.s, a=tr.pool, break_reason=tr.reason,
                            ledger=tr.ledger, f_s=tr.f_s, f_empty=tr.f_empty,
                            snapshots=tr.snapshots) for tr in trials]


@functools.lru_cache(maxsize=64)
def _powers(eps_hat: float, m: int) -> np.ndarray:
    """The distinct floor((1 + eps_hat)^i) for i = 0..m, increasing; read-only."""
    powers = np.unique([int((1.0 + eps_hat) ** i) for i in range(m + 1)])
    powers.flags.writeable = False
    return powers


def _probes(d: DerivedThresholdValues, pool_size: int) -> list[int]:
    """The distinct block sizes min(floor((1 + eps_hat)^i), pool_size) for
    i = 0..m, increasing: the powers below pool_size, then pool_size if
    some power reaches it."""
    powers = _powers(d.eps_hat, d.m)
    return np.minimum(powers[:powers.searchsorted(pool_size) + 1], pool_size).tolist()


def _scan(f: Objective, trials: list[_Trial]
          ) -> tuple[list[int], list[float], list[list[tuple[int, float]]]]:
    """The block-size scan of one outer round, for every trial at once.

    A trial probes t_i = min(floor((1 + eps_hat)^i), |pool|) for i = 0..m
    and stops at the first estimate at or below 1 - 1.5 eps_hat. An i whose
    block size repeats the previous one would probe the identical
    distribution, so it reuses that estimate and costs no round: a trial's
    probes are the distinct t_i, and step j of the lockstep issues the j-th
    probe of every trial still scanning, as one paired-gain round, with one
    draw per block size. Returns each trial's chosen t, its mu, and its
    (t, mu) estimates in probe order.
    """
    probes = [_probes(tr.d, tr.pool.size) for tr in trials]
    last = np.array([len(p) for p in probes], dtype=np.int64) - 1
    steps = max(map(len, probes), default=0)
    table = np.array([p + p[-1:] * (steps - len(p)) for p in probes])  # padded
    ell = np.array([tr.d.ell for tr in trials], dtype=np.int64)
    tau = np.array([tr.params.tau for tr in trials], dtype=np.float64)
    floor = np.array([1.0 - 1.5 * tr.d.eps_hat for tr in trials], dtype=np.float64)
    t, mu = np.zeros(len(trials), dtype=np.int64), np.zeros(len(trials))
    live = np.ones(len(trials), dtype=bool)
    estimates: list[list[tuple[int, float]]] = [[] for _ in trials]
    step = 0
    while live.any():
        t[live] = table[live, step]
        # The live trials, by block size: each size's rows are one T array.
        order = np.flatnonzero(live)
        order = order[np.argsort(t[order], kind="stable")]
        sizes, starts = np.unique(t[order], return_index=True)
        t_mats, xs = zip(*[draw_blocks([trials[i].rng for i in members],
                                       [trials[i].pool for i in members], size, ell[members])
                           for size, members in zip(sizes.tolist(), np.split(order, starts[1:]))])
        offsets = np.concatenate([[0], ell[order].cumsum()])
        gains = paired_gain_round(f, np.concatenate(xs), t_mats, offsets,
                                  [trials[i].s for i in order], [trials[i].ledger for i in order])
        # Each count is exact, so each mu is the correctly rounded fraction.
        mu[order] = np.add.reduceat(gains >= tau[order].repeat(ell[order]), offsets[:-1],
                                    dtype=np.int64) / ell[order]
        for i, estimate in zip(order.tolist(), zip(t[order].tolist(), mu[order].tolist())):
            estimates[i].append(estimate)
        live[order] = (mu[order] > floor[order]) & (step < last[order])
        step += 1
    return t.tolist(), mu.tolist(), estimates


def threshold_sampling(f: Objective, params: ThresholdParams,
                       rng: np.random.Generator,
                       ledger: QueryLedger | None = None) -> SamplingOutcome:
    """Run the sampler to completion and return (solution, surviving pool).

    Round structure: round 1 evaluates f(empty) and every singleton, which
    is the first filter; each later outer round opens with one filter round
    of |A| + 1 queries, the +1 being f(S) of the previous update. The
    estimate rounds of the block-size scan follow. The update that ends
    the run (full S, or the last outer round) asks its f(S) in a one-query
    round of its own, so the final value is available downstream without
    fresh queries. Round 1 records the best value it saw, and each f(S) is
    recorded in the round that asked it. Scan iterations whose block size
    repeats the previous one reuse its estimate, since they would probe the
    identical distribution. Round 1, then the one-trial case of
    :func:`lockstep_threshold_sampling`.
    """
    ledger = QueryLedger() if ledger is None else ledger
    sweep = singleton_round(f, ledger)
    return lockstep_threshold_sampling(f, [params], [rng], sweep, [ledger])[0]


def verify_termination_marginals(f: Objective, outcome: SamplingOutcome,
                                 tau: float) -> bool:
    """Check that every element's gain over the returned solution is below tau.

    Uses a scratch ledger, so the verification queries stay outside the run's
    own accounting.
    """
    scratch = QueryLedger()
    gains = batch_marginals(f, outcome.s, np.arange(f.n, dtype=np.int64),
                            outcome.f_s, scratch)
    return bool(np.all(gains < tau))

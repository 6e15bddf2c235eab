"""Threshold sampling: filter candidates by marginal gain, add random blocks.

Given a threshold tau, the sampler repeatedly discards candidates whose gain
over the current solution falls below tau, estimates the largest block size t
whose random insertions still clear tau with frequency near 1, and adds a
uniform random t-block. An optional break_size turns it into the early-exit
variant that stops as soon as the candidate pool gets small, which caps every
element's inclusion probability. The solution and the candidate pool are
both sorted, duplicate-free int64 arrays, from the first round to the
returned outcome.

Many samplers run in lockstep (``lockstep_threshold_sampling``): each outer
round is one filter round for all live trials, and each step of the
block-size scan one grouped paired-gain round for the trials still
scanning. Every trial draws from its own generator in the order a lone run
does and meters on its own ledger, so a trial's stream, rounds and result do
not depend on the others; ``threshold_sampling`` is the one-trial case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .oracle import (
    GainGroup,
    Objective,
    QueryLedger,
    batch_marginals,
    batch_pair_gains,
    check_params,
    evaluate_batch,
    paired_gain_round,
    sample_without_replacement,
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
    them per round in ``ledger.values``. snapshots holds one dict per outer
    round with keys ``round``, ``a`` (the pool array after the filter),
    ``s`` (the solution array after the update), ``t`` and ``mu`` (chosen
    block size and its estimate, None when the round broke before the scan)
    and ``estimates`` (every (t, mu) probed). Pool and solution are held by
    reference, never copied.
    """

    s: np.ndarray
    a: np.ndarray
    break_reason: BreakReason
    ledger: QueryLedger
    f_s: float
    f_empty: float
    snapshots: list[dict] = field(default_factory=list)


def draw_blocks(rngs: Sequence[np.random.Generator], pools: Sequence[np.ndarray],
                t: int, counts: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each trial, draw counts[i] independent (T, x) pairs from pools[i]
    with its own generator rngs[i]: T uniform over (t-1)-subsets of the pool,
    then x uniform over the rest.

    Each row picks a uniform t-subset of pool positions with Floyd's algorithm
    (Bentley & Floyd, CACM 1987), vectorized over rows: column i draws r from
    [0, P-t+i] and takes P-t+i instead when r is already among the row's
    earlier columns. One more integer per row picks which of the t elements
    is x, so a uniform t-set with a uniform x gives exactly the pair law
    above. That is t+1 random integers per row and O(count*t) memory,
    whatever the pool size. Each trial makes its two draws from its own
    generator, so its stream does not depend on the other trials; the
    column resolution then runs once for all of them. Returns one
    (t_mat of shape (count, t-1), xs) pair per trial.
    """
    sizes = np.array([pool.size for pool in pools], dtype=np.int64)
    for size in sizes.tolist():
        if not 1 <= t <= size:
            raise ValueError(f"t must lie in [1, {size}], got {t}")
    idx, pick = [], []
    for rng, size, count in zip(rngs, sizes.tolist(), counts):
        idx.append(rng.integers(np.arange(size - t + 1, size + 1), size=(count, t)))
        pick.append(rng.integers(t, size=count))
    idx, pick = np.concatenate(idx), np.concatenate(pick)
    last = np.repeat(sizes - t, counts)  # P - t, per row
    for i in range(1, t):
        seen = (idx[:, :i] == idx[:, i:i + 1]).any(axis=1)
        idx[seen, i] = last[seen] + i
    rows = np.arange(idx.shape[0])
    x_idx = idx[rows, pick]
    idx[rows, pick] = idx[:, t - 1]
    # Positions index each row's own pool within the pools laid end to end.
    start = np.repeat(np.cumsum(sizes) - sizes, counts)
    flat = np.concatenate(pools)
    t_all = flat[idx[:, :t - 1] + start[:, None]]
    x_all = flat[x_idx + start]
    ends = np.cumsum(counts).tolist()
    return [(t_all[e - c:e], x_all[e - c:e]) for c, e in zip(counts, ends)]


def draw_block_and_probe(rng: np.random.Generator, pool: np.ndarray, t: int,
                         count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` (T, x) pairs from one pool: the one-trial case of
    :func:`draw_blocks`."""
    return draw_blocks([rng], [pool], t, [count])[0]


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
    return float(np.mean(gains >= tau))


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
    # The block-size scan of the current outer round: the latest probe.
    t: int = 1
    mu: float | None = None
    estimates: list[tuple[int, float]] = field(default_factory=list)


def lockstep_threshold_sampling(
        f: Objective, params: Sequence[ThresholdParams],
        rngs: Sequence[np.random.Generator],
        ledgers: Sequence[QueryLedger] | None = None) -> list[SamplingOutcome]:
    """Run one sampler per (params[i], rngs[i], ledgers[i]), in lockstep.

    Each trial is exactly the sampler :func:`threshold_sampling` describes,
    with its own generator and ledger; running the trials together changes
    no trial's random stream, rounds, queries or result. Each outer round
    issues one filter round for all live trials, then the block-size scan
    step by step: at each step every trial still scanning draws its samples
    from its own generator, and all those estimates go out as one grouped
    paired-gain round (one round on each trial's ledger). The whole-set
    rounds (f(empty) and each updated f(S)) stay one call per trial.
    """
    if ledgers is None:
        ledgers = [QueryLedger() for _ in params]
    trials = []
    for p, rng, ledger in zip(params, rngs, ledgers):
        s = np.empty(0, dtype=np.int64)
        f_empty = float(evaluate_batch(f, [s], ledger)[0])
        ledger.record_value(f_empty)
        trials.append(_Trial(params=p, d=p.derive(f.n), rng=rng, ledger=ledger,
                             s=s, f_s=f_empty, f_empty=f_empty,
                             pool=np.arange(f.n, dtype=np.int64), snapshots=[]))

    outer = 0
    live = trials
    while live:
        outer += 1
        for tr in live:
            if outer > tr.d.r:
                tr.reason = BreakReason.EXHAUSTED_ROUNDS
        live = [tr for tr in live if tr.reason is None]
        if not live:
            break
        filtered = paired_gain_round(f, [GainGroup(tr.s, None, tr.pool, tr.ledger, tr.f_s)
                                         for tr in live])
        scanning = []
        for tr, gains in zip(live, filtered):
            # Members of s gain exactly 0.0, so at tau = 0 they pass the filter.
            tr.pool = np.setdiff1d(tr.pool[gains >= tr.params.tau], tr.s,
                                   assume_unique=True)
            tr.snapshots.append({"round": outer, "a": tr.pool, "s": tr.s,
                                 "t": None, "mu": None, "estimates": []})
            if tr.pool.size == 0:
                tr.reason = BreakReason.EMPTY_A
            elif tr.params.break_size is not None and tr.pool.size < tr.params.break_size:
                tr.reason = BreakReason.SMALL_A
            else:
                tr.estimates = []
                scanning.append(tr)

        _scan(f, scanning)

        for tr in live:
            if tr.reason is not None:
                continue
            block = sample_without_replacement(tr.rng, tr.pool,
                                               min(tr.t, tr.params.k - tr.s.size))
            tr.s = np.union1d(tr.s, block)
            tr.f_s = float(evaluate_batch(f, [tr.s], tr.ledger)[0])
            tr.ledger.record_value(tr.f_s)
            tr.snapshots[-1].update(s=tr.s, t=tr.t, mu=tr.mu, estimates=tr.estimates)
            if tr.s.size == tr.params.k:
                tr.reason = BreakReason.FULL_S
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


def _scan(f: Objective, trials: list[_Trial]) -> None:
    """The block-size scan of one outer round, for every trial at once.

    A trial probes t_i = min(floor((1 + eps_hat)^i), |pool|) for i = 0..m
    and stops at the first estimate at or below 1 - 1.5 eps_hat. An i whose
    block size repeats the previous one would probe the identical
    distribution, so it reuses that estimate and costs no round: a trial's
    probes are the distinct t_i, and step j of the lockstep issues the j-th
    probe of every trial still scanning, as one grouped round.
    """
    probes = {tr: _probes(tr.d, tr.pool.size) for tr in trials}
    step = 0
    while trials:
        by_t: dict[int, list[_Trial]] = {}
        for tr in trials:
            tr.t = probes[tr][step]
            by_t.setdefault(tr.t, []).append(tr)
        draws = {}
        for t, group in by_t.items():
            draws.update(zip(group, draw_blocks([tr.rng for tr in group],
                                                [tr.pool for tr in group], t,
                                                [tr.d.ell for tr in group])))
        gains = paired_gain_round(f, [GainGroup(tr.s, *draw, tr.ledger)
                                      for tr, draw in draws.items()])
        step += 1
        scanning = []
        for tr, g in zip(draws, gains):
            tr.mu = float(np.mean(g >= tr.params.tau))
            tr.estimates.append((tr.t, tr.mu))
            if tr.mu > 1.0 - 1.5 * tr.d.eps_hat and step < len(probes[tr]):
                scanning.append(tr)
        trials = scanning


def threshold_sampling(f: Objective, params: ThresholdParams,
                       rng: np.random.Generator,
                       ledger: QueryLedger | None = None) -> SamplingOutcome:
    """Run the sampler to completion and return (solution, surviving pool).

    Round structure: one initial round evaluates f(empty); each outer round is
    one filter round, the estimate rounds of the block-size scan, and one
    round to evaluate the updated solution (which is what makes the final
    value available downstream without fresh queries). Both kinds of
    evaluation round record their value on the ledger. Scan iterations whose
    block size repeats the previous one reuse its estimate, since they would
    probe the identical distribution. The one-trial case of
    :func:`lockstep_threshold_sampling`.
    """
    return lockstep_threshold_sampling(
        f, [params], [rng], None if ledger is None else [ledger])[0]


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

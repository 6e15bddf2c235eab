"""Threshold sampling: filter candidates by marginal gain, add random blocks.

Given a threshold tau, the sampler repeatedly discards candidates whose gain
over the current solution falls below tau, estimates the largest block size t
whose random insertions still clear tau with frequency near 1, and adds a
uniform random t-block. An optional break_size turns it into the early-exit
variant that stops as soon as the candidate pool gets small, which caps every
element's inclusion probability. The solution and the candidate pool are
both sorted, duplicate-free int64 arrays, from the first round to the
returned outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .oracle import (
    Objective,
    QueryLedger,
    batch_marginals,
    batch_pair_gains,
    check_params,
    evaluate_batch,
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


def draw_block_and_probe(rng: np.random.Generator, pool: np.ndarray, t: int,
                         count: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` independent (T, x) pairs: T uniform over (t-1)-subsets
    of pool, then x uniform over the rest.

    Each row picks a uniform t-subset of pool positions with Floyd's algorithm
    (Bentley & Floyd, CACM 1987), vectorized over rows: column i draws r from
    [0, P-t+i] and takes P-t+i instead when r is already among the row's
    earlier columns. One more integer per row picks which of the t elements
    is x, so a uniform t-set with a uniform x gives exactly the pair law
    above. That is t+1 random integers per row and O(count*t) memory,
    whatever the pool size. Returns (t_mat of shape (count, t-1), xs).
    """
    size = pool.size
    if not 1 <= t <= size:
        raise ValueError(f"t must lie in [1, {size}], got {t}")
    idx = rng.integers(np.arange(size - t + 1, size + 1), size=(count, t))
    for i in range(1, t):
        seen = (idx[:, :i] == idx[:, i:i + 1]).any(axis=1)
        idx[seen, i] = size - t + i
    rows = np.arange(count)
    pick = rng.integers(t, size=count)
    x_idx = idx[rows, pick]
    idx[rows, pick] = idx[:, t - 1]
    return pool[idx[:, :t - 1]], pool[x_idx]


def estimate_mean(f: Objective, s: np.ndarray, pool: np.ndarray, t: int,
                  tau: float, ell: int, rng: np.random.Generator,
                  ledger: QueryLedger) -> float:
    """Mean of ell indicator samples, all issued in one adaptive round.

    Each sample asks whether the t-th random insertion from the sorted int64
    candidate array ``pool`` into the sorted int64 array s clears tau, at two oracle evaluations.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    t_mat, xs = draw_block_and_probe(rng, pool, t, ell)
    gains = batch_pair_gains(f, s, t_mat, xs, ledger)
    return float(np.mean(gains >= tau))


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
    probe the identical distribution.
    """
    n = f.n
    d = params.derive(n)
    if ledger is None:
        ledger = QueryLedger()

    s = np.empty(0, dtype=np.int64)
    f_empty = float(evaluate_batch(f, [s], ledger)[0])
    ledger.record_value(f_empty)
    f_s = f_empty
    pool = np.arange(n, dtype=np.int64)
    snapshots: list[dict] = []
    reason = BreakReason.EXHAUSTED_ROUNDS

    for outer in range(1, d.r + 1):
        gains = batch_marginals(f, s, pool, f_s, ledger)
        # Members of s gain exactly 0.0, so at tau = 0 they pass the filter.
        pool = np.setdiff1d(pool[gains >= params.tau], s, assume_unique=True)
        snap = {"round": outer, "a": pool, "s": s, "t": None, "mu": None,
                "estimates": []}
        snapshots.append(snap)
        if pool.size == 0:
            reason = BreakReason.EMPTY_A
            break
        if params.break_size is not None and pool.size < params.break_size:
            reason = BreakReason.SMALL_A
            break

        t = 1
        mu = None
        last_t = -1
        estimates: list[tuple[int, float]] = []
        for i in range(d.m + 1):
            t_i = min(int((1.0 + d.eps_hat) ** i), int(pool.size))
            if t_i == last_t:
                continue
            last_t = t_i
            t = t_i
            mu = estimate_mean(f, s, pool, t_i, params.tau, d.ell, rng, ledger)
            estimates.append((t_i, mu))
            if mu <= 1.0 - 1.5 * d.eps_hat:
                break

        block = sample_without_replacement(rng, pool, min(t, params.k - s.size))
        s = np.union1d(s, block)
        f_s = float(evaluate_batch(f, [s], ledger)[0])
        ledger.record_value(f_s)
        snap.update(s=s, t=t, mu=mu, estimates=estimates)
        if s.size == params.k:
            reason = BreakReason.FULL_S
            break

    return SamplingOutcome(s=s, a=pool, break_reason=reason,
                           ledger=ledger, f_s=f_s, f_empty=f_empty,
                           snapshots=snapshots)


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

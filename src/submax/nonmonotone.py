"""Cardinality-constrained non-monotone maximization over a threshold grid.

Runs the early-exit threshold sampler at logarithmically many thresholds
bracketing the optimum scale (all logically in parallel), falls back to
unconstrained maximization on the surviving pool whenever the sampler exits
because the pool got small, trims oversized fallbacks by uniform downsampling
and a best-prefix pass, and returns the best set seen anywhere. Every set
here, fallback sets and the returned one included, is a sorted,
duplicate-free int64 array.

Reported adaptivity is the maximum over threshold trials plus one round for
the initial sweep; reported queries are summed over trials. The returned
ledger is built that way as the run goes: the sweep of f(empty) and every
singleton is its round 1, and the trial ledgers are appended with
``extend_parallel``, which also carries each round's best value. The sweep
serves every trial: it gives delta*, and each trial reads its first filter
off it, so no trial ledger holds an f(empty) round or a first-filter round.
A trial that stops on that first filter without a fallback has a ledger
with no rounds at all.

The threshold trials run in lockstep (``lockstep_threshold_sampling``): their
paired-gain queries of one round go to the objective's kernel together, while
each trial keeps its own random stream and ledger, so every trial is the run
``threshold_sampling`` would make alone, with that run's round 1 (the same
sweep) removed. A trial's fallback chain then continues on that trial's
stream.

The trade-off constants C1 = 1/7 and C3 = 3 are fixed by the analysis for
this module's one-round unconstrained subroutine, whose approximation factor
is 1/4: thresholds scale with C1, and a trial falls back once its pool holds
fewer than C3 * k elements. A stronger (1/2 - eps) unconstrained routine
would pair with c1 = 0.198989, c3 = 3.556; that is a different algorithm,
not a setting of this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import (
    Objective,
    QueryLedger,
    check_params,
    prefix_round,
    sample_without_replacement,
    singleton_round,
    spawn_seeds,
)
from .threshold import (
    BreakReason,
    SamplingOutcome,
    ThresholdParams,
    lockstep_threshold_sampling,
)
from .unconstrained import UnconstrainedParams, unconstrained_max


C1 = 1.0 / 7.0  # scale of the threshold grid, relative to delta* / k
C3 = 3.0  # the sampler breaks for the fallback once |pool| < C3 * k


@dataclass(frozen=True)
class DerivedNonmonotoneValues:
    eps_hat: float
    r: int
    delta_hat: float
    break_size: int


@dataclass(frozen=True)
class NonmonotoneParams:
    """Inputs for one full run.

    sample_override, when set, pins each threshold trial's per-estimate
    sample count (see ThresholdParams).
    """

    k: int
    eps: float
    delta: float
    sample_override: int | None = None

    def __post_init__(self):
        check_params(**vars(self))

    def derive(self) -> DerivedNonmonotoneValues:
        eps_hat = self.eps / 6.0
        r = math.ceil(2.0 * math.log(self.k) / eps_hat)
        delta_hat = self.delta / (2.0 * (r + 1))
        return DerivedNonmonotoneValues(eps_hat=eps_hat, r=r, delta_hat=delta_hat,
                                        break_size=math.ceil(C3 * self.k))


@dataclass
class ThresholdTrial:
    """One threshold's full story: sampler outcome plus any fallback sets.

    The unconstrained fields are populated exactly when the sampler exited
    with break_reason small_A.
    """

    index: int
    tau: float
    outcome: SamplingOutcome
    unconstrained_set: np.ndarray | None = None
    downsampled: np.ndarray | None = None
    prefix_set: np.ndarray | None = None
    prefix_value: float | None = None


def max_singleton(f: Objective, ledger: QueryLedger) -> float:
    """Largest single-element value, via ANM's round 1: f(empty) and every
    singleton, n + 1 queries (``oracle.singleton_round``)."""
    return float(singleton_round(f, ledger)[1:].max())


def downsample(u: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform k-subset of the sorted array u when it is oversized, otherwise
    u unchanged."""
    if u.size <= k:
        return u
    return np.sort(sample_without_replacement(rng, u, k))


def best_prefix(f: Objective, u_prime: np.ndarray, rng: np.random.Generator,
                ledger: QueryLedger) -> tuple[np.ndarray, float]:
    """Best prefix of a uniform random ordering of u_prime, with its value.

    Evaluates the empty prefix and all |u_prime| nonempty prefixes in one
    adaptive round and records the best value on the ledger; ties go to the
    shortest prefix.
    """
    return prefix_round(f, u_prime[rng.permutation(u_prime.size)], ledger)


def threshold_grid(delta_star: float, params: NonmonotoneParams) -> list[float]:
    """The geometric threshold grid C1 * (1+eps_hat)^i * delta_star / k."""
    d = params.derive()
    return [C1 * (1.0 + d.eps_hat) ** i * delta_star / params.k
            for i in range(d.r + 1)]


def adaptive_nonmonotone_max(
        f: Objective, params: NonmonotoneParams,
        seed: int | np.random.SeedSequence,
) -> tuple[np.ndarray, QueryLedger, list[ThresholdTrial]]:
    """Full run: the sweep of f(empty) and every singleton, parallel
    threshold trials, final argmax.

    Takes a seed rather than a generator so each trial can own an independent
    stream derived by mixing its index; the whole run is reproducible and the
    trials could execute concurrently. The final argmax reuses values paid for
    when each candidate set was formed, so it costs no fresh queries. An int
    seed must be >= 0 (ParamError otherwise); a SeedSequence is used as given.
    """
    if not isinstance(seed, np.random.SeedSequence):
        check_params(seed=seed)
    d = params.derive()
    ledger = QueryLedger()
    sweep = singleton_round(f, ledger)
    delta_star = float(sweep[1:].max())
    if delta_star <= 0.0:
        return np.empty(0, dtype=np.int64), ledger, []

    taus = threshold_grid(delta_star, params)
    rngs = [np.random.default_rng(s) for s in spawn_seeds(seed, len(taus))]
    outcomes = lockstep_threshold_sampling(
        f, ThresholdParams(k=params.k, tau=taus[0], eps=d.eps_hat, delta=d.delta_hat,
                           break_size=d.break_size, sample_override=params.sample_override),
        taus, rngs, sweep)
    unc_params = UnconstrainedParams(eps=d.eps_hat, delta=d.delta_hat)
    trials: list[ThresholdTrial] = []
    for i, (tau, outcome, rng) in enumerate(zip(taus, outcomes, rngs)):
        trial = ThresholdTrial(index=i, tau=tau, outcome=outcome)
        if outcome.break_reason is BreakReason.SMALL_A:
            led = outcome.ledger
            trial.unconstrained_set = unconstrained_max(f, outcome.a, unc_params,
                                                        rng, led)
            trial.downsampled = downsample(trial.unconstrained_set, params.k, rng)
            trial.prefix_set, trial.prefix_value = best_prefix(
                f, trial.downsampled, rng, led)
        trials.append(trial)

    best = np.empty(0, dtype=np.int64)
    best_value = trials[0].outcome.f_empty
    for trial in trials:
        if trial.outcome.f_s > best_value:
            best, best_value = trial.outcome.s, trial.outcome.f_s
        if trial.prefix_value is not None and trial.prefix_value > best_value:
            best, best_value = trial.prefix_set, trial.prefix_value

    ledger.extend_parallel([t.outcome.ledger for t in trials])
    return best, ledger, trials

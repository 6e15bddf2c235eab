"""Cardinality-constrained non-monotone maximization over a threshold grid.

Runs the early-exit threshold sampler at logarithmically many thresholds
bracketing the optimum scale (all logically in parallel), falls back to
unconstrained maximization on the surviving pool whenever the sampler exits
because the pool got small, trims oversized fallbacks by uniform downsampling
and a best-prefix pass, and returns the best set seen anywhere. Every set
here, fallback sets and the returned one included, is a sorted,
duplicate-free int64 array.

Reported adaptivity is the maximum over threshold trials plus one round for
the initial singleton sweep; reported queries are summed over trials. The
returned ledger is built that way as the run goes: the singleton sweep is its
round 1, and the trial ledgers are appended with ``extend_parallel``, which
also carries each round's best value.

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
    evaluate_batch,
    prefix_round,
    sample_without_replacement,
    spawn_seeds,
)
from .threshold import (
    BreakReason,
    SamplingOutcome,
    ThresholdParams,
    threshold_sampling,
)
from .unconstrained import UnconstrainedParams, unconstrained_max


C1 = 1.0 / 7.0  # scale of the threshold grid, relative to delta* / k
C3 = 3.0  # the sampler breaks for the fallback once |pool| < C3 * k


class ParamError(ValueError):
    """A parameter outside its range: ``field`` names it, ``value`` is what
    was given and ``rule`` the range it broke."""

    def __init__(self, field: str, value, rule: str):
        super().__init__(f"{field} {rule}, got {value}")
        self.field, self.value, self.rule = field, value, rule


@dataclass(frozen=True)
class DerivedNonmonotoneValues:
    eps_hat: float
    r: int
    delta_hat: float
    break_size: int


@dataclass
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
        if self.k < 1:
            raise ParamError("k", self.k, "must be >= 1")
        if not 0.0 < self.eps < 1.0:
            raise ParamError("eps", self.eps, "must lie in (0,1)")
        if not 0.0 < self.delta < 1.0:
            raise ParamError("delta", self.delta, "must lie in (0,1)")
        if self.sample_override is not None and self.sample_override < 1:
            raise ParamError("sample_override", self.sample_override,
                             "must be >= 1 when set")

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
    """Largest single-element value, via one round of n singleton queries."""
    best = float(evaluate_batch(f, np.eye(f.n, dtype=bool), ledger).max())
    ledger.record_value(best)
    return best


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
    """Full run: singleton sweep, parallel threshold trials, final argmax.

    Takes a seed rather than a generator so each trial can own an independent
    stream derived by mixing its index; the whole run is reproducible and the
    trials could execute concurrently. The final argmax reuses values paid for
    when each candidate set was formed, so it costs no fresh queries.
    """
    d = params.derive()
    ledger = QueryLedger()
    delta_star = max_singleton(f, ledger)
    if delta_star <= 0.0:
        return np.empty(0, dtype=np.int64), ledger, []

    taus = threshold_grid(delta_star, params)
    trial_seeds = spawn_seeds(seed, len(taus))
    unc_params = UnconstrainedParams(eps=d.eps_hat, delta=d.delta_hat)
    trials: list[ThresholdTrial] = []
    for i, tau in enumerate(taus):
        rng = np.random.default_rng(trial_seeds[i])
        led = QueryLedger()
        tp = ThresholdParams(k=params.k, tau=tau, eps=d.eps_hat,
                             delta=d.delta_hat, break_size=d.break_size,
                             sample_override=params.sample_override)
        outcome = threshold_sampling(f, tp, rng, ledger=led)
        trial = ThresholdTrial(index=i, tau=tau, outcome=outcome)
        if outcome.break_reason is BreakReason.SMALL_A:
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

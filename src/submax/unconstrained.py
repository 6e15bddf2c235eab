"""Unconstrained maximization by the best of several uniform random subsets.

Draws a batch of independent subsets (each element kept with probability 1/2,
i.e. uniform over the power set of the pool), evaluates them all in a single
adaptive round, and returns the best one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .oracle import (
    Objective,
    QueryLedger,
    _as_index_array,
    check_params,
    evaluate_batch,
    pool_masks,
)


@dataclass
class UnconstrainedParams:
    """Error/failure targets; t is the derived number of random draws."""

    eps: float
    delta: float

    def __post_init__(self):
        check_params(**vars(self))
        if self.eps > 0.25:
            # The query-complexity inequality log(1+(4/3)eps) >= 2eps/3 needs
            # eps <= 1/4; larger values still run but lose that bound.
            warnings.warn(f"eps={self.eps} > 0.25 weakens the query bound",
                          stacklevel=2)

    @property
    def t(self) -> int:
        return math.ceil(math.log(1.0 / self.delta)
                         / math.log(1.0 + (4.0 / 3.0) * self.eps))


def unconstrained_max(f: Objective, pool, params: UnconstrainedParams,
                      rng: np.random.Generator, ledger: QueryLedger) -> np.ndarray:
    """Best of t uniform random subsets of pool, in one adaptive round.

    pool is a duplicate-free index collection; an int64 array, such as a
    sampler's surviving pool, is used as it is. Returns the best subset as a
    sorted int64 array; ties go to the first subset drawn.
    """
    pool = _as_index_array(pool)
    if pool.size == 0:
        raise ValueError("the candidate pool must be nonempty")
    draws = rng.random((params.t, pool.size)) < 0.5
    values = evaluate_batch(f, pool_masks(f, pool, draws), ledger)
    return np.sort(pool[draws[int(np.argmax(values))]])

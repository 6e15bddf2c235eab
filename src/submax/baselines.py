"""Reference algorithms for benchmark comparisons: greedy, random prefix,
and a randomized lazy greedy.

Each records the value of its solution on the ledger
(``QueryLedger.record_value``) after the round that produced it, so
``ledger.values`` traces value against adaptive rounds, and returns its
solution as a sorted int64 array.
"""

from __future__ import annotations

import numpy as np

from .oracle import (
    Objective,
    QueryLedger,
    batch_marginals,
    check_params,
    evaluate_batch,
    prefix_round,
)


def greedy(f: Objective, k: int, ledger: QueryLedger) -> np.ndarray:
    """Add the element with maximum positive gain each round, up to k picks.

    One initial round evaluates the empty set; each selection round is one
    fresh batch of marginals over the remaining elements (ties go to the
    lowest index). Stops early once no strictly positive gain remains, so a
    full run costs |output| + 1 rounds and at most n*k + n queries.
    """
    check_params(k=k)
    s = np.empty(0, dtype=np.int64)
    f_s = float(evaluate_batch(f, [s], ledger)[0])
    ledger.record_value(f_s)
    remaining = np.arange(f.n, dtype=np.int64)
    for _ in range(min(k, f.n)):
        gains = batch_marginals(f, s, remaining, f_s, ledger)
        best = int(np.argmax(gains))
        if gains[best] <= 0.0:
            break
        s = np.union1d(s, remaining[best:best + 1])
        f_s += float(gains[best])
        remaining = np.delete(remaining, best)
        ledger.record_value(f_s)
        if remaining.size == 0:
            break
    return s


def random_prefix(f: Objective, k: int, rng: np.random.Generator,
                  ledger: QueryLedger) -> np.ndarray:
    """Best prefix (lengths 0..k) of one uniform random ground-set ordering.

    All k+1 prefixes are evaluated in a single adaptive round; ties go to the
    shortest prefix.
    """
    check_params(k=k)
    return prefix_round(f, rng.permutation(f.n)[:k], ledger)[0]


def random_lazy_greedy(f: Objective, k: int, eps: float | None,
                       rng: np.random.Generator, ledger: QueryLedger) -> np.ndarray:
    """Each round, pick uniformly among the k highest positive marginals.

    Marginals are maintained lazily: cached gains are upper bounds under
    diminishing returns, and only stale bounds that reach the current top-k
    get refreshed (in batched waves, one round per wave). The refresh is
    exact, so eps plays no role; it stays in the signature only because the
    benchmark workloads pass it by position, and other callers pass None.
    """
    check_params(k=k)
    del eps
    n = f.n
    # Round 1: empty set plus all singletons, which seeds every bound fresh.
    values = evaluate_batch(f, np.eye(n + 1, n, -1, dtype=bool), ledger)
    f_s = float(values[0])
    bounds = np.asarray(values[1:], dtype=np.float64) - f_s
    fresh = np.ones(n, dtype=bool)
    chosen = np.zeros(n, dtype=bool)
    ledger.record_value(f_s)

    s = np.empty(0, dtype=np.int64)
    while s.size < k:
        candidates = np.flatnonzero(~chosen)
        if candidates.size == 0:
            break
        while True:
            top = candidates[np.argsort(-bounds[candidates], kind="stable")[:k]]
            stale = top[~fresh[top]]
            if stale.size == 0:
                break
            bounds[stale] = batch_marginals(f, s, stale, f_s, ledger)
            fresh[stale] = True
        pool = top[bounds[top] > 0.0]  # the refresh left every top bound fresh
        if pool.size == 0:
            break
        pick = int(pool[int(rng.integers(pool.size))])
        f_s += float(bounds[pick])
        s = np.union1d(s, [pick])
        chosen[pick] = True
        fresh[:] = chosen  # every unchosen bound is stale once the solution grows
        ledger.record_value(f_s)
    return s

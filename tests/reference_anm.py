"""AdaptiveNonmonotoneMax in its plainest form, as a reference for the fast one.

The sweep of f(empty) and every singleton, then one threshold trial at a
time, each to the end of its fallback chain, then the argmax. Every estimate
is one metered ``batch_pair_gains`` call, every filter one
``batch_marginals`` call beside a one-row ``evaluate_batch`` for f(S), and
every other whole-set round one ``evaluate_batch`` call, each on a scratch
ledger; the trial's own ledger is then written by hand, one round per
adaptive round of the algorithm. Block draws are numpy's own array-bound
draws followed by Floyd's pass, and sets grow with ``np.union1d``. Only the
objectives and these public entry points are shared with ``submax``'s
orchestration code.

A whole-set value may depend on the batch it is asked in (ROADMAP item 9),
so each one is asked in the batch the algorithm asks it in: the (n + 1)-row
sweep, a one-row f(S), the t random subsets, the prefixes.
"""

from __future__ import annotations

import math

import numpy as np

from submax import (
    QueryLedger,
    batch_marginals,
    batch_pair_gains,
    evaluate_batch,
    spawn_seeds,
)

C1, C3 = 1.0 / 7.0, 3.0


def _subset(rng, items, size):
    """A partial Fisher-Yates shuffle: swap i takes position i + j_i, with
    every j_i from one draw."""
    items = list(items)
    steps = np.arange(size)
    for i, j in enumerate((steps + rng.integers(len(items) - steps)).tolist()):
        items[i], items[j] = items[j], items[i]
    return np.array(items[:size], dtype=np.int64)


def _blocks(rng, pool, t, count):
    """count (T, x) pairs: a uniform t-subset of pool positions by Floyd's
    pass over numpy's bounded draws, then a uniform pick of x among them."""
    size = pool.size
    idx = rng.integers(np.arange(size - t + 1, size + 1), size=(count, t))
    pick = rng.integers(t, size=count)
    for i in range(1, t):
        seen = (idx[:, :i] == idx[:, i:i + 1]).any(axis=1)
        idx[seen, i] = size - t + i
    rows = np.arange(count)
    x_idx = idx[rows, pick]
    idx[rows, pick] = idx[:, t - 1]
    return pool[idx[:, :t - 1]], pool[x_idx]


def _whole_set(f, masks):
    return evaluate_batch(f, masks, QueryLedger())


def _one_trial(f, sweep, tau, k, eps, delta, ell, break_size, rng):
    """One early-exit threshold sampler from the sweep, then its fallback.
    Returns (s, f_s, reason, ledger, estimates per outer round, prefix)."""
    n = f.n
    eps_hat = eps / 3.0
    r = math.ceil(math.log(2.0 * n / delta) / math.log(1.0 / (1.0 - eps_hat)))
    m = math.ceil(math.log(k) / eps_hat)
    led = QueryLedger()
    s = np.empty(0, dtype=np.int64)
    f_s = float(sweep[0])
    pool = np.flatnonzero(sweep[1:] - sweep[0] >= tau)
    reason, scans = None, []
    for outer in range(1, r + 1):
        if outer > 1:  # the filter, with f(S) of the last update
            f_s = float(_whole_set(f, [s])[0])
            gains = batch_marginals(f, s, pool, f_s, QueryLedger())
            led.add_round(pool.size + 1)
            led.record_value(f_s)
            pool = pool[gains >= tau]
            if tau == 0:
                pool = np.setdiff1d(pool, s)
        if pool.size == 0:
            reason = "empty_A"
            break
        if pool.size < break_size:
            reason = "small_A"
            break
        probes = sorted({min(int((1.0 + eps_hat) ** i), pool.size) for i in range(m + 1)})
        estimates = []
        for t in probes:
            t_mat, xs = _blocks(rng, pool, t, ell)
            gains = batch_pair_gains(f, s, t_mat, xs, QueryLedger())
            led.add_round(2 * ell, logical_samples=ell)
            estimates.append((t, np.count_nonzero(gains >= tau) / ell))
            if estimates[-1][1] <= 1.0 - 1.5 * eps_hat:
                break
        scans.append(estimates)
        s = np.union1d(s, _subset(rng, pool, min(t, k - s.size)))
        if s.size == k or outer == r:
            reason = "full_S" if s.size == k else "exhausted_rounds"
            f_s = float(_whole_set(f, [s])[0])
            led.add_round(1)
            led.record_value(f_s)
            break
    prefix = None
    if reason == "small_A":  # best of random subsets, downsampled, best prefix
        draws = rng.random((math.ceil(math.log(1.0 / delta)
                                      / math.log(1.0 + (4.0 / 3.0) * eps)), pool.size)) < 0.5
        masks = np.zeros((draws.shape[0], n), dtype=bool)
        masks[:, pool] = draws
        values = _whole_set(f, masks)
        led.add_round(masks.shape[0])  # records no value
        u = np.sort(pool[draws[int(np.argmax(values))]])
        if u.size > k:
            u = np.sort(_subset(rng, u, k))
        order = u[rng.permutation(u.size)]
        masks = np.zeros((order.size + 1, n), dtype=bool)
        masks[:, order] = np.tri(order.size + 1, order.size, -1, dtype=bool)
        values = _whole_set(f, masks)
        led.add_round(masks.shape[0])
        best = int(np.argmax(values))
        led.record_value(values[best])
        prefix = (np.sort(order[:best]), float(values[best]))
    return s, f_s, reason, led, scans, prefix


def reference_anm(f, k, eps, delta, samples, seed):
    """(best set, ledger, [(s, f_s, reason, ledger, scans, prefix) per trial]),
    as ``adaptive_nonmonotone_max(f, NonmonotoneParams(k, eps, delta,
    samples), seed)`` should give them."""
    eps_hat = eps / 6.0
    r = math.ceil(2.0 * math.log(k) / eps_hat)
    delta_hat = delta / (2.0 * (r + 1))
    ledger = QueryLedger()
    sweep = evaluate_batch(f, np.eye(f.n + 1, f.n, -1, dtype=bool), ledger)
    ledger.record_value(sweep.max())
    delta_star = float(sweep[1:].max())
    if delta_star <= 0.0:
        return np.empty(0, dtype=np.int64), ledger, []
    taus = [C1 * (1.0 + eps_hat) ** i * delta_star / k for i in range(r + 1)]
    trials = [_one_trial(f, sweep, tau, k, eps_hat, delta_hat, samples,
                         math.ceil(C3 * k), np.random.default_rng(child))
              for tau, child in zip(taus, spawn_seeds(seed, len(taus)))]

    best, best_value = np.empty(0, dtype=np.int64), float(sweep[0])
    for s, f_s, _, _, _, prefix in trials:
        if f_s > best_value:
            best, best_value = s, f_s
        if prefix is not None and prefix[1] > best_value:
            best, best_value = prefix
    # Round j after the sweep holds every trial's round j.
    ledgers = [trial[3] for trial in trials]
    offset = ledger.rounds
    for j in range(max(led.rounds for led in ledgers)):
        ledger.add_round(sum(led.per_round[j][1] for led in ledgers if led.rounds > j))
    ledger.logical_samples += sum(led.logical_samples for led in ledgers)
    for led in ledgers:
        for rnd, value in led.values.items():
            ledger.values[offset + rnd] = max(value, ledger.values.get(offset + rnd, -np.inf))
    return best, ledger, trials

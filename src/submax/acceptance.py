"""Acceptance suites: statistical and exhaustive checks of every guarantee.

Each suite runs a self-contained experiment at pinned parameters and returns
a :class:`SuiteResult` with one verdict line per checked condition. The
pytest acceptance module and the CLI ``accept`` subcommand both dispatch
through :func:`run_acceptance`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .baselines import greedy, random_prefix
from .nonmonotone import NonmonotoneParams, adaptive_nonmonotone_max
from .objectives import (
    brute_force_opt,
    check_submodularity,
    generate_synthetic,
    make_random_coverage,
)
from .oracle import QueryLedger, evaluate_offline, make_rng
from .threshold import (
    BreakReason,
    ThresholdParams,
    threshold_sampling,
    verify_termination_marginals,
)
from .unconstrained import UnconstrainedParams, unconstrained_max


@dataclass
class SuiteResult:
    name: str
    passed: bool = True
    lines: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def check(self, ok: bool, text: str) -> None:
        self.passed = self.passed and bool(ok)
        self.lines.append(f"[{'PASS' if ok else 'FAIL'}] {text}")

    def note(self, text: str) -> None:
        self.lines.append(f"       {text}")


def _offline_singleton_max(f) -> float:
    return max(evaluate_offline(f, [x]) for x in range(f.n))


# ---------------------------------------------------------------------------
# 1. termination marginals of the unmodified sampler


def suite_lemma2(seed: int = 0) -> SuiteResult:
    """Runs ending with an empty pool and |S| < k leave every gain below tau."""
    res = SuiteResult("lemma2")
    f = make_random_coverage(n=50, groups=12, seed=11, big_elements=5,
                             big_scale=10.0)
    tau = 5.0
    params = ThresholdParams(k=10, tau=tau, eps=0.25, delta=0.05)
    derived = params.derive(f.n)
    res.note(f"theoretical sample count ell={derived.ell} "
             f"(r={derived.r}, m={derived.m})")
    runs, qualifying, failures = 200, 0, 0
    for i in range(runs):
        out = threshold_sampling(f, params, make_rng(seed + i))
        if out.break_reason is BreakReason.EMPTY_A and len(out.s) < params.k:
            qualifying += 1
            if not verify_termination_marginals(f, out, tau):
                failures += 1
    allowed = math.floor(0.05 * runs) + 3
    res.check(qualifying > 0, f"qualifying runs (empty pool, |S|<k): "
                              f"{qualifying}/{runs}")
    res.check(failures <= allowed,
              f"termination-marginal failures {failures} <= allowed {allowed}")
    res.metrics.update(qualifying=qualifying, failures=failures, allowed=allowed)
    return res


# ---------------------------------------------------------------------------
# 2. average marginal of the returned set


def suite_corollary6(seed: int = 0) -> SuiteResult:
    """Mean of f(S) - (1-2*eps_hat)*tau*|S| stays above -2 standard errors."""
    res = SuiteResult("corollary6")
    inst = generate_synthetic("synthetic-cut", n=50, param=0.12, seed=23)
    f = inst.objective()
    delta_star = _offline_singleton_max(f)
    k, eps, delta = 10, 0.75, 0.1
    tau = delta_star / k
    params = ThresholdParams(k=k, tau=tau, eps=eps, delta=delta)
    eps_hat = params.derive(f.n).eps_hat
    runs = 1000
    slack = np.empty(runs)
    for i in range(runs):
        out = threshold_sampling(f, params, make_rng(seed + i))
        slack[i] = out.f_s - (1.0 - 2.0 * eps_hat) * tau * len(out.s)
    mean, se = float(slack.mean()), float(slack.std(ddof=1) / math.sqrt(runs))
    res.check(mean >= -2.0 * se,
              f"mean slack {mean:.4f} >= -2 SE ({-2 * se:.4f}) over {runs} runs")
    res.metrics.update(mean_slack=mean, se=se, tau=tau)
    return res


# ---------------------------------------------------------------------------
# 3. inclusion probability of the break variant


def suite_lemma7(seed: int = 0) -> SuiteResult:
    """With break size 3k, no element appears in S more than ~1/3 of the time."""
    res = SuiteResult("lemma7")
    inst = generate_synthetic("synthetic-cut", n=60, param=0.12, seed=31)
    f = inst.objective()
    k = 5
    delta_star = _offline_singleton_max(f)
    params = ThresholdParams(k=k, tau=0.6 * delta_star / k, eps=0.75,
                             delta=0.1, break_size=3 * k)
    runs = 1000
    counts = np.zeros(f.n)
    for i in range(runs):
        out = threshold_sampling(f, params, make_rng(seed + i))
        for x in out.s:
            counts[x] += 1
    freq = counts / runs
    bound = 1.0 / 3.0 + 3.0 * math.sqrt(0.33 * 0.67 / runs)
    worst = float(freq.max())
    res.check(worst <= bound,
              f"max inclusion frequency {worst:.4f} <= {bound:.4f} "
              f"across {f.n} elements, {runs} runs")
    res.metrics.update(worst_frequency=worst, bound=bound)
    return res


# ---------------------------------------------------------------------------
# 4. unconstrained maximization guarantee


def suite_lemma4(seed: int = 0) -> SuiteResult:
    """Best-of-t random subsets reaches (1/4 - eps) of the unconstrained OPT."""
    res = SuiteResult("lemma4")
    eps, delta, runs = 0.2, 0.1, 500
    params = UnconstrainedParams(eps=eps, delta=delta)
    instances = [
        ("revenue n=12", generate_synthetic("revenue", 12, 0.35, seed=3).objective()),
        ("cut n=14", generate_synthetic("synthetic-cut", 14, 0.3, seed=5).objective()),
        ("movie n=12", generate_synthetic("movie", 12, seed=7).objective()),
    ]
    threshold = (1.0 - delta) - 3.0 * math.sqrt(delta * (1.0 - delta) / runs)
    for label, f in instances:
        opt_set, opt = brute_force_opt(f, f.n)
        pool = np.arange(f.n, dtype=np.int64)
        hits = 0
        for i in range(runs):
            out = unconstrained_max(f, pool, params, make_rng(seed + i),
                                    QueryLedger())
            if evaluate_offline(f, out) >= (0.25 - eps) * opt:
                hits += 1
        freq = hits / runs
        res.check(freq >= threshold,
                  f"{label}: success rate {freq:.3f} >= {threshold:.3f} "
                  f"(OPT_A={opt:.4f} at {opt_set.tolist()})")
    return res


# ---------------------------------------------------------------------------
# 5. downsampling in expectation


def suite_lemma8(seed: int = 0) -> SuiteResult:
    """Exhaustively: average over all k-subsets of S is >= (k/|S|) f(S)."""
    res = SuiteResult("lemma8")
    instances = [
        ("image n=8", generate_synthetic("image", 8, seed=13).objective()),
        ("movie n=8", generate_synthetic("movie", 8, seed=17).objective()),
        ("revenue n=8", generate_synthetic("revenue", 8, 0.4, seed=19).objective()),
    ]
    rng = make_rng(seed)
    worst = 0.0
    cases = 0
    ok = True
    for label, f in instances:
        sets = [tuple(range(f.n))]
        for size in (6, 7):
            sets.append(tuple(sorted(rng.choice(f.n, size=size, replace=False))))
        for s in sets:
            f_s = evaluate_offline(f, s)
            for k in range(len(s) + 1):
                vals = [evaluate_offline(f, c)
                        for c in itertools.combinations(s, k)]
                gap = float(np.mean(vals)) - (k / len(s)) * f_s
                worst = min(worst, gap)
                cases += 1
                ok = ok and gap >= -1e-9
        res.check(ok, f"{label}: every (set, k) case within 1e-9")
    res.note(f"{cases} exhaustive cases checked, worst slack {worst:.2e}")
    res.metrics.update(cases=cases, worst_slack=worst)
    return res


# ---------------------------------------------------------------------------
# 6. end-to-end approximation floor


def suite_theorem5(seed: int = 0) -> SuiteResult:
    """Mean output value clears the clamped floor 0.01 * OPT per instance."""
    res = SuiteResult("theorem5")
    k, eps, delta, runs_each, n_instances = 4, 0.3, 0.1, 200, 20
    params = NonmonotoneParams(k=k, eps=eps, delta=delta, sample_override=100)
    ratios = []
    ok = True
    for j in range(n_instances):
        f = generate_synthetic("revenue", 12, 0.3, seed=1000 + j).objective()
        _, opt = brute_force_opt(f, k)
        if opt <= 0:
            continue
        vals = np.empty(runs_each)
        for i in range(runs_each):
            out, _, _ = adaptive_nonmonotone_max(f, params, seed * 100003 + j * 1009 + i)
            vals[i] = evaluate_offline(f, out)
        ratio = float(vals.mean() / opt)
        ratios.append(ratio)
        ok = ok and ratio >= 0.01
    res.check(ok and len(ratios) == n_instances,
              f"per-instance mean ratio >= 0.01 on all {len(ratios)} instances")
    res.note(f"measured mean-value/OPT ratios: min {min(ratios):.3f}, "
             f"mean {np.mean(ratios):.3f}, max {max(ratios):.3f}")
    res.metrics.update(min_ratio=min(ratios), mean_ratio=float(np.mean(ratios)))
    return res


# ---------------------------------------------------------------------------
# 7. order bound used to control the optimum split


def suite_appendix(seed: int = 0) -> SuiteResult:
    """f(S2*) - f(S2* + S) <= f(S*) - f(S* + S) exhaustively at n=8."""
    res = SuiteResult("appendix")
    del seed  # fully exhaustive; nothing is sampled
    instances = [
        ("image n=8", generate_synthetic("image", 8, seed=41).objective()),
        ("movie n=8", generate_synthetic("movie", 8, seed=43).objective()),
        ("revenue n=8", generate_synthetic("revenue", 8, 0.4, seed=47).objective()),
    ]
    for label, f in instances:
        n = f.n
        values = {}
        for size in range(n + 1):
            for combo in itertools.combinations(range(n), size):
                mask = sum(1 << b for b in combo)
                values[mask] = evaluate_offline(f, combo)
        star, _ = brute_force_opt(f, 3)
        star_mask = sum(1 << b for b in star.tolist())
        ok, worst = True, 0.0
        for a_mask in range(1 << n):
            s2_mask = star_mask & ~a_mask
            for s_mask in range(1 << n):
                lhs = values[s2_mask] - values[s2_mask | s_mask]
                rhs = values[star_mask] - values[star_mask | s_mask]
                gap = lhs - rhs
                worst = max(worst, gap)
                if gap > 1e-9:
                    ok = False
        res.check(ok, f"{label}: all {(1 << n) * (1 << n)} (A,S) pairs within "
                      f"1e-9 (worst excess {worst:.2e})")
    return res


# ---------------------------------------------------------------------------
# 8. adaptivity and query accounting


def suite_ledgers(seed: int = 0) -> SuiteResult:
    """Round growth, the query ceiling, and baseline ledger shapes."""
    res = SuiteResult("ledgers")
    k, eps, delta = 10, 0.25, 0.1
    sizes = (50, 100, 200, 400)
    anm_rounds = {}
    constant = 0.0
    for n in sizes:
        f = generate_synthetic("synthetic-cut", n, 5.0 / (n - 1),
                               seed=53 + n).objective()
        params = NonmonotoneParams(k=k, eps=eps, delta=delta, sample_override=100)
        _, ledger, _ = adaptive_nonmonotone_max(f, params, seed + n)
        anm_rounds[n] = ledger.rounds
        ceiling = 200.0 * n * math.log(k) / eps ** 2
        constant = max(constant, ledger.total_queries / (n * math.log(k) / eps ** 2))
        res.check(ledger.total_queries <= ceiling,
                  f"n={n}: ANM queries {ledger.total_queries} <= "
                  f"ceiling {ceiling:.0f} (rounds {ledger.rounds})")

        g_ledger = QueryLedger()
        g_out = greedy(f, k, g_ledger)
        res.check(g_ledger.rounds == len(g_out) + 1,
                  f"n={n}: greedy rounds {g_ledger.rounds} == |output|+1 "
                  f"({len(g_out) + 1})")
        r_ledger = QueryLedger()
        random_prefix(f, k, make_rng(seed + n), r_ledger)
        res.check(r_ledger.rounds <= 2,
                  f"n={n}: random rounds {r_ledger.rounds} <= 2")
    ratio = anm_rounds[400] / anm_rounds[50]
    res.check(ratio <= 3.0,
              f"ANM rounds(400)/rounds(50) = {anm_rounds[400]}/{anm_rounds[50]} "
              f"= {ratio:.2f} <= 3")
    res.note(f"measured query constant: queries <= {constant:.1f} * n*ln(k)/eps^2")
    res.metrics.update(rounds=anm_rounds, query_constant=constant)
    return res


# ---------------------------------------------------------------------------
# 9. qualitative benchmark relationships


def suite_figure1(seed: int = 0) -> SuiteResult:
    """ANM beats random on value and uses far fewer rounds than greedy."""
    res = SuiteResult("figure1")
    n, k, trials, eps = 300, 100, 10, 0.25
    f = generate_synthetic("revenue", n, 3.0 / (n - 1), seed=61).objective()
    params = NonmonotoneParams(k=k, eps=eps, delta=0.1, sample_override=100)
    anm_vals, anm_rounds = [], []
    rnd_vals = []
    for t in range(trials):
        out, ledger, _ = adaptive_nonmonotone_max(f, params, seed + t)
        anm_vals.append(evaluate_offline(f, out))
        anm_rounds.append(ledger.rounds)
        r_ledger = QueryLedger()
        r_out = random_prefix(f, k, make_rng(seed + t), r_ledger)
        rnd_vals.append(evaluate_offline(f, r_out))
    g_ledger = QueryLedger()
    greedy(f, k, g_ledger)
    mean_anm, mean_rnd = float(np.mean(anm_vals)), float(np.mean(rnd_vals))
    mean_rounds = float(np.mean(anm_rounds))
    res.check(mean_anm >= mean_rnd,
              f"ANM mean value {mean_anm:.3f} >= random mean value {mean_rnd:.3f}")
    res.check(mean_rounds <= 0.2 * g_ledger.rounds,
              f"ANM mean rounds {mean_rounds:.1f} <= 0.2 * greedy rounds "
              f"({g_ledger.rounds})")
    res.metrics.update(anm_value=mean_anm, random_value=mean_rnd,
                       anm_rounds=mean_rounds, greedy_rounds=g_ledger.rounds)
    return res


# ---------------------------------------------------------------------------
# 10. objective validation


def suite_submodularity(seed: int = 0) -> SuiteResult:
    """Diminishing returns and nonnegativity on sampled triples, per objective."""
    res = SuiteResult("submodularity")
    instances = [
        ("image n=40", generate_synthetic("image", 40, seed=71).objective()),
        ("movie n=40", generate_synthetic("movie", 40, seed=73).objective()),
        ("revenue n=60", generate_synthetic("revenue", 60, 0.08, seed=79).objective()),
    ]
    for label, f in instances:
        report = check_submodularity(f, trials=10_000, seed=seed)
        res.check(report.ok,
                  f"{label}: {report.violations} submodularity and "
                  f"{report.nonneg_violations} nonnegativity violations in "
                  f"{report.trials} trials (worst gap {report.worst_gap:.2e}, "
                  f"min value {report.min_value:.2e})")
    return res


ALL_SUITES = {
    "lemma2": suite_lemma2,
    "corollary6": suite_corollary6,
    "lemma7": suite_lemma7,
    "lemma4": suite_lemma4,
    "lemma8": suite_lemma8,
    "theorem5": suite_theorem5,
    "appendix": suite_appendix,
    "ledgers": suite_ledgers,
    "figure1": suite_figure1,
    "submodularity": suite_submodularity,
}


def run_acceptance(suite: str, seed: int = 0) -> SuiteResult:
    """Execute one named suite and return its result."""
    if suite not in ALL_SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{sorted(ALL_SUITES)}")
    return ALL_SUITES[suite](seed)

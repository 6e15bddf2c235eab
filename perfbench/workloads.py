"""The pinned benchmark workloads, their correctness and regime checks.

Each workload builds its instances in ``setup`` (timed as ``setup_s``) and
returns a fixed batch of jobs from ``jobs``. A job is one algorithm run: a
timed call into the public submax API, then an untimed check of its output.
The workload seed only picks the run seeds (and, for ``baselines_image``, the
instance); instance shapes are fixed. The library receives only the generated
instances and seeds.

Library entry points are looked up on the ``submax`` package at call time, so
the tracer's rebinding covers every call this file makes.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import submax as sm

SEED_STRIDE = 100003


@dataclass
class Run:
    """What one algorithm run produced, as the checks saw it."""

    seconds: float
    output: tuple[int, ...] = ()
    per_round: tuple[tuple[int, int], ...] = ()
    value: float = float("nan")
    logical_samples: int = 0
    breaks: Counter = field(default_factory=Counter)
    winner: str | None = None
    out_bytes: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.per_round)

    @property
    def queries(self) -> int:
        return sum(q for _, q in self.per_round)


@dataclass
class Job:
    """One algorithm run: ``call`` is timed, ``check(result, seconds)`` is not."""

    call: Callable[[], object]
    check: Callable[[object, float], Run]


def anm_winner(trials) -> str:
    """Where the set returned by adaptive_nonmonotone_max came from.

    Mirrors the final argmax of the algorithm: strict improvements over the
    empty set's value, sampler set before fallback prefix within a trial.
    """
    if not trials:
        return "none"
    source, best_value = "none", trials[0].outcome.f_empty
    for trial in trials:
        if trial.outcome.f_s > best_value:
            source, best_value = "sampler", trial.outcome.f_s
        if trial.prefix_value is not None and trial.prefix_value > best_value:
            source, best_value = "prefix", trial.prefix_value
    return source


def _check_output(f, output, k: int, seconds: float, per_round) -> Run:
    """|S| <= k, in-range unique indices; value recomputed offline."""
    idx = np.asarray(list(output), dtype=np.int64)
    run = Run(seconds=seconds, output=tuple(sorted(int(i) for i in idx)),
              per_round=tuple((int(r), int(q)) for r, q in per_round))
    if idx.size > k:
        run.problems.append(f"|S|={idx.size} exceeds k={k}")
    if idx.size and (idx.min() < 0 or idx.max() >= f.n):
        run.problems.append(f"index out of range [0, {f.n})")
    if np.unique(idx).size != idx.size:
        run.problems.append("duplicate index in output")
    if not run.problems:
        run.value = sm.evaluate_offline(f, idx)
        if not np.isfinite(run.value):
            run.problems.append(f"non-finite value {run.value}")
    return run


def _anm_run(f, params, seed: int, seconds: float, result) -> Run:
    best, ledger, trials = result
    run = _check_output(f, best, params.k, seconds, ledger.per_round)
    run.logical_samples = ledger.logical_samples
    run.breaks = Counter(t.outcome.break_reason.value for t in trials)
    run.winner = anm_winner(trials)
    trial_rounds = max((t.outcome.ledger.rounds for t in trials), default=0)
    if ledger.rounds != 1 + trial_rounds:
        run.problems.append(f"seed {seed}: rounds {ledger.rounds} != 1 + {trial_rounds}")
    trial_samples = sum(t.outcome.ledger.logical_samples for t in trials)
    if ledger.logical_samples != trial_samples:
        run.problems.append(f"seed {seed}: logical samples {ledger.logical_samples} "
                            f"!= trial sum {trial_samples}")
    return run


def _anm_job(f, params, seed: int) -> Job:
    return Job(call=lambda: sm.adaptive_nonmonotone_max(f, params, seed),
               check=lambda result, seconds: _anm_run(f, params, seed, seconds, result))


# ---------------------------------------------------------------------------


class AnmSampler:
    """The only shape where the threshold sampler does real work."""

    name = "anm_sampler"
    runs = 1
    params = sm.NonmonotoneParams(k=30, eps=0.25, delta=0.1, sample_override=100)

    def setup(self, seed: int):
        return sm.generate_synthetic("revenue", 400, 3.0 / 399, seed=61).objective()

    def jobs(self, f, seed: int, workdir: str) -> list[Job]:
        return [_anm_job(f, self.params, seed * SEED_STRIDE + i)
                for i in range(self.runs)]

    def regime(self, runs) -> list[str]:
        problems = []
        for i, run in enumerate(runs):
            total = sum(run.breaks.values())
            if 2 * run.breaks["full_S"] < total:
                problems.append(f"run {i}: only {run.breaks['full_S']} of {total} "
                                "trials end full_S")
        return problems


class AnmFallback:
    """The README CLI example through the harness: every trial falls back.

    break_size = 3k = n, so each trial exits on its first filter and no
    indicator sample is drawn. Each run is one ``run_experiment`` call writing
    trace, summary and debug-trace files. The harness does not return the
    output set, so a direct ``adaptive_nonmonotone_max`` call with the same
    seed (untimed, once per seed) serves as the reference the harness outputs
    are checked against.
    """

    name = "anm_fallback"
    runs = 4
    spec = {"n": 300, "p": 0.01, "seed": 1}
    params = sm.NonmonotoneParams(k=100, eps=0.25, delta=0.1, sample_override=100)
    _samples_line = re.compile(r"\((\d+) logical samples across trials\)")

    def __init__(self):
        self._reference: dict[int, Run] = {}

    def setup(self, seed: int):
        return sm.generate_synthetic("revenue", self.spec["n"], self.spec["p"],
                                     seed=self.spec["seed"]).objective()

    def jobs(self, f, seed: int, workdir: str) -> list[Job]:
        return [self._job(f, seed * SEED_STRIDE + i, os.path.join(workdir, f"run{i}"))
                for i in range(self.runs)]

    def _job(self, f, run_seed: int, stem: str) -> Job:
        p = self.params
        config = sm.RunConfig(objective="revenue", algorithm="anm", ks=[p.k],
                              synthetic=dict(self.spec), eps=p.eps, delta=p.delta,
                              trials=1, seed=run_seed, samples=p.sample_override,
                              out=f"{stem}_summary.csv", trace=f"{stem}_trace.csv",
                              debug_trace=f"{stem}_debug.jsonl")

        def call():
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                trace_rows, summary_rows = sm.run_experiment(config, f)
            return trace_rows, summary_rows, printed.getvalue()

        return Job(call=call, check=lambda result, seconds: self._check(
            f, config, result, seconds))

    def _check(self, f, config, result, seconds) -> Run:
        trace_rows, summary_rows, printed = result
        ref = self._reference.get(config.seed)
        if ref is None:
            ref = _anm_run(f, self.params, config.seed, 0.0,
                           sm.adaptive_nonmonotone_max(f, self.params, config.seed))
            self._reference[config.seed] = ref

        cum = [row[3] for row in trace_rows]
        per_round = tuple((i + 1, c - (cum[i - 1] if i else 0)) for i, c in enumerate(cum))
        run = Run(seconds=seconds, output=ref.output, per_round=per_round,
                  value=ref.value, logical_samples=ref.logical_samples,
                  breaks=ref.breaks, winner=ref.winner, problems=list(ref.problems))
        if per_round != ref.per_round:
            run.problems.append(f"seed {config.seed}: harness rounds differ from a direct run")
        (_, _, mean_value, _, mean_queries, mean_rounds), = summary_rows
        if (mean_value, mean_queries, mean_rounds) != (ref.value, ref.queries, ref.rounds):
            run.problems.append(f"seed {config.seed}: harness summary differs from a direct run")
        found = self._samples_line.search(printed)
        if found is None or int(found.group(1)) != ref.logical_samples:
            run.problems.append(f"seed {config.seed}: printed logical samples do not "
                                "match a direct run")
        for path in (config.out, config.trace, config.debug_trace):
            run.out_bytes += os.path.getsize(path)
        return run

    def regime(self, runs) -> list[str]:
        return [f"run {i}: {run.logical_samples} indicator samples drawn, expected 0"
                for i, run in enumerate(runs) if run.logical_samples]


class BaselinesImage:
    """Greedy, lazy greedy and random prefix on synthetic image summarization."""

    name = "baselines_image"
    n, k = 1000, 50
    lazy_runs = 4
    prefix_runs = 4
    rlg_eps = 0.01

    def setup(self, seed: int):
        return sm.generate_synthetic("image", self.n, seed=seed).objective()

    def jobs(self, f, seed: int, workdir: str) -> list[Job]:
        k = self.k
        out = [self._job(f, lambda led: sm.greedy(f, k, led))]
        for i in range(self.lazy_runs):
            rng_seed = seed * SEED_STRIDE + i
            out.append(self._job(f, lambda led, s=rng_seed: sm.random_lazy_greedy(
                f, k, self.rlg_eps, sm.make_rng(s), led)))
        for i in range(self.prefix_runs):
            rng_seed = seed * SEED_STRIDE + i
            out.append(self._job(f, lambda led, s=rng_seed: sm.random_prefix(
                f, k, sm.make_rng(s), led)))
        return out

    def _job(self, f, algorithm) -> Job:
        def call():
            ledger = sm.QueryLedger()
            return algorithm(ledger), ledger

        return Job(call=call, check=lambda result, seconds: _check_output(
            f, result[0], self.k, seconds, result[1].per_round))

    def regime(self, runs) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (AnmSampler, AnmFallback, BaselinesImage)}

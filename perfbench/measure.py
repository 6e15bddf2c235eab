"""Set up, warm up, time and check one workload; compute its metrics."""

from __future__ import annotations

import contextlib
import hashlib
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS, Run

SETUP_REPS = 15


class CoreChooser:
    """Keeps the process on whichever allowed CPU currently runs fastest.

    On a shared host each virtual CPU is slowed, independently and for
    seconds at a time, by work of other tenants on the same physical core.
    Between timed calls (never inside one), at most every ``INTERVAL``
    seconds, a short pure-Python spin is timed on every allowed CPU and the
    process is pinned to the fastest. With a single allowed CPU it does
    nothing.
    """

    INTERVAL = 0.5

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self._next = 0.0

    @staticmethod
    def _spin() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        return time.perf_counter() - t0

    def _spin_time_on(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return min(self._spin() for _ in range(3))

    def choose(self) -> None:
        now = time.perf_counter()
        if len(self.cpus) < 2 or now < self._next:
            return
        os.sched_setaffinity(0, {min(self.cpus, key=self._spin_time_on)})
        self._next = now + self.INTERVAL


def _attempt(fn, *args):
    """Call fn; on an exception print its traceback and return it instead."""
    try:
        return fn(*args), None
    except Exception as exc:  # a failing run is counted, the benchmark goes on
        traceback.print_exc()
        return None, exc


def _run_pass(jobs, tracer: Tracer | None, cores: CoreChooser) -> list[Run]:
    """Time every job's library call, then check all outputs untraced."""
    timed = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for job in jobs:
            cores.choose()
            t0 = time.perf_counter()
            result, error = _attempt(job.call)
            timed.append((result, time.perf_counter() - t0, error))
    runs = []
    for job, (result, seconds, error) in zip(jobs, timed):
        if error is None:
            run, error = _attempt(job.check, result, seconds)
        if error is not None:
            run = Run(seconds=seconds, problems=[f"raised {error!r}"])
        runs.append(run)
    return runs


def _digest(runs: list[Run]) -> str:
    h = hashlib.sha256()
    for run in runs:
        h.update(repr((run.output, run.per_round)).encode())
    return h.hexdigest()[:16]


def _report_regime(name: str, runs: list[Run]) -> None:
    breaks = sum((run.breaks for run in runs), Counter())
    winners = Counter(run.winner for run in runs if run.winner is not None)
    print(f"regime {name}: breaks {dict(sorted(breaks.items()))}, "
          f"logical samples {sum(run.logical_samples for run in runs)}, "
          f"winners {dict(sorted(winners.items()))}")


def measure(name: str, seed: int, seconds: float, trace: bool,
            workdir_parent: str) -> dict:
    """Run the workload; return the result object with its ``metrics``."""
    workload = WORKLOADS[name]()
    tracer = Tracer() if trace else None
    setup_tracer = Tracer() if trace else None

    cores = CoreChooser()
    setup_times = []

    def timed_setup():
        cores.choose()
        t0 = time.perf_counter()
        with setup_tracer if trace else contextlib.nullcontext():
            built = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
        return built

    ctx = timed_setup()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workdir_parent) as workdir:
        jobs = workload.jobs(ctx, seed, workdir)
        warmup = _run_pass(jobs[:1], None, cores)

        passes: list[tuple[bool, list[Run]]] = []
        layer_metrics: list[dict] = []
        modes = (False, True) if trace else (False,)
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            for traced in modes:
                if traced:
                    tracer.reset()
                passes.append((traced, _run_pass(jobs, tracer if traced else None, cores)))
                if traced:
                    layer_metrics.append(tracer.metrics())
            took = time.perf_counter() - started
            if len(setup_times) < SETUP_REPS:
                timed_setup()
            if time.perf_counter() + took > deadline:
                break
    # Set-up reps are spread between passes so that they sample the same
    # machine conditions as the timed runs; the rest are made here.
    while len(setup_times) < SETUP_REPS:
        timed_setup()
    setup_metrics = ({key: value / SETUP_REPS
                      for key, value in setup_tracer.setup_metrics().items()}
                     if trace else {})

    first = passes[0][1]
    all_runs = warmup + [run for _, runs in passes for run in runs]
    failed = sum(1 for run in all_runs if run.problems)
    for run in all_runs:
        for problem in run.problems:
            print(f"FAILED {name}: {problem}", file=sys.stderr)

    digests = {_digest(runs) for _, runs in passes}
    correct = failed == 0 and len(digests) == 1
    if len(digests) != 1:
        print(f"FAILED {name}: passes disagree, digests {sorted(digests)}", file=sys.stderr)
    regime = workload.regime(first)
    for problem in regime:
        print(f"REGIME {name}: {problem}", file=sys.stderr)
    correct = correct and not regime

    walls = {mode: [sum(r.seconds for r in runs) for traced, runs in passes if traced == mode]
             for mode in modes}
    times = [run.seconds for traced, runs in passes if not traced for run in runs]
    print(f"digest {name} {sorted(digests)[0]} over {len(passes)} passes "
          f"of {len(jobs)} runs")
    print(f"runs {name}: attempted {len(all_runs)}, failed {failed}, "
          f"timed samples {len(times)}, pass walls {[round(w, 3) for w in walls[False]]}")
    _report_regime(name, first)

    if trace:
        metrics = {key: statistics.median_low(m[key] for m in layer_metrics)
                   for key in layer_metrics[0]}
        metrics.update(setup_metrics)
        metrics["harness.out_bytes"] = sum(run.out_bytes for run in passes[-1][1])
        metrics["trace.overhead_frac"] = (statistics.median(walls[True])
                                          / statistics.median(walls[False]) - 1.0)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "run_s_p50": statistics.median(times),
            "run_s_p90": float(np.percentile(times, 90)),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_kb / 1024.0,
            "value_mean": statistics.fmean(run.value for run in first),
            "rounds_mean": statistics.fmean(run.rounds for run in first),
            "queries_mean": statistics.fmean(run.queries for run in first),
        }
    return {"correct": correct, "attempted": len(all_runs), "failed": failed,
            "metrics": metrics}

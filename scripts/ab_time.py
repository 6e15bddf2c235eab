"""Paired timing of two submax checkouts in one process.

Usage (from the repository root):

    python scripts/ab_time.py OLD_CHECKOUT NEW_CHECKOUT
        [--shape sampler|fallback|image|theorem5|setup] [--seeds 24]
        [--first-seed 1000]

Imports ``OLD_CHECKOUT/src/submax`` as ``submax_a`` and
``NEW_CHECKOUT/src/submax`` as ``submax_b``, builds one benchmark instance in
each, and times one run per checkout per run seed. ``--shape`` picks the
instance and the run:

- ``sampler`` (the default): ``adaptive_nonmonotone_max`` with eps=0.25,
  delta=0.1 and 100 samples per estimate on the ``anm_sampler`` instance,
  revenue G(400, 3/399) with graph seed 61, at k=30;
- ``fallback``: the same on the ``anm_fallback`` instance, revenue
  G(300, 0.01) with graph seed 1, at k=100, where every trial falls back;
- ``image``: ``greedy``, and ``random_lazy_greedy`` drawing from the run
  seed, each timed and reported on its own, on the ``baselines_image``
  instance, image summarization with n=1000 and instance seed 1, at k=50.
  Both call ``batch_marginals`` every round. Each side first builds and
  drops one more instance, as the benchmark discards set-ups before its
  runs: freeing its 8 MB matrix raises glibc's mmap threshold, so a kernel
  call's (rows, n) temporaries come from the heap. Without it, the side
  that runs first sets the allocator's state for both;
- ``theorem5``: ``adaptive_nonmonotone_max`` with eps=0.3, delta=0.1 and
  100 samples per estimate on the first ``theorem5`` acceptance instance,
  revenue G(12, 0.3) with instance seed 1000, at k=4. One run takes tens of
  milliseconds, so each seed times a block of 20 runs, on run seeds
  20 * seed to 20 * seed + 19;
- ``setup``: the ``baselines_image`` set-up alone,
  ``generate_synthetic("image", 1000, seed=seed).objective()``, with the run
  seed as the instance seed.

The order alternates seed by seed (a then b, then b then a), so drift on a
shared host falls on both sides alike. Every pair must return the same sets,
values and ``per_round`` (``setup``: the same similarity matrix, byte for
byte); a difference stops the script. It prints each seed's times (per run,
for a block) and new/old ratio, then the median ratio, its interquartile
range and the pairs the new checkout won: for ``image``, once for greedy
and once for lazy greedy. Beside each image run's time it prints the mean
microseconds per adaptive round (run seconds / ``ledger.rounds``), and the
summary gives their medians: a lazy-greedy run is about a thousand
refresh waves of a few rows each, so this is the fixed cost of one wave.

Timing both in one process removes the spread between processes, which can
exceed the effect being measured. BLAS is pinned to one thread, as in the
benchmark.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # imported once BLAS is pinned to one thread


def load(name: str, checkout: str):
    """The package at checkout/src/submax, imported as ``name``."""
    package = Path(checkout).resolve() / "src" / "submax"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# name: (n, p, graph seed, k, eps, runs per seed); image: (n, instance seed,
# k); setup: (n,).
SHAPES = {
    "sampler": (400, 3.0 / 399, 61, 30, 0.25, 1),
    "fallback": (300, 0.01, 1, 100, 0.25, 1),
    "image": (1000, 1, 50),
    "theorem5": (12, 0.3, 1000, 4, 0.3, 20),
    "setup": (1000,),
}


def anm_setup(sm, shape: str):
    n, p, graph_seed, k, eps, block = SHAPES[shape]
    f = sm.generate_synthetic("revenue", n, p, seed=graph_seed).objective()
    params = sm.NonmonotoneParams(k=k, eps=eps, delta=0.1, sample_override=100)

    def run(seed: int):
        out = []
        for run_seed in range(block * seed, block * (seed + 1)):
            best, ledger, _ = sm.adaptive_nonmonotone_max(f, params, run_seed)
            out.append((sorted(best.tolist()), sm.evaluate_offline(f, best),
                        list(ledger.per_round)))
        return out

    return {"run": run}


ANM_SHAPES = ("sampler", "fallback", "theorem5")


def image_setup(sm, shape: str):
    n, instance_seed, k = SHAPES[shape]
    sm.generate_synthetic("image", n, seed=instance_seed).objective()  # dropped
    f = sm.generate_synthetic("image", n, seed=instance_seed).objective()

    def result(algorithm):
        ledger = sm.QueryLedger()
        return algorithm(ledger).tolist(), ledger.per_round, ledger.values

    return {
        "greedy": lambda seed: result(lambda led: sm.greedy(f, k, led)),
        "lazy greedy": lambda seed: result(lambda led: sm.random_lazy_greedy(
            f, k, None, sm.make_rng(seed), led)),
    }


def build_setup(sm, shape: str):
    n, = SHAPES[shape]

    def run(seed: int):
        return sm.generate_synthetic("image", n, seed=seed).objective().s

    return {"run": run}


def timed_run(run, seed: int):
    """The run's seconds and its output; a matrix as a hash of its bytes, so
    that it is freed before the other side runs."""
    gc.collect()
    started = time.perf_counter()
    output = run(seed)
    seconds = time.perf_counter() - started
    if isinstance(output, np.ndarray):
        output = (output.shape, hashlib.sha256(output).hexdigest())
    return seconds, output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--shape", choices=SHAPES, default="sampler")
    parser.add_argument("--seeds", type=int, default=24)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")

    setup = (anm_setup if args.shape in ANM_SHAPES
             else build_setup if args.shape == "setup" else image_setup)
    sides = [setup(load(name, checkout), args.shape)
             for name, checkout in (("submax_a", args.old), ("submax_b", args.new))]
    block = SHAPES[args.shape][-1] if args.shape in ANM_SHAPES else 1
    ratios = {part: [] for part in sides[0]}
    # (old, new) microseconds per round of each seed's image runs.
    per_round_us = {part: [] for part in ratios} if setup is image_setup else {}
    for part in ratios:
        for runs in sides:
            timed_run(runs[part], args.first_seed - 1)  # warm-up

    for i in range(args.seeds):
        seed = args.first_seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for part, part_ratios in ratios.items():
            got = {}
            for side in order:
                got[side] = timed_run(sides[side][part], seed)
            (old_s, old_out), (new_s, new_out) = got[0], got[1]
            if old_out != new_out:
                print(f"seed {seed}: {part} outputs differ", file=sys.stderr)
                return 1
            part_ratios.append(new_s / old_s)
            label = "" if part == "run" else f" {part}:"
            per_round = ""
            if part in per_round_us:  # an image run: (set, per_round, values)
                us = [1e6 * s / len(new_out[1]) for s in (old_s, new_s)]
                per_round_us[part].append(us)
                per_round = f" ({us[0]:.1f} -> {us[1]:.1f} us per round)"
            print(f"seed {seed}:{label} old {old_s / block:.4f} s, "
                  f"new {new_s / block:.4f} s per run{per_round}, "
                  f"ratio {part_ratios[-1]:.3f}")

    for part, part_ratios in ratios.items():
        q1, median, q3 = (statistics.quantiles(part_ratios, n=4) if len(part_ratios) > 1
                          else (part_ratios[0],) * 3)
        won = sum(r < 1.0 for r in part_ratios)
        label = "" if part == "run" else f"{part}: "
        per_round = ""
        if part in per_round_us:
            old_us, new_us = (statistics.median(side) for side in zip(*per_round_us[part]))
            per_round = f"; median {old_us:.1f} -> {new_us:.1f} us per round"
        print(f"{label}new/old median {median:.3f} (IQR {q1:.3f}-{q3:.3f}), "
              f"new faster in {won} of {len(part_ratios)} pairs{per_round}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

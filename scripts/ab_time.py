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
- ``image``: ``greedy``, then ``random_lazy_greedy`` drawing from the run
  seed, on the ``baselines_image`` instance, image summarization with
  n=1000 and instance seed 1, at k=50. Both call ``batch_marginals`` every
  round;
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
byte); a difference stops the script. It prints, for
new/old time per seed (per run, for a block), the median ratio, its
interquartile range and the pairs the new checkout won.

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

    return run


ANM_SHAPES = ("sampler", "fallback", "theorem5")


def image_setup(sm, shape: str):
    n, instance_seed, k = SHAPES[shape]
    f = sm.generate_synthetic("image", n, seed=instance_seed).objective()

    def run(seed: int):
        ledgers = sm.QueryLedger(), sm.QueryLedger()
        sets = (sm.greedy(f, k, ledgers[0]),
                sm.random_lazy_greedy(f, k, None, sm.make_rng(seed), ledgers[1]))
        return [(s.tolist(), led.per_round, led.values) for s, led in zip(sets, ledgers)]

    return run


def build_setup(sm, shape: str):
    n, = SHAPES[shape]

    def run(seed: int):
        return sm.generate_synthetic("image", n, seed=seed).objective().s

    return run


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
    runs = [setup(load(name, checkout), args.shape)
            for name, checkout in (("submax_a", args.old), ("submax_b", args.new))]
    for run in runs:
        timed_run(run, args.first_seed - 1)  # warm-up

    ratios = []
    for i in range(args.seeds):
        seed = args.first_seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        got = {}
        for side in order:
            got[side] = timed_run(runs[side], seed)
        (old_s, old_out), (new_s, new_out) = got[0], got[1]
        if old_out != new_out:
            print(f"seed {seed}: outputs differ", file=sys.stderr)
            return 1
        ratios.append(new_s / old_s)
        block = len(old_out) if args.shape in ANM_SHAPES else 1
        print(f"seed {seed}: old {old_s / block:.4f} s, new {new_s / block:.4f} s per run, "
              f"ratio {ratios[-1]:.3f}")

    q1, median, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                      else (ratios[0],) * 3)
    won = sum(r < 1.0 for r in ratios)
    print(f"new/old median {median:.3f} (IQR {q1:.3f}-{q3:.3f}), "
          f"new faster in {won} of {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

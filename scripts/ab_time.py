"""Paired timing of two submax checkouts in one process.

Usage (from the repository root):

    python scripts/ab_time.py OLD_CHECKOUT NEW_CHECKOUT [--shape sampler|fallback]
        [--seeds 24] [--first-seed 1000]

Imports ``OLD_CHECKOUT/src/submax`` as ``submax_a`` and
``NEW_CHECKOUT/src/submax`` as ``submax_b``, builds one benchmark instance in
each, and runs ``adaptive_nonmonotone_max`` with eps=0.25, delta=0.1 and 100
samples per estimate once per checkout per run seed. ``--shape`` picks the
instance and k:

- ``sampler`` (the default): the ``anm_sampler`` instance, revenue
  G(400, 3/399) with graph seed 61, at k=30;
- ``fallback``: the ``anm_fallback`` instance, revenue G(300, 0.01) with
  graph seed 1, at k=100, where every trial falls back.

The order alternates seed by seed (a then b, then b then a), so drift on a
shared host falls on both sides alike. Every pair must return the same set,
value and ``per_round``; a difference stops the script. It prints, for
new/old time per seed, the median ratio, its interquartile range and the
pairs the new checkout won.

Timing both in one process removes the spread between processes, which can
exceed the effect being measured. BLAS is pinned to one thread, as in the
benchmark.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def load(name: str, checkout: str):
    """The package at checkout/src/submax, imported as ``name``."""
    package = Path(checkout).resolve() / "src" / "submax"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


SHAPES = {  # name: (n, p, graph seed, k)
    "sampler": (400, 3.0 / 399, 61, 30),
    "fallback": (300, 0.01, 1, 100),
}


def timed_run(sm, f, params, seed: int):
    gc.collect()
    started = time.perf_counter()
    best, ledger, _ = sm.adaptive_nonmonotone_max(f, params, seed)
    seconds = time.perf_counter() - started
    return seconds, (sorted(best.tolist()), sm.evaluate_offline(f, best),
                     list(ledger.per_round))


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

    sides = [load("submax_a", args.old), load("submax_b", args.new)]
    n, p, graph_seed, k = SHAPES[args.shape]
    setups = []
    for sm in sides:
        f = sm.generate_synthetic("revenue", n, p, seed=graph_seed).objective()
        params = sm.NonmonotoneParams(k=k, eps=0.25, delta=0.1, sample_override=100)
        timed_run(sm, f, params, args.first_seed - 1)  # warm-up
        setups.append((sm, f, params))

    ratios = []
    for i in range(args.seeds):
        seed = args.first_seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        got = {}
        for side in order:
            got[side] = timed_run(*setups[side], seed)
        (old_s, old_out), (new_s, new_out) = got[0], got[1]
        if old_out != new_out:
            print(f"seed {seed}: outputs differ", file=sys.stderr)
            return 1
        ratios.append(new_s / old_s)
        print(f"seed {seed}: old {old_s:.4f} s, new {new_s:.4f} s, ratio {ratios[-1]:.3f}")

    q1, median, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                      else (ratios[0],) * 3)
    won = sum(r < 1.0 for r in ratios)
    print(f"new/old median {median:.3f} (IQR {q1:.3f}-{q3:.3f}), "
          f"new faster in {won} of {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

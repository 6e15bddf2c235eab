"""Benchmark launcher for submax.

Usage (from the repository root):

    python3 perfbench/run.py --workload anm_sampler --seed 1 --seconds 36 --trace 0

Pins the BLAS thread count before numpy loads, imports submax from this
checkout's ``src``, sets the workload up several times (median is
``setup_s``), runs one untimed warm-up job, then repeats the workload's fixed
batch for ``--seconds``. Every run is checked, and every pass must reproduce
the same determinism digest. With ``--trace 1`` passes alternate between
untraced and traced, and the per-layer metrics come from the traced ones.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, holding
exactly the metrics ``BENCHMARK.json`` declares for the mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _pin_blas() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _blas_threads(np) -> int | None:
    """Thread count OpenBLAS reports, read from numpy's bundled library."""
    import ctypes

    libs = sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not spec_path.is_file() or not (src / "submax" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no BENCHMARK.json or no src/submax to benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    _pin_blas()
    sys.path.insert(0, str(src))
    import numpy as np

    import submax
    from measure import measure

    if Path(submax.__file__).resolve().parent != src / "submax":
        print(f"error: imported submax from {submax.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    env = {"numpy": np.__version__, "blas_threads": _blas_threads(np),
           "blas_threads_requested": int(BLAS_THREADS),
           "nproc": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0], "commit": _git_commit()}
    print("env " + json.dumps(env, sort_keys=True))

    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     workdir_parent=str(ROOT))
    metrics = result.pop("metrics")
    if set(metrics) != {m["name"] for m in declared}:
        print("error: measured metrics do not match BENCHMARK.json: "
              f"{sorted(set(metrics) ^ {m['name'] for m in declared})}", file=sys.stderr)
        return 2
    for m in declared:
        print(f"{args.workload:16s} {m['name']:48s} {metrics[m['name']]!r:>24} {m['unit']}")
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in declared}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: experiment sweeps and acceptance suites."""

from __future__ import annotations

import argparse
import sys

from .acceptance import ALL_SUITES, run_acceptance
from .harness import ALGORITHMS, OBJECTIVES, ConfigError, RunConfig, run_experiment
from .objectives import ParseError


def _parse_kv(text: str) -> dict:
    """Parse "n=300,p=0.01" style synthetic specs."""
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise argparse.ArgumentTypeError(f"expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_k_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"--k must be an integer or comma-separated integers, "
                          f"got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submax",
        description="Benchmark low-adaptivity submodular maximization with "
                    "exact round and query metering.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an algorithm sweep and emit CSVs")
    run.add_argument("--objective", required=True, choices=OBJECTIVES)
    run.add_argument("--data", help="similarity CSV or edge-list path")
    run.add_argument("--synthetic", type=_parse_kv,
                     help='synthetic spec, e.g. "n=300,p=0.01"')
    run.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    run.add_argument("--k", required=True,
                     help="one k or a comma-separated list, e.g. 10,20,40")
    run.add_argument("--eps", type=float, default=0.25)
    run.add_argument("--delta", type=float, default=0.1)
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--samples", type=int, default=100,
                     help="per-estimate sample override; 0 uses the "
                          "theoretical count")
    run.add_argument("--out", help="summary CSV path")
    run.add_argument("--trace", help="per-round trace CSV path")
    run.add_argument("--debug-trace", help="JSON-lines threshold-trial trace")
    run.add_argument("--no-timestamp", dest="timestamp", action="store_false",
                     help="omit the timestamp comment for byte-stable output")

    accept = sub.add_parser("accept", help="run acceptance suites")
    accept.add_argument("--suite", choices=sorted(ALL_SUITES))
    accept.add_argument("--all", action="store_true", dest="run_all")
    accept.add_argument("--seed", type=int, default=0)
    return parser


def _run_command(args) -> int:
    # Every other run flag's dest is the RunConfig field it sets.
    fields = {name: value for name, value in vars(args).items()
              if name not in ("command", "k")}
    fields["samples"] = fields["samples"] or None
    try:
        run_experiment(RunConfig(ks=_parse_k_list(args.k), **fields))
    except (ConfigError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _accept_command(args) -> int:
    if not args.run_all and not args.suite:
        print("error: provide --suite NAME or --all", file=sys.stderr)
        return 2
    names = sorted(ALL_SUITES) if args.run_all else [args.suite]
    failed = 0
    for name in names:
        result = run_acceptance(name, args.seed)
        print(f"=== {name} ===")
        for line in result.lines:
            print(line)
        if not result.passed:
            failed += 1
    if failed:
        print(f"{failed} suite(s) failed")
        return 1
    print("all suites passed")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _run_command(args)
    return _accept_command(args)


if __name__ == "__main__":
    sys.exit(main())

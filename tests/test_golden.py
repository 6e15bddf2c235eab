"""Golden outputs: pinned runs whose results must not move across refactors.

Each case runs one algorithm on one small synthetic objective through
``run_experiment`` (``timestamp=False``). The trace, summary and debug-trace
files must match the copies under ``tests/golden/`` byte for byte, and every
trial's output set and ``ledger.per_round`` must match ``cases.json``.

The small cases run at n <= 50. numpy picks its reduction order by array
shape, so a kernel change can move sums only at larger n; the scale cases
run greedy and lazy greedy on image at the benchmark's n = 1000, k = 50 and
keep their records in ``scale_cases.json``.

A change that is meant to move these outputs regenerates them and says which
cells moved and why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from submax import QueryLedger, harness, max_singleton
from submax.harness import RunConfig, build_instance, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"

SPECS = {
    "revenue": ({"n": 50, "p": 0.1, "seed": 0}, 13),
    "synthetic-cut": ({"n": 40, "p": 0.15, "seed": 1}, 8),
    "image": ({"n": 30, "dim": 8, "seed": 2}, 6),
    "movie": ({"n": 30, "dim": 8, "seed": 3}, 6),
}
CASES = [(alg, obj) for alg in ("anm", "greedy", "random", "rlg") for obj in SPECS]
SCALE_SPECS = {"image": ({"n": 1000, "seed": 1}, 50)}
SCALE_CASES = [(alg, "image") for alg in ("greedy", "rlg")]


def _config(algorithm: str, objective: str, stem: Path | None,
            specs: dict = SPECS) -> RunConfig:
    spec, k = specs[objective]
    files = {} if stem is None else dict(
        trace=f"{stem}.trace.csv", out=f"{stem}.summary.csv",
        debug_trace=f"{stem}.debug.jsonl")
    return RunConfig(objective=objective, algorithm=algorithm, ks=[k],
                     synthetic=dict(spec), trials=2, seed=5, timestamp=False,
                     **files)


def _run_case(algorithm: str, objective: str, stem: Path,
              specs: dict = SPECS) -> dict:
    """Write the case's files next to ``stem``; return its per-trial record.

    The records are the very trials that wrote the files: a recorder wraps
    ``harness._run_one`` for the one ``run_experiment`` pass.
    """
    config = _config(algorithm, objective, stem, specs)
    f = build_instance(config).objective()
    records = []
    run_one = harness._run_one

    def recording(*args):
        records.append(run_one(*args))
        return records[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_run_one", recording)
        run_experiment(config, f)
    assert len(records) == config.trials
    return {"trials": [{"output": rec.output.tolist(),
                        "per_round": [list(p) for p in rec.ledger.per_round]}
                       for rec in records]}


def _suffixes(algorithm: str) -> tuple[str, ...]:
    # Only anm has threshold trials, so only anm writes a debug trace.
    base = (".trace.csv", ".summary.csv")
    return base + (".debug.jsonl",) if algorithm == "anm" else base


@pytest.fixture(scope="module")
def golden_cases() -> dict:
    return json.loads((GOLDEN / "cases.json").read_text())


def _check_case(name: str, algorithm: str, got: dict, want: dict,
                tmp_path: Path) -> None:
    assert got == want
    for suffix in _suffixes(algorithm):
        produced = (tmp_path / (name + suffix)).read_bytes()
        assert produced == (GOLDEN / (name + suffix)).read_bytes(), suffix
    if algorithm != "anm":
        assert not (tmp_path / (name + ".debug.jsonl")).exists()


@pytest.mark.parametrize("algorithm,objective", CASES)
def test_golden_case(algorithm, objective, golden_cases, tmp_path):
    name = f"{algorithm}_{objective}"
    got = _run_case(algorithm, objective, tmp_path / name)
    _check_case(name, algorithm, got, golden_cases[name], tmp_path)


@pytest.mark.parametrize("algorithm,objective", SCALE_CASES)
def test_golden_scale_case(algorithm, objective, tmp_path):
    name = f"{algorithm}_{objective}_n1000"
    want = json.loads((GOLDEN / "scale_cases.json").read_text())[name]
    got = _run_case(algorithm, objective, tmp_path / name, SCALE_SPECS)
    _check_case(name, algorithm, got, want, tmp_path)


def test_anm_round_one_value_is_exact_max_singleton():
    # Round 1 of an anm trace is the singleton sweep; its best value is the
    # largest singleton value itself, not a value recomputed from a threshold.
    config = _config("anm", "revenue", None)
    config.trials = 1
    f = build_instance(config).objective()
    rows, _ = run_experiment(config, f)
    assert rows[0][2] == 1
    assert rows[0][4] == max_singleton(f, QueryLedger())


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for path in GOLDEN.iterdir():
        path.unlink()
    cases = {}
    for algorithm, objective in CASES:
        name = f"{algorithm}_{objective}"
        cases[name] = _run_case(algorithm, objective, GOLDEN / name)
    (GOLDEN / "cases.json").write_text(json.dumps(cases, indent=1) + "\n")
    scale = {}
    for algorithm, objective in SCALE_CASES:
        name = f"{algorithm}_{objective}_n1000"
        scale[name] = _run_case(algorithm, objective, GOLDEN / name, SCALE_SPECS)
    (GOLDEN / "scale_cases.json").write_text(json.dumps(scale, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()

"""Golden outputs: pinned runs whose results must not move across refactors.

Each case runs one algorithm on one small synthetic objective through
``run_experiment`` (``timestamp=False``). The trace, summary and debug-trace
files must match the copies under ``tests/golden/`` byte for byte, and every
trial's output set and ``ledger.per_round`` must match ``cases.json``.

The small cases run at n <= 50. numpy picks its reduction order by array
shape, so a kernel change can move sums only at larger n; the scale cases
run greedy and lazy greedy on image at the benchmark's n = 1000, k = 50, and
ANM on revenue G(400, 3/399) at k = 30, the shape of the sampler benchmark,
and keep their records in ``scale_cases.json``.

The goldens were captured with OpenBLAS's SkylakeX kernel (an AVX-512 host).
Under another kernel, such as ``OPENBLAS_CORETYPE=Haswell`` or ``Zen``, four
cases fail: anm-image, anm-movie, rlg-image and rlg-movie. The product
``v @ v.T`` in ``objectives._cosine_similarity`` rounds differently there, so
the similarity instance itself differs. ``OPENBLAS_VERBOSE=2`` prints the
kernel numpy's OpenBLAS picked.

A change that is meant to move these outputs regenerates them and says which
cells moved and why:

    PYTHONPATH=src python tests/test_golden.py

Regenerating prints, per golden file, the columns that moved: trace and
summary CSV columns, debug-trace fields and each case's output set and
per-round queries. A trace's best value is compared as the sequence of
values each trial reached, so renumbered rounds move only the round and
query columns.
"""

from __future__ import annotations

import itertools
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
SCALE_SPECS = {
    "image": ({"n": 1000, "seed": 1}, 50),
    "revenue": ({"n": 400, "p": 3 / 399, "seed": 61}, 30),
}
SCALE_CASES = [("greedy", "image"), ("rlg", "image"), ("anm", "revenue")]


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


def _scale_name(algorithm: str, objective: str) -> str:
    return f"{algorithm}_{objective}_n{SCALE_SPECS[objective][0]['n']}"


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
    name = _scale_name(algorithm, objective)
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


def _columns(name: str, text: str) -> dict[str, list]:
    """A golden file's cells, column by column."""
    cols: dict[str, list] = {}
    if name.endswith(".json"):
        for case, record in json.loads(text).items():
            for key in ("output", "per_round"):
                cols[f"{case}.{key}"] = [trial[key] for trial in record["trials"]]
    elif name.endswith(".jsonl"):
        for line in text.splitlines():
            record = json.loads(line)
            for key, value in record.items():
                if key != "trials":
                    cols.setdefault(key, []).append(value)
            for trial in record["trials"]:
                for key, value in trial.items():
                    cols.setdefault(f"trials.{key}", []).append(value)
    else:
        header, *rows = text.splitlines()
        names = header.split(",")
        cols = {column: [] for column in names}
        for row in rows:
            for column, cell in zip(names, row.split(",")):
                cols[column].append(cell)
        # Beside the round and query columns, a trace holds per-trial
        # constants and a best value carried forward over rounds: keep each
        # trial's steps, and its final best value on its own.
        trials = cols.get("trial")
        for column in names:
            if trials is not None and column not in ("round", "cum_queries"):
                cols[column] = [key for key, _ in itertools.groupby(
                    zip(trials, cols[column]))]
        if "best_value" in cols:
            steps = cols.pop("best_value")
            cols["best_value"] = list(dict(steps).items())
            cols["best_value steps"] = steps
    return cols


def changed_columns(name: str, old: str, new: str) -> list[str]:
    """The columns of golden file ``name`` whose cells differ."""
    before, after = _columns(name, old), _columns(name, new)
    return [column for column in {**before, **after}
            if before.get(column) != after.get(column)]


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    old = {path.name: path.read_text() for path in GOLDEN.iterdir()}
    for path in GOLDEN.iterdir():
        path.unlink()
    cases = {}
    for algorithm, objective in CASES:
        name = f"{algorithm}_{objective}"
        cases[name] = _run_case(algorithm, objective, GOLDEN / name)
    (GOLDEN / "cases.json").write_text(json.dumps(cases, indent=1) + "\n")
    scale = {}
    for algorithm, objective in SCALE_CASES:
        name = _scale_name(algorithm, objective)
        scale[name] = _run_case(algorithm, objective, GOLDEN / name, SCALE_SPECS)
    (GOLDEN / "scale_cases.json").write_text(json.dumps(scale, indent=1) + "\n")
    for path in sorted(GOLDEN.iterdir()):
        if path.name not in old:
            print(f"{path.name}: new")
            continue
        moved = changed_columns(path.name, old.pop(path.name), path.read_text())
        print(f"{path.name}: {', '.join(moved) if moved else 'unchanged'}")
    for name in sorted(old):
        print(f"{name}: removed")


if __name__ == "__main__":
    regenerate()

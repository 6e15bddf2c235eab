"""Benchmark harness: run algorithm x instance x k sweeps, emit CSV traces.

The per-round trace CSV has header
``algorithm,trial,round,cum_queries,best_value,k,seed``; each row is read off
the trial's ``QueryLedger`` (``per_round`` for the queries, ``values`` for the
best value, carried forward over rounds that found none). The summary CSV has
header ``algorithm,k,mean_value,std_value,mean_queries,mean_rounds``. Reruns
with the same config are byte-identical apart from a leading timestamp
comment, which can be suppressed.

A bad configuration raises ConfigError before any instance is built.
Every range comes from ``oracle.PARAM_RANGES``: ``RunConfig`` checks seed,
trials, each k and, for anm, eps, delta and samples against it and reports
a bad one by the command-line flag that sets it, and ``build_instance``
checks the synthetic keys, by key, before it loads or generates data.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, field

import numpy as np

from .baselines import greedy, random_lazy_greedy, random_prefix
from .nonmonotone import NonmonotoneParams, adaptive_nonmonotone_max
from .objectives import (
    Instance,
    generate_synthetic,
    load_edge_list,
    load_similarity_csv,
)
from .oracle import ParamError, QueryLedger, check_params, evaluate_offline, make_rng

ALGORITHMS = ("anm", "greedy", "random", "rlg")
OBJECTIVES = ("image", "movie", "revenue", "synthetic-cut")

TRACE_HEADER = "algorithm,trial,round,cum_queries,best_value,k,seed"
SUMMARY_HEADER = "algorithm,k,mean_value,std_value,mean_queries,mean_rounds"

# The command-line flag that sets each parameter RunConfig checks.
_FLAGS = {"seed": "--seed", "trials": "--trials", "k": "--k", "eps": "--eps",
          "delta": "--delta", "sample_override": "--samples"}


class ConfigError(ValueError):
    """The run configuration is invalid or inconsistent with the data."""


@dataclass
class RunConfig:
    """One experiment: an algorithm on an objective for one or more k."""

    objective: str
    algorithm: str
    ks: list[int]
    data: str | None = None
    synthetic: dict | None = None
    eps: float = 0.25
    delta: float = 0.1
    trials: int = 1
    seed: int = 0
    samples: int | None = 100
    out: str | None = None
    trace: str | None = None
    debug_trace: str | None = None
    timestamp: bool = True

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"unknown objective {self.objective!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if not self.ks:
            raise ConfigError("provide at least one k")
        if self.data is None and self.synthetic is None:
            raise ConfigError("provide a data path or a synthetic spec")
        try:
            check_params(seed=self.seed, trials=self.trials)
            for k in self.ks:
                check_params(k=k)
            if self.algorithm == "anm":
                check_params(eps=self.eps, delta=self.delta,
                             sample_override=self.samples)
        except ParamError as exc:
            raise ConfigError(f"{_FLAGS[exc.field]} {exc.rule}, "
                              f"got {exc.value}") from None


@dataclass
class TrialRecord:
    """Everything one trial produced, before flattening into CSV rows."""

    algorithm: str
    trial: int
    k: int
    seed: int
    output: np.ndarray
    value: float
    ledger: QueryLedger
    debug: list[dict] = field(default_factory=list)


# How each synthetic spec key's text parses; its range is the table's.
_SPEC_KEYS = {"n": int, "seed": int, "p": float, "dim": int, "lam": float}


def _spec_value(key: str, raw):
    """A spec value parsed and range-checked, or a ConfigError naming key.

    Text is parsed; any other value is checked as given, so a count given as
    8.5 is rejected, not truncated to 8.
    """
    parse = _SPEC_KEYS[key]
    try:
        value = parse(raw) if isinstance(raw, str) else raw
        check_params(**{key: value})
    except ParamError as exc:
        raise ConfigError(f"synthetic key {key!r} {exc.rule}, got {raw!r}") from None
    except (TypeError, ValueError):
        raise ConfigError(f"synthetic key {key!r} must parse as {parse.__name__}, "
                          f"got {raw!r}") from None
    return value


def _spec_values(config: RunConfig) -> dict:
    """The synthetic spec's values, parsed and checked key by key.

    lam belongs to movie, with or without a data file. Without one, n and
    seed size and seed the generator, the edge probability belongs to graph
    kinds and the dimension to similarity kinds. Any other key is reported
    as unknown.
    """
    spec = config.synthetic or {}
    allowed = {"lam"} if config.objective == "movie" else set()
    if config.data is None:
        graph = config.objective in ("revenue", "synthetic-cut")
        allowed |= {"n", "seed", "p" if graph else "dim"}
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ConfigError(f"unknown synthetic keys {unknown}")
    return {key: _spec_value(key, raw) for key, raw in spec.items()}


def build_instance(config: RunConfig) -> Instance:
    values = _spec_values(config)
    lam = values.get("lam")
    if config.data is None:
        return generate_synthetic(
            config.objective, values.get("n", 50),
            param=values.get("p", values.get("dim")),
            seed=values.get("seed", config.seed), lam=lam)
    if config.objective in ("image", "movie"):
        return Instance(kind=config.objective,
                        data=load_similarity_csv(config.data), lam=lam)
    return Instance(kind=config.objective, data=load_edge_list(config.data))


def _run_one(config: RunConfig, f, k: int, trial: int) -> TrialRecord:
    seed = config.seed + trial
    ledger = QueryLedger()
    debug: list[dict] = []
    if config.algorithm == "greedy":
        out = greedy(f, k, ledger)
    elif config.algorithm == "random":
        out = random_prefix(f, k, make_rng(seed), ledger)
    elif config.algorithm == "rlg":
        out = random_lazy_greedy(f, k, None, make_rng(seed), ledger)
    else:
        params = NonmonotoneParams(k=k, eps=config.eps, delta=config.delta,
                                   sample_override=config.samples)
        out, ledger, trials = adaptive_nonmonotone_max(f, params, seed)
        debug = [
            {"trial": t.index, "tau": t.tau,
             "break_reason": t.outcome.break_reason.value,
             "rounds": t.outcome.ledger.rounds,
             "queries": t.outcome.ledger.total_queries,
             "snapshots": [{"round": snap["round"], "a_size": len(snap["a"]),
                            "s_size": len(snap["s"]), "t": snap["t"],
                            "mu": snap["mu"]}
                           for snap in t.outcome.snapshots]}
            for t in trials
        ]
    value = evaluate_offline(f, out)
    return TrialRecord(algorithm=config.algorithm, trial=trial, k=k, seed=seed,
                       output=out, value=value, ledger=ledger, debug=debug)


def _trace_rows(record: TrialRecord) -> list[tuple]:
    ledger = record.ledger
    cum = ledger.cumulative_queries()
    rows = []
    best = -np.inf
    for rnd, _ in ledger.per_round:
        best = max(best, ledger.values.get(rnd, -np.inf))
        shown = best if best > -np.inf else 0.0
        rows.append((record.algorithm, record.trial, rnd, cum[rnd - 1],
                     shown, record.k, record.seed))
    return rows


def run_experiment(config: RunConfig, f=None) -> tuple[list[tuple], list[tuple]]:
    """Run the configured sweep; returns (trace_rows, summary_rows).

    Writes the trace CSV and summary CSV when paths are configured, plus an
    optional JSON-lines debug trace of the threshold trials.
    """
    instance = build_instance(config) if f is None else None
    objective = f if f is not None else instance.objective()
    for k in config.ks:
        if k > objective.n:
            raise ConfigError(f"k={k} exceeds ground set size n={objective.n}")

    trace_rows: list[tuple] = []
    summary_rows: list[tuple] = []
    debug_records: list[dict] = []
    for k in config.ks:
        records = [_run_one(config, objective, k, trial)
                   for trial in range(config.trials)]
        for rec in records:
            trace_rows.extend(_trace_rows(rec))
            if rec.debug:
                debug_records.append({"k": k, "trial": rec.trial, "seed": rec.seed,
                                      "trials": rec.debug})
        values = np.array([rec.value for rec in records])
        queries = np.array([rec.ledger.total_queries for rec in records])
        rounds = np.array([rec.ledger.rounds for rec in records])
        summary_rows.append((config.algorithm, k, float(values.mean()),
                             float(values.std()), float(queries.mean()),
                             float(rounds.mean())))
        samples = sum(rec.ledger.logical_samples for rec in records)
        print(f"{config.algorithm} k={k}: mean value {values.mean():.6g}, "
              f"mean queries {queries.mean():.6g} "
              f"({samples} logical samples across trials), "
              f"mean rounds {rounds.mean():.6g}")

    if config.trace:
        write_csv(config.trace, TRACE_HEADER, trace_rows, config.timestamp)
    if config.out:
        write_csv(config.out, SUMMARY_HEADER, summary_rows, config.timestamp)
    if config.debug_trace and debug_records:
        with open(config.debug_trace, "w", encoding="utf-8") as fh:
            for rec in debug_records:
                fh.write(json.dumps(rec) + "\n")
    return trace_rows, summary_rows


def _format_field(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path, header: str, rows: list[tuple], timestamp: bool) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if timestamp:
            now = datetime.datetime.now(datetime.timezone.utc).isoformat()
            fh.write(f"# generated {now}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_format_field(x) for x in row) + "\n")


def read_trace_csv(path) -> list[tuple]:
    """Parse a trace CSV back into typed rows (comments skipped)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line == TRACE_HEADER:
                continue
            alg, trial, rnd, cum, best, k, seed = line.split(",")
            rows.append((alg, int(trial), int(rnd), int(cum), float(best),
                         int(k), int(seed)))
    return rows

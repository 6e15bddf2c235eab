import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import submax
from submax.harness import (
    ConfigError,
    RunConfig,
    TRACE_HEADER,
    read_trace_csv,
    run_experiment,
)


def config(tmp_path, **kw):
    base = dict(objective="synthetic-cut", algorithm="random", ks=[5],
                synthetic={"n": 30, "p": 0.2, "seed": 3}, trials=3, seed=10,
                trace=str(tmp_path / "trace.csv"),
                out=str(tmp_path / "summary.csv"), timestamp=False)
    base.update(kw)
    return RunConfig(**base)


class TestValidation:
    def test_unknown_algorithm(self, tmp_path):
        with pytest.raises(ConfigError):
            config(tmp_path, algorithm="fantom")

    def test_unknown_objective(self, tmp_path):
        with pytest.raises(ConfigError):
            config(tmp_path, objective="coverage")

    def test_missing_data_source(self, tmp_path):
        with pytest.raises(ConfigError):
            config(tmp_path, synthetic=None)

    def test_k_exceeding_n_rejected_at_run(self, tmp_path):
        cfg = config(tmp_path, ks=[64])
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestTraces:
    def test_structure_and_monotonicity(self, tmp_path):
        cfg = config(tmp_path)
        trace_rows, summary_rows = run_experiment(cfg)
        trials = {r[1] for r in trace_rows}
        assert trials == {0, 1, 2}
        for trial in trials:
            rows = [r for r in trace_rows if r[1] == trial]
            cum = [r[3] for r in rows]
            best = [r[4] for r in rows]
            assert cum == sorted(cum)
            assert best == sorted(best)
        assert len(summary_rows) == 1
        alg, k, mean_v, std_v, mean_q, mean_r = summary_rows[0]
        assert (alg, k) == ("random", 5)
        assert std_v >= 0

    def test_csv_round_trip(self, tmp_path):
        cfg = config(tmp_path)
        trace_rows, _ = run_experiment(cfg)
        parsed = read_trace_csv(cfg.trace)
        assert parsed == trace_rows

    def test_greedy_trials_identical(self, tmp_path):
        cfg = config(tmp_path, algorithm="greedy", trials=4)
        _, summary = run_experiment(cfg)
        assert summary[0][3] == 0.0  # deterministic algorithm, zero std

    def test_rerun_byte_identical_without_timestamp(self, tmp_path):
        cfg = config(tmp_path)
        run_experiment(cfg)
        first = (tmp_path / "trace.csv").read_bytes()
        run_experiment(cfg)
        assert (tmp_path / "trace.csv").read_bytes() == first

    def test_timestamp_comment_present_by_default(self, tmp_path):
        cfg = config(tmp_path, timestamp=True)
        run_experiment(cfg)
        text = (tmp_path / "trace.csv").read_text().splitlines()
        assert text[0].startswith("# generated ")
        assert text[1] == TRACE_HEADER

    def test_anm_trace_and_debug(self, tmp_path):
        cfg = config(tmp_path, algorithm="anm", trials=2,
                     synthetic={"n": 16, "p": 0.3, "seed": 1}, ks=[3],
                     debug_trace=str(tmp_path / "debug.jsonl"))
        trace_rows, summary = run_experiment(cfg)
        assert summary[0][5] >= 2  # singleton sweep plus trial rounds
        assert (tmp_path / "debug.jsonl").exists()
        import json
        lines = [json.loads(x) for x in
                 (tmp_path / "debug.jsonl").read_text().splitlines()]
        assert lines[0]["trials"][0]["break_reason"] in (
            "empty_A", "small_A", "full_S", "exhausted_rounds")

    def test_k_list_sweep(self, tmp_path):
        cfg = config(tmp_path, ks=[2, 4, 6])
        _, summary = run_experiment(cfg)
        assert [row[1] for row in summary] == [2, 4, 6]

    def test_anm_rounds_below_greedy(self, tmp_path):
        # Large-k regime: greedy pays about k+1 rounds while the threshold
        # trials finish in a handful.
        spec = {"n": 120, "p": 0.025, "seed": 2}
        anm_cfg = config(tmp_path, objective="revenue", algorithm="anm",
                         ks=[40], trials=2, synthetic=spec)
        greedy_cfg = config(tmp_path, objective="revenue", algorithm="greedy",
                            ks=[40], trials=1, synthetic=spec)
        _, anm_summary = run_experiment(anm_cfg)
        _, greedy_summary = run_experiment(greedy_cfg)
        assert anm_summary[0][5] < greedy_summary[0][5]


class TestLoadedData:
    def test_edge_list_objective(self, tmp_path):
        data = tmp_path / "g.csv"
        data.write_text("0,1,0.5\n1,2,0.8\n2,3,0.3\n0,3,0.9\n")
        cfg = config(tmp_path, objective="revenue", data=str(data),
                     synthetic=None, ks=[2], trials=2)
        _, summary = run_experiment(cfg)
        assert summary[0][2] > 0


def cli_env():
    """Environment whose PYTHONPATH finds the imported submax package.

    The CLI children start a fresh interpreter, which does not see the
    ``sys.path`` entries pytest added for this process.
    """
    env = dict(os.environ)
    src = str(Path(submax.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestCli:
    def test_run_and_accept_smoke(self, tmp_path):
        out = tmp_path / "s.csv"
        cmd = [sys.executable, "-m", "submax.cli", "run",
               "--objective", "synthetic-cut", "--synthetic", "n=20,p=0.3",
               "--algorithm", "greedy", "--k", "4", "--seed", "1",
               "--out", str(out), "--no-timestamp"]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().splitlines()[0].startswith("algorithm,")

    def test_unknown_algorithm_exit_code(self):
        cmd = [sys.executable, "-m", "submax.cli", "run",
               "--objective", "revenue", "--synthetic", "n=10,p=0.5",
               "--algorithm", "blits", "--k", "2"]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 2

    def test_k_above_n_exit_code(self):
        cmd = [sys.executable, "-m", "submax.cli", "run",
               "--objective", "revenue", "--synthetic", "n=10,p=0.5",
               "--algorithm", "greedy", "--k", "30"]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 2
        assert "exceeds" in proc.stderr

    def test_accept_suite(self):
        cmd = [sys.executable, "-m", "submax.cli", "accept",
               "--suite", "lemma8", "--seed", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr
        assert "[PASS]" in proc.stdout

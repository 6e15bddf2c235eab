import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import submax
import submax.cli
from submax.harness import (
    ConfigError,
    RunConfig,
    TRACE_HEADER,
    build_instance,
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

    def test_edge_probability_is_not_a_dimension(self, tmp_path):
        cfg = config(tmp_path, objective="image", synthetic={"n": 30, "p": 0.2})
        with pytest.raises(ConfigError, match="'p'"):
            build_instance(cfg)

    def test_dimension_is_not_an_edge_probability(self, tmp_path):
        cfg = config(tmp_path, objective="revenue", synthetic={"n": 30, "dim": 8})
        with pytest.raises(ConfigError, match="'dim'"):
            build_instance(cfg)

    def test_both_keys_report_the_foreign_one(self, tmp_path):
        spec = {"n": 30, "p": 0.2, "dim": 8, "seed": 3}
        with pytest.raises(ConfigError, match=r"\['p'\]"):
            build_instance(config(tmp_path, objective="movie", synthetic=dict(spec)))
        with pytest.raises(ConfigError, match=r"\['dim'\]"):
            build_instance(config(tmp_path, objective="synthetic-cut",
                                  synthetic=dict(spec)))
        spec.pop("p")
        got = build_instance(config(tmp_path, objective="movie", synthetic=spec))
        want = submax.generate_synthetic("movie", 30, 8, seed=3)
        assert np.array_equal(got.data.s, want.data.s)

    @pytest.mark.parametrize("objective,spec,key", [
        ("image", {"n": "abc"}, "n"),
        ("revenue", {"n": 30, "p": 2}, "p"),
        ("movie", {"n": 30, "lam": 7}, "lam"),
        ("image", {"n": 30, "dim": 0}, "dim"),
        ("movie", {"n": 30, "dim": "inf"}, "dim"),
        ("synthetic-cut", {"n": 30, "seed": -1}, "seed"),
    ])
    def test_bad_spec_value_names_its_key(self, tmp_path, objective, spec, key):
        with pytest.raises(ConfigError, match=f"synthetic key '{key}'"):
            build_instance(config(tmp_path, objective=objective, synthetic=spec))

    @pytest.mark.parametrize("objective", ["image", "revenue", "synthetic-cut"])
    def test_lam_is_only_for_movie(self, tmp_path, objective):
        with pytest.raises(ConfigError, match=r"\['lam'\]"):
            build_instance(config(tmp_path, objective=objective,
                                  synthetic={"n": 30, "lam": 0.5}))

    def test_negative_run_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            config(tmp_path, seed=-1)

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

    def test_synthetic_keys_beside_data_are_unknown(self, tmp_path):
        graph = tmp_path / "g.csv"
        graph.write_text("0,1,0.5\n1,2,0.8\n")
        cfg = config(tmp_path, objective="revenue", data=str(graph),
                     synthetic={"n": "5", "lam": "7", "zz": "1"})
        with pytest.raises(ConfigError, match=r"\['lam', 'n', 'zz'\]"):
            build_instance(cfg)
        sim = tmp_path / "s.csv"
        sim.write_text("1,0.5\n0.5,1\n")
        cfg = config(tmp_path, objective="movie", data=str(sim),
                     synthetic={"lam": "0.5", "dim": "8"})
        with pytest.raises(ConfigError, match=r"\['dim'\]"):
            build_instance(cfg)
        cfg.synthetic = {"lam": "0.5"}
        assert build_instance(cfg).objective().lam == 0.5
        cfg.synthetic = None
        assert build_instance(cfg).objective().lam == \
            submax.MovieRecommendationObjective(build_instance(cfg).data).lam


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

    def test_k_list_and_flags_bind_to_run_config(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = submax.cli.main(["run", "--objective", "synthetic-cut", "--synthetic",
                                "n=20,p=0.3", "--algorithm", "greedy", "--k", "2,4",
                                "--out", str(out), "--no-timestamp"])
        assert code == 0, capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert lines[0].startswith("algorithm,")
        assert [line.split(",")[1] for line in lines[1:]] == ["2", "4"]

    def test_unknown_algorithm_exit_code(self):
        cmd = [sys.executable, "-m", "submax.cli", "run",
               "--objective", "revenue", "--synthetic", "n=10,p=0.5",
               "--algorithm", "blits", "--k", "2"]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 2

    @pytest.mark.parametrize("objective,args,named", [
        ("revenue", ["--synthetic", "n=10,p=0.5", "--k", "5,x"], "--k"),
        ("revenue", ["--synthetic", "n=abc", "--k", "2"], "'n'"),
        ("revenue", ["--synthetic", "n=10,p=2", "--k", "2"], "'p'"),
        ("movie", ["--synthetic", "n=10,lam=7", "--k", "2"], "'lam'"),
        ("image", ["--synthetic", "n=10,dim=0", "--k", "2"], "'dim'"),
        ("image", ["--synthetic", "n=10,lam=0.5", "--k", "2"], "'lam'"),
        ("image", ["--synthetic", "n=10", "--k", "2", "--seed", "-1"], "seed"),
        # A later --algorithm wins; the missing data file shows that the
        # anm settings are checked before any instance is built. A bad
        # setting is named by its flag, not by the library field behind it.
        ("revenue", ["--data", "missing.csv", "--k", "2", "--algorithm", "anm",
                     "--eps", "2"], "--eps"),
        ("revenue", ["--synthetic", "n=10,p=0.5", "--k", "2", "--algorithm", "anm",
                     "--delta", "0"], "--delta"),
        ("revenue", ["--synthetic", "n=10,p=0.5", "--k", "2", "--algorithm", "anm",
                     "--samples", "-5"], "--samples"),
        ("image", ["--synthetic", "n=10", "--k", "2", "--trials", "0"], "--trials"),
        ("image", ["--synthetic", "n=10", "--k", "3,0"], "--k must be an integer >= 1, got 0"),
    ])
    def test_bad_run_config_is_an_error_line(self, capsys, objective, args, named):
        code = submax.cli.main(["run", "--objective", objective,
                                "--algorithm", "greedy", *args])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err

    def test_bad_anm_setting_names_flag_and_value(self, capsys):
        code = submax.cli.main(["run", "--objective", "revenue", "--synthetic",
                                "n=10,p=0.5", "--k", "2", "--algorithm", "anm",
                                "--samples", "-5"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --samples must be an integer >= 1 when set, got -5\n")

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

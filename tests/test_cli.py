"""CLI tests: grid handling, output formats, exit codes, determinism and the
golden-file regression."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import stablebounds
from stablebounds import cli, oracle
from stablebounds.chaos import _collapsed
from stablebounds.cli import ConfigError, main, run
from stablebounds.oracle import _collapse_lp

DATA = Path(__file__).parent / "data"


def run_main(args):
    return main([str(a) for a in args])


class TestGrids:
    def test_bounds_grid_cardinality(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = run_main(["bounds", "--n", "100,1000", "--gamma", "1/n,1/sqrt(n)",
                         "--L", "1", "--delta", "0.1,0.01", "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        header, rows = lines[0].split(","), lines[1:]
        assert len(rows) == 8
        for col in ("bousquet02", "fv2018", "fv2019", "single_log"):
            assert col in header

    def test_gamma_expressions_evaluate_per_n(self, tmp_path):
        out = tmp_path / "bounds.csv"
        run_main(["bounds", "--n", "100", "--gamma", "1/n", "--L", "1",
                  "--delta", "0.1", "--out", out])
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(0.01)

    def test_rows_sorted_by_parameter_tuple(self, tmp_path):
        out = tmp_path / "chaos.csv"
        run_main(["chaos", "--n", "8,4", "--M", "1,0", "--beta", "2", "--p", "2",
                  "--out", out])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        keys = [(int(r[2]), float(r[3])) for r in rows]
        assert keys == sorted(keys)

    def test_numeric_gamma_from_config(self, tmp_path):
        # JSON gives gamma as a number; the command line gives it as text
        cfg, a, b = tmp_path / "cfg.json", tmp_path / "a.csv", tmp_path / "b.csv"
        cfg.write_text(json.dumps({"grid": {"n": [100], "gamma": [0.01], "L": [1],
                                            "delta": [0.1]}}))
        assert run_main(["bounds", "--config", cfg, "--out", a]) == 0
        assert run_main(["bounds", "--n", "100", "--gamma", "0.01", "--L", "1",
                         "--delta", "0.1", "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_grid_is_config_error(self, capsys):
        assert run_main(["bounds", "--n", "100", "--gamma", "0.1",
                         "--L", "1", "--delta", ""]) == 1
        assert "delta" in capsys.readouterr().err


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "tails", "format": "csv",
                                   "grid": {"a": [1.0], "b": [0.5],
                                            "p": [2], "delta": [0.1]}}))
        out = tmp_path / "tails.json"
        code = run_main(["tails", "--config", cfg, "--format", "json", "--out", out])
        assert code == 0
        doc = json.loads(out.read_text())          # command line won
        assert doc["command"] == "tails"
        assert len(doc["rows"]) == 1

    def test_mismatched_config_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "chaos", "grid": {}}))
        assert run_main(["bounds", "--config", cfg]) == 1

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run_main(["chaos", "--config", cfg]) == 1

    def test_missing_command(self):
        assert run_main([]) == 1

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_learn_rejects_n_below_one(self, n, capsys):
        assert run_main(["learn", "--learner", "clipped_mean", "--n", n,
                         "--delta", "0.1", "--reps", "1000", "--seed", "1"]) == 1
        assert f"n must be >= 1, got {n}" in capsys.readouterr().err

    def test_partition_rejects_n_above_matrix_cap(self, capsys):
        assert run_main(["partition", "--n", "21", "--M", "1", "--beta", "1",
                         "--p", "2"]) == 1
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("args,message", [
        (["partition", "--n", "18", "--M", "1", "--beta", "1", "--p", "nan"],
         "p must be finite and >= 2, got nan"),
        (["tails", "--a", "1", "--b", "1", "--p", "nan", "--delta", "0.1"],
         "p must be finite and >= 1, got nan"),
        (["tails", "--a", "1", "--b", "1", "--p", "inf", "--delta", "0.1"],
         "p must be finite and >= 1, got inf"),
    ])
    def test_non_finite_p_is_error_exit(self, args, message, capsys):
        assert run_main(args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_partition_checks_p_before_enumerating(self, monkeypatch, capsys):
        def telescoping(params):
            pytest.fail("verify_telescoping ran before p was checked")

        monkeypatch.setattr("stablebounds.partition.verify_telescoping", telescoping)
        assert run_main(["partition", "--n", "20", "--M", "1", "--beta", "1",
                         "--p", "nan"]) == 1
        assert capsys.readouterr().err == "error: p must be finite and >= 2, got nan\n"

    @pytest.mark.parametrize("config,args,message", [
        ({"grid": {"n": [100], "gamma": [0.1], "L": [1], "delta": [0.1], "zz": [1]}},
         ["bounds"], "unknown grid keys for bounds: ['zz']"),
        (None, ["chaos", "--n", "4", "--M", "0", "--beta", "0", "--p", "2"],
         "chaos grid contains the degenerate point M = beta = 0"),
        (None, ["learn", "--learner", "constant", "--n", "10", "--delta", "0.1",
                "--reps", "999", "--seed", "1"], "learn requires reps >= 1000"),
        ({"format": "xml", "grid": {"a": [1], "b": [0.5], "p": [2], "delta": [0.1]}},
         ["tails"], "unknown format 'xml'"),
        ([1, 2], ["tails"], "config must be a JSON object"),
        ("absent", ["tails"],
         "cannot read config {cfg!r}: [Errno 2] No such file or directory: {cfg!r}"),
        (None, ["bounds", "--n", "100", "--gamma", "x/n", "--L", "1", "--delta", "0.1"],
         "bad gamma expression 'x/n'"),
        (None, ["bounds", "--n", "100", "--gamma", "abc", "--L", "1", "--delta", "0.1"],
         "bad gamma value 'abc'"),
        # argparse errors exit 2 with a usage block; the CLI's parser gives one line
        (None, ["tails", "--a", "1", "--b", "1", "--p", "2", "--delta", "0.1",
                "--format", "xml"],
         "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
        (None, ["tails", "--a", "1", "--b", "1", "--p", "2", "--delta", "0.1",
                "--bogus", "3"], "unrecognized arguments: --bogus 3"),
        (None, [], "a command is required (bounds|chaos|partition|learn|tails)"),
        (None, ["chaos", "--n", "2.5", "--M", "1", "--beta", "1", "--p", "2"],
         "n must be an integer, got '2.5'"),
        ({"grid": {"n": [2.5], "M": [1], "beta": [1], "p": [2]}}, ["chaos"],
         "n must be an integer, got 2.5"),
        ({"grid": {"n": [float("nan")], "M": [1], "beta": [1], "p": [2]}}, ["chaos"],
         "n must be an integer, got nan"),
        (None, ["tails", "--a", "1", "--b", "1", "--p", "2", "--delta", "0.1",
                "--threads", "-1"], "threads must be >= 0, got -1"),
    ], ids=["grid_keys", "degenerate_chaos", "learn_reps", "format", "not_object",
            "unreadable", "gamma_expression", "gamma_value", "format_choice",
            "unknown_flag", "no_command", "non_integer_n", "non_integer_n_config",
            "nan_n_config", "negative_threads"])
    def test_error_line(self, tmp_path, capsys, config, args, message):
        cfg = tmp_path / "cfg.json"
        if config is not None:
            if config != "absent":
                cfg.write_text(json.dumps(config))
            args = args + ["--config", cfg]
        assert run_main(args) == 1
        assert capsys.readouterr().err == f"error: {message.format(cfg=str(cfg))}\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_equals_out_file(self, tmp_path, capsys, fmt):
        args = ["learn", "--learner", "clipped_mean", "--n", "8", "--delta", "0.1",
                "--reps", "1000", "--seed", "3", "--format", fmt]
        out = tmp_path / "out"
        assert run_main(args + ["--out", out]) == 0
        capsys.readouterr()
        assert run_main(args) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    def test_unknown_command_in_config(self):
        with pytest.raises(ConfigError, match=r"unknown command 'nope'; have \['bounds', "):
            run({"command": "nope"})

    def test_unknown_learner(self):
        assert run_main(["learn", "--learner", "svm", "--n", "10",
                         "--delta", "0.1", "--reps", "1000", "--seed", "1"]) == 1

    def test_stochastic_needs_seed(self):
        cfg = {"command": "learn", "reps": 1000,
               "grid": {"learner": ["constant"], "n": [10], "delta": [0.1]}}
        with pytest.raises(ConfigError, match="seed"):
            run(cfg)

    def test_unwritable_output(self, tmp_path):
        assert run_main(["tails", "--a", "1", "--b", "0", "--p", "2",
                         "--delta", "0.1", "--out",
                         tmp_path / "no_such_dir" / "x.csv"]) == 1


class TestRowValues:
    def test_chaos_row_matches_module_examples(self, tmp_path):
        out = tmp_path / "chaos.csv"
        run_main(["chaos", "--n", "4", "--M", "0", "--beta", "2", "--p", "2",
                  "--out", out])
        header, row = [line.split(",") for line in out.read_text().splitlines()]
        values = dict(zip(header, row))
        assert float(values["norm"]) == pytest.approx(24 ** 0.5, rel=1e-12)
        assert float(values["pz_lhs"]) == 0.5
        assert float(values["pz_rhs"]) == pytest.approx(0.0535714285, rel=1e-8)
        assert values["ok"] == "true"

    def test_tails_row(self, tmp_path):
        out = tmp_path / "tails.csv"
        run_main(["tails", "--a", "1", "--b", "0", "--p", "4",
                  "--delta", "0.36787944117144233", "--out", out])
        header, row = [line.split(",") for line in out.read_text().splitlines()]
        values = dict(zip(header, row))
        assert float(values["moment_bound"]) == pytest.approx(6.0)
        assert float(values["tail_bound"]) == pytest.approx(3.844231, abs=1e-5)

    def test_partition_row(self, tmp_path):
        out = tmp_path / "part.csv"
        code = run_main(["partition", "--n", "6", "--M", "1", "--beta", "1",
                         "--p", "4", "--out", out])
        assert code == 0
        header, row = [line.split(",") for line in out.read_text().splitlines()]
        values = dict(zip(header, row))
        assert float(values["telescope_dev"]) <= 1e-12
        assert values["chain_ok"] == "true"

    def test_partition_degenerate_n1(self, tmp_path):
        out = tmp_path / "part1.csv"
        assert run_main(["partition", "--n", "1", "--M", "2", "--beta", "0",
                         "--p", "2", "--out", out]) == 0

    def test_learn_memorizer_row(self, tmp_path):
        out = tmp_path / "learn.csv"
        code = run_main(["learn", "--learner", "memorizer", "--n", "20",
                         "--delta", "0.1", "--reps", "1000", "--seed", "2",
                         "--out", out])
        assert code == 0
        header, row = [line.split(",") for line in out.read_text().splitlines()[1:3]]
        values = dict(zip(header, row))
        assert values["learner"] == "memorizer"
        assert float(values["gamma"]) == 1.0   # unstable regime: gamma = L
        assert values["ok"] == "true"


class TestHeaders:
    HEADERS = {
        "bounds": ("command,provenance,n,gamma,L,delta,bousquet02,fv2018,fv2019,"
                   "single_log,ok", ["--n", "3,4", "--gamma", "1/n", "--L", "1",
                                     "--delta", "0.1"]),
        "chaos": ("command,provenance,n,M,beta,p,norm,dyadic_bound,dominance_ok,"
                  "lower_ratio,lower_ok,pz_lhs,pz_rhs,pz_ok,second_moment,"
                  "second_moment_bound,second_moment_ok,ok",
                  ["--n", "4,8", "--M", "1", "--beta", "1", "--p", "2"]),
        "partition": ("command,provenance,n,M,beta,p,telescope_dev,telescope_ok,"
                      "term_violations,block_violations,level_violations,chain_ok,ok",
                      ["--n", "3,4", "--M", "1", "--beta", "1", "--p", "2"]),
        "learn": ("command,provenance,learner,n,delta,reps,seed,gamma,quantile,"
                  "bousquet02,fv2018,fv2019,single_log,moment_tail,quantile_ok,"
                  "sandwich_reps,sandwich_violations,sandwich_max_slack,sandwich_ok,ok",
                  ["--learner", "constant", "--n", "4,5", "--delta", "0.1",
                   "--reps", "1000", "--seed", "1"]),
        "tails": ("command,provenance,a,b,p,delta,moment_bound,tail_bound,ok",
                  ["--a", "1,2", "--b", "1", "--p", "2", "--delta", "0.1"]),
    }

    @pytest.mark.parametrize("command", HEADERS)
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_header_of_every_command(self, tmp_path, command, threads):
        # the columns are command, provenance, the grid point, then the
        # command's own results
        header, args = self.HEADERS[command]
        csv_out, json_out = tmp_path / "rows.csv", tmp_path / "rows.json"
        args = [command, *args, "--threads", threads]
        assert run_main(args + ["--out", csv_out]) == 0
        lines = [line for line in csv_out.read_text().splitlines()
                 if not line.startswith("#")]
        assert lines[0] == header
        assert run_main(args + ["--format", "json", "--out", json_out]) == 0
        rows = json.loads(json_out.read_text())["rows"]
        assert len(rows) == 2
        assert all(list(row) == header.split(",") for row in rows)


class TestExitCodes:
    def test_assertion_failure_returns_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # impossible regression floor forces the lower-ratio assertion to fail
        cfg.write_text(json.dumps({
            "command": "chaos", "min_lower_ratio": 1.0,
            "grid": {"n": [16], "M": [0], "beta": [1], "p": [8]},
        }))
        out = tmp_path / "chaos.csv"
        assert run_main(["chaos", "--config", cfg, "--out", out]) == 2
        row = out.read_text().splitlines()[1].split(",")
        assert row[-1] == "false"

    def test_all_pass_returns_zero(self, tmp_path):
        assert run_main(["chaos", "--n", "8", "--M", "1", "--beta", "1",
                         "--p", "2", "--out", tmp_path / "c.csv"]) == 0

    def test_non_finite_tails_row_fails_as_plain_bool(self, tmp_path):
        # the moment bound overflows to inf: the row fails with a JSON boolean
        args = ["tails", "--a", "1e300", "--b", "1e300", "--p", "1e300", "--delta", "0.1"]
        csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
        assert run_main(args + ["--out", csv_out]) == 2
        assert csv_out.read_text().splitlines()[1].endswith(",false")
        assert run_main(args + ["--format", "json", "--out", json_out]) == 2
        assert json.loads(json_out.read_text())["rows"][0]["ok"] is False

    def test_numeric_overflow_is_error_exit(self, tmp_path, capsys):
        # JSON reads 1e400 as inf, which no integer n can hold
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"command": "chaos", "grid": {"n": [1e400], "M": [1], '
                       '"beta": [1], "p": [2]}}')
        assert run_main(["chaos", "--config", cfg, "--out", tmp_path / "c.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: OverflowError")
        assert "Traceback" not in err

    def test_non_finite_g_is_error_line_alone(self, tmp_path, capsys):
        # M*s overflows in g on the support of S; the error line is all of stderr
        args = ["chaos", "--n", "2", "--M", "1e308", "--beta", "1e308", "--p", "64"]
        assert run_main(args + ["--out", tmp_path / "c.csv"]) == 1
        assert capsys.readouterr().err == (
            "error: g produced non-finite values on the support of S\n")

    @pytest.mark.parametrize("exc", [MemoryError("no room"), RuntimeError("gave out")])
    def test_memory_and_runtime_errors_are_error_exit(self, tmp_path, capsys, monkeypatch, exc):
        def evaluator(point, cfg, seed):
            raise exc

        keys, _, provenance = cli._COMMANDS["chaos"]
        monkeypatch.setitem(cli._COMMANDS, "chaos", (keys, evaluator, provenance))
        assert run_main(["chaos", "--n", "8", "--M", "1", "--beta", "1", "--p", "2",
                         "--out", tmp_path / "c.csv"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {type(exc).__name__}: {exc}\n"
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("module,cap,args", [
        ("oracle", "_COLLAPSE_CAP", ["chaos", "--M", "1", "--beta", "1", "--p", "2"]),
        ("lab", "_MAX_N", ["learn", "--learner", "constant", "--delta", "0.1",
                           "--reps", "1000", "--seed", "1"]),
    ])
    def test_memory_caps_are_error_exit(self, tmp_path, capsys, monkeypatch, module, cap, args):
        # the caps sit far above any n run here, so lower them instead of
        # allocating the large case
        monkeypatch.setattr(f"stablebounds.{module}.{cap}", 64)
        out = tmp_path / "c.csv"
        assert run_main(args + ["--n", "65", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n = 65 exceeds") and "Traceback" not in err
        assert not out.exists()
        assert run_main(args + ["--n", "64", "--out", out]) == 0

    @pytest.mark.parametrize("scale", ["1e300", "1e-300"])
    def test_paley_zygmund_rhs_at_extreme_norms(self, tmp_path, scale):
        # the squared norms overflow (1e300) or underflow (1e-300); their ratio does not
        out = tmp_path / "c.csv"
        assert run_main(["chaos", "--n", "4", "--M", scale, "--beta", scale,
                         "--p", "64", "--out", out]) == 0
        header, row = [line.split(",") for line in out.read_text().splitlines()]
        values = dict(zip(header, row))
        assert values["pz_rhs"] == "3.3881317889902131e-21"
        assert values["ok"] == "true"

    def test_partition_large_p_has_no_false_violations(self, tmp_path):
        # |v|^p overflows float64 in the level norms; they must stay exact
        out = tmp_path / "part.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_main(["partition", "--n", "16", "--M", "0", "--beta", "10",
                             "--p", "128", "--out", out])
        assert code == 0
        header, row = [line.split(",") for line in out.read_text().splitlines()]
        values = dict(zip(header, row))
        for col in ("term_violations", "block_violations", "level_violations"):
            assert values[col] == "0"
        assert values["chain_ok"] == "true"


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["learn", "--learner", "constant", "--n", "20", "--delta", "0.1",
                "--reps", "1000", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_main(args + ["--out", a, "--threads", "1"]) == 0
        assert run_main(args + ["--out", b, "--threads", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_exact_command_thread_independent(self, tmp_path):
        args = ["chaos", "--n", "4,8,16", "--M", "0,1", "--beta", "1",
                "--p", "2,4"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_main(args + ["--out", a, "--threads", "1"])
        run_main(args + ["--out", b, "--threads", "4"])
        assert a.read_bytes() == b.read_bytes()

    def test_partition_thread_independent(self, tmp_path):
        # every pool thread reads the sign matrix cached for each n;
        # a short switch interval interleaves the threads between n = 6 and 9
        args = ["partition", "--n", "6,9", "--M", "0,1", "--beta", "1", "--p", "2,8"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_main(args + ["--out", a, "--threads", "1"]) == 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert run_main(args + ["--out", b, "--threads", "3"]) == 0
        finally:
            sys.setswitchinterval(interval)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("args", [
        ["chaos", "--n", "9,16,40", "--M", "0,1", "--beta", "0.5,1", "--p", "2,8"],
        ["partition", "--n", "6,9", "--M", "0,1", "--beta", "0.5,1", "--p", "2,4,8"],
    ])
    @pytest.mark.parametrize("threads", ["2", "3"])
    def test_cold_shared_caches_thread_independent(self, tmp_path, args, threads):
        # two pool threads share every one-entry record (``_last``) and the
        # memoized norms, each emptied first; a short switch interval makes
        # them replace each other's record mid-row
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_main(args + ["--out", a, "--threads", "1"]) == 0
        _collapse_lp.cache_clear()
        _collapsed.cache_clear()
        for last in (oracle._held_abs, oracle._support, oracle._law):
            last.held = None
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert run_main(args + ["--out", b, "--threads", threads]) == 0
        finally:
            sys.setswitchinterval(interval)
        assert a.read_bytes() == b.read_bytes()

    def test_env_threads_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["chaos", "--n", "4,8", "--M", "1", "--beta", "1", "--p", "2"]
        monkeypatch.setenv("WORKBENCH_THREADS", "2")
        run_main(args + ["--out", a])
        monkeypatch.delenv("WORKBENCH_THREADS")
        run_main(args + ["--out", b, "--threads", "1"])
        assert a.read_bytes() == b.read_bytes()

    def test_provenance_header_on_stochastic_runs(self, tmp_path):
        out = tmp_path / "learn.csv"
        run_main(["learn", "--learner", "constant", "--n", "10", "--delta", "0.1",
                  "--reps", "1000", "--seed", "5", "--out", out])
        first = out.read_text().splitlines()[0]
        assert first.startswith("# ")
        assert "seed=5" in first and "reps=1000" in first and "generator=" in first


class TestGoldenFile:
    def test_reference_run_reproduces_shipped_output(self, tmp_path):
        out = tmp_path / "chaos.csv"
        code = run_main(["chaos", "--config", DATA / "chaos_reference.json",
                         "--out", out])
        assert code == 0
        assert out.read_bytes() == (DATA / "chaos_reference.csv").read_bytes()

    def test_learn_reference_reproduces_shipped_output(self, tmp_path):
        # all four learners x n in {10, 50}, reps 2000, seed 7: the sampled
        # datasets, gaps, quantiles and sandwich slacks byte for byte
        out = tmp_path / "learn.csv"
        code = run_main(["learn", "--config", DATA / "learn_reference.json",
                         "--out", out])
        assert code == 0
        assert out.read_bytes() == (DATA / "learn_reference.csv").read_bytes()


class TestJsonFormat:
    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "bounds.json"
        run_main(["bounds", "--n", "100", "--gamma", "0.1", "--L", "1",
                  "--delta", "0.01", "--format", "json", "--out", out])
        doc = json.loads(out.read_text())
        assert doc["command"] == "bounds"
        assert doc["rows"][0]["single_log"] == pytest.approx(233.5356, abs=1e-3)
        assert doc["rows"][0]["ok"] is True

    def test_non_finite_values_are_null(self, tmp_path):
        # lower_ratio is undefined for p < 8; strict JSON has no NaN literal
        out = tmp_path / "chaos.json"
        assert run_main(["chaos", "--n", "4", "--M", "1", "--beta", "1", "--p", "2",
                         "--format", "json", "--out", out]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        assert doc["rows"][0]["lower_ratio"] is None


def test_cli_import_loads_no_scipy_submodule():
    # the weights of the collapse come from oracle's own lgam and the LP is
    # solved at its vertices, so neither scipy.special nor scipy.optimize is
    # loaded; the top-level package is, for the benchmark's version record
    src = str(Path(stablebounds.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, stablebounds.cli; print([m in sys.modules for m in "
            "('scipy', 'scipy.special', 'scipy.optimize')])")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[True, False, False]"

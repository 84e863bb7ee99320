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
from stablebounds.cli import ConfigError, main, run

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


def test_cli_import_leaves_scipy_optimize_out():
    # scipy serves only gammaln; the LP solver is not loaded at import
    src = str(Path(stablebounds.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, stablebounds.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"

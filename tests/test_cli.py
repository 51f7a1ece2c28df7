import json

import numpy as np
import pytest

from spcakit import load_matrix, save_matrix
from spcakit.cli import main, reproduce_pitprops

from helpers import random_psd, run_python


def _run(args):
    return main(args)


def _read_json(path):
    return json.loads(path.read_text())


class TestSolveCommand:
    def test_pitprops_sdp(self, tmp_path):
        out = tmp_path / "r.json"
        code = _run([
            "solve", "--input", "builtin:pitprops", "--algo", "sdp",
            "--k", "7", "--sparsity", "7", "--output", str(out),
        ])
        assert code == 0
        report = _read_json(out)
        assert report["schema_version"] == 1
        assert report["result"]["metrics"]["objective"] == pytest.approx(3.996, abs=0.01)
        assert report["result"]["sdp"]["converged"] is True
        assert report["config"]["seed"] == 0

    def test_identity_svd(self, tmp_path):
        out = tmp_path / "r.json"
        code = _run([
            "solve", "--input", "builtin:identity8", "--algo", "svd",
            "--k", "3", "--sparsity", "3", "--output", str(out),
        ])
        assert code == 0
        report = _read_json(out)
        assert report["result"]["metrics"]["objective"] == pytest.approx(1.0, abs=1e-10)

    def test_theory_mode_requires_epsilon(self, capsys):
        code = _run(["solve", "--input", "builtin:identity4", "--algo", "svd", "--k", "2"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "ValidationError"

    @pytest.mark.parametrize("epsilon", ["1.5", "0", "-0.25"])
    def test_sdp_epsilon_outside_unit_interval_exits_2(self, capsys, epsilon):
        code = _run([
            "solve", "--input", "builtin:pitprops", "--algo", "sdp", "--k", "7",
            "--sparsity", "7", "--epsilon", epsilon,
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "ValueError"
        assert "epsilon must lie in (0, 1]" in err["message"]

    def test_unknown_builtin_exits_2(self, capsys):
        code = _run([
            "solve", "--input", "builtin:nope", "--algo", "svd", "--k", "2",
            "--sparsity", "2",
        ])
        assert code == 2

    def test_strict_nonconvergence_exits_3(self, tmp_path):
        mat = tmp_path / "a.mtx"
        save_matrix(mat, random_psd(8, 123))
        out = tmp_path / "r.json"
        code = _run([
            "solve", "--input", str(mat), "--algo", "sdp", "--k", "3",
            "--sparsity", "3", "--max-iters", "2", "--strict", "--output", str(out),
        ])
        assert code == 3
        assert _read_json(out)["result"]["sdp"]["converged"] is False

    def test_nonconvergence_without_strict_exits_0(self, tmp_path):
        mat = tmp_path / "a.mtx"
        save_matrix(mat, random_psd(8, 123))
        out = tmp_path / "r.json"
        code = _run([
            "solve", "--input", str(mat), "--algo", "sdp", "--k", "3",
            "--sparsity", "3", "--max-iters", "2", "--output", str(out),
        ])
        assert code == 0

    def test_not_psd_input_exits_2(self, tmp_path, capsys):
        mat = tmp_path / "bad.mtx"
        save_matrix(mat, np.diag([1.0, -1.0]))
        code = _run([
            "solve", "--input", str(mat), "--algo", "svd", "--k", "1", "--sparsity", "1",
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["code"] == "NotPSD"

    def test_data_kind_goes_through_covariance(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(3))
        csv = tmp_path / "x.csv"
        save_matrix(csv, rng.standard_normal((12, 5)))
        out = tmp_path / "r.json"
        code = _run([
            "solve", "--input", str(csv), "--input-kind", "data", "--algo", "svd",
            "--k", "2", "--sparsity", "2", "--output", str(out),
        ])
        assert code == 0
        assert _read_json(out)["input"]["n"] == 5


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        args = [
            "solve", "--input", "builtin:pitprops", "--algo", "sdp",
            "--k", "7", "--sparsity", "7", "--seed", "11",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert _run(args + ["--output", str(a)]) == 0
        assert _run(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_and_json_carry_identical_values(self, tmp_path):
        base = [
            "sweep", "--input", "builtin:pitprops", "--algo", "svd", "--grid", "3,5",
        ]
        j, c = tmp_path / "r.json", tmp_path / "r.csv"
        assert _run(base + ["--output", str(j), "--format", "json"]) == 0
        assert _run(base + ["--output", str(c), "--format", "csv"]) == 0
        report = _read_json(j)
        lines = c.read_text().splitlines()
        header = lines[0].split(",")
        for row_line, entry in zip(lines[1:], report["results"]):
            row = dict(zip(header, row_line.split(",")))
            assert float(row["objective"]) == entry["objective"]
            assert float(row["f_value"]) == entry["f_value"]
            assert float(row["pve"]) == entry["pve"]


class TestSweepCommand:
    def test_oracle_sweep_monotone(self, tmp_path):
        mat = tmp_path / "m.mtx"
        save_matrix(mat, random_psd(10, 700))
        out = tmp_path / "r.json"
        code = _run([
            "sweep", "--input", str(mat), "--algo", "exact", "--grid", "1:4",
            "--output", str(out),
        ])
        assert code == 0
        fs = [row["f_value"] for row in _read_json(out)["results"]]
        assert all(b >= a - 1e-12 for a, b in zip(fs, fs[1:]))

    def test_empty_grid_exits_2(self, capsys):
        code = _run(["sweep", "--input", "builtin:identity6", "--algo", "svd", "--grid", "5:3"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["code"] == "ValueError"

    @pytest.mark.parametrize("algo", ["svd", "sdp", "exact"])
    def test_epsilon_outside_unit_interval_exits_2(self, capsys, algo):
        code = _run([
            "sweep", "--input", "builtin:identity6", "--algo", algo, "--grid", "2:3",
            "--epsilon", "1.5",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "ValueError"
        assert "epsilon must lie in (0, 1]" in err["message"]

    @pytest.mark.parametrize("algo", ["svd", "sdp"])
    def test_solve_metrics_equal_sweep_row(self, tmp_path, algo):
        mat = tmp_path / "m.mtx"
        save_matrix(mat, random_psd(8, 515))
        solve_out, sweep_out = tmp_path / "solve.json", tmp_path / "sweep.json"
        common = ["--input", str(mat), "--algo", algo, "--oracle-ref"]
        assert _run(["solve", *common, "--k", "3", "--sparsity", "3",
                     "--output", str(solve_out)]) == 0
        assert _run(["sweep", *common, "--grid", "3", "--output", str(sweep_out)]) == 0
        (row,) = _read_json(sweep_out)["results"]
        assert row.pop("grid_sparsity") == 3
        assert _read_json(solve_out)["result"]["metrics"] == row

    def test_grid_comma_list(self, tmp_path):
        out = tmp_path / "r.json"
        code = _run([
            "sweep", "--input", "builtin:identity6", "--algo", "svd",
            "--grid", "2,4", "--output", str(out),
        ])
        assert code == 0
        rows = _read_json(out)["results"]
        assert [row["grid_sparsity"] for row in rows] == [2, 4]


class TestGenSynthetic:
    def test_writes_matrix_and_sidecar(self, tmp_path):
        out = tmp_path / "x.mtx"
        code = _run([
            "gen-synthetic", "--m", "8", "--n", "16", "--sigma", "0.001",
            "--seed", "4", "--output", str(out),
        ])
        assert code == 0
        X = load_matrix(out, kind="data")
        assert (X.m, X.n) == (8, 16)
        meta = json.loads((tmp_path / "x.mtx.meta.json").read_text())
        assert meta["seed"] == 4

    def test_round_trip_deterministic(self, tmp_path):
        a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
        args = ["gen-synthetic", "--m", "8", "--n", "16", "--seed", "9"]
        assert _run(args + ["--output", str(a)]) == 0
        assert _run(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestReproducePitprops:
    def test_comparison_table(self):
        rows = reproduce_pitprops()
        assert rows["all_ok"]
        assert rows["svd"]["pve"] == pytest.approx(0.3071, abs=0.001)
        assert rows["sdp"]["pve"] == pytest.approx(0.3074, abs=0.001)
        zero = {"moist", "testsg", "ovensg", "clear", "knots", "diaknot"}
        assert set(rows["svd"]["zero_pattern"]) == zero
        assert set(rows["sdp"]["zero_pattern"]) == zero
        assert rows["oracle"]["optimal_value"] == pytest.approx(3.996, abs=0.005)

    def test_command(self, tmp_path):
        out = tmp_path / "r.json"
        assert _run(["reproduce-pitprops", "--output", str(out)]) == 0
        report = _read_json(out)
        assert report["results"][0]["all_ok"] is True


def test_module_invocation_prints_version():
    proc = run_python("-m", "spcakit.cli", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["spca", "0.1.0"]

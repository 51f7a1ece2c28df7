import argparse
import dataclasses
import json
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from spcakit import (
    AdmmConfig,
    covariance_from_data,
    load_matrix,
    pit_props,
    rank_one_diagnostics,
    save_matrix,
    solve_sdp_relaxation,
    sparsity_sweep,
)
from spcakit.cli import build_parser, entry_point, main, reproduce_pitprops

from helpers import count_calls, failing_dsyevd, random_psd, run_python, wide_data


def _run(args):
    return main(args)


def _read_json(path):
    return json.loads(path.read_text())


def _float_leaves(entry, prefix=""):
    """``(dotted key, value)`` for every float in a JSON report entry."""
    for key, value in entry.items():
        if isinstance(value, dict):
            yield from _float_leaves(value, f"{prefix}{key}.")
        elif isinstance(value, float):
            yield f"{prefix}{key}", value


class TestSolveCommand:
    def test_pitprops_sdp(self, tmp_path):
        out = tmp_path / "r.json"
        code = _run([
            "solve", "--input", "builtin:pitprops", "--algo", "sdp",
            "--k", "7", "--sparsity", "7", "--output", str(out),
        ])
        assert code == 0
        report = _read_json(out)
        assert report["schema_version"] == 2
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

    def test_eigensolver_failure_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(lapack, "dsyevd", failing_dsyevd)
        code = _run([
            "solve", "--input", "builtin:pitprops", "--algo", "sdp", "--k", "7", "--sparsity", "7",
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["code"] == "ConvergenceFailure"

    def test_theory_mode_requires_epsilon(self, capsys):
        code = _run(["solve", "--input", "builtin:identity4", "--algo", "svd", "--k", "2"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "ValueError"
        assert "theory mode requires epsilon" in err["message"]

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

    @pytest.mark.parametrize("algo", ["svd", "sdp"])
    def test_sparsity_above_n_exits_2(self, capsys, algo):
        code = _run([
            "solve", "--input", "builtin:pitprops", "--algo", algo, "--k", "7",
            "--sparsity", "20",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "ValueError"
        assert "sparsity 20 outside [1, 13]" in err["message"]

    def test_k_above_n_exits_2(self, capsys):
        code = _run([
            "solve", "--input", "builtin:pitprops", "--algo", "svd", "--k", "14",
            "--epsilon", "0.5",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "ValueError"
        assert err["message"] == "k 14 outside [1, 13]"

    def test_unknown_builtin_exits_2(self, capsys):
        code = _run([
            "solve", "--input", "builtin:nope", "--algo", "svd", "--k", "2",
            "--sparsity", "2",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "ValueError" and "builtin:nope" in err["message"]

    @pytest.mark.parametrize(
        "flag, value", [("--gap-tol", "nan"), ("--gap-tol", "inf"), ("--rho", "nan"), ("--rho", "inf")]
    )
    def test_nonfinite_admm_value_exits_2(self, capsys, flag, value):
        # A NaN gap_tol never certifies, and a non-finite rho fails inside
        # LAPACK; both are rejected before the solve starts.
        code = _run([
            "solve", *PITPROPS, "--algo", "sdp", "--k", "7", "--sparsity", "7",
            "--max-iters", "50", flag, value,
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "ValueError"
        assert flag[2:].replace("-", "_") in err["message"]

    @pytest.mark.parametrize("value", ["1", "2.5"])
    def test_gap_tol_of_one_or_more_exits_2(self, capsys, value):
        # A relative gap of 1 or more would certify any nonnegative objective.
        code = _run([
            "solve", *PITPROPS, "--algo", "sdp", "--k", "7", "--sparsity", "7",
            "--gap-tol", value,
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "ValueError"
        assert err["message"] == f"gap_tol must be below 1, got {float(value)}"

    def test_no_adaptive_rho_flag_is_rejected(self, capsys):
        # Residual balancing always runs; the switch is gone.
        code = _run(["solve", *PITPROPS, "--algo", "sdp", "--k", "7", "--sparsity", "7",
                     "--no-adaptive-rho"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "ValueError" and "--no-adaptive-rho" in err["message"]

    def test_sdp_report_keys(self, capsys):
        # Adding or dropping a solver field or a config knob changes the
        # report's schema; this pins both key sets.
        assert _run(["solve", *PITPROPS, "--algo", "sdp", "--k", "7", "--sparsity", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        sdp = report["result"]["sdp"]
        assert set(sdp) == {
            "objective", "iterations_used", "converged", "solver_gap", "alpha", "beta",
            "min_eigenvalue",
        }
        assert set(report["config"]) == {
            "algo", "center", "command", "epsilon", "format", "gap_tol", "input",
            "input_format", "input_kind", "k", "l_override", "max_iters", "oracle_ref", "rho",
            "seed", "sparsity", "strict", "svd_eps", "svd_method", "to_correlation",
            "unit_row_norm", "version",
        }
        diag = rank_one_diagnostics(solve_sdp_relaxation(pit_props(), 7))
        assert sdp["min_eigenvalue"] == diag.min_eigenvalue

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

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.mtx"
        code = _run(["solve", "--input", str(missing), "--algo", "svd", "--k", "1",
                     "--sparsity", "1"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "IOError" and str(missing) in err["message"]

    def test_zero_matrix_sdp_exits_2(self, tmp_path, capsys):
        mat = tmp_path / "zero.mtx"
        save_matrix(mat, np.zeros((4, 4)))
        code = _run(["solve", "--input", str(mat), "--algo", "sdp", "--k", "2",
                     "--sparsity", "2"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["code"] == "DegenerateSolution"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_covariance_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.mtx"
        save_matrix(path, 1e200 * wide_data(8, 40, 5).entries)
        code = _run(["solve", "--input", str(path), "--input-kind", "data", "--algo", "svd",
                     "--k", "2", "--sparsity", "2"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["code"] == "NonFiniteEntries"

    def test_svd_and_sdp_divide_by_one_norm(self, tmp_path):
        norms = []
        for algo in ("svd", "sdp"):
            out = tmp_path / f"{algo}.json"
            assert _run([
                "solve", "--input", "builtin:pitprops", "--algo", algo,
                "--k", "7", "--sparsity", "7", "--output", str(out),
            ]) == 0
            metrics = _read_json(out)["result"]["metrics"]
            norms.append((metrics["objective"] / metrics["f_value"]).hex())
        assert norms[0] == norms[1]

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


PITPROPS = ["--input", "builtin:pitprops"]


@pytest.mark.parametrize(
    "argv, body",
    [
        (["solve", *PITPROPS, "--algo", "svd", "--k", "3", "--sparsity", "3"], "result"),
        (["oracle", *PITPROPS, "--k", "3"], "result"),
        (["sweep", *PITPROPS, "--algo", "svd", "--grid", "2:3"], "results"),
        (["reproduce-pitprops"], "results"),
    ],
)
def test_report_envelope(capsys, argv, body):
    assert _run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"schema_version", "command", "input", "config", body}
    assert report["command"] == argv[0]
    assert report["input"] == {"name": "builtin:pitprops", "n": 13}
    # --seed seeds the block Krylov start, so only the commands that solve
    # by thresholding take it
    assert ("seed" in report["config"]) == (argv[0] in ("solve", "sweep"))


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["oracle", *PITPROPS], "required: --k"),
        (["solve", *PITPROPS, "--algo", "svd", "--k", "two"], "invalid int value: 'two'"),
        (["solve", *PITPROPS, "--algo", "lasso", "--k", "2"], "invalid choice: 'lasso'"),
        (["oracle", *PITPROPS, "--k", "3", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["reproduce-pitprops", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["transpose"], "invalid choice: 'transpose'"),
        ([], "required: command"),
    ],
)
def test_usage_error_is_a_json_diagnostic(capsys, argv, fragment):
    assert _run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert set(err) == {"code", "message", "context"}
    assert err["code"] == "ValueError" and fragment in err["message"]


class TestDataFactorSolve:
    @pytest.mark.parametrize("method", ["exact", "block_krylov"])
    def test_one_gram_eigensolve_and_no_qr(self, tmp_path, monkeypatch, method):
        # 40 samples of 600 features: the covariance holds only its data
        # factor F, and the eigenpairs and the norm come from one
        # eigendecomposition of the 40 x 40 matrix F F.T.
        import scipy.linalg

        from spcakit import cli, matrix

        path = tmp_path / "x.mtx"
        save_matrix(path, wide_data(40, 600, 9))
        built = []

        def keep(*args, **kwargs):
            built.append(covariance_from_data(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "covariance_from_data", keep)
        eighs = count_calls(monkeypatch, matrix, "_symmetric_eigh")
        qrs = [count_calls(monkeypatch, mod, "qr") for mod in (scipy.linalg, np.linalg)]
        assert _run(["solve", "--input", str(path), "--input-kind", "data", "--algo", "svd",
                     "--svd-method", method, "--k", "4", "--sparsity", "4", "--epsilon", "0.25",
                     "--output", str(tmp_path / "r.json")]) == 0
        [A] = built
        assert A._factor is not None and A._entries is None
        assert [args[0].shape for args in eighs] == [(40, 40)]
        assert qrs == [[], []]


class TestInputFlags:
    """An input flag that cannot apply is rejected, never recorded as applied."""

    @pytest.mark.parametrize("command", [
        ["solve", "--algo", "svd", "--k", "2", "--sparsity", "2"],
        ["oracle", "--k", "2"],
        ["sweep", "--algo", "svd", "--grid", "2:3"],
    ])
    @pytest.mark.parametrize("source, flags, fragment", [
        ("builtin", ["--to-correlation"], "--to-correlation applies only with --input-kind data"),
        ("file", ["--no-center"], "--no-center applies only with --input-kind data"),
        ("file", ["--input-kind", "symmetric", "--to-correlation"],
         "--to-correlation applies only with --input-kind data"),
        ("builtin", ["--input-kind", "data"], "--input-kind data does not apply to builtin inputs"),
        ("builtin", ["--input-kind", "data", "--unit-row-norm"],
         "--input-kind data does not apply to builtin inputs"),
        ("builtin", ["--input-format", "dense_csv"],
         "--input-format does not apply to builtin inputs"),
    ])
    def test_flag_that_cannot_apply_exits_2(self, tmp_path, capsys, command, source, flags,
                                            fragment):
        name = "builtin:pitprops"
        if source == "file":
            name = str(tmp_path / "cov.mtx")
            save_matrix(name, pit_props())
        out = tmp_path / "r.json"
        assert _run([*command, "--input", name, *flags, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        [line] = captured.err.splitlines()
        err = json.loads(line)
        assert err["code"] == "ValueError" and err["message"] == fragment

    def test_input_format_applies_to_files(self, tmp_path, capsys):
        path = tmp_path / "x.txt"  # a suffix that names no format
        save_matrix(path, wide_data(12, 5, 3), format="dense_csv")
        argv = ["solve", "--input", str(path), "--input-kind", "data", "--algo", "svd",
                "--k", "2", "--sparsity", "2"]
        assert _run(argv) == 2
        assert "cannot infer format" in json.loads(capsys.readouterr().err)["message"]
        assert _run([*argv, "--input-format", "dense_csv"]) == 0
        assert json.loads(capsys.readouterr().out)["input"]["n"] == 5

    def test_unit_row_norm_applies_to_builtin_inputs(self, tmp_path):
        path = tmp_path / "pitprops.mtx"
        save_matrix(path, pit_props())
        base = ["solve", "--algo", "svd", "--k", "4", "--sparsity", "4", "--unit-row-norm"]
        results = {}
        for name in ("builtin:pitprops", str(path)):
            out = tmp_path / "r.json"
            assert _run([*base, "--input", name, "--output", str(out)]) == 0
            report = _read_json(out)
            assert report["config"]["unit_row_norm"] is True
            result = report["result"]
            result.pop("support_names", None)  # only builtin:pitprops names its variables
            results[name] = result
        assert results["builtin:pitprops"] == results[str(path)]
        plain = tmp_path / "plain.json"
        assert _run([*base[:-1], *PITPROPS, "--output", str(plain)]) == 0
        assert _read_json(plain)["result"]["metrics"] != results[str(path)]["metrics"]


class TestSolverFlags:
    """A solver flag that --algo does not read is rejected, never recorded as applied."""

    @pytest.mark.parametrize("command, fragment", [
        (["solve", "--algo", "svd", "--k", "2", "--sparsity", "2", "--rho", "5"],
         "--rho applies only with --algo sdp"),
        (["solve", "--algo", "svd", "--k", "2", "--sparsity", "2", "--strict"],
         "--strict applies only with --algo sdp"),
        (["solve", "--algo", "sdp", "--k", "2", "--sparsity", "2", "--l-override", "3"],
         "--l-override applies only with --algo svd"),
        (["sweep", "--algo", "svd", "--grid", "2:3", "--rho", "5"],
         "--rho applies only with --algo sdp"),
        (["sweep", "--algo", "exact", "--grid", "2:3", "--rho", "5"],
         "--rho applies only with --algo sdp"),
    ])
    def test_solver_flag_that_cannot_apply_exits_2(self, tmp_path, capsys, command, fragment):
        # The report's config block would record the flag while the solver
        # ignores it, so it is rejected before the input is read.
        out = tmp_path / "r.json"
        assert _run([*command, "--input", "builtin:pitprops", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        [line] = captured.err.splitlines()
        err = json.loads(line)
        assert err["code"] == "ValueError" and err["message"] == fragment

    @pytest.mark.parametrize("command", [
        ["solve", "--algo", "sdp", "--k", "2", "--sparsity", "2", "--rho", "5", "--strict"],
        ["solve", "--algo", "svd", "--k", "2", "--sparsity", "2", "--l-override", "3"],
        ["sweep", "--algo", "sdp", "--grid", "2:3", "--rho", "5"],
    ])
    def test_solver_flag_that_applies_is_accepted(self, tmp_path, command):
        out = tmp_path / "r.json"
        assert _run([*command, "--input", "builtin:pitprops", "--output", str(out)]) == 0
        assert out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["solve", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


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

    def test_fresh_process_writes_the_in_process_data_factor_report(self, tmp_path, capsys):
        # 40 samples of 600 features: the covariance carries its data factor,
        # and the block Krylov solve and the norm run through it
        path = tmp_path / "x.mtx"
        save_matrix(path, wide_data(40, 600, 9))
        argv = ["solve", "--input", str(path), "--input-kind", "data", "--algo", "svd",
                "--svd-method", "block_krylov", "--k", "4", "--sparsity", "4", "--seed", "2"]
        proc = run_python("-m", "spcakit.cli", *argv)
        assert proc.returncode == 0, proc.stderr
        assert _run(argv) == 0
        assert capsys.readouterr().out == proc.stdout

    def test_csv_and_json_carry_identical_values(self, tmp_path):
        # Every float cell is the repr of a Python float: a NumPy scalar that
        # reached the report would print as np.float64(...) and fail float().
        for algo in (["--algo", "svd"], ["--algo", "sdp", "--oracle-ref"]):
            base = ["sweep", "--input", "builtin:pitprops", "--grid", "3,5", *algo]
            j, c = tmp_path / "r.json", tmp_path / "r.csv"
            assert _run(base + ["--output", str(j), "--format", "json"]) == 0
            assert _run(base + ["--output", str(c), "--format", "csv"]) == 0
            report = _read_json(j)
            lines = c.read_text().splitlines()
            header = lines[0].split(",")
            compared = 0
            for row_line, entry in zip(lines[1:], report["results"], strict=True):
                row = dict(zip(header, row_line.split(","), strict=True))
                for key, value in _float_leaves(entry):
                    assert float(row[key]) == value, (algo, key)
                    compared += 1
            assert compared >= 2 * 4


class TestParserReuse:
    """``main`` parses with one parser per process; reusing it changes no result."""

    VALID = {
        "solve": ["solve", *PITPROPS, "--algo", "sdp", "--k", "7", "--sparsity", "7", "--seed", "3"],
        "sweep": ["sweep", *PITPROPS, "--algo", "svd", "--grid", "2:4", "--format", "csv"],
        "oracle": ["oracle", *PITPROPS, "--k", "4"],
        "gen-synthetic": ["gen-synthetic", "--m", "4", "--n", "8", "--seed", "2"],
        "reproduce-pitprops": ["reproduce-pitprops"],
    }
    # each usage error runs right after the valid call named with it
    USAGE_ERRORS = {
        "solve": (["oracle", *PITPROPS, "--k", "3", "--seed", "3"], "unrecognized arguments: --seed 3"),
        "sweep": (["sweep", *PITPROPS, "--algo", "svd", "--grid", "2:4", "--bogus"],
                  "unrecognized arguments: --bogus"),
        "oracle": (["solve", *PITPROPS, "--algo", "svd", "--sparsity", "3"], "required: --k"),
    }

    def _report(self, tmp_path, capsys, name, call):
        out = tmp_path / f"{name}{call}.mtx"  # gen-synthetic infers its format from the suffix
        assert _run(self.VALID[name] + ["--output", str(out)]) == 0
        written = [out.read_bytes()]
        if name == "gen-synthetic":
            written.append((tmp_path / f"{out.name}.meta.json").read_bytes())
        return written, capsys.readouterr()

    def test_interleaved_calls_repeat_their_first_reports(self, tmp_path, capsys):
        first = {name: self._report(tmp_path, capsys, name, 0) for name in self.VALID}
        call = 1
        for order in (list(self.VALID), list(reversed(self.VALID))):
            for name in order:
                assert self._report(tmp_path, capsys, name, call) == first[name], name
                call += 1
                if name in self.USAGE_ERRORS:
                    argv, fragment = self.USAGE_ERRORS[name]
                    assert _run(argv) == 2
                    captured = capsys.readouterr()
                    assert captured.out == ""
                    [line] = captured.err.splitlines()
                    err = json.loads(line)
                    assert err["code"] == "ValueError" and fragment in err["message"]

    def test_main_builds_its_parser_once_per_process(self):
        script = textwrap.dedent("""
            import json, os
            from spcakit import cli
            calls = []
            build = cli.build_parser
            cli.build_parser = lambda: calls.append(1) or build()
            argvs = [["oracle", "--input", "builtin:pitprops", "--k", "2", "--output", os.devnull],
                     ["oracle", "--input", "builtin:pitprops"],
                     ["solve", "--input", "builtin:identity4", "--algo", "svd", "--k", "1",
                      "--sparsity", "1", "--output", os.devnull]] * 2
            codes = [cli.main(argv) for argv in argvs]
            print(json.dumps([codes, len(calls), build() is not build()]))
        """)
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, 2, 0, 0, 2, 0], 1, True]

    def test_fresh_process_writes_the_in_process_report(self, tmp_path, capsys):
        argv = ["solve", *PITPROPS, "--algo", "sdp", "--k", "7", "--sparsity", "7"]
        proc = run_python("-m", "spcakit.cli", *argv)
        assert proc.returncode == 0, proc.stderr
        # in this process the parser has already served other commands
        assert _run(["oracle", *PITPROPS, "--k", "3"]) == 0
        assert _run(["sweep", *PITPROPS, "--algo", "sdp", "--grid", "2,7", "--seed", "5"]) == 0
        capsys.readouterr()
        assert _run(argv) == 0
        assert capsys.readouterr().out == proc.stdout


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

    def test_sdp_default_rho_matches_library_default(self, tmp_path):
        # Pit props at k = 3..6 does not certify before ADMM, so the start of
        # the loop shows in every row; --rho keeps its absolute meaning.
        rows = {}
        for name, flags, rho in (("default", [], None), ("absolute", ["--rho", "1"], 1.0)):
            out = tmp_path / f"{name}.json"
            assert _run([
                "sweep", "--input", "builtin:pitprops", "--algo", "sdp", "--grid", "3:6",
                *flags, "--output", str(out),
            ]) == 0
            report = _read_json(out)
            assert report["config"]["rho"] == rho
            assert [row.pop("grid_sparsity") for row in report["results"]] == [3, 4, 5, 6]
            rows[name] = report["results"]
        for name, admm in (("default", None), ("absolute", AdmmConfig(rho=1.0))):
            expected = sparsity_sweep(pit_props(), "sdp", range(3, 7), admm=admm)
            assert rows[name] == [dataclasses.asdict(r) for r in expected], name
        assert rows["default"] != rows["absolute"]

    def test_oracle_ref_changes_no_svd_value_on_wide_data(self, tmp_path):
        # The oracle builds the entries of the factor-only covariance; the
        # svd quadratic forms still come from the data factor.
        data = tmp_path / "x.mtx"
        assert _run([
            "gen-synthetic", "--m", "8", "--n", "32", "--sigma", "0.1", "--seed", "2",
            "--output", str(data),
        ]) == 0
        rows = []
        for flags in ([], ["--oracle-ref"]):
            out = tmp_path / "r.json"
            assert _run([
                "sweep", "--input", str(data), "--input-kind", "data", "--algo", "svd",
                "--grid", "3:5", *flags, "--output", str(out),
            ]) == 0
            rows.append([(r["objective"], r["f_value"]) for r in _read_json(out)["results"]])
        assert rows[0] == rows[1]

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


def _option_strings(parser):
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _option_strings(sub)
    return options


def test_readme_flags_are_cli_options():
    # Every flag the README names must exist, so a removed option cannot
    # linger in the docs. pip's flag in the install block is not ours.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}
    assert "--rho" in named
    assert sorted(named - _option_strings(build_parser())) == []


@pytest.mark.parametrize("argv, code", [
    (["reproduce-pitprops"], 0),
    (["solve", "--algo", "svd", "--k", "1", "--input", "missing.mtx"], 2),
])
def test_entry_point_exits_with_the_code_of_main(monkeypatch, tmp_path, argv, code):
    # The installed ``spca`` script calls entry_point with the command line in sys.argv.
    monkeypatch.chdir(tmp_path)
    argv = [*argv, "--output", "r.json"]
    assert main(argv) == code
    monkeypatch.setattr("sys.argv", ["spca", *argv])
    with pytest.raises(SystemExit) as exc:
        entry_point()
    assert exc.value.code == code


def test_module_invocation_prints_version():
    proc = run_python("-m", "spcakit.cli", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["spca", "0.1.0"]

import numpy as np
import pytest

from spcakit import (
    DimensionMismatch,
    EvalContext,
    SparseUnitVector,
    SvdParams,
    SweepConfig,
    evaluate,
    exact_spca,
    matrix_functionals,
    pit_props,
    solve,
    sparsity_sweep,
    spca_sdp,
    symmetrize,
)
from spcakit import matrix as matrix_mod
from spcakit.evaluation import env_workers

from helpers import random_psd


class TestEvaluate:
    def test_identity_basis_vector(self):
        A = symmetrize(np.eye(4))
        rep = evaluate(A, SparseUnitVector(4, [0], [1.0]))
        assert rep.objective == pytest.approx(1.0)
        assert rep.f_value == pytest.approx(1.0)
        assert rep.pve == pytest.approx(0.25)
        assert rep.sparsity == 1

    def test_pitprops_relaxation_output(self):
        A = pit_props()
        z, sol, diag = spca_sdp(A, k=7, mode="budget", budget_s=7)
        rep = evaluate(A, z)
        assert rep.pve == pytest.approx(0.3074, abs=0.001)

    def test_floors_match_scalar_recomputation(self):
        A = random_psd(7, 1203)
        res = exact_spca(A, 3)
        ctx = EvalContext(epsilon=0.4, alpha=1.02, z_ref=res.optimal_value, solver_gap=1e-5)
        rep = evaluate(A, res.optimal_vector, ctx)
        f = matrix_functionals(A)
        dense = res.optimal_vector.to_dense()
        assert rep.objective == pytest.approx(float(dense @ A.entries @ dense), abs=1e-10)
        assert rep.f_value == pytest.approx(rep.objective / f.spectral_norm, abs=1e-12)
        assert rep.pve == pytest.approx(rep.objective / f.trace, abs=1e-12)
        assert rep.thm1_floor == pytest.approx(res.optimal_value - 3 * 0.4 * f.trace, abs=1e-12)
        assert rep.thm2_floor == pytest.approx(
            res.optimal_value / 1.02 - 0.4 - 1e-5, abs=1e-12
        )
        assert rep.bound_ratio["thm1"] == pytest.approx(rep.thm1_floor / rep.objective)
        assert rep.bound_ratio["thm2_vs_ref"] == pytest.approx(rep.thm2_floor / res.optimal_value)

    def test_pve_times_trace_equals_objective(self):
        A = random_psd(6, 88)
        res = exact_spca(A, 2)
        rep = evaluate(A, res.optimal_vector)
        assert rep.pve * A.trace == pytest.approx(rep.objective, abs=1e-10)

    def test_f_of_full_support_oracle_is_one(self):
        A = random_psd(6, 19)
        res = exact_spca(A, 6)
        rep = evaluate(A, res.optimal_vector)
        assert rep.f_value == pytest.approx(1.0, abs=1e-8)

    def test_f_bounded_for_subunit_vectors(self):
        for seed in range(5):
            A = random_psd(8, 700 + seed)
            z, _, _ = spca_sdp(A, k=3, mode="budget", budget_s=4, polish=False)
            rep = evaluate(A, z)
            assert -1e-12 <= rep.f_value <= 1.0 + 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate(symmetrize(np.eye(3)), SparseUnitVector(4, [0], [1.0]))


class TestSparsitySweep:
    def test_identity_flat(self):
        reports = sparsity_sweep(symmetrize(np.eye(6)), "svd", [1, 2, 3])
        assert all(r.f_value == pytest.approx(1.0, abs=1e-10) for r in reports)

    def test_pitprops_single_point_matches_table(self):
        reports = sparsity_sweep(pit_props(), "sdp", [7])
        assert reports[0].objective == pytest.approx(3.996, abs=0.01)
        assert reports[0].pve == pytest.approx(0.3074, abs=0.001)

    def test_oracle_monotone_f(self):
        A = random_psd(10, 5150)
        reports = sparsity_sweep(A, "oracle", [1, 2, 3, 4])
        fs = [r.f_value for r in reports]
        for a, b in zip(fs, fs[1:]):
            assert b >= a - 1e-12

    def test_thm2_floor_below_objective_on_normalized_instances(self):
        from spcakit import unit_row_normalize

        cfg = SweepConfig(epsilon=0.5, oracle_ref=True)
        for seed in (21, 22):
            A = unit_row_normalize(random_psd(7, seed))
            (report,) = sparsity_sweep(A, "sdp", [7], cfg)
            assert report.thm2_floor <= report.objective + 1e-6

    def test_parallel_matches_serial(self):
        A = random_psd(8, 31)
        serial = sparsity_sweep(A, "svd", [1, 2, 3], SweepConfig(workers=1))
        parallel = sparsity_sweep(A, "svd", [1, 2, 3], SweepConfig(workers=3))
        for a, b in zip(serial, parallel):
            assert a.objective == b.objective
            assert a.f_value == b.f_value

    def test_grid_validation(self):
        for grid in ([0], []):
            with pytest.raises(ValueError):
                sparsity_sweep(random_psd(4, 0), "svd", grid)

    @pytest.mark.parametrize("algo", ["svd", "sdp", "oracle"])
    def test_points_equal_solve(self, algo):
        A = random_psd(8, 4242)
        grid = [2, 3, 4]
        reports = sparsity_sweep(A, algo, grid, SweepConfig(oracle_ref=True))
        for s, report in zip(grid, reports):
            _, expected, _, _ = solve(A, algo, s, sparsity=s, oracle_ref=True)
            assert report.to_dict() == expected.to_dict()


class TestSolve:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            solve(random_psd(4, 1), "bogus", 2, sparsity=2)

    @pytest.mark.parametrize("algo", ["svd", "sdp", "oracle"])
    @pytest.mark.parametrize("epsilon", [0.0, -0.1, 1.5, float("nan")])
    def test_epsilon_outside_unit_interval(self, algo, epsilon):
        A = random_psd(5, 9)
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\]"):
            solve(A, algo, 2, sparsity=2, epsilon=epsilon)
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\]"):
            solve(A, algo, 2, epsilon=epsilon)

    @pytest.mark.parametrize("algo", ["svd", "sdp", "oracle"])
    def test_epsilon_one_accepted(self, algo):
        _, report, _, _ = solve(random_psd(5, 9), algo, 2, sparsity=2, epsilon=1.0)
        assert report.objective > 0

    @pytest.mark.parametrize("algo", ["svd", "sdp", "oracle"])
    def test_solution_and_diagnostics_only_for_sdp(self, algo):
        A = random_psd(6, 77)
        vec, report, sol, diag = solve(A, algo, 2, sparsity=3)
        assert report.objective == pytest.approx(vec.quadratic_form(A), abs=1e-12)
        if algo == "sdp":
            assert sol is not None and diag is not None
            assert report.z_ref == sol.objective
            assert report.thm2_floor is not None
        else:
            assert sol is None and diag is None
            assert report.thm2_floor is None


def test_f_value_above_dense_crossover():
    # spectral_norm takes the Lanczos path here; f_value must still be the
    # objective over the largest eigenvalue magnitude.
    n = matrix_mod._DENSE_CHECK_MAX_N + 1
    A = random_psd(n, 31)
    svd = SvdParams(method="block_krylov", svd_eps=0.1)
    _, rep, _, _ = solve(A, "svd", 5, sparsity=5, svd=svd)
    assert A._eig is None
    w = np.linalg.eigvalsh(A.entries)
    expected = rep.objective / max(abs(w[0]), abs(w[-1]))
    assert rep.f_value == pytest.approx(expected, rel=1e-12, abs=0)
    assert rep.pve == rep.objective / A.trace


def test_env_workers(monkeypatch):
    monkeypatch.delenv("SPCA_THREADS", raising=False)
    assert env_workers() == 1
    monkeypatch.setenv("SPCA_THREADS", "4")
    assert env_workers() == 4
    monkeypatch.setenv("SPCA_THREADS", "bogus")
    assert env_workers() == 1

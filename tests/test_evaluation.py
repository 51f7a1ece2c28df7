import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spcakit import (
    DegenerateSolution,
    DimensionMismatch,
    SparseUnitVector,
    SvdParams,
    covariance_from_data,
    evaluate,
    exact_spca,
    pit_props,
    rank_one_diagnostics,
    round_sdp_solution,
    solve,
    solve_sdp_relaxation,
    sparsity_sweep,
    spca_sdp,
    spca_svd,
    symmetrize,
    threshold_row_indices,
    top_l_eigenpairs,
)
from spcakit import evaluation as evaluation_mod
from spcakit import matrix as matrix_mod

from helpers import count_calls, random_psd, wide_data


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
        z, sol, diag = spca_sdp(A, k=7, sparsity=7)
        rep = evaluate(A, z)
        assert rep.pve == pytest.approx(0.3074, abs=0.001)

    def test_floors_match_scalar_recomputation(self):
        A = random_psd(7, 1203)
        res = exact_spca(A, 3)
        rep = evaluate(
            A, res.optimal_vector, epsilon=0.4, alpha=1.02, z_ref=res.optimal_value,
            solver_gap=1e-5,
        )
        norm = np.abs(np.linalg.eigvalsh(A.entries)).max()
        trace = np.trace(A.entries)
        dense = res.optimal_vector.to_dense()
        assert rep.objective == pytest.approx(float(dense @ A.entries @ dense), abs=1e-10)
        assert rep.f_value == pytest.approx(rep.objective / norm, abs=1e-12)
        assert rep.pve == pytest.approx(rep.objective / trace, abs=1e-12)
        assert rep.thm1_floor == pytest.approx(res.optimal_value - 3 * 0.4 * trace, abs=1e-12)
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
            z, _, _ = spca_sdp(A, k=3, sparsity=4, polish=False)
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

        for seed in (21, 22):
            A = unit_row_normalize(random_psd(7, seed))
            (report,) = sparsity_sweep(A, "sdp", [7], epsilon=0.5, oracle_ref=True)
            assert report.thm2_floor <= report.objective + 1e-6

    def test_grid_validation(self):
        for grid in ([0], []):
            with pytest.raises(ValueError):
                sparsity_sweep(random_psd(4, 0), "svd", grid)

    def test_non_integer_grid_value_rejected(self, monkeypatch):
        solves = count_calls(monkeypatch, evaluation_mod, "solve")
        with pytest.raises(ValueError, match="grid value 2.7 is not an integer"):
            sparsity_sweep(pit_props(), "svd", [3, 2.7])
        assert solves == []

    def test_numpy_integer_grid_accepted(self):
        reports = sparsity_sweep(pit_props(), "svd", np.arange(2, 4))
        assert [r.sparsity for r in reports] == [2, 3]

    @pytest.mark.parametrize("algo", ["svd", "sdp", "oracle"])
    def test_points_equal_solve(self, algo):
        A = random_psd(8, 4242)
        grid = [2, 3, 4]
        reports = sparsity_sweep(A, algo, grid, oracle_ref=True)
        for s, report in zip(grid, reports):
            _, expected, _, _ = solve(A, algo, s, sparsity=s, oracle_ref=True)
            assert report == expected


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

    @pytest.mark.parametrize("algo", ["svd", "sdp"])
    def test_sparsity_above_n_rejected(self, algo):
        with pytest.raises(ValueError, match=r"sparsity 14 outside \[1, 13\]"):
            solve(pit_props(), algo, 7, sparsity=14)

    @pytest.mark.parametrize("algo", ["svd", "sdp", "oracle"])
    def test_theory_mode_requires_epsilon(self, algo):
        with pytest.raises(ValueError, match="theory mode requires epsilon"):
            solve(pit_props(), algo, 3)

    @pytest.mark.parametrize("sparsity", [2, 4, 40])
    def test_oracle_sparsity_must_equal_k(self, sparsity):
        A = random_psd(6, 12)
        with pytest.raises(ValueError, match=f"oracle sparsity {sparsity} must equal k=3"):
            solve(A, "oracle", 3, sparsity=sparsity)
        assert solve(A, "oracle", 3, sparsity=3)[0].sparsity == 3

    def test_non_integer_sparsity_rejected(self):
        with pytest.raises(ValueError, match="sparsity 2.7 is not an integer"):
            solve(pit_props(), "svd", 2, sparsity=2.7)

    def test_non_integer_k_rejected(self):
        with pytest.raises(ValueError, match="k 2.5 is not an integer"):
            solve(pit_props(), "svd", 2.5, sparsity=2)

    def test_numpy_integer_sizes_accepted(self):
        vec, _, _, _ = solve(pit_props(), "svd", np.int64(2), sparsity=np.int32(2))
        assert vec.sparsity == 2

    @pytest.mark.parametrize("algo", ["svd", "sdp", "oracle"])
    def test_arguments_checked_before_enumeration(self, monkeypatch, algo):
        enumerations = count_calls(monkeypatch, evaluation_mod, "exact_spca")
        for kwargs in ({"sparsity": 14}, {"sparsity": 7.0}, {"epsilon": None}, {"epsilon": 1.5}):
            with pytest.raises(ValueError):
                solve(pit_props(), algo, 7, oracle_ref=True, **kwargs)
        assert enumerations == []

    @pytest.mark.parametrize("algo", ["svd", "sdp", "oracle"])
    def test_epsilon_one_accepted(self, algo):
        _, report, _, _ = solve(random_psd(5, 9), algo, 2, sparsity=2, epsilon=1.0)
        assert report.objective > 0

    @pytest.mark.parametrize("algo", ["svd", "oracle"])
    def test_zero_matrix_gives_a_unit_vector_without_objective(self, algo):
        # svd's top right singular vector of a zero factor falls back to e_1
        vec, report, _, _ = solve(symmetrize(np.zeros((4, 4))), algo, 2, sparsity=2)
        assert vec.sparsity == 2 and report.norm == 1.0
        assert report.objective == report.f_value == 0.0

    def test_zero_matrix_sdp_is_degenerate(self):
        with pytest.raises(DegenerateSolution):
            solve(symmetrize(np.zeros((4, 4))), "sdp", 2, sparsity=2)

    @pytest.mark.parametrize("algo", ["svd", "sdp", "oracle"])
    def test_solution_and_diagnostics_only_for_sdp(self, algo):
        A = random_psd(6, 77)
        vec, report, sol, diag = solve(A, algo, 3, sparsity=3)
        assert report.objective == pytest.approx(vec.quadratic_form(A), abs=1e-12)
        if algo == "sdp":
            assert sol is not None and diag is not None
            assert report.z_ref == sol.objective
            assert report.thm2_floor is not None
        else:
            assert sol is None and diag is None
            assert report.thm2_floor is None

    @pytest.mark.parametrize("algo", ["svd", "sdp", "oracle"])
    def test_wide_covariance_gives_the_dense_vectors(self, algo):
        # A certified wide covariance builds its entries on first read, and
        # whether a caller read them first changes no bit. Its principal
        # blocks come from the data factor, so against the matrix that was
        # dense from the start the values agree to rounding.
        X = wide_data(6, 14, 24)
        lazy, read_first = covariance_from_data(X), covariance_from_data(X)
        dense = symmetrize(read_first.entries)
        assert lazy._entries is None and dense._factor is None
        (vec, report, _, _), (vec1, report1, _, _), (vec2, report2, _, _) = (
            solve(A, algo, 3, sparsity=3) for A in (lazy, read_first, dense)
        )
        assert vec1.support.tobytes() == vec.support.tobytes()
        assert vec1.values.tobytes() == vec.values.tobytes()
        assert report1 == report
        assert np.array_equal(vec2.support, vec.support)
        np.testing.assert_allclose(vec2.values, vec.values, rtol=1e-12, atol=0)
        assert report2.objective == pytest.approx(report.objective, rel=1e-12)


def _round_relaxation(A, s):
    sol = solve_sdp_relaxation(A, 2)
    return round_sdp_solution(sol, s, rank_one_diagnostics(sol))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda A: spca_svd(A, 2.5, sparsity=2), id="spca_svd-k-float"),
        pytest.param(lambda A: spca_sdp(A, 2.5, sparsity=2), id="spca_sdp-k-float"),
        pytest.param(lambda A: solve_sdp_relaxation(A, 2.5), id="solve_sdp_relaxation-k-float"),
        pytest.param(lambda A: exact_spca(A, 2.5), id="exact_spca-k-float"),
        pytest.param(
            lambda A: solve(A, "svd", 3, epsilon=0.5, l_override=1.5), id="solve-l_override-float"
        ),
        pytest.param(
            lambda A: _round_relaxation(A, 2.5), id="round-s-float"
        ),
        pytest.param(
            lambda A: _round_relaxation(A, A.n + 1),
            id="round-s-above-n",
        ),
        pytest.param(
            lambda A: threshold_row_indices(top_l_eigenpairs(A, 2), A.n + 1, sparsity=2),
            id="threshold_row_indices-k-above-n",
        ),
    ],
)
def test_solver_entries_reject_invalid_sizes(call):
    with pytest.raises(ValueError):
        call(pit_props())


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


def _relabel(A, perm, signs):
    """``P^T D A D P``: coordinate i is coordinate ``perm[i]`` of A, times its sign."""
    flipped = A.entries * np.outer(signs, signs)  # exact: the signs are +-1
    return symmetrize(flipped[np.ix_(perm, perm)])


def _relabel_vector(y, perm, signs):
    """The vector on ``_relabel(A, perm, signs)`` with y's quadratic form on A."""
    support = np.argsort(perm)[y.support]
    order = np.argsort(support)
    values = (signs[y.support] * y.values)[order]
    return SparseUnitVector(y.n, support[order], values, norm_le_one=y.norm_le_one)


class TestRelabelling:
    """Every solver and evaluate commute with a permutation and sign flip of the coordinates.

    Random Wishart inputs have no tied scores, so supports map exactly; the
    lowest-index tie-break would not map under a tie.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 12),
        st.integers(0, 2**31 - 1),
        st.sampled_from([2.0**-600, 2.0**-20, 1.0, 1e3, 2.0**40, 2.0**500]),
    )
    def test_solvers_and_evaluate_are_equivariant(self, n, seed, scale):
        A = random_psd(n, seed, scale=scale)
        rng = np.random.Generator(np.random.Philox(seed + 1))
        perm = rng.permutation(n)
        signs = rng.choice([-1.0, 1.0], size=n)
        k = int(rng.integers(1, min(n, 5) + 1))
        B = _relabel(A, perm, signs)

        def same(a, b):
            assert b == pytest.approx(a, rel=1e-12, abs=0)

        oracle_a, oracle_b = exact_spca(A, k), exact_spca(B, k)
        same(oracle_a.optimal_value, oracle_b.optimal_value)
        svd_a, svd_b = spca_svd(A, k, sparsity=k), spca_svd(B, k, sparsity=k)
        same(svd_a.quadratic_form(A), svd_b.quadratic_form(B))
        (sdp_a, sol_a, _), (sdp_b, sol_b, _) = spca_sdp(A, k, sparsity=k), spca_sdp(B, k, sparsity=k)
        same(sdp_a.quadratic_form(A), sdp_b.quadratic_form(B))
        same(sol_a.dual_bound, sol_b.dual_bound)
        assert sol_b.dual_bound >= oracle_b.optimal_value * (1.0 - 1e-12)
        for y_a, y_b in ((oracle_a.optimal_vector, oracle_b.optimal_vector),
                         (svd_a, svd_b), (sdp_a, sdp_b)):
            mapped = _relabel_vector(y_a, perm, signs)
            np.testing.assert_array_equal(mapped.support, y_b.support)
            report_a, report_b = evaluate(A, y_a), evaluate(B, mapped)
            for field in ("objective", "f_value", "pve"):
                same(getattr(report_a, field), getattr(report_b, field))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from spcakit import (
    AdmmConfig,
    DegenerateSolution,
    FeasibilityResiduals,
    InvariantViolation,
    SdpSolution,
    exact_spca,
    pit_props,
    project_l1_ball_matrix,
    project_psd_trace_ball,
    rank_one_diagnostics,
    round_sdp_solution,
    solve_sdp_relaxation,
    spca_sdp,
    symmetrize,
    unit_row_normalize,
)

from spcakit import sdp as sdp_mod
from spcakit.sdp import _check_truncation_chain

from helpers import (
    count_calls,
    forged_truncation,
    l1_ball_projection_bisection,
    l1_ball_projection_sort,
    psd_trace_ball_projection_full,
    random_psd,
    run_python,
)

# Projection of the Philox(999) 5x5 symmetric matrix below onto the PSD
# trace ball, solved at build time by an independent convex solver
# (cvxpy + SCS, eps=1e-12) and frozen here.
_PSD_PROJECTION_EXPECTED = np.array([
    [0.023785750513538394, -0.04037039874464222, -0.06995822914141506, 0.009388383598027551, 0.007369293997171746],
    [-0.04037039874464222, 0.08163745617932838, 0.05591127109427751, 0.05476962555084706, -0.009080740572918536],
    [-0.06995822914141506, 0.05591127109427751, 0.5066298869146953, -0.3662136093987229, -0.038085346700530265],
    [0.009388383598027551, 0.05476962555084706, -0.3662136093987229, 0.3847686232914047, 0.021377630135831643],
    [0.007369293997171746, -0.009080740572918536, -0.038085346700530265, 0.021377630135831643, 0.0031782831010312255],
])


def _seeded_symmetric(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    raw = rng.standard_normal((n, n))
    return (raw + raw.T) / 2.0


def _with_spectrum(values, seed):
    """Symmetric matrix with the given eigenvalues and a seeded orthogonal basis."""
    values = np.asarray(values, dtype=float)
    rng = np.random.Generator(np.random.Philox(seed))
    q, _ = np.linalg.qr(rng.standard_normal((values.size, values.size)))
    M = (q * values) @ q.T
    return (M + M.T) / 2.0


def _admm_inputs(n, k, iters, seed):
    """The inputs both projections receive during the first ``iters`` ADMM iterations."""
    psd_inputs, l1_inputs = [], []
    psd, l1 = sdp_mod.project_psd_trace_ball, sdp_mod.project_l1_ball_matrix

    def record_psd(M, rank=None):
        psd_inputs.append((M.copy(), rank))
        return psd(M, rank)

    def record_l1(M, radius):
        l1_inputs.append((M.copy(), radius))
        return l1(M, radius)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp_mod, "project_psd_trace_ball", record_psd)
        mp.setattr(sdp_mod, "project_l1_ball_matrix", record_l1)
        solve_sdp_relaxation(random_psd(n, seed), k, AdmmConfig(max_iters=iters))
    return psd_inputs, l1_inputs


def _noise_plus_spike(n, seed, scale, spike):
    u = np.linspace(1.0, 2.0, n)
    return scale * _seeded_symmetric(n, seed) + spike * np.outer(u, u) / n


# Symmetric inputs whose projections keep anywhere from none to all
# eigenpairs: seeded noise at a drawn scale plus a drawn rank-1 spike.
_symmetric_inputs = st.builds(
    _noise_plus_spike,
    st.integers(1, 40),
    st.integers(0, 2**31 - 1),
    st.sampled_from([1e-3, 0.05, 0.3, 1.0, 3.0]),
    st.sampled_from([0.0, 0.5, 2.0, 20.0]),
)


class TestPsdTraceBallProjection:
    def test_interior_point_unchanged(self):
        M = np.diag([0.3, 0.2])
        np.testing.assert_allclose(project_psd_trace_ball(M), M, atol=1e-12)

    def test_clip_then_rescale(self):
        np.testing.assert_allclose(
            project_psd_trace_ball(np.diag([2.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_matches_independent_convex_solver(self):
        M = _seeded_symmetric(5, 999)
        np.testing.assert_allclose(
            project_psd_trace_ball(M), _PSD_PROJECTION_EXPECTED, atol=1e-6, rtol=0
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_output_always_feasible_and_idempotent(self, seed):
        M = _seeded_symmetric(4, seed)
        P = project_psd_trace_ball(M)
        w = np.linalg.eigvalsh(P)
        assert w[0] >= -1e-12
        assert np.trace(P) <= 1.0 + 1e-12
        np.testing.assert_allclose(project_psd_trace_ball(P), P, atol=1e-10)

    @given(_symmetric_inputs, st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_eigh_reference(self, M, rank):
        expected = psd_trace_ball_projection_full(M)
        got, _ = project_psd_trace_ball(M, rank)
        np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)
        np.testing.assert_allclose(project_psd_trace_ball(M), expected, atol=1e-12, rtol=0)

    def test_matches_reference_on_admm_states(self):
        psd_inputs, _ = _admm_inputs(128, 8, 40, seed=61)
        assert {rank for _, rank in psd_inputs} != {1}
        for M, rank in psd_inputs:
            got, _ = project_psd_trace_ball(M, rank)
            np.testing.assert_allclose(got, psd_trace_ball_projection_full(M), atol=1e-12, rtol=0)

    def test_inside_trace_ball_keeps_every_eigenpair(self, monkeypatch):
        # All eigenvalues positive with sum 0.9: theta is 0 and nothing is
        # clipped. The top-2 certificate fails, so one full decomposition runs.
        values = np.linspace(1.0, 2.0, 40)
        M = _with_spectrum(0.9 * values / values.sum(), seed=5)
        full = count_calls(monkeypatch, lapack, "dsyevd")
        got, kept = project_psd_trace_ball(M, 1)
        assert kept == 40 and len(full) == 1
        np.testing.assert_allclose(got, M, atol=1e-12, rtol=0)

    def test_tie_at_theta_is_certified(self, monkeypatch):
        # Top values 2 and 1 give theta = 1, equal to the second eigenvalue,
        # which therefore maps to zero: the partial solve is exact.
        M = np.diag([0.5, 1.0, -1.0, 2.0, 0.25, 1.0, 0.0, 0.125])
        full = count_calls(monkeypatch, lapack, "dsyevd")
        got, kept = project_psd_trace_ball(M, 1)
        expected = np.zeros((8, 8))
        expected[3, 3] = 1.0
        assert kept == 1 and full == []
        np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)
        np.testing.assert_allclose(got, psd_trace_ball_projection_full(M), atol=1e-12, rtol=0)

    def test_rank_jump_falls_back_to_full_decomposition(self, monkeypatch):
        # Five eigenvalues survive (theta = 0.2), but the rank hint is 1: the
        # top two sum to 0.95, theta from them is 0 and the second value is
        # above it, so the certificate fails.
        values = np.concatenate([[0.5, 0.45, 0.4, 0.35, 0.3], -np.linspace(0.1, 1.0, 35)])
        M = _with_spectrum(values, seed=8)
        partial = count_calls(monkeypatch, lapack, "dsyevr")
        full = count_calls(monkeypatch, lapack, "dsyevd")
        got, kept = project_psd_trace_ball(M, 1)
        assert kept == 5 and len(partial) == 1 and len(full) == 1
        np.testing.assert_allclose(got, psd_trace_ball_projection_full(M), atol=1e-12, rtol=0)
        np.testing.assert_allclose(np.linalg.eigvalsh(got)[-5:], values[:5][::-1] - 0.2, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_all_negative_and_zero_input_project_to_zero(self, n):
        for M in (-np.eye(n) - 0.5 * np.ones((n, n)), np.zeros((n, n))):
            got, kept = project_psd_trace_ball(M, 1)
            assert kept == 0
            np.testing.assert_array_equal(got, np.zeros((n, n)))


class TestL1BallProjection:
    def test_inside_ball_unchanged(self):
        M = np.array([[0.1, -0.2], [0.05, 0.15]])
        np.testing.assert_array_equal(project_l1_ball_matrix(M, 1.0), M)

    def test_scalar_shrink(self):
        np.testing.assert_allclose(project_l1_ball_matrix(np.array([[1.0]]), 0.25), [[0.25]])

    def test_matches_bisection_oracle(self):
        M = _seeded_symmetric(4, 20240)
        ours = project_l1_ball_matrix(M, 2.0)
        oracle = l1_ball_projection_bisection(M, 2.0)
        np.testing.assert_allclose(ours, oracle, atol=1e-8, rtol=0)
        assert np.abs(ours).sum() <= 2.0 + 1e-10

    def test_symmetry_preserved(self):
        M = _seeded_symmetric(5, 77)
        out = project_l1_ball_matrix(M, 1.5)
        np.testing.assert_array_equal(out, out.T)

    @given(st.integers(0, 2**31 - 1), st.floats(0.1, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_radius_respected(self, seed, radius):
        M = _seeded_symmetric(3, seed)
        out = project_l1_ball_matrix(M, radius)
        assert np.abs(out).sum() <= radius + 1e-9
        np.testing.assert_allclose(
            out, l1_ball_projection_bisection(M, radius), atol=1e-7, rtol=0
        )

    @given(_symmetric_inputs, st.floats(0.01, 50.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_sort_reference(self, M, radius):
        out = project_l1_ball_matrix(M, radius)
        np.testing.assert_allclose(out, l1_ball_projection_sort(M, radius), atol=1e-12, rtol=0)
        np.testing.assert_array_equal(out, out.T)

    def test_matches_reference_on_admm_states(self):
        _, l1_inputs = _admm_inputs(128, 8, 40, seed=61)
        for M, radius in l1_inputs:
            np.testing.assert_allclose(
                project_l1_ball_matrix(M, radius), l1_ball_projection_sort(M, radius),
                atol=1e-12, rtol=0,
            )

    def test_on_boundary_unchanged(self):
        M = np.array([[0.5, -0.25], [-0.25, 1.0]])
        np.testing.assert_array_equal(project_l1_ball_matrix(M, 2.0), M)

    def test_tied_magnitudes_shrink_equally(self):
        M = np.array([[0.5, -0.5], [-0.5, 0.5]])
        np.testing.assert_allclose(project_l1_ball_matrix(M, 1.0), M / 2.0, atol=1e-15)

    def test_one_dominant_entry(self):
        M = np.diag([0.01, -10.0, 0.02, 0.03])
        expected = np.zeros((4, 4))
        expected[1, 1] = -1.0
        np.testing.assert_allclose(project_l1_ball_matrix(M, 1.0), expected, atol=1e-15)


class TestSolveRelaxation:
    def test_identity_objective_one(self):
        sol = solve_sdp_relaxation(symmetrize(np.eye(3)), 3)
        assert sol.objective == pytest.approx(1.0, abs=1e-4)
        assert sol.converged

    def test_rank_one_recovery(self):
        A = np.zeros((4, 4))
        A[0, 0] = 1.0
        sol = solve_sdp_relaxation(symmetrize(A), 1)
        assert sol.objective == pytest.approx(1.0, abs=1e-4)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(sol.Z, expected, atol=1e-4)

    def test_dominates_oracle_and_sparse_outputs(self):
        A = random_psd(8, 314)
        k = 3
        sol = solve_sdp_relaxation(A, k)
        z_star = exact_spca(A, k).optimal_value
        assert sol.objective >= z_star - 1e-3
        from spcakit import spca_svd

        z = spca_svd(A, k, sparsity=k, epsilon=1.0)
        assert sol.objective >= z.quadratic_form(A) - 1e-3

    def test_feasibility_at_convergence(self):
        for seed in range(5):
            A = random_psd(7, 8800 + seed)
            k = 3
            sol = solve_sdp_relaxation(A, k)
            assert sol.converged
            assert np.trace(sol.Z) <= 1.0 + 1e-5
            assert np.abs(sol.Z).sum() <= k * (1.0 + 1e-5)
            assert sol.feasibility.min_eigenvalue >= -1e-6

    def test_nonconvergence_is_flagged_not_raised(self):
        sol = solve_sdp_relaxation(random_psd(6, 5), 2, AdmmConfig(max_iters=3))
        assert not sol.converged
        assert sol.iterations_used == 3

    def test_loop_calls_no_numpy_linalg(self, monkeypatch):
        # NumPy and SciPy each bundle their own BLAS. Alternating the two
        # inside the loop makes their thread pools contend, so every
        # per-iteration call goes to SciPy's LAPACK and BLAS.
        spies = {
            name: count_calls(monkeypatch, np.linalg, name) for name in ("eigh", "eigvalsh", "norm")
        }
        counts = []
        for iters in (5, 50):
            before = {name: len(calls) for name, calls in spies.items()}
            sol = solve_sdp_relaxation(random_psd(20, 44), 3, AdmmConfig(max_iters=iters))
            assert sol.iterations_used == iters
            counts.append({name: len(calls) - before[name] for name, calls in spies.items()})
        assert counts[0] == counts[1]

    def test_deterministic(self):
        A = random_psd(6, 51)
        a = solve_sdp_relaxation(A, 2)
        b = solve_sdp_relaxation(A, 2)
        assert np.array_equal(a.Z, b.Z)
        assert a.objective == b.objective


class TestDualityGap:
    @pytest.mark.parametrize("n, seed, k", [(6, 51, 2), (6, 130, 2)])
    def test_scale_invariance(self, n, seed, k):
        # Scaling A and rho by a power of two is exact in floating point, so
        # a scale-free solver repeats every iterate bit for bit and scales
        # the objective and the bound exactly. Absolute stopping tolerances
        # fail this.
        A = random_psd(n, seed)
        ref = solve_sdp_relaxation(A, k, AdmmConfig(rho=1.0))
        assert ref.converged
        for j in range(-10, 11):
            scaled = symmetrize(A.entries * 2.0**j)
            sol = solve_sdp_relaxation(scaled, k, AdmmConfig(rho=2.0**j))
            assert sol.iterations_used == ref.iterations_used, j
            assert np.array_equal(sol.Z, ref.Z), j
            assert sol.objective == ref.objective * 2.0**j, j
            assert sol.dual_bound == ref.dual_bound * 2.0**j, j
            assert sol.converged

    def test_scale_invariance_covers_rho_adaptation(self):
        # The second instance above runs past the first rho adaptation, and
        # the adaptation changes its path.
        A = random_psd(6, 130)
        adaptive = solve_sdp_relaxation(A, 2)
        fixed = solve_sdp_relaxation(A, 2, AdmmConfig(adaptive_rho=False))
        assert adaptive.iterations_used > sdp_mod._RHO_ADAPT_EVERY
        assert adaptive.iterations_used != fixed.iterations_used

    @given(st.integers(1, 12), st.integers(0, 2**31 - 1), st.sampled_from([1e-3, 1.0, 1e3]))
    @settings(max_examples=40, deadline=None)
    def test_dual_bound_dominates_oracle(self, n, seed, scale):
        # The bound holds at every iterate; max_iters only caps the cost of
        # the rare input the default rho schedule cannot certify. At k = n
        # both sides are lambda_max(A), from two eigensolvers whose results
        # can differ in the last bits, hence the rounding allowance.
        A = random_psd(n, seed, scale=scale)
        cfg = AdmmConfig(rho=scale, max_iters=5000)
        for k in range(1, n + 1):
            sol = solve_sdp_relaxation(A, k, cfg)
            z_star = exact_spca(A, k).optimal_value
            assert sol.dual_bound >= z_star * (1.0 - 1e-12), k
            assert sol.objective <= sol.dual_bound * (1.0 + 1e-12), k

    @pytest.mark.parametrize("seed", range(6))
    def test_gap_nonnegative_when_max_iters_hit(self, seed):
        sol = solve_sdp_relaxation(random_psd(8, 700 + seed), 3, AdmmConfig(max_iters=3))
        assert not sol.converged and sol.iterations_used == 3
        assert sol.solver_gap == sol.dual_bound - sol.objective > 0.0

    @pytest.mark.parametrize("max_iters", [1, 3, 24, 50_000])
    def test_reported_z_is_feasible(self, max_iters):
        for seed in range(5):
            A = random_psd(12, 800 + seed)
            k = 1 + seed
            sol = solve_sdp_relaxation(A, k, AdmmConfig(max_iters=max_iters))
            assert np.trace(sol.Z) <= 1.0 + 1e-12
            assert np.abs(sol.Z).sum() <= k + 1e-12
            assert sol.feasibility.min_eigenvalue >= -1e-12
            assert sol.feasibility.min_eigenvalue == np.linalg.eigvalsh(sol.Z)[0]
            assert sol.objective == pytest.approx(float(np.sum(A.entries * sol.Z)), rel=1e-12)

    @pytest.mark.parametrize("gap_tol", [1e-2, 1e-4, 1e-6])
    def test_converged_gap_within_tolerance(self, gap_tol):
        sol = solve_sdp_relaxation(pit_props(), 7, AdmmConfig(gap_tol=gap_tol))
        assert sol.converged
        assert 0.0 <= sol.solver_gap <= gap_tol * sol.dual_bound
        assert sol.iterations_used % sdp_mod._GAP_CHECK_EVERY == 0

    def test_tighter_tolerance_costs_iterations(self):
        loose = solve_sdp_relaxation(pit_props(), 7, AdmmConfig(gap_tol=1e-2))
        tight = solve_sdp_relaxation(pit_props(), 7, AdmmConfig(gap_tol=1e-6))
        assert loose.iterations_used < tight.iterations_used
        assert tight.solver_gap < loose.solver_gap

    @pytest.mark.parametrize("field", ["rho", "gap_tol"])
    def test_config_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            AdmmConfig(**{field: 0.0})

    def test_lambda_max_falls_back_when_dsyevr_finds_nothing(self, monkeypatch):
        # dsyevr's index-range bisection can return no value (m = 0,
        # info = 2) when the top eigenvalue is repeated exactly.
        def empty(M, **kwargs):
            return np.zeros(M.shape[0]), None, 0, None, 2

        monkeypatch.setattr(lapack, "dsyevr", empty)
        full = count_calls(monkeypatch, lapack, "dsyevd")
        M = _with_spectrum([1.0, 1.0, 1.0, 0.0, -2.0], seed=3)
        assert sdp_mod._lambda_max(M) == pytest.approx(1.0, abs=1e-12)
        assert len(full) == 1


class TestRounding:
    def test_already_rank_one_one_sparse(self):
        A = np.zeros((4, 4))
        A[0, 0] = 1.0
        sol = solve_sdp_relaxation(symmetrize(A), 1)
        z, diag = round_sdp_solution(sol, 1)
        np.testing.assert_allclose(z.to_dense(), [1.0, 0.0, 0.0, 0.0], atol=1e-4)
        assert diag.alpha == pytest.approx(1.0, abs=1e-6)
        assert diag.beta == pytest.approx(1.0, abs=1e-4)

    def test_diagonal_arithmetic(self):
        A = symmetrize(np.eye(2))
        sol = SdpSolution(
            matrix=A,
            Z=np.diag([0.6, 0.4]),
            objective=1.0,
            feasibility=FeasibilityResiduals(0.0, 0.0, 0.4),
            iterations_used=0,
            converged=True,
            dual_bound=1.0,
        )
        z, diag = round_sdp_solution(sol, 1)
        np.testing.assert_allclose(z.to_dense(), [np.sqrt(0.6), 0.0], atol=1e-12)
        assert diag.beta == pytest.approx(0.6)
        assert z.norm_le_one and z.norm == pytest.approx(np.sqrt(0.6))

    def test_degenerate_solution_raises(self):
        A = symmetrize(np.eye(2))
        sol = SdpSolution(
            matrix=A,
            Z=np.zeros((2, 2)),
            objective=0.0,
            feasibility=FeasibilityResiduals(0.0, 0.0, 0.0),
            iterations_used=0,
            converged=True,
            dual_bound=0.0,
        )
        with pytest.raises(DegenerateSolution):
            round_sdp_solution(sol, 1)

    def test_alpha_at_least_one(self):
        for seed in range(6):
            A = random_psd(7, 9100 + seed)
            sol = solve_sdp_relaxation(A, 3)
            diag = rank_one_diagnostics(sol)
            assert diag.alpha >= 1.0 - 1e-6
            assert diag.beta > 0

    def test_truncation_distance_nonincreasing_in_s(self):
        A = random_psd(9, 40)
        sol = solve_sdp_relaxation(A, 3)
        diag = rank_one_diagnostics(sol)
        u = diag.top_eigenvector
        prev = np.inf
        for s in range(1, 10):
            z, _ = round_sdp_solution(sol, s)
            dist = np.linalg.norm(u - z.to_dense())
            assert dist <= prev + 1e-12
            prev = dist

    def test_rounded_support_selects_top_magnitudes(self):
        A = random_psd(8, 91)
        sol = solve_sdp_relaxation(A, 3)
        diag = rank_one_diagnostics(sol)
        z, _ = round_sdp_solution(sol, 4)
        order = np.argsort(-np.abs(diag.top_eigenvector), kind="stable")[:4]
        assert sorted(order.tolist()) == list(z.support)


class TestSpcaSdp:
    def test_identity_budget(self):
        A = symmetrize(np.eye(5))
        z, sol, diag = spca_sdp(A, k=2, sparsity=2)
        val = z.quadratic_form(A)
        assert val <= 1.0 + 1e-10
        assert val >= 1.0 - 2e-6

    def test_pitprops_matches_published_loadings(self):
        A = pit_props()
        z, sol, diag = spca_sdp(A, k=7, sparsity=7)
        assert z.quadratic_form(A) == pytest.approx(3.996, abs=0.01)
        assert list(z.support) == [0, 1, 5, 6, 7, 8, 9]
        expected = [0.424, 0.430, 0.268, 0.403, 0.313, 0.379, 0.399]
        np.testing.assert_allclose(np.abs(z.values), expected, atol=0.01, rtol=0)
        assert z.quadratic_form(A) == pytest.approx(exact_spca(A, 7).optimal_value, abs=0.005)

    def test_multiplicative_floor_on_oracle_instances(self):
        eps = 0.3
        for i in range(8):
            rng = np.random.Generator(np.random.Philox(5000 + i))
            n = int(rng.integers(6, 11))
            A = unit_row_normalize(random_psd(n, 6000 + i))
            z, sol, diag = spca_sdp(A, k=3, sparsity=n, polish=False)
            z_star = exact_spca(A, 3).optimal_value
            assert z.quadratic_form(A) >= z_star / diag.alpha - eps - sol.solver_gap

    def test_theory_mode_support_size(self):
        A = unit_row_normalize(random_psd(8, 17))
        eps = 0.9
        z, sol, diag = spca_sdp(A, k=2, epsilon=eps)
        cap = min(8, int(np.ceil(9 * 4 * diag.beta**2 / eps**2)))
        assert z.sparsity <= cap

    def test_polish_never_hurts(self):
        for seed in (3, 4, 5):
            A = random_psd(8, 7500 + seed)
            raw, _, _ = spca_sdp(A, k=3, sparsity=4, polish=False)
            polished, _, _ = spca_sdp(A, k=3, sparsity=4, polish=True)
            assert polished.quadratic_form(A) >= raw.quadratic_form(A) - 1e-12
            assert np.array_equal(polished.support, raw.support)
            assert polished.norm == pytest.approx(1.0)

    def test_deterministic_outputs(self):
        A = random_psd(7, 62)
        z1, s1, d1 = spca_sdp(A, k=2, sparsity=3)
        z2, s2, d2 = spca_sdp(A, k=2, sparsity=3)
        assert np.array_equal(z1.values, z2.values)
        assert np.array_equal(s1.Z, s2.Z)
        assert d1.alpha == d2.alpha and d1.beta == d2.beta


class TestTruncationChainCheck:
    def test_forged_truncation_raises(self):
        with pytest.raises(InvariantViolation, match="truncation chain violated"):
            _check_truncation_chain(*forged_truncation())

    def test_forged_truncation_raises_under_optimize(self):
        code = (
            "import sys\n"
            "from helpers import forged_truncation\n"
            "from spcakit import InvariantViolation\n"
            "from spcakit.sdp import _check_truncation_chain\n"
            "try:\n"
            "    _check_truncation_chain(*forged_truncation())\n"
            "except InvariantViolation:\n"
            "    print('raised', sys.flags.optimize)\n"
        )
        proc = run_python("-O", "-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised 1"

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from spcakit import (
    AdmmConfig,
    ConvergenceFailure,
    DegenerateSolution,
    InvariantViolation,
    SdpSolution,
    SvdParams,
    SyntheticConfig,
    covariance_from_data,
    exact_spca,
    pit_props,
    project_l1_ball_matrix,
    project_psd_trace_ball,
    rank_one_diagnostics,
    round_sdp_solution,
    solve,
    solve_sdp_relaxation,
    spca_sdp,
    spca_svd,
    symmetrize,
    synthetic_spiked,
    unit_row_normalize,
)

from spcakit import matrix as matrix_mod
from spcakit import sdp as sdp_mod
from spcakit.sdp import _check_truncation_chain

from helpers import (
    count_calls,
    failing_dsyevd,
    forged_truncation,
    l1_ball_projection_bisection,
    l1_ball_projection_sort,
    psd_trace_ball_projection_full,
    random_psd,
    run_python,
    wide_data,
)

EPS = float(np.finfo(float).eps)

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


def _documented_min_eigenvalue(Z):
    """``(min_eigenvalue, ||Z - u u^T||_F)`` as rank_one_diagnostics documents them.

    u is Z's column at its largest diagonal entry over that entry's square
    root. When it leaves a residual within ``_RANK_ONE_RTOL * ||Z||_F``, Z
    counts as rank-1 and the value is 0 (Z_00 when n = 1); otherwise it is
    eigh's smallest eigenvalue.
    """
    j = int(np.argmax(np.diag(Z)))
    u = Z[:, j] / np.sqrt(Z[j, j])
    residual = float(np.linalg.norm(Z - np.outer(u, u)))
    if residual <= sdp_mod._RANK_ONE_RTOL * np.linalg.norm(Z):
        return (float(Z[0, 0]) if Z.shape[0] == 1 else 0.0), residual
    return float(np.linalg.eigh(Z)[0][0]), residual


def _assert_min_eigenvalue_documented(diag, Z):
    # The rank-1 value lies within ||Z - u u^T||_F of eigh's (Weyl), plus
    # eigh's own backward error of a few n eps ||Z||_F.
    expected, residual = _documented_min_eigenvalue(Z)
    assert diag.min_eigenvalue == expected
    eigh_error = Z.shape[0] * EPS * float(np.linalg.norm(Z))
    assert abs(diag.min_eigenvalue - np.linalg.eigh(Z)[0][0]) <= residual + eigh_error


def _admm_inputs(n, k, iters, seed):
    """The inputs both projections receive during the first ``iters`` ADMM iterations."""
    psd_inputs, l1_inputs = [], []
    psd, l1 = sdp_mod.project_psd_trace_ball, sdp_mod.project_l1_ball_matrix

    def record_psd(M, rank):
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
        np.testing.assert_allclose(project_psd_trace_ball(M)[0], M, atol=1e-12)

    def test_clip_then_rescale(self):
        np.testing.assert_allclose(
            project_psd_trace_ball(np.diag([2.0, -1.0]))[0], np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_matches_independent_convex_solver(self):
        M = _seeded_symmetric(5, 999)
        np.testing.assert_allclose(
            project_psd_trace_ball(M)[0], _PSD_PROJECTION_EXPECTED, atol=1e-6, rtol=0
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_output_always_feasible_and_idempotent(self, seed):
        M = _seeded_symmetric(4, seed)
        P, _, _ = project_psd_trace_ball(M)
        w = np.linalg.eigvalsh(P)
        assert w[0] >= -1e-12
        assert np.trace(P) <= 1.0 + 1e-12
        np.testing.assert_allclose(project_psd_trace_ball(P)[0], P, atol=1e-10)

    @given(_symmetric_inputs, st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_eigh_reference(self, M, rank):
        # top is a unit eigenvector of the largest eigenvalue of M's
        # symmetric part; the Rayleigh quotient checks it even on a tie.
        expected = psd_trace_ball_projection_full(M)
        got, _, top = project_psd_trace_ball(M, rank)
        np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)
        sym = (M + M.T) / 2.0
        assert top @ top == pytest.approx(1.0, rel=1e-13)
        assert top @ sym @ top == pytest.approx(np.linalg.eigvalsh(sym)[-1], rel=0,
                                                abs=1e-12 * max(1.0, np.abs(sym).max()))
        np.testing.assert_allclose(project_psd_trace_ball(M)[0], expected, atol=1e-12, rtol=0)

    def test_matches_reference_on_admm_states(self):
        psd_inputs, _ = _admm_inputs(128, 8, 40, seed=61)
        assert {rank for _, rank in psd_inputs} != {1}
        for M, rank in psd_inputs:
            got, _, _ = project_psd_trace_ball(M, rank)
            np.testing.assert_allclose(got, psd_trace_ball_projection_full(M), atol=1e-12, rtol=0)

    def test_inside_trace_ball_keeps_every_eigenpair(self, monkeypatch):
        # All eigenvalues positive with sum 0.9: theta is 0 and nothing is
        # clipped. The top-2 certificate fails, so one full decomposition runs.
        values = np.linspace(1.0, 2.0, 40)
        M = _with_spectrum(0.9 * values / values.sum(), seed=5)
        full = count_calls(monkeypatch, lapack, "dsyevd")
        got, kept, _ = project_psd_trace_ball(M, 1)
        assert kept == 40 and len(full) == 1
        np.testing.assert_allclose(got, M, atol=1e-12, rtol=0)

    def test_tie_at_theta_is_certified(self, monkeypatch):
        # Top values 2 and 1 give theta = 1, equal to the second eigenvalue,
        # which therefore maps to zero: the partial solve is exact.
        M = np.diag([0.5, 1.0, -1.0, 2.0, 0.25, 1.0, 0.0, 0.125])
        full = count_calls(monkeypatch, lapack, "dsyevd")
        got, kept, _ = project_psd_trace_ball(M, 1)
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
        got, kept, _ = project_psd_trace_ball(M, 1)
        assert kept == 5 and len(partial) == 1 and len(full) == 1
        np.testing.assert_allclose(got, psd_trace_ball_projection_full(M), atol=1e-12, rtol=0)
        np.testing.assert_allclose(np.linalg.eigvalsh(got)[-5:], values[:5][::-1] - 0.2, atol=1e-12)

    def test_dsyevr_failure_falls_back_to_full_decomposition(self, monkeypatch):
        # A failed partial solve is not an error: the full decomposition
        # gives the exact projection.
        def failing(M, **kwargs):
            return np.zeros(M.shape[0]), np.zeros((M.shape[0], 2)), 2, None, 1

        monkeypatch.setattr(lapack, "dsyevr", failing)
        full = count_calls(monkeypatch, lapack, "dsyevd")
        values = np.concatenate([[0.5, 0.45, 0.4], -np.linspace(0.1, 1.0, 37)])
        M = _with_spectrum(values, seed=8)
        got, kept, _ = project_psd_trace_ball(M, 1)
        assert kept == 3 and len(full) == 1
        np.testing.assert_allclose(got, psd_trace_ball_projection_full(M), atol=1e-12, rtol=0)

    def test_dsyevd_failure_raises(self, monkeypatch):
        monkeypatch.setattr(lapack, "dsyevd", failing_dsyevd)
        with pytest.raises(ConvergenceFailure, match="info=1"):
            project_psd_trace_ball(np.diag([2.0, -1.0]))

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_all_negative_and_zero_input_project_to_zero(self, n):
        for M in (-np.eye(n) - 0.5 * np.ones((n, n)), np.zeros((n, n))):
            got, kept, _ = project_psd_trace_ball(M, 1)
            assert kept == 0
            np.testing.assert_array_equal(got, np.zeros((n, n)))

    @given(st.integers(1, 40), st.integers(0, 2**31 - 1), st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
    @settings(max_examples=200, deadline=None)
    def test_threshold_matches_filter_iteration(self, n, seed, scale):
        # The one-pass threshold on an ascending spectrum against the filter
        # iteration on the same values; inside the ball both are 0.
        rng = np.random.Generator(np.random.Philox(seed))
        w = np.sort(scale * rng.standard_normal(n) + rng.uniform(-scale, scale))
        got = sdp_mod._trace_ball_threshold(w)
        positive = np.maximum(w, 0.0).sum()
        if positive <= 1.0:
            assert got == 0.0
        else:
            want = sdp_mod._simplex_threshold(w, 1.0, w.sum())
            assert got == pytest.approx(want, rel=1e-13, abs=0)
            assert np.maximum(w - got, 0.0).sum() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "w", [[], [-1.0], [0.0, 0.0], [0.3, 0.2], [-2.0, 0.5, 0.5], [0.0, 1.0], [-1.0, 0.25, 0.25, 0.5]]
    )
    def test_threshold_is_zero_inside_the_ball(self, w):
        assert sdp_mod._trace_ball_threshold(np.array(w, dtype=float)) == 0.0


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
            assert np.linalg.eigvalsh(sol.Z)[0] >= -1e-6

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
        # Every dense eigensolve of a whole solve, not only the loop's, goes
        # through the one SciPy helper in matrix.py.
        krylov = SvdParams(method="block_krylov", svd_eps=0.1, seed=3)
        solve(random_psd(64, 44), "svd", 4, sparsity=4)
        solve(random_psd(64, 44), "svd", 4, sparsity=4, svd=krylov)
        solve(random_psd(20, 44), "sdp", 3, sparsity=3)
        assert spies["eigh"] == [] and spies["eigvalsh"] == []
        counts = []
        for iters in (5, 50):
            before = {name: len(calls) for name, calls in spies.items()}
            # A tiny gap_tol keeps both solves unconverged, so the longer one
            # runs all of its iterations and gap checks.
            cfg = AdmmConfig(rho=1.0, max_iters=iters, gap_tol=1e-12)
            sol = solve_sdp_relaxation(random_psd(20, 44), 3, cfg)
            assert sol.iterations_used == iters
            counts.append({name: len(calls) - before[name] for name, calls in spies.items()})
        assert counts[0] == counts[1]

    def test_deterministic(self):
        A = random_psd(6, 51)
        a = solve_sdp_relaxation(A, 2)
        b = solve_sdp_relaxation(A, 2)
        assert a.iterations_used > 0
        assert np.array_equal(a.Z, b.Z)
        assert a.objective == b.objective


class TestDualityGap:
    @pytest.mark.parametrize("A, k, rho", [
        pytest.param(random_psd(6, 51), 2, 1.0, id="6-51-2"),
        pytest.param(random_psd(6, 120), 2, 1.0, id="6-120-2"),
        # An explicit start at 1000 lambda_max(A), halved by residual balancing.
        pytest.param(pit_props(), 3, 1000.0 * float(np.linalg.eigvalsh(pit_props().entries)[-1]),
                     id="pitprops-3-far-rho"),
    ])
    def test_scale_invariance(self, A, k, rho):
        # Scaling A and rho by a power of two is exact in floating point, so
        # a scale-free solver repeats every iterate bit for bit and scales
        # the objective and the bound exactly. Absolute stopping tolerances
        # fail this.
        ref = solve_sdp_relaxation(A, k, AdmmConfig(rho=rho))
        assert ref.converged and ref.iterations_used > 0
        for j in range(-10, 11):
            scaled = symmetrize(A.entries * 2.0**j)
            sol = solve_sdp_relaxation(scaled, k, AdmmConfig(rho=rho * 2.0**j))
            assert sol.iterations_used == ref.iterations_used, j
            assert np.array_equal(sol.Z, ref.Z), j
            assert sol.objective == ref.objective * 2.0**j, j
            assert sol.dual_bound == ref.dual_bound * 2.0**j, j
            assert sol.converged

    def test_scale_invariance_covers_rho_adaptation(self, monkeypatch):
        # The second instance above runs past the first rho adaptation, and
        # the adaptation changes its path: 230 iterations, 400 without it.
        A = random_psd(6, 120)
        adaptive = solve_sdp_relaxation(A, 2, AdmmConfig(rho=1.0))
        monkeypatch.setattr(sdp_mod, "_RHO_ADAPT_BUDGET", 0)
        fixed = solve_sdp_relaxation(A, 2, AdmmConfig(rho=1.0))
        assert adaptive.iterations_used > sdp_mod._RHO_ADAPT_EVERY
        assert adaptive.iterations_used != fixed.iterations_used

    def test_explicit_rho_far_above_lambda_max_is_halved(self, monkeypatch):
        # Measured in units of the start, the dual residual looked small and
        # rho was never halved: 19 825 iterations from 1000 lambda_max(A).
        A = pit_props()
        rho = 1000.0 * float(np.linalg.eigvalsh(A.entries)[-1])
        sol = solve_sdp_relaxation(A, 3, AdmmConfig(rho=rho))
        assert sol.converged and sol.iterations_used <= 1000
        monkeypatch.setattr(sdp_mod, "_RHO_ADAPT_BUDGET", 0)
        assert not solve_sdp_relaxation(A, 3, AdmmConfig(rho=rho, max_iters=1000)).converged

    @pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e3, 1e8])
    def test_default_rho_converges_at_every_scale(self, scale):
        # Started at the absolute rho = 1, this input ran all 50 000
        # iterations uncertified at scale 1e-8. The default start,
        # lambda_max(A), follows the scale of A.
        sol = solve_sdp_relaxation(random_psd(6, 51, scale=scale), 2)
        assert sol.converged
        assert 0 < sol.iterations_used <= 100

    def test_default_rho_is_scale_free(self, monkeypatch):
        # With the default config alone, scaling A by a power of two repeats
        # every iterate. This input runs past a rho adaptation that changes
        # its path (170 iterations, 240 without it), so the balancing rule is
        # covered too.
        A = random_psd(6, 120)
        ref = solve_sdp_relaxation(A, 2)
        with monkeypatch.context() as m:
            m.setattr(sdp_mod, "_RHO_ADAPT_BUDGET", 0)
            fixed = solve_sdp_relaxation(A, 2)
        assert ref.converged and ref.iterations_used > sdp_mod._RHO_ADAPT_EVERY
        assert ref.iterations_used != fixed.iterations_used
        for j in range(-30, 31):
            sol = solve_sdp_relaxation(symmetrize(A.entries * 2.0**j), 2)
            assert sol.iterations_used == ref.iterations_used, j
            assert np.array_equal(sol.Z, ref.Z), j
            assert sol.objective == ref.objective * 2.0**j, j
            assert sol.dual_bound == ref.dual_bound * 2.0**j, j

    def test_mixed_point_is_scale_free(self, monkeypatch):
        # This input stops on a mix of the PSD iterate at iteration 15; the
        # scaled iterate alone would close the gap at 30. Scaling A by a power of
        # two picks the same mix at the same check, bit for bit. The mix is
        # not rank-1, so the diagnostics take one full eigensolve of it.
        A = random_psd(12, 802)
        mixed = []
        primal = sdp_mod._primal_point

        def record(C, Z, *args):
            point = primal(C, Z, *args)
            mixed.append(point[0] is not Z)
            return point

        monkeypatch.setattr(sdp_mod, "_primal_point", record)
        ref = solve_sdp_relaxation(A, 3)
        assert ref.converged and ref.iterations_used == 15 and mixed == [False, False, True]
        calls = count_calls(monkeypatch, sdp_mod, "_symmetric_eigh")
        rank_one_diagnostics(ref)
        assert len(calls) == 1 and sdp_mod._rank_one_factor(ref.Z) is None
        for j in range(-30, 31):
            sol = solve_sdp_relaxation(symmetrize(A.entries * 2.0**j), 3)
            assert sol.iterations_used == ref.iterations_used, j
            assert np.array_equal(sol.Z, ref.Z), j
            assert sol.objective == ref.objective * 2.0**j, j
            assert sol.dual_bound == ref.dual_bound * 2.0**j, j

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
            assert np.linalg.eigvalsh(sol.Z)[0] >= -1e-12
            _assert_min_eigenvalue_documented(rank_one_diagnostics(sol), sol.Z)
            assert sol.objective == pytest.approx(float(np.sum(A.entries * sol.Z)), rel=1e-12)

    @pytest.mark.parametrize("max_iters", [1, 3, 24, AdmmConfig().max_iters])
    @given(st.integers(1, 12), st.integers(0, 2**31 - 1), st.sampled_from([1e-3, 1.0, 1e3]))
    @settings(max_examples=30, deadline=None)
    def test_every_returned_z_is_feasible(self, max_iters, n, seed, scale):
        # Certified, scaled or mixed, every returned Z is feasible up to a
        # rounding allowance of c n eps (c n^2 eps for the n^2-term sums),
        # and its objective is trace(A Z). The objective can pass the bound
        # by rounding when the gap is tight, by at most c n eps lambda_max(A).
        A = random_psd(n, seed, scale=scale)
        lam = float(np.linalg.eigvalsh(A.entries)[-1])
        c = 8.0
        for k in range(1, n + 1):
            sol = solve_sdp_relaxation(A, k, AdmmConfig(max_iters=max_iters))
            Z = sol.Z
            assert np.abs(Z - Z.T).max() <= c * n * EPS, k
            assert np.linalg.eigvalsh(Z)[0] >= -c * n * EPS, k
            assert np.trace(Z) <= 1.0 + c * n * EPS, k
            assert np.abs(Z).sum() <= k * (1.0 + c * n * n * EPS), k
            magnitude = np.einsum("ij,ij->", np.abs(A.entries), np.abs(Z))
            trace_az = np.einsum("ij,ij->", A.entries, Z)
            assert abs(sol.objective - trace_az) <= c * n * n * EPS * magnitude, k
            assert sol.objective <= sol.dual_bound + c * n * EPS * lam, k

    @pytest.mark.parametrize("gap_tol", [1e-2, 1e-4, 1e-6])
    def test_converged_gap_within_tolerance(self, gap_tol):
        sol = solve_sdp_relaxation(pit_props(), 7, AdmmConfig(gap_tol=gap_tol))
        assert sol.converged
        assert 0.0 <= sol.solver_gap <= gap_tol * sol.dual_bound
        assert sol.iterations_used > 0
        assert sol.iterations_used % sdp_mod._gap_check_every(sol.iterations_used) == 0

    def test_gap_check_interval_widens_from_5_to_25(self):
        intervals = [sdp_mod._gap_check_every(i) for i in range(1, 2001)]
        assert all(isinstance(every, int) and 5 <= every <= 25 for every in intervals)
        assert all(a <= b for a, b in zip(intervals, intervals[1:]))
        assert intervals[0] == 5 and intervals[-1] == 25

    def test_tighter_tolerance_costs_iterations(self):
        loose = solve_sdp_relaxation(pit_props(), 7, AdmmConfig(gap_tol=1e-2))
        tight = solve_sdp_relaxation(pit_props(), 7, AdmmConfig(gap_tol=1e-6))
        assert 0 < loose.iterations_used < tight.iterations_used
        assert tight.solver_gap < loose.solver_gap

    @pytest.mark.parametrize("field", ["rho", "gap_tol"])
    def test_config_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            AdmmConfig(**{field: 0.0})

    @pytest.mark.parametrize("field", ["rho", "gap_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_config_rejects_nonfinite(self, field, value):
        # NaN passes a "<= 0" test; a NaN gap_tol never certifies and a
        # non-finite rho fails inside LAPACK.
        with pytest.raises(ValueError, match=field):
            AdmmConfig(**{field: value})

    @pytest.mark.parametrize("value", [1.0, 1.5, 1e300])
    def test_config_rejects_gap_tol_of_one_or_more(self, value):
        # A relative gap of 1 certifies any nonnegative objective, and it
        # makes the skip rule's factor (1 - gap_tol) nonpositive.
        with pytest.raises(ValueError, match="gap_tol must be below 1"):
            AdmmConfig(gap_tol=value)

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, 0, -1, "3"])
    def test_config_rejects_non_integer_max_iters(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            AdmmConfig(max_iters=max_iters)

    def test_config_accepts_numpy_integer_max_iters(self):
        sol = solve_sdp_relaxation(random_psd(6, 5), 2, AdmmConfig(max_iters=np.int64(3)))
        assert sol.iterations_used == 3

    def test_config_rho_none_is_the_default(self):
        assert AdmmConfig().rho is None
        assert AdmmConfig(rho=None) == AdmmConfig()
        with pytest.raises(ValueError):
            AdmmConfig(rho=-1.0)
        with pytest.raises(ValueError):
            AdmmConfig(rho=-np.inf)


def _bisection_steps(monkeypatch):
    """Spy on ``sdp._dual_bound``; the returned list grows by one per call
    that asks for the eigenvector, that is, per bisection step of the clip
    search (the gap checks of the loop and the search's first point do not)."""
    steps = []
    bound = sdp_mod._dual_bound

    def spy(S, w_max, k, vectors=False):
        if vectors:
            steps.append(w_max)
        return bound(S, w_max, k, vectors)

    monkeypatch.setattr(sdp_mod, "_dual_bound", spy)
    return steps


def _spiked_second_moment(seed):
    X = synthetic_spiked(SyntheticConfig(m=32, n=128, seed=seed))
    return covariance_from_data(X, center=False)


class TestThresholdCertificate:
    """The thresholding solution x x^T and the dual clip(A, -t, t), tried before ADMM."""

    @given(
        st.integers(1, 12),
        st.integers(0, 2**31 - 1),
        st.sampled_from([1e-3, 1.0, 1e3]),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_bounds_dominate_oracle_and_z_is_feasible(self, n, seed, scale, fraction):
        # The structured dual bounds the optimum at every threshold, not only
        # at the searched one. Solves that certify before ADMM (most at k = 1
        # and k = n) and solves that run the loop (most others) give a
        # feasible Z and a dual bound at least the exact optimum.
        A = random_psd(n, seed, scale=scale)
        C = A.entries
        t = fraction * float(np.abs(C).max())
        cfg = AdmmConfig(rho=scale, max_iters=5000)
        for k in range(1, n + 1):
            z_star = exact_spca(A, k).optimal_value
            W = np.clip(C, -t, t)
            bound = sdp_mod._dual_bound(C - W, np.abs(W).max(), k)[0]
            assert bound >= z_star * (1.0 - 1e-12), k
            sol = solve_sdp_relaxation(A, k, cfg)
            assert sol.dual_bound >= z_star * (1.0 - 1e-12), k
            assert sol.objective <= sol.dual_bound * (1.0 + 1e-12), k
            assert sol.objective == pytest.approx(float(np.sum(C * sol.Z)), rel=1e-12)
            assert np.trace(sol.Z) <= 1.0 + 1e-12
            assert np.abs(sol.Z).sum() <= k * (1.0 + 1e-12)
            assert np.linalg.eigvalsh(sol.Z)[0] >= -1e-12

    @given(
        st.integers(1, 12),
        st.integers(0, 2**31 - 1),
        st.sampled_from([1e-3, 1.0, 1e3]),
        st.integers(-20, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_off_support_bound_dominates_oracle_and_scales(self, n, seed, scale, j):
        # The search's first point is the clip dual at t_off, so it bounds the
        # optimum for any support: the thresholding one and a random one from
        # the seed. An infinite objective closes every gap, so the search
        # stops there. On the full matrix, clip(C, -t_off, t_off) gives the
        # same bound. Scaling A by 2^j scales the bound by exactly 2^j.
        A = random_psd(n, seed, scale=scale)
        C = A.entries
        rng = np.random.default_rng(seed)
        for k in range(1, n + 1):
            z_star = exact_spca(A, k).optimal_value
            svd = spca_svd(A, k, sparsity=k)
            for keep in (svd.support, np.sort(rng.permutation(n)[:k])):
                t, bound = sdp_mod._clip_threshold(C, keep, k, np.inf, 1e-4)
                off = np.abs(C)
                off[np.ix_(keep, keep)] = 0.0
                assert t == off.max(), (k, keep)
                assert bound >= z_star * (1.0 - 1e-12), (k, keep)
                W = np.clip(C, -t, t)
                full = sdp_mod._dual_bound(C - W, np.abs(W).max(), k)[0]
                assert bound == pytest.approx(full, rel=1e-12, abs=1e-13 * np.abs(C).max())
                scaled = sdp_mod._clip_threshold(C * 2.0**j, keep, k, np.inf, 1e-4)
                assert scaled == (t * 2.0**j, bound * 2.0**j), (k, keep, j)

    @given(
        st.integers(1, 12),
        st.integers(0, 2**31 - 1),
        st.sampled_from([1e-3, 1.0, 1e3]),
        st.booleans(),
        st.integers(-20, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_threshold_above_t_off_does_better(self, n, seed, scale, gram, j):
        # The lemma behind the search's bracket [0, t_off]: above t_off the
        # bound g(t), taken independently on the full matrix, never falls, on
        # Gram and on indefinite matrices, for the thresholding support and a
        # random one. The search's bound is at least the optimum (the
        # oracle's, or by enumeration on an indefinite matrix) and scales by
        # exactly 2^j.
        rng = np.random.Generator(np.random.Philox(seed))
        g = rng.standard_normal((n, n))
        A = random_psd(n, seed, scale=scale) if gram else symmetrize(scale * (g + g.T) / 2)
        C = A.entries
        v = np.linalg.eigh(C)[1][:, -1]
        for k in range(1, n + 1):
            if gram:
                z_star = exact_spca(A, k).optimal_value
            else:
                z_star = max(
                    np.linalg.eigvalsh(C[np.ix_(s, s)])[-1]
                    for s in itertools.combinations(range(n), k)
                )
            for keep in (sdp_mod._top_indices(v * v, k), np.sort(rng.permutation(n)[:k])):
                off = np.abs(C)
                off[np.ix_(keep, keep)] = 0.0
                ts = np.linspace(off.max(), np.abs(C).max(), 9)
                W_t = [np.clip(C, -t, t) for t in ts]
                g_t = [sdp_mod._dual_bound(C - W, np.abs(W).max(), k)[0] for W in W_t]
                for t1, g1, g2 in zip(ts, g_t, g_t[1:]):
                    assert g2 >= g1 * (1.0 - 1e-12), (k, keep, t1)
                t, bound = sdp_mod._clip_threshold(C, keep, k, z_star, 1e-4)
                assert bound >= z_star * (1.0 - 1e-12), (k, keep)
                scaled = sdp_mod._clip_threshold(C * 2.0**j, keep, k, z_star * 2.0**j, 1e-4)
                assert scaled == (t * 2.0**j, bound * 2.0**j), (k, keep, j)

    def test_spiked_input_certifies_without_iterations(self):
        # gen-synthetic seed 3, as in the sdp-spiked benchmark. ADMM took 225
        # iterations here; the rounded support is the one it gave.
        A = _spiked_second_moment(3)
        z, sol, diag = spca_sdp(A, k=8, sparsity=8)
        assert sol.iterations_used == 0 and sol.converged
        assert sol.solver_gap <= 1e-4 * sol.dual_bound
        assert list(z.support) == [71, 75, 77, 103, 105, 107, 113, 117]
        x = spca_svd(A, 8, sparsity=8).to_dense()
        np.testing.assert_allclose(sol.Z, np.outer(x, x), atol=1e-15, rtol=0)
        assert diag.alpha == pytest.approx(1.0, abs=1e-12)
        assert diag.beta == pytest.approx(1.0, abs=1e-12)

    def test_uncertified_input_runs_the_same_loop(self):
        # Pit props at k = 7 does not certify before ADMM; iterations and
        # objective are those of the loop without the check, started at the
        # absolute rho = 1. A mix of the PSD iterate closes the gap at
        # iteration 25; the scaled iterate alone would need 70.
        sol = solve_sdp_relaxation(pit_props(), 7, AdmmConfig(rho=1.0))
        assert sol.iterations_used == 25
        assert sol.objective == 4.031493015693259
        assert sol.dual_bound == 4.031686223026918

    def test_tiny_one_by_one_certifies(self):
        # With rho = 1 this input ran all 50 000 iterations uncertified.
        sol = solve_sdp_relaxation(symmetrize([[3.9e-6]]), 1)
        assert sol.iterations_used == 0 and sol.converged
        assert sol.objective == 3.9e-6 and sol.dual_bound == 3.9e-6
        np.testing.assert_array_equal(sol.Z, [[1.0]])

    def test_scale_invariance(self):
        # As in the loop, scaling A by a power of two changes no decision and
        # scales the objective and the bound exactly.
        A = _spiked_second_moment(4)
        ref = solve_sdp_relaxation(A, 16)
        assert ref.iterations_used == 0
        for j in range(-10, 11):
            sol = solve_sdp_relaxation(symmetrize(A.entries * 2.0**j), 16)
            assert sol.iterations_used == 0, j
            assert np.array_equal(sol.Z, ref.Z), j
            assert sol.objective == ref.objective * 2.0**j, j
            assert sol.dual_bound == ref.dual_bound * 2.0**j, j

    def test_sign_flips_certify_alike(self):
        # D A D with D = diag(+-1) has the same optimum and eigenvectors D v,
        # so x must be chosen by magnitude, not by signed value.
        A = _spiked_second_moment(3)
        signs = np.where(np.arange(A.n) % 3 == 0, -1.0, 1.0)
        ref = solve_sdp_relaxation(A, 8)
        sol = solve_sdp_relaxation(symmetrize(A.entries * np.outer(signs, signs)), 8)
        assert sol.iterations_used == 0
        np.testing.assert_allclose(sol.Z, ref.Z * np.outer(signs, signs), atol=1e-14, rtol=0)
        assert sol.dual_bound == pytest.approx(ref.dual_bound, rel=1e-12)

    def test_explicit_rho_does_not_change_a_certified_solve(self):
        A = _spiked_second_moment(3)
        ref = solve_sdp_relaxation(A, 8)
        sol = solve_sdp_relaxation(A, 8, AdmmConfig(rho=50.0))
        assert sol.iterations_used == 0
        assert np.array_equal(sol.Z, ref.Z) and sol.dual_bound == ref.dual_bound

    def test_no_full_decomposition_above_dense_crossover(self, monkeypatch):
        # Above the crossover ensure_psd checks A by one Lanczos norm and
        # Cholesky, and the check before ADMM adds no full decomposition of A.
        n = matrix_mod._DENSE_CHECK_MAX_N + 1
        calls = count_calls(monkeypatch, matrix_mod, "eigendecompose")
        lanczos = count_calls(monkeypatch, matrix_mod, "_lanczos_norm")
        sol = solve_sdp_relaxation(random_psd(n, 4242), 4, AdmmConfig(max_iters=1))
        assert calls == [] and len(lanczos) == 1 and sol.iterations_used == 1

    def test_wide_data_runs_one_gram_eigensolve(self, monkeypatch):
        # The norm of a factor-backed covariance comes from the cached
        # eigendecomposition of the m x m F F^T, which a later svd solve on
        # the same matrix reads for its pairs: one m x m eigensolve in all.
        A = covariance_from_data(wide_data(20, 60, 3))
        calls = [count_calls(monkeypatch, lapack, name) for name in ("dsyevr", "dsyevd")]
        solve(A, "sdp", 4, sparsity=4)
        solve(A, "svd", 4, sparsity=4, epsilon=0.5)
        gram = [args[0] for args in calls[0] + calls[1] if args[0].shape == (20, 20)]
        assert len(gram) == 1 and np.array_equal(gram[0], A._factor @ A._factor.T)

    @pytest.mark.parametrize("built", ["covariance", "plain"])
    def test_certified_solve_runs_one_eigensolve_of_a(self, monkeypatch, built):
        # One top pair of A, from the PSD check on the plain matrix and from
        # the solver on the covariance (certified PSD when built), gives x,
        # the rho start and, on the plain matrix, the norm (the covariance's
        # comes from its small F F^T). The rank-1 Z needs no eigensolve.
        A = _spiked_second_moment(3)
        if built == "plain":
            A = symmetrize(A.entries)
        calls = []
        for name in ("dsyevr", "dsyevd"):
            original = getattr(lapack, name)

            def spy(M, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, np.array(M), kwargs))
                return _original(M, *args, **kwargs)

            monkeypatch.setattr(lapack, name, spy)
        _, report, sol, _ = solve(A, "sdp", 8, sparsity=8)
        assert sol.iterations_used == 0
        on_a = [(name, kw) for name, M, kw in calls if np.array_equal(M, A.entries)]
        assert on_a == [("dsyevr", dict(compute_v=1, range="I", il=A.n, iu=A.n, lower=1))]
        assert not any(name == "dsyevd" and M.shape == (A.n, A.n) for name, M, _ in calls)
        assert not any(np.array_equal(M, sol.Z) for _, M, _ in calls)
        assert report.f_value == pytest.approx(
            report.objective / np.linalg.eigvalsh(A.entries)[-1], rel=1e-12
        )

    def test_search_stops_once_certified(self, monkeypatch):
        # gen seed 7 at k = 8: the first point, t_off, leaves the gap open,
        # and the bisection below it closes the gap before its last step.
        A = _spiked_second_moment(7)
        svd = spca_svd(A, 8, sparsity=8)
        x = svd.to_dense()
        objective = float(x @ A.entries @ x)
        calls = count_calls(monkeypatch, sdp_mod, "_symmetric_eigh")
        t, bound = sdp_mod._clip_threshold(A.entries, svd.support, 8, objective, 1e-4)
        assert 1 < len(calls) < 1 + sdp_mod._CLIP_SEARCH_STEPS
        off = np.abs(A.entries)
        off[np.ix_(svd.support, svd.support)] = 0.0
        assert t < off.max()
        W = np.clip(A.entries, -t, t)
        full_bound = sdp_mod._dual_bound(A.entries - W, np.abs(W).max(), 8)[0]
        assert full_bound - objective <= 1e-4 * full_bound
        # the bound the search found on the nonzero rows is the full matrix's
        assert bound == pytest.approx(full_bound, rel=1e-14, abs=0)

    @given(st.integers(1, 12), st.integers(0, 2**31 - 1), st.sampled_from([1e-3, 1.0, 1e3]))
    @settings(max_examples=40, deadline=None)
    def test_skipped_search_could_not_certify(self, n, seed, scale):
        # Whenever the Rayleigh step skips the clip search, the search run
        # anyway returns a bound that fails the gap test. Scaling A by a
        # power of two changes no skip decision.
        A = random_psd(n, seed, scale=scale)
        gap_tol = AdmmConfig().gap_tol
        decisions = []
        rule = sdp_mod._clip_cannot_certify

        def record(C, x, keep, objective, lam, tol):
            skip = rule(C, x, keep, objective, lam, tol)
            decisions.append((skip, keep, objective))
            return skip

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sdp_mod, "_clip_cannot_certify", record)
            for entries in (A.entries, A.entries * 2.0**-7):
                for k in range(1, n + 1):
                    solve_sdp_relaxation(symmetrize(entries), k, AdmmConfig(max_iters=1))
        assert [skip for skip, _, _ in decisions[:n]] == [skip for skip, _, _ in decisions[n:]]
        for k, (skip, keep, objective) in enumerate(decisions[:n], start=1):
            if skip:
                _, bound = sdp_mod._clip_threshold(A.entries, keep, k, objective, gap_tol)
                assert bound - objective > gap_tol * bound, k

    def test_spiked_inputs_still_certify(self, monkeypatch):
        # The skip never fires where a threshold certifies: 30 gen-synthetic
        # datasets at the sdp-spiked sizes all certify with no iteration. The
        # search's first point, t_off, certifies 85 of the 90 solves; the
        # bisection below it runs on the other five only, and certifies them.
        steps = _bisection_steps(monkeypatch)
        searched = []
        for seed in range(30):
            A = _spiked_second_moment(seed)
            for k in (8, 16, 32):
                before = len(steps)
                assert solve_sdp_relaxation(A, k).iterations_used == 0, (seed, k)
                if len(steps) > before:
                    searched.append((seed, k))
        assert searched == [(7, 8), (7, 16), (17, 16), (19, 16), (29, 16)]

    def test_pit_props_certifies_where_it_did(self, monkeypatch):
        # The search's first point, t_off, certifies k = 1 and 13. At k = 2
        # and 12 it does not, and the bisection below it still certifies with
        # no iteration. k = 3..11 run the loop they ran before the check
        # existed (pinned counts): the search is skipped at k = 3..10 and
        # fails at k = 11. Mixed feasible points stop k = 3 and 6..8 earlier
        # than the scaled iterate alone would (35, 25, 65 and 20 iterations).
        A = pit_props()
        steps = _bisection_steps(monkeypatch)
        iterations, searched = {}, []
        for k in range(1, A.n + 1):
            before = len(steps)
            iterations[k] = solve_sdp_relaxation(A, k).iterations_used
            if len(steps) > before:
                searched.append(k)
        assert searched == [2, 11, 12]
        assert list(iterations.values()) == [0, 0, 30, 30, 25, 20, 15, 10, 10, 5, 5, 0, 0]

    def test_wishart_family_skips_every_search(self, monkeypatch):
        # The 20 x 20 Wishart inputs of the oracle-small benchmark, before its
        # relabelling: the thresholding objective is too far below a
        # Rayleigh step from it for any dual bound to certify it. Every solve
        # runs the loop; the 32 take 845 iterations in all (1330 with the
        # scaled PSD iterate alone as the feasible point).
        calls = count_calls(monkeypatch, sdp_mod, "_clip_threshold")
        iterations = []
        for index in range(8):
            g = np.random.default_rng([0, index]).standard_normal((20, 20))
            A = symmetrize(g @ g.T / 20)
            for k in (3, 4, 5, 6):
                iterations.append(solve_sdp_relaxation(A, k).iterations_used)
        assert calls == []
        assert min(iterations) > 0 and sum(iterations) == 845


class TestRounding:
    def test_already_rank_one_one_sparse(self):
        A = np.zeros((4, 4))
        A[0, 0] = 1.0
        sol = solve_sdp_relaxation(symmetrize(A), 1)
        diag = rank_one_diagnostics(sol)
        z = round_sdp_solution(sol, 1, diag)
        np.testing.assert_allclose(z.to_dense(), [1.0, 0.0, 0.0, 0.0], atol=1e-4)
        assert diag.alpha == pytest.approx(1.0, abs=1e-6)
        assert diag.beta == pytest.approx(1.0, abs=1e-4)

    def test_diagonal_arithmetic(self):
        A = symmetrize(np.eye(2))
        sol = SdpSolution(
            matrix=A,
            Z=np.diag([0.6, 0.4]),
            objective=1.0,
            iterations_used=0,
            converged=True,
            dual_bound=1.0,
        )
        diag = rank_one_diagnostics(sol)
        z = round_sdp_solution(sol, 1, diag)
        np.testing.assert_allclose(z.to_dense(), [np.sqrt(0.6), 0.0], atol=1e-12)
        assert diag.beta == pytest.approx(0.6)
        assert z.norm_le_one and z.norm == pytest.approx(np.sqrt(0.6))

    def test_degenerate_solution_raises(self):
        A = symmetrize(np.eye(2))
        sol = SdpSolution(
            matrix=A,
            Z=np.zeros((2, 2)),
            objective=0.0,
            iterations_used=0,
            converged=True,
            dual_bound=0.0,
        )
        with pytest.raises(DegenerateSolution):
            round_sdp_solution(sol, 1, rank_one_diagnostics(sol))

    def test_dsyevd_failure_raises(self, monkeypatch):
        # Z decides, never iterations_used: diag(0.6, 0.4) is far from
        # rank 1, so it takes the full decomposition.
        monkeypatch.setattr(lapack, "dsyevd", failing_dsyevd)
        for iterations_used in (0, 5):
            sol = SdpSolution(symmetrize(np.eye(2)), np.diag([0.6, 0.4]), 1.0, iterations_used, True, 1.0)
            with pytest.raises(ConvergenceFailure, match="info=1"):
                rank_one_diagnostics(sol)

    def test_rank_one_z_matches_the_eigh_reference(self, monkeypatch):
        # Certified solves (x x^T), ADMM iterates that kept one eigenvalue
        # (unconverged, and converged on the scaled iterate), and hand-built
        # rank-1 solutions: alpha, beta and the factor agree with those of a
        # full eigh of Z to 1e-12, and no eigensolve runs. (random_psd(12,
        # 802) at k = 3 converges on a mixed point at iteration 15.)
        solutions = [solve_sdp_relaxation(_spiked_second_moment(3), k) for k in (8, 16, 32)]
        solutions += [solve_sdp_relaxation(random_psd(12, 804), 5, AdmmConfig(max_iters=3)),
                      solve_sdp_relaxation(random_psd(12, 802), 3, AdmmConfig(max_iters=14)),
                      solve_sdp_relaxation(random_psd(12, 802), 2)]
        A = random_psd(7, 5)
        for seed in range(3):
            u = np.random.Generator(np.random.Philox(seed)).standard_normal(7)
            Z = np.outer(u, u) / (u @ u)
            solutions.append(SdpSolution(A, Z, float(np.sum(A.entries * Z)), 7, False, 9.0))
        for sol in solutions:
            w, v = np.linalg.eigh(sol.Z)
            u_ref = np.sqrt(w[-1]) * v[:, -1] * np.sign(v[np.argmax(np.abs(v[:, -1])), -1])
            alpha_ref = sol.objective / float(u_ref @ sol.matrix.entries @ u_ref)
            beta_ref = np.abs(u_ref).sum() ** 2 / np.abs(sol.Z).sum()
            calls = count_calls(monkeypatch, sdp_mod, "_symmetric_eigh")
            diag = rank_one_diagnostics(sol)
            assert calls == [] and diag.min_eigenvalue == 0.0
            assert diag.alpha == pytest.approx(alpha_ref, rel=1e-12, abs=0)
            assert diag.beta == pytest.approx(beta_ref, rel=1e-12, abs=0)
            np.testing.assert_allclose(diag.top_eigenvector, u_ref, rtol=0,
                                       atol=1e-12 * np.abs(u_ref).max())
        assert [sol.iterations_used for sol in solutions[:6]] == [0, 0, 0, 3, 14, 15]
        assert [sol.converged for sol in solutions[3:6]] == [False, False, True]

    @pytest.mark.parametrize("z", [1.0, 0.7, 3.9e-6])
    def test_one_by_one_reports_its_entry(self, z):
        sol = SdpSolution(symmetrize([[2.0]]), np.array([[z]]), 2.0 * z, 0, True, 2.0 * z)
        diag = rank_one_diagnostics(sol)
        assert diag.min_eigenvalue == z
        assert diag.top_eigenvector[0] == pytest.approx(np.sqrt(z), rel=1e-15)
        assert diag.alpha == pytest.approx(1.0, rel=1e-15)

    def test_hand_built_solution_gives_identical_diagnostics(self):
        # Diagnostics depend on Z alone: a solution rebuilt from the solver's
        # fields gives the same numbers bit for bit, whether the solve
        # certified before ADMM (spiked) or ran the loop (the others).
        iterations = []
        for A, k in ((pit_props(), 7), (random_psd(9, 40), 3), (_spiked_second_moment(3), 8)):
            sol = solve_sdp_relaxation(A, k)
            iterations.append(sol.iterations_used)
            rebuilt = SdpSolution(
                A, sol.Z.copy(), sol.objective, sol.iterations_used, sol.converged, sol.dual_bound
            )
            a, b = rank_one_diagnostics(sol), rank_one_diagnostics(rebuilt)
            assert (a.alpha, a.beta, a.min_eigenvalue) == (b.alpha, b.beta, b.min_eigenvalue)
            assert np.array_equal(a.top_eigenvector, b.top_eigenvector)
            _assert_min_eigenvalue_documented(a, sol.Z)
        assert [i > 0 for i in iterations] == [True, True, False]

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
            z = round_sdp_solution(sol, s, diag)
            dist = np.linalg.norm(u - z.to_dense())
            assert dist <= prev + 1e-12
            prev = dist

    def test_rounded_support_selects_top_magnitudes(self):
        A = random_psd(8, 91)
        sol = solve_sdp_relaxation(A, 3)
        diag = rank_one_diagnostics(sol)
        z = round_sdp_solution(sol, 4, diag)
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
        assert s1.iterations_used > 0
        assert np.array_equal(z1.values, z2.values)
        assert np.array_equal(s1.Z, s2.Z)
        assert d1.alpha == d2.alpha and d1.beta == d2.beta


class TestTruncationChainCheck:
    def test_forged_truncation_raises(self):
        with pytest.raises(InvariantViolation, match="truncation chain violated"):
            _check_truncation_chain(*forged_truncation())

    def test_rounding_at_a_large_scale_does_not_raise(self):
        # Here z'Az fell below the bound by rounding alone, more than an
        # absolute 1e-8 at this scale; the slack scales with A.
        X = synthetic_spiked(SyntheticConfig(m=32, n=128, seed=2)).entries
        z, _, _ = spca_sdp(symmetrize(2.0**40 * (X.T @ X / 31)), 8, sparsity=8)
        assert z.support.size == 8

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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spcakit import (
    EigenPairs,
    SparseUnitVector,
    SvdParams,
    covariance_from_data,
    eigendecompose,
    exact_spca,
    pit_props,
    solve,
    spca_svd,
    symmetrize,
    threshold_row_indices,
    top_l_eigenpairs,
)
from spcakit import data as data_mod
from spcakit import matrix as matrix_mod

from helpers import count_calls, random_psd, random_unit_vector, wide_data


def _orthonormal_columns(n, l, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    q, _ = np.linalg.qr(rng.standard_normal((n, l)))
    return q


class TestThresholdRowIndices:
    def test_single_nonzero_row(self):
        vecs = np.zeros((4, 1))
        vecs[0, 0] = 1.0
        pairs = EigenPairs(np.array([1.0]), vecs)
        selected = threshold_row_indices(pairs, k=2, epsilon=0.5)
        assert list(selected) == [0]

    def test_uniform_rows_boundary_inclusive(self):
        vecs = np.full((8, 1), np.sqrt(1.0 / 8.0))
        pairs = EigenPairs(np.array([1.0]), vecs)
        selected = threshold_row_indices(pairs, k=8, epsilon=1.0)
        assert list(selected) == list(range(8))

    def test_budget_matches_exhaustive_sort(self):
        vecs = _orthonormal_columns(10, 2, seed=31)
        pairs = EigenPairs(np.array([2.0, 1.0]), vecs)
        selected = threshold_row_indices(pairs, k=3, sparsity=3, epsilon=1.0)
        norms = (vecs ** 2).sum(axis=1)
        brute = sorted(sorted(range(10), key=lambda i: (-norms[i], i))[:3])
        assert list(selected) == brute

    @given(st.integers(0, 2**31 - 1), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_budget_keeps_heaviest_rows_property(self, seed, budget):
        vecs = _orthonormal_columns(12, 3, seed=seed)
        pairs = EigenPairs(np.array([3.0, 2.0, 1.0]), vecs)
        selected = threshold_row_indices(pairs, k=2, sparsity=budget, epsilon=1.0)
        norms = (vecs ** 2).sum(axis=1)
        brute = sorted(sorted(range(12), key=lambda i: (-norms[i], i))[: min(budget, 12)])
        assert list(selected) == brute

    def test_theory_sparsity_bound(self):
        for seed in range(10):
            A = random_psd(12, 4000 + seed)
            for eps, k in ((0.25, 2), (0.5, 3), (1.0, 4)):
                l = int(np.ceil(1.0 / eps))
                pairs = top_l_eigenpairs(A, l)
                selected = threshold_row_indices(pairs, k=k, epsilon=eps)
                assert selected.size <= k * l / eps**2 + 1e-9

    def test_empty_selection_falls_back_to_heaviest_row(self):
        # all rows far below the threshold: n large, l = 1, tight eps
        vecs = _orthonormal_columns(40, 1, seed=8)
        pairs = EigenPairs(np.array([1.0]), vecs)
        selected = threshold_row_indices(pairs, k=1, epsilon=1.0)
        if selected.size == 1:
            norms = (vecs ** 2).sum(axis=1)
            assert selected[0] == int(np.argmax(norms))


class TestSparseUnitVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseUnitVector(4, [0, 0], [0.7, 0.7])  # repeated index
        with pytest.raises(ValueError):
            SparseUnitVector(4, [0, 1], [1.0, 1.0])  # norm != 1
        with pytest.raises(ValueError):
            SparseUnitVector(2, [0, 5], [1.0, 0.0])  # out of range

    def test_dense_round_trip(self):
        v = SparseUnitVector(5, [1, 3], [0.6, 0.8])
        dense = v.to_dense()
        np.testing.assert_array_equal(dense, [0.0, 0.6, 0.0, 0.8, 0.0])
        assert v.sparsity == 2
        assert v.norm == pytest.approx(1.0)

    def test_norm_le_one_contract(self):
        v = SparseUnitVector(3, [0], [0.5], norm_le_one=True)
        assert v.norm == pytest.approx(0.5)


class TestSpcaSvd:
    def test_identity_budget(self):
        A = symmetrize(np.eye(6))
        z = spca_svd(A, 2, sparsity=2, epsilon=0.5)
        assert z.quadratic_form(A) == pytest.approx(1.0, abs=1e-12)
        assert z.sparsity <= 2

    def test_pitprops_matches_published_loadings(self):
        A = pit_props()
        z = spca_svd(A, 7, sparsity=7, epsilon=1.0)
        assert z.quadratic_form(A) == pytest.approx(3.993, abs=0.01)
        assert list(z.support) == [0, 1, 5, 6, 7, 8, 9]
        expected = [0.420, 0.422, 0.296, 0.416, 0.305, 0.371, 0.394]
        np.testing.assert_allclose(np.abs(z.values), expected, atol=0.01, rtol=0)

    def test_additive_floor_on_oracle_instances(self):
        eps = 0.25
        for i in range(12):
            rng = np.random.Generator(np.random.Philox(1000 + i))
            n = int(rng.integers(6, 11))
            k = int(rng.integers(2, 5))
            A = random_psd(n, 2000 + i)
            z = spca_svd(A, k, epsilon=eps)
            z_star = exact_spca(A, k).optimal_value
            assert z.quadratic_form(A) >= z_star - 3 * eps * A.trace - 1e-8

    def test_truncation_loss_bounded_by_trace_over_l(self):
        # restricted weighted eigenbasis keeps all but trace(A)/l of any
        # unit vector's quadratic form
        checked = 0
        for i in range(34):
            A = random_psd(int(6 + i % 15), 5000 + i)
            full = eigendecompose(A)
            for l in (1, 2, 4):
                x = random_unit_vector(A.n, 6000 + 10 * i + l)
                pairs = top_l_eigenpairs(A, l)
                kept = np.linalg.norm(np.sqrt(pairs.values) * (pairs.vectors.T @ x)) ** 2
                total = float(x @ A.entries @ x)
                assert kept >= total - A.trace / l - 1e-8
                checked += 1
        assert checked >= 100

    def test_unit_norm_and_support_size(self):
        for seed in range(6):
            A = random_psd(9, 7700 + seed)
            z = spca_svd(A, 3, epsilon=0.5)
            assert abs(z.norm - 1.0) <= 1e-10
            assert np.count_nonzero(z.to_dense()) <= z.sparsity

    def test_budget_objective_monotone_with_full_basis(self):
        # with l = n the solver maximizes the true quadratic form over
        # nested supports, so the objective is monotone in the budget
        A = random_psd(8, 1234)
        values = []
        for s in range(1, 9):
            z = spca_svd(A, 3, sparsity=s, epsilon=1.0, l_override=8)
            values.append(z.quadratic_form(A))
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-10

    def test_truncated_surrogate_monotone_in_budget(self):
        # for l < n the maximized surrogate is the truncated form; that is
        # the quantity guaranteed monotone over nested supports
        for seed in (11, 12, 13):
            A = random_psd(10, seed)
            for l in (1, 2, 4):
                pairs = top_l_eigenpairs(A, l)
                prev = -np.inf
                for s in range(1, 11):
                    z = spca_svd(A, 3, sparsity=s, epsilon=1.0, l_override=l)
                    surrogate = (
                        np.linalg.norm(
                            np.sqrt(pairs.values) * (pairs.vectors.T @ z.to_dense())
                        )
                        ** 2
                    )
                    assert surrogate >= prev - 1e-10
                    prev = surrogate

    def test_scale_equivariance(self):
        A = random_psd(9, 29)
        z1 = spca_svd(A, 3, epsilon=0.5)
        z2 = spca_svd(symmetrize(7.5 * A.entries), 3, epsilon=0.5)
        assert np.array_equal(z1.support, z2.support)
        np.testing.assert_allclose(z1.values, z2.values, atol=1e-12, rtol=0)
        for power in (-8, -2, 2, 8):
            z3 = spca_svd(symmetrize(2.0**power * A.entries), 3, epsilon=0.5)
            assert np.array_equal(z1.support, z3.support)
            assert np.array_equal(z1.values, z3.values)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            spca_svd(random_psd(4, 0), 5)

    def test_budget_mode_epsilon_none_counts_as_one(self):
        # No epsilon is needed in budget mode, as for spca_sdp: l is 1.
        A = pit_props()
        z = spca_svd(A, 2, sparsity=2, epsilon=None)
        ref = spca_svd(A, 2, sparsity=2, epsilon=1.0)
        assert np.array_equal(z.support, ref.support)
        assert np.array_equal(z.values, ref.values)


class TestEigensolverCalls:
    """Above the dense crossover, block Krylov and the exact top pair never
    decompose A in full, and paths that read the full decomposition pay for
    one full eigensolve of A."""

    @pytest.fixture
    def calls(self, monkeypatch):
        n = matrix_mod._DENSE_CHECK_MAX_N + 1
        spied = {
            "eigendecompose": (matrix_mod,),
            "_lanczos_norm": (matrix_mod,),
            "_shifted_cholesky_succeeds": (matrix_mod,),
        }
        lists = {
            name: [count_calls(monkeypatch, mod, name) for mod in mods]
            for name, mods in spied.items()
        }
        full = []
        helper = matrix_mod._symmetric_eigh

        def counting_eigh(M, top=None, vectors=True):
            if top is None and M.shape == (n, n):
                full.append(M)
            return helper(M, top, vectors)

        monkeypatch.setattr(matrix_mod, "_symmetric_eigh", counting_eigh)

        def counts():
            out = {name: sum(map(len, ls)) for name, ls in lists.items()}
            out["full_eigh"] = len(full)
            return out

        return n, counts

    def test_block_krylov_skips_the_full_decomposition(self, calls):
        n, counts = calls
        svd = SvdParams(method="block_krylov", svd_eps=0.1, seed=3)
        _, report, _, _ = solve(random_psd(n, 4242), "svd", 4, sparsity=4, svd=svd)
        assert counts() == {
            "eigendecompose": 0,
            "_lanczos_norm": 1,
            "_shifted_cholesky_succeeds": 1,
            "full_eigh": 0,
        }
        assert report.f_value > 0

    @pytest.mark.parametrize(
        "svd",
        [SvdParams(method="block_krylov", svd_eps=0.1, seed=3), SvdParams(method="exact")],
        ids=["block_krylov", "exact"],
    )
    def test_data_factor_solve_never_builds_the_entries(self, monkeypatch, calls, svd):
        import scipy.sparse.linalg

        n, counts = calls
        arpack = count_calls(monkeypatch, scipy.sparse.linalg, "eigsh")
        builds = count_calls(monkeypatch, data_mod, "_covariance_entries")
        A = covariance_from_data(wide_data(40, n, 21))
        _, report, _, _ = solve(A, "svd", 4, sparsity=4, svd=svd)
        assert counts() == {
            "eigendecompose": 0,
            "_lanczos_norm": 0,
            "_shifted_cholesky_succeeds": 0,  # the rounding bound certifies PSD
            "full_eigh": 0,
        }
        assert arpack == [] and builds == []
        assert report.f_value > 0
        # a build the spy must record, so that the empty record above means something
        assert A.entries.shape == (n, n) and len(builds) == 1

    @pytest.mark.parametrize(
        "svd, epsilon, full",
        [
            # l = 1: the exact pair is the cached top eigenpair.
            (SvdParams(method="exact"), None, 0),
            (SvdParams(method="exact"), 0.5, 1),
            # l = 10 Krylov blocks would span all n dimensions: the solver
            # falls back to the full decomposition.
            (SvdParams(method="block_krylov", svd_eps=0.1), 0.1, 1),
        ],
    )
    def test_full_decomposition_paths_pay_for_one_eigh(self, calls, svd, epsilon, full):
        # The PSD check and the norm take their own route whatever the
        # eigensolver cached: one Lanczos norm and one shifted Cholesky.
        n, counts = calls
        solve(random_psd(n, 4242), "svd", 4, sparsity=4, epsilon=epsilon, svd=svd)
        assert counts() == {
            "eigendecompose": full,
            "_lanczos_norm": 1,
            "_shifted_cholesky_succeeds": 1,
            "full_eigh": full,
        }

import numpy as np
import pytest

from spcakit import (
    AsymmetryExceedsTolerance,
    InvalidRank,
    NotPSD,
    NotSquare,
    eigendecompose,
    ensure_psd,
    matrix_functionals,
    spectral_norm,
    symmetrize,
    top_l_eigenpairs,
)
from spcakit import matrix as matrix_mod
from spcakit.matrix import PSD_SLACK

from helpers import charpoly_eigenvalues, count_calls, random_psd

# Frozen output of the characteristic-polynomial oracle (helpers.charpoly_
# eigenvalues) on the Philox(414243) Gram matrix below, computed at build
# time; the oracle is rerun in the test as well.
CHARPOLY_EXPECTED = [
    3.1290309162782286,
    1.8510279443424034,
    1.0287729204951122,
    0.14628453589878343,
    0.021358685975824052,
    0.0014201133112365042,
]


class TestSymmetrize:
    def test_symmetric_input_unchanged(self):
        A = symmetrize(np.eye(3), symmetry_tol=0.0)
        np.testing.assert_array_equal(A.entries, np.eye(3))
        assert A.trace == 3.0

    def test_averaging(self):
        A = symmetrize([[1.0, 2.0000001], [2.0, 1.0]], symmetry_tol=1e-6)
        np.testing.assert_allclose(A.entries, [[1.0, 2.00000005], [2.00000005, 1.0]], rtol=0, atol=1e-15)

    def test_violation_raises_with_offending_pair(self):
        with pytest.raises(AsymmetryExceedsTolerance) as info:
            symmetrize([[0.0, 1.0], [5.0, 0.0]], symmetry_tol=1e-6)
        assert {info.value.i, info.value.j} == {0, 1}
        assert info.value.delta == pytest.approx(4.0)

    def test_not_square(self):
        with pytest.raises(NotSquare):
            symmetrize(np.ones((2, 3)))
        with pytest.raises(NotSquare):
            symmetrize(np.ones(4))

    def test_entries_are_read_only(self):
        A = symmetrize(np.eye(2))
        with pytest.raises(ValueError):
            A.entries[0, 0] = 5.0


class TestEigendecompose:
    def test_identity_spectrum(self):
        eig = eigendecompose(symmetrize(np.eye(4)))
        np.testing.assert_allclose(eig.values, np.ones(4))

    def test_diagonal(self):
        eig = eigendecompose(symmetrize(np.diag([3.0, 1.0])))
        np.testing.assert_allclose(eig.values, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(eig.vectors), np.eye(2), atol=1e-14)
        # sign convention: largest-magnitude coordinate positive
        assert eig.vectors[0, 0] > 0 and eig.vectors[1, 1] > 0

    def test_matches_characteristic_polynomial_oracle(self):
        A = random_psd(6, 414243, scale=1.0)
        eig = eigendecompose(A)
        np.testing.assert_allclose(eig.values, CHARPOLY_EXPECTED, atol=1e-8, rtol=0)
        np.testing.assert_allclose(
            eig.values, charpoly_eigenvalues(A.entries), atol=1e-8, rtol=0
        )

    def test_reconstruction(self):
        for seed in range(5):
            A = random_psd(9, 100 + seed)
            eig = eigendecompose(A)
            recon = (eig.vectors * eig.values) @ eig.vectors.T
            err = np.linalg.norm(A.entries - recon) / np.linalg.norm(A.entries)
            assert err <= 1e-8

    def test_cached(self):
        A = random_psd(5, 7)
        assert eigendecompose(A) is eigendecompose(A)

    def test_trace_equals_eigenvalue_sum(self):
        for seed in range(5):
            A = random_psd(8, 300 + seed)
            values = eigendecompose(A).values
            tol = 1e-8 * 8 * np.abs(A.entries).max()
            assert abs(A.trace - values.sum()) <= tol


class TestTopL:
    def test_truncation_of_known_spectrum(self):
        pairs = top_l_eigenpairs(symmetrize(np.diag([5.0, 4.0, 3.0, 2.0, 1.0])), 2)
        np.testing.assert_allclose(pairs.values, [5.0, 4.0])

    def test_identity_block_krylov(self):
        pairs = top_l_eigenpairs(
            symmetrize(np.eye(8)), 3, method="block_krylov", svd_eps=0.1, seed=7
        )
        assert np.all(pairs.values >= 0.9)
        assert np.all(pairs.values <= 1.0 + 1e-8)

    def test_block_krylov_matches_exact_within_eps(self):
        A = random_psd(64, 2024)
        exact = top_l_eigenpairs(A, 4, method="exact")
        approx = top_l_eigenpairs(A, 4, method="block_krylov", svd_eps=0.1, seed=5)
        rel = np.abs(approx.values - exact.values) / exact.values
        assert np.all(rel <= 0.1)

    def test_block_krylov_genuine_subspace_path(self):
        # n large enough that the Krylov dimension stays below n
        A = random_psd(300, 555)
        exact = top_l_eigenpairs(A, 3, method="exact")
        approx = top_l_eigenpairs(A, 3, method="block_krylov", svd_eps=0.2, seed=9)
        rel = np.abs(approx.values - exact.values) / exact.values
        assert np.all(rel <= 0.2)
        assert np.all(approx.values <= exact.values + 1e-8)

    def test_prefix_of_full_decomposition(self):
        A = random_psd(12, 99)
        full = eigendecompose(A)
        for l in (1, 3, 12):
            pairs = top_l_eigenpairs(A, l)
            np.testing.assert_allclose(pairs.values, full.values[:l], atol=1e-10, rtol=0)

    def test_invalid_rank(self):
        A = random_psd(4, 1)
        with pytest.raises(InvalidRank):
            top_l_eigenpairs(A, 5)
        with pytest.raises(InvalidRank):
            top_l_eigenpairs(A, 0)

    def test_deterministic_bit_identical(self):
        A = random_psd(40, 3)
        a = top_l_eigenpairs(A, 3, method="block_krylov", svd_eps=0.3, seed=12)
        b = top_l_eigenpairs(A, 3, method="block_krylov", svd_eps=0.3, seed=12)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)


class TestFunctionals:
    def test_identity(self):
        f = matrix_functionals(symmetrize(np.eye(5)))
        assert f.trace == 5.0
        assert f.spectral_norm == pytest.approx(1.0)
        assert f.frobenius_norm == pytest.approx(np.sqrt(5.0))
        assert f.entrywise_l1 == 5.0
        assert f.min_eigenvalue == pytest.approx(1.0)

    def test_brute_force_recomputation(self):
        A = random_psd(7, 321)
        f = matrix_functionals(A)
        entries = A.entries
        assert f.trace == pytest.approx(sum(entries[i, i] for i in range(7)), abs=1e-8)
        assert f.entrywise_l1 == pytest.approx(
            sum(abs(entries[i, j]) for i in range(7) for j in range(7)), abs=1e-8
        )
        assert f.frobenius_norm == pytest.approx(
            np.sqrt(sum(entries[i, j] ** 2 for i in range(7) for j in range(7))), abs=1e-8
        )
        oracle_vals = charpoly_eigenvalues(entries)
        assert f.spectral_norm == pytest.approx(oracle_vals[0], abs=1e-8)
        assert f.min_eigenvalue == pytest.approx(oracle_vals[-1], abs=1e-8)


class TestSpectralProperties:
    def test_tail_eigenvalue_at_most_trace_over_l(self):
        for seed in range(8):
            A = random_psd(10, 800 + seed)
            values = eigendecompose(A).values
            for l in range(1, 10):
                assert values[l] <= A.trace / l + 1e-10

    def test_psd_validation_accepts_marginal_negativity(self):
        A = random_psd(6, 42)
        ensure_psd(A)  # no raise
        shifted = symmetrize(A.entries - 1e-12 * np.eye(6))
        ensure_psd(shifted)  # still within advisory slack

    def test_psd_validation_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            ensure_psd(symmetrize(np.diag([1.0, -0.5])))


# Smallest n that takes the Lanczos-plus-Cholesky path.
LARGE_N = matrix_mod._DENSE_CHECK_MAX_N + 1


def with_spectrum(values, seed=0):
    """Q diag(values) Q^T for a seeded random orthogonal Q."""
    n = len(values)
    rng = np.random.Generator(np.random.Philox(seed))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.asarray(values, dtype=float)) @ q.T


def spectrum_with_min(lam_min, n=LARGE_N, lam_max=1.0):
    return np.concatenate([np.linspace(lam_max, 0.0, n - 1), [lam_min]])


class TestLargeMatrixPsdCheck:
    """ensure_psd and spectral_norm above the dense crossover."""

    @pytest.fixture
    def spies(self, monkeypatch):
        return {
            name: count_calls(monkeypatch, matrix_mod, name)
            for name in ("eigendecompose", "_lanczos_norm", "_shifted_cholesky_succeeds")
        }

    def test_slack_boundary(self, spies):
        ensure_psd(symmetrize(with_spectrum(spectrum_with_min(-0.5 * PSD_SLACK))))
        with pytest.raises(NotPSD):
            ensure_psd(symmetrize(with_spectrum(spectrum_with_min(-2.0 * PSD_SLACK))))
        assert len(spies["_shifted_cholesky_succeeds"]) == 2
        assert spies["eigendecompose"] == []

    def test_slack_scales_with_norm(self):
        for scale in (1e-6, 1e6):
            values = scale * spectrum_with_min(-0.5 * PSD_SLACK)
            ensure_psd(symmetrize(with_spectrum(values), symmetry_tol=1e-8 * scale))
            with pytest.raises(NotPSD):
                values = scale * spectrum_with_min(-2.0 * PSD_SLACK)
                ensure_psd(symmetrize(with_spectrum(values), symmetry_tol=1e-8 * scale))

    def test_zero_matrix_passes_without_arpack(self, monkeypatch, spies):
        import scipy.sparse.linalg

        arpack = count_calls(monkeypatch, scipy.sparse.linalg, "eigsh")
        A = symmetrize(np.zeros((LARGE_N, LARGE_N)))
        ensure_psd(A)
        assert spectral_norm(A) == 0.0
        assert arpack == []
        assert spies["eigendecompose"] == []

    @pytest.mark.parametrize("top", ["ones", "e0", "orthogonal-to-ones"])
    def test_top_eigenvector_ones_or_e0(self, top):
        # A start vector of all ones would miss the last case: there ones is
        # an eigenvector of the second matrix, but not the top one.
        n = LARGE_N
        v = {
            "ones": np.ones(n) / np.sqrt(n),
            "e0": np.eye(n)[0],
            "orthogonal-to-ones": (np.eye(n)[0] - np.eye(n)[1]) / np.sqrt(2.0),
        }[top]
        for entries in (3.0 * np.outer(v, v), np.eye(n) + 2.0 * np.outer(v, v)):
            A = symmetrize(entries)
            ensure_psd(A)
            assert spectral_norm(A) == pytest.approx(3.0, rel=1e-12)

    def test_indefinite_with_dominant_negative_eigenvalue(self):
        A = symmetrize(with_spectrum(spectrum_with_min(-3.0)))
        assert spectral_norm(A) == pytest.approx(3.0, rel=1e-12)
        with pytest.raises(NotPSD):
            ensure_psd(A)

    def test_not_psd_message_matches_dense_rule(self, monkeypatch):
        entries = with_spectrum(spectrum_with_min(-0.75, lam_max=3.0))
        with pytest.raises(NotPSD) as large:
            ensure_psd(symmetrize(entries))
        monkeypatch.setattr(matrix_mod, "_DENSE_CHECK_MAX_N", LARGE_N)
        with pytest.raises(NotPSD) as dense:
            ensure_psd(symmetrize(entries))
        assert str(large.value) == str(dense.value)
        assert str(large.value) == (
            "minimum eigenvalue -7.500000e-01 below -1e-08 * spectral norm (3.000000e+00)"
        )

    def test_repeat_calls_do_no_new_work(self, spies):
        A = symmetrize(with_spectrum(spectrum_with_min(0.0)))
        for _ in range(3):
            ensure_psd(A)
            spectral_norm(A)
        assert len(spies["_shifted_cholesky_succeeds"]) == 1
        assert len(spies["_lanczos_norm"]) == 1
        assert spies["eigendecompose"] == []

    def test_norm_matches_dense_value(self):
        values = spectrum_with_min(-0.25, lam_max=2.5)
        A = symmetrize(with_spectrum(values, seed=3))
        dense = matrix_functionals(symmetrize(A.entries)).spectral_norm
        assert spectral_norm(A) == pytest.approx(dense, rel=1e-12)

    def test_fresh_copies_give_bit_identical_norms(self):
        entries = random_psd(LARGE_N, 17).entries
        assert spectral_norm(symmetrize(entries)) == spectral_norm(symmetrize(entries.copy()))

    def test_cached_decomposition_decides(self, spies):
        A = random_psd(LARGE_N, 5)
        eig = eigendecompose(A)
        ensure_psd(A)
        assert spectral_norm(A) == max(abs(eig.values[0]), abs(eig.values[-1]))
        assert spies["_shifted_cholesky_succeeds"] == []
        assert spies["_lanczos_norm"] == []

    def test_tiny_n_on_the_lanczos_path(self, monkeypatch):
        monkeypatch.setattr(matrix_mod, "_DENSE_CHECK_MAX_N", 0)
        assert spectral_norm(symmetrize([[-2.0]])) == 2.0
        ensure_psd(symmetrize([[2.0]]))
        with pytest.raises(NotPSD):
            ensure_psd(symmetrize([[-1.0]]))
        A = symmetrize([[2.0, 1.0], [1.0, 2.0]])
        assert spectral_norm(A) == pytest.approx(3.0, rel=1e-12)
        ensure_psd(A)
        with pytest.raises(NotPSD):
            ensure_psd(symmetrize(np.diag([1.0, -0.5])))

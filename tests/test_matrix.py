import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from spcakit import (
    AdmmConfig,
    AsymmetryExceedsTolerance,
    ConvergenceFailure,
    DataMatrix,
    EigenPairs,
    InvalidRank,
    NonFiniteEntries,
    NotPSD,
    NotSquare,
    SparseUnitVector,
    SymmetricMatrix,
    SyntheticConfig,
    covariance_from_data,
    eigendecompose,
    ensure_psd,
    restricted_top_eigenpair,
    solve_sdp_relaxation,
    spectral_norm,
    symmetrize,
    synthetic_spiked,
    top_l_eigenpairs,
)
from spcakit import matrix as matrix_mod
from spcakit.matrix import PSD_SLACK

from helpers import (
    charpoly_eigenvalues,
    count_calls,
    failing_dsyevd,
    random_psd,
    record_results,
    wide_data,
)

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
        A = symmetrize(np.eye(3))
        np.testing.assert_array_equal(A.entries, np.eye(3))
        assert A.trace == 3.0

    def test_averaging(self, monkeypatch):
        monkeypatch.setattr(matrix_mod, "_SYMMETRY_RTOL", 1e-6)
        A = symmetrize([[1.0, 2.0000001], [2.0, 1.0]])
        np.testing.assert_allclose(A.entries, [[1.0, 2.00000005], [2.00000005, 1.0]], rtol=0, atol=1e-15)

    def test_violation_raises_with_offending_pair(self):
        with pytest.raises(AsymmetryExceedsTolerance) as info:
            symmetrize([[0.0, 1.0], [5.0, 0.0]])
        assert {info.value.i, info.value.j} == {0, 1}
        assert info.value.delta == pytest.approx(4.0)
        assert info.value.tol == matrix_mod._SYMMETRY_RTOL * 5.0  # the tolerance applied

    def test_not_square(self):
        with pytest.raises(NotSquare):
            symmetrize(np.ones((2, 3)))
        with pytest.raises(NotSquare):
            symmetrize(np.ones(4))

    @pytest.mark.parametrize(
        "raw",
        [
            [[1.0, np.nan], [np.nan, 1.0]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[1.0, 2.0], [-np.inf, 1.0]],
            # finite entries whose diagonal sums past the largest float
            [[1.7e308, 0.0], [0.0, 1.7e308]],
        ],
    )
    def test_non_finite_entries_or_trace_raise(self, raw):
        with pytest.raises(NonFiniteEntries):
            symmetrize(raw)

    def test_trace_does_not_depend_on_summation_order(self):
        # the pairwise sum overflows at 1.7e308 + 1.7e308, the exact trace is 0
        A = symmetrize(np.diag([1.7e308, 1.7e308, -1.7e308, -1.7e308]))
        assert A.trace == 0.0 and not np.signbit(A.trace)

    def test_overflowed_trace_keeps_a_small_term_exact(self):
        # the exact sum is 3e-308: a term scaled down to a subnormal would lose bits
        A = symmetrize(np.diag([1.7e308, 1.7e308, -1.7e308, -1.7e308, 3e-308]))
        assert A.trace == 3e-308

    @pytest.mark.parametrize("n", [64, 128, 300])
    def test_trace_near_the_largest_float_is_exact_or_rejected(self, n):
        # no RuntimeWarning (an error under this suite) from inf + -inf in the sum
        g = np.random.Generator(np.random.Philox(1000 + n)).standard_normal((n, n))
        raw = g + g.T
        raw *= 1.7e308 / np.abs(raw).max()
        exact = sum(Fraction(float(d)) for d in np.diag(raw))
        try:
            rounded = float(exact)
        except OverflowError:  # the trace rounds past the largest float
            with pytest.raises(NonFiniteEntries, match="sum past the largest float"):
                symmetrize(raw)
        else:
            assert symmetrize(raw).trace == rounded

    def test_ordinary_trace_keeps_numpy_bits(self):
        raw = random_psd(50, 3).entries
        assert symmetrize(raw).trace == float(np.trace(raw))

    def test_entries_are_read_only(self):
        A = symmetrize(np.eye(2))
        with pytest.raises(ValueError):
            A.entries[0, 0] = 5.0

    # 127, 128 and 129 sit at the edge of the 128-wide tiles the average is
    # computed in; 300 has a partial third tile.
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
    def test_entries_bitwise_equal_average(self, n):
        rng = np.random.Generator(np.random.Philox(n))
        raw = rng.standard_normal((n, n))
        raw = raw + raw.T + 1e-9 * rng.standard_normal((n, n))
        raw[0, -1], raw[-1, 0] = -0.0, 0.0  # the average of +0 and -0 is +0
        raw[n // 2, n // 2] = -0.0
        expected = (raw + raw.T) / 2.0
        A = symmetrize(raw)
        assert A.entries.tobytes() == expected.tobytes()
        assert A.entries.flags.c_contiguous
        assert raw[n // 2, n // 2] == 0.0 and np.signbit(raw[n // 2, n // 2])  # input untouched

    @pytest.mark.parametrize("n", [127, 128, 129, 300])
    def test_tolerance_boundary_in_last_column(self, monkeypatch, n):
        # row 0 starts the first tile row, 127 ends it, n - 2 lies in the last one
        for i in sorted({0, min(127, n - 2), n - 2}):
            raw = np.eye(n)  # largest |entry| 1, so the tolerance is _SYMMETRY_RTOL
            raw[n - 1, i] = 2.0**-20  # an exact gap of 2^-20
            monkeypatch.setattr(matrix_mod, "_SYMMETRY_RTOL", 2.0**-20)
            symmetrize(raw)  # a gap equal to the tolerance passes
            monkeypatch.setattr(matrix_mod, "_SYMMETRY_RTOL", 2.0**-21)
            with pytest.raises(AsymmetryExceedsTolerance) as info:
                symmetrize(raw)
            assert (info.value.i, info.value.j, info.value.delta) == (i, n - 1, 2.0**-20)
            assert info.value.tol == 2.0**-21

    @pytest.mark.parametrize(
        "n, pairs, expected",
        [
            # equal gaps in different 128-wide tiles: the first in row-major
            # order is reported, not the first tile's
            (301, [(5, 300), (100, 130)], (5, 300)),
            (301, [(130, 100), (300, 5)], (5, 300)),
            (129, [(0, 128), (1, 2)], (0, 128)),
            (300, [(200, 250), (129, 0)], (0, 129)),
        ],
    )
    def test_reports_first_maximal_pair_in_row_major_order(self, n, pairs, expected):
        rng = np.random.Generator(np.random.Philox(7))
        raw = rng.integers(-4, 5, size=(n, n)).astype(float)
        raw = raw + raw.T
        for i, j in pairs:
            raw[i, j] += 3.0
        with pytest.raises(AsymmetryExceedsTolerance) as info:
            symmetrize(raw)
        assert (info.value.i, info.value.j, info.value.delta) == (*expected, 3.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.25, 0.5, 0.99, 1.0, 1.01, 2.0, 4.0]),
    )
    def test_verdict_does_not_depend_on_scale(self, n, seed, rel):
        # A near-symmetric input with one pair apart by rel * _SYMMETRY_RTOL
        # of its largest entry: scaling by 2^j changes no verdict, and a
        # rejection names the same pair with delta and tol scaled by 2^j.
        rng = np.random.Generator(np.random.Philox(seed))
        raw = rng.standard_normal((n, n))
        raw = raw + raw.T
        raw[0, -1] += rel * matrix_mod._SYMMETRY_RTOL * np.abs(raw).max()

        def verdict(scale):
            try:
                symmetrize(scale * raw)
            except AsymmetryExceedsTolerance as exc:
                return exc.i, exc.j, exc.delta / scale, exc.tol / scale
            return None

        expected = verdict(1.0)
        if rel <= 0.5 or n == 1:
            assert expected is None
        elif rel >= 2.0:
            assert expected is not None
        for j in range(-60, 61):
            assert verdict(2.0**j) == expected

    def test_rejects_large_relative_gap_at_tiny_scale(self):
        raw = 1e-9 * np.eye(3)
        raw[0, 1] = 5e-9  # mirrored entries differ by 5x the diagonal
        with pytest.raises(AsymmetryExceedsTolerance) as info:
            symmetrize(raw)
        assert (info.value.i, info.value.j, info.value.delta) == (0, 1, 5e-9)

    @staticmethod
    def _inputs(n):
        """The input kinds the bitwise fast path and the averaging pass split."""
        rng = np.random.Generator(np.random.Philox(1000 + n))
        g = rng.standard_normal((n, n))
        symmetric = g + g.T
        near = symmetric + 1e-9 * rng.standard_normal((n, n))
        signed_zeros = symmetric.copy()
        signed_zeros[0, -1], signed_zeros[-1, 0] = -0.0, 0.0  # equal values, different bits
        signed_zeros[n // 2, n // 2] = -0.0
        wide = rng.standard_normal((2 * n, 2 * n))
        wide = wide + wide.T
        return {
            "symmetric": symmetric,
            "near-symmetric": near,
            "signed-zero pair": signed_zeros,
            "F-ordered symmetric": np.asfortranarray(symmetric),
            "F-ordered near-symmetric": np.asfortranarray(near),
            "strided symmetric view": wide[::2, ::2],
            "strided near-symmetric view": (wide + 1e-9 * rng.standard_normal(wide.shape))[1::2, 1::2],
        }

    @pytest.mark.parametrize("n", [2, 127, 128, 129, 300])
    def test_both_paths_bitwise_equal_average(self, monkeypatch, n):
        verdicts = record_results(monkeypatch, matrix_mod, "_bitwise_symmetric")
        for kind, raw in self._inputs(n).items():
            verdicts.clear()
            expected = (raw + raw.T) / 2.0
            A = symmetrize(raw)
            assert A.entries.tobytes() == expected.tobytes(), kind
            assert A.entries.flags.c_contiguous and not A.entries.flags.writeable, kind
            # one check per input, and only bitwise symmetric input skips the average
            exact = np.array_equal(raw.view(np.int64), raw.T.view(np.int64))
            assert verdicts == [exact], kind
            assert exact == ("near" not in kind and "zero" not in kind), kind
            raw[...] = 7.0  # the matrix owns its entries
            assert A.entries.tobytes() == expected.tobytes(), kind

    def test_difference_in_the_last_tile_pair_is_averaged(self):
        n = 2 * matrix_mod._TILE + 3
        raw = random_psd(n, 12).entries.copy()
        raw[n - 1, n - 2] = np.nextafter(raw[n - 1, n - 2], np.inf)
        expected = (raw + raw.T) / 2.0
        assert symmetrize(raw).entries.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_entries_above_half_the_largest_float_stay_finite(self, sign):
        big = sign * 1.7e308
        symmetric = np.array([[big, 1e308], [1e308, 1.0]])
        A = symmetrize(symmetric)
        assert A.entries.tobytes() == symmetric.tobytes()
        assert np.isfinite(A.trace)
        # within tolerance, the mirrored pair differs in its last bit
        near = np.array([[1.0, big], [np.nextafter(big, 0.0), 1.0]])
        A = symmetrize(near)
        assert np.isfinite(A.entries).all() and np.isfinite(A.trace)
        expected = near / 2.0 + near.T / 2.0
        assert A.entries.tobytes() == expected.tobytes()
        assert abs(A.entries[0, 1]) >= abs(np.nextafter(big, 0.0))
        # far apart: rejected with the pair's gap, and no overflow warning
        # (the suite turns warnings into errors)
        for partner, delta in ((big / 2.0, abs(big) / 2.0), (-big, np.inf)):
            with pytest.raises(AsymmetryExceedsTolerance) as info:
                symmetrize(np.array([[0.0, big], [partner, 0.0]]))
            assert (info.value.i, info.value.j, info.value.delta) == (0, 1, delta)

    def test_no_halving_at_half_the_largest_float(self):
        # Up to max/2 the sum cannot overflow, and the average is the plain one.
        half = np.finfo(float).max / 2.0
        tiny = 5e-324  # the smallest subnormal
        raw = np.array([[half, 5.0 * tiny], [tiny, 3.0]])
        A = symmetrize(raw)
        assert A.entries.tobytes() == ((raw + raw.T) / 2.0).tobytes()
        assert A.entries[0, 1] == 3.0 * tiny  # halving first would give 2 * tiny


class TestEigenPairs:
    def test_user_built_non_orthonormal_pairs_raise(self):
        vectors = np.array([[1.0, 0.1], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not orthonormal"):
            EigenPairs(np.array([2.0, 1.0]), vectors)

    def test_unsorted_values_raise(self):
        with pytest.raises(ValueError, match="descending"):
            EigenPairs(np.array([1.0, 2.0]), np.eye(2))

    def test_lapack_pairs_skip_only_the_gram_product(self, monkeypatch):
        A = random_psd(40, 8)
        products = count_calls(monkeypatch, matrix_mod.np, "eye")
        full = eigendecompose(A)
        top = top_l_eigenpairs(A, 3)
        assert products == []
        np.testing.assert_allclose(full.vectors.T @ full.vectors, np.eye(40), atol=1e-12)
        np.testing.assert_array_equal(top.vectors, full.vectors[:, :3])
        assert not full.values.flags.writeable and not top.vectors.flags.writeable


def _gaussian(n, seed, scale=1.0):
    return scale * np.random.Generator(np.random.Philox(seed)).standard_normal((n, n))


class TestSymmetricEigh:
    """The one owner of dense symmetric eigensolves."""

    @given(st.integers(1, 40), st.integers(0, 2**31 - 1), st.sampled_from([1e-3, 1.0, 1e3]))
    @settings(max_examples=40, deadline=None)
    def test_top_pairs_match_full_reference(self, n, seed, scale):
        g = _gaussian(n, seed, scale)
        M = g + g.T
        ref_w, ref_v = np.linalg.eigh(M)
        tol = 1e-12 * n * scale
        for top in range(1, n + 2):
            w, v = matrix_mod._symmetric_eigh(M, top=top)
            m = w.size
            assert min(top, n) <= m <= n and v.shape == (n, m)
            assert np.all(np.diff(w) >= 0)
            np.testing.assert_allclose(w, ref_w[n - m:], atol=tol, rtol=0)
            ref = ref_v[:, n - m:]
            signs = np.sign(np.sum(v * ref, axis=0))
            np.testing.assert_allclose(v * signs, ref, atol=1e-8, rtol=0)
            values, none = matrix_mod._symmetric_eigh(M, top=top, vectors=False)
            assert none is None and values.size >= min(top, n)
            np.testing.assert_allclose(values, ref_w[n - values.size:], atol=tol, rtol=0)

    def test_partial_solve_within_the_divisor_rule(self, monkeypatch):
        partial = count_calls(monkeypatch, lapack, "dsyevr")
        full = count_calls(monkeypatch, lapack, "dsyevd")
        M = random_psd(64, 3).entries
        cap = 64 // matrix_mod._PARTIAL_EIG_DIVISOR
        for top in (1, cap, cap + 1, 64):
            matrix_mod._symmetric_eigh(M, top=top)
        assert (len(partial), len(full)) == (2, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 64, 128, 300])
    def test_full_path_is_bitwise_numpy(self, n):
        # What keeps svd, oracle and polish output byte-identical to NumPy's
        # eigh: the same lower triangle, and on nonsymmetric input too.
        g = _gaussian(n, n)
        for M in (g, g + g.T, g @ g.T):
            w, v = matrix_mod._symmetric_eigh(M)
            ref_w, ref_v = np.linalg.eigh(M)
            assert np.array_equal(w, ref_w) and np.array_equal(v, ref_v)

    @pytest.mark.parametrize("m, info", [(0, 2), (1, 1)], ids=["finds-nothing", "fails"])
    def test_falls_back_when_dsyevr_finds_nothing_or_fails(self, monkeypatch, m, info):
        # dsyevr's index-range bisection can return no value (m = 0,
        # info = 2) when the top eigenvalue is repeated exactly; a failure
        # (info != 0) falls back the same way.
        def failing(M, **kwargs):
            return np.zeros(M.shape[0]), np.zeros((M.shape[0], m)), m, None, info

        monkeypatch.setattr(lapack, "dsyevr", failing)
        full = count_calls(monkeypatch, lapack, "dsyevd")
        M = with_spectrum([1.0, 1.0, 1.0, 0.0, -2.0], seed=3)
        w, v = matrix_mod._symmetric_eigh(M, top=1)
        assert len(full) == 1 and w.size == 5
        assert w[-1] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(M @ v[:, -1], v[:, -1], atol=1e-12)

    def test_dsyevd_failure_raises(self, monkeypatch):
        monkeypatch.setattr(lapack, "dsyevd", failing_dsyevd)
        with pytest.raises(ConvergenceFailure, match="dsyevd failed with info=1"):
            eigendecompose(random_psd(6, 1))


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

    def test_block_krylov_top_value_to_rounding(self):
        # The svd-pipeline data shape with 2 m = n, so the correlation is
        # built dense. Orthonormalizing the blocks only as a final stack
        # gives the top value to 8.1e-10 here.
        X = synthetic_spiked(SyntheticConfig(m=256, n=512, sigma=0.1, seed=1))
        A = covariance_from_data(X, to_correlation=True)
        assert A._factor is None
        top = np.linalg.eigvalsh(A.entries)[-1]
        value = top_l_eigenpairs(A, 1, method="block_krylov").values[0]
        assert value == pytest.approx(top, rel=1e-12, abs=0)

    @pytest.mark.parametrize("l", [1, 3])
    def test_block_krylov_on_an_invariant_start(self, l):
        # Every product after the first is exactly zero, so each new block's
        # QR columns are arbitrary; the returned vectors stay orthonormal.
        for diagonal in (np.zeros(300), np.r_[1.0, 1.0, np.zeros(298)]):
            pairs = top_l_eigenpairs(symmetrize(np.diag(diagonal)), l, method="block_krylov")
            np.testing.assert_allclose(pairs.values, np.sort(diagonal)[::-1][:l], atol=1e-15)

    def test_deterministic_bit_identical(self):
        A = random_psd(40, 3)
        a = top_l_eigenpairs(A, 3, method="block_krylov", svd_eps=0.3, seed=12)
        b = top_l_eigenpairs(A, 3, method="block_krylov", svd_eps=0.3, seed=12)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)


class TestFunctionals:
    def test_identity(self):
        A = symmetrize(np.eye(5))
        assert A.trace == 5.0
        assert spectral_norm(A) == pytest.approx(1.0)

    def test_brute_force_recomputation(self):
        A = random_psd(7, 321)
        entries = A.entries
        assert A.trace == pytest.approx(sum(entries[i, i] for i in range(7)), abs=1e-8)
        oracle_vals = charpoly_eigenvalues(entries)
        assert spectral_norm(A) == pytest.approx(oracle_vals[0], abs=1e-8)


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


EPS = float(np.finfo(float).eps)

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
            ensure_psd(symmetrize(with_spectrum(values)))
            with pytest.raises(NotPSD):
                values = scale * spectrum_with_min(-2.0 * PSD_SLACK)
                ensure_psd(symmetrize(with_spectrum(values)))

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
        w = np.linalg.eigvalsh(A.entries)
        dense = max(abs(w[0]), abs(w[-1]))
        assert spectral_norm(A) == pytest.approx(dense, rel=1e-12)

    def test_fresh_copies_give_bit_identical_norms(self):
        entries = random_psd(LARGE_N, 17).entries
        assert spectral_norm(symmetrize(entries)) == spectral_norm(symmetrize(entries.copy()))

    def test_cached_decomposition_changes_no_bit(self, spies):
        # The check and the norm take their own route whatever is cached.
        A, fresh = random_psd(LARGE_N, 5), random_psd(LARGE_N, 5)
        eigendecompose(A)
        ensure_psd(A)
        ensure_psd(fresh)
        assert spectral_norm(A).hex() == spectral_norm(fresh).hex()
        assert len(spies["_shifted_cholesky_succeeds"]) == 2
        assert len(spies["_lanczos_norm"]) == 2

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


@pytest.mark.parametrize("n", [20, 128])
class TestDenseRangePsdCheck:
    """ensure_psd and spectral_norm up to the crossover: the top eigenpair and one shifted Cholesky."""

    @pytest.fixture
    def spies(self, monkeypatch):
        names = ("eigendecompose", "_lanczos_norm", "_shifted_cholesky_succeeds", "_symmetric_eigh")
        return {name: count_calls(monkeypatch, matrix_mod, name) for name in names}

    def test_slack_boundary(self, n, spies):
        ensure_psd(symmetrize(with_spectrum(spectrum_with_min(-0.5 * PSD_SLACK, n))))
        with pytest.raises(NotPSD):
            ensure_psd(symmetrize(with_spectrum(spectrum_with_min(-2.0 * PSD_SLACK, n))))
        assert len(spies["_shifted_cholesky_succeeds"]) == 2
        # one top pair per matrix, and the eigenvalues of the one that fails
        assert len(spies["_symmetric_eigh"]) == 3
        assert spies["eigendecompose"] == [] and spies["_lanczos_norm"] == []

    def test_slack_scales_with_norm(self, n):
        for scale in (1e-6, 1e6):
            values = scale * spectrum_with_min(-0.5 * PSD_SLACK, n)
            ensure_psd(symmetrize(with_spectrum(values)))
            with pytest.raises(NotPSD):
                values = scale * spectrum_with_min(-2.0 * PSD_SLACK, n)
                ensure_psd(symmetrize(with_spectrum(values)))

    def test_repeat_calls_do_no_new_work(self, n, spies):
        A = symmetrize(with_spectrum(spectrum_with_min(0.0, n, lam_max=2.5)))
        for _ in range(3):
            ensure_psd(A)
            assert spectral_norm(A) == matrix_mod._top_eigenpair(A)[0]
        assert len(spies["_shifted_cholesky_succeeds"]) == 1
        assert len(spies["_symmetric_eigh"]) == 1
        assert spies["eigendecompose"] == [] and spies["_lanczos_norm"] == []
        assert spectral_norm(A) == pytest.approx(2.5, rel=1e-12)

    def test_not_psd_message_is_unchanged(self, n):
        with pytest.raises(NotPSD) as err:
            ensure_psd(symmetrize(with_spectrum(spectrum_with_min(-0.75, n, lam_max=3.0))))
        assert str(err.value) == (
            "minimum eigenvalue -7.500000e-01 below -1e-08 * spectral norm (3.000000e+00)"
        )

    def test_zero_top_eigenvalue_is_not_a_pass(self, n):
        # lambda_max = 0 gives no shift, but the matrix is not zero.
        with pytest.raises(NotPSD, match="-1.000000e.00 below .* norm .1.000000e.00"):
            ensure_psd(symmetrize(np.diag(np.r_[0.0, -1.0, np.zeros(n - 2)])))

    def test_negative_identity_raises(self, n):
        with pytest.raises(NotPSD, match="-1.000000e.00 below .* norm .1.000000e.00"):
            ensure_psd(symmetrize(-np.eye(n)))

    def test_indefinite_norm_is_not_the_top_eigenvalue(self, n):
        A = symmetrize(with_spectrum(spectrum_with_min(-3.0, n)))
        assert spectral_norm(A) == pytest.approx(3.0, rel=1e-12)
        with pytest.raises(NotPSD):
            ensure_psd(A)
        assert spectral_norm(A) == pytest.approx(3.0, rel=1e-12)

    def test_zero_matrix_passes(self, n):
        A = symmetrize(np.zeros((n, n)))
        ensure_psd(A)
        assert spectral_norm(A) == 0.0


@pytest.mark.parametrize(
    "entries",
    [[[2.0]], [[0.0]], [[-1.0]], [[1e-310]], [[-1e-310]], [[-1e-290]],
     np.diag([0.0, -1.0]), -np.eye(2), np.zeros((2, 2)), np.diag([1.0, -1e-9])],
    ids=["2", "0", "-1", "1e-310", "-1e-310", "-1e-290", "diag-0-1", "-I", "zero", "in-slack"],
)
def test_small_inputs_follow_the_eigenvalue_rule(entries):
    values = np.linalg.eigvalsh(np.asarray(entries))
    passes = values[0] >= -PSD_SLACK * max(np.abs(values).max(), 1e-300)
    A = symmetrize(entries)
    if passes:
        ensure_psd(A)
        assert spectral_norm(A) == np.abs(values).max()
    else:
        with pytest.raises(NotPSD):
            ensure_psd(A)


class TestDataFactor:
    """A sample covariance from m < n / 2 samples multiplies through its data factor."""

    @pytest.mark.parametrize("to_correlation", [False, True])
    def test_block_krylov_matches_the_entries(self, to_correlation):
        A = covariance_from_data(wide_data(40, 600, 7), to_correlation=to_correlation)
        assert A._factor is not None
        plain = symmetrize(A.entries)
        assert plain._factor is None
        ours = top_l_eigenpairs(A, 4, method="block_krylov", svd_eps=0.1, seed=3)
        ref = top_l_eigenpairs(plain, 4, method="block_krylov", svd_eps=0.1, seed=3)
        np.testing.assert_allclose(ours.values, ref.values, rtol=1e-10, atol=0)
        cosines = np.linalg.svd(ours.vectors.T @ ref.vectors, compute_uv=False)
        assert cosines.min() >= 1.0 - 1e-8

    @pytest.mark.parametrize("to_correlation", [False, True])
    def test_gram_pairs_on_the_factor_match_the_dense_pairs(self, monkeypatch, to_correlation):
        # l = 4 times 41 Krylov steps would exceed the 40 samples, so block
        # Krylov takes the exact pairs as well: both come from one eigensolve
        # of the 40 x 40 Gram matrix, and the norm reads the same values.
        eighs = count_calls(monkeypatch, matrix_mod, "_symmetric_eigh")
        products = count_calls(monkeypatch, matrix_mod, "_product")
        A = covariance_from_data(wide_data(40, 600, 17), to_correlation=to_correlation)
        exact = top_l_eigenpairs(A, 4)
        krylov = top_l_eigenpairs(A, 4, method="block_krylov", svd_eps=0.1, seed=3)
        norm = spectral_norm(A)
        assert [args[0].shape for args in eighs] == [(40, 40)] and products == []
        assert A._entries is None and A._eig is None
        assert norm == exact.values[0]
        assert exact.values.tobytes() == krylov.values.tobytes()
        assert exact.vectors.tobytes() == krylov.vectors.tobytes()
        w, v = np.linalg.eigh(A.entries)
        np.testing.assert_allclose(exact.values, w[::-1][:4], rtol=1e-10, atol=0)
        cosines = np.abs(np.sum(exact.vectors * v[:, ::-1][:, :4], axis=0))
        assert cosines.min() >= 1.0 - 1e-8

    @pytest.mark.parametrize("to_correlation", [False, True])
    def test_unsaturated_block_krylov_multiplies_through_the_factor(self, monkeypatch, to_correlation):
        # 1 x 41 Krylov vectors cannot span the 279-dimensional range of F.T,
        # so the iteration runs, with every product through F.
        products = count_calls(monkeypatch, matrix_mod, "_product")
        A = covariance_from_data(wide_data(280, 600, 7), to_correlation=to_correlation)
        ours = top_l_eigenpairs(A, 1, method="block_krylov", svd_eps=0.1, seed=3)
        assert len(products) == matrix_mod._krylov_iters(600, 0.1) + 1 and A._entries is None
        ref = top_l_eigenpairs(symmetrize(A.entries), 1, method="block_krylov", svd_eps=0.1, seed=3)
        np.testing.assert_allclose(ours.values, ref.values, rtol=1e-10, atol=0)
        assert abs(float(ours.vectors[:, 0] @ ref.vectors[:, 0])) >= 1.0 - 1e-8

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 24),
        st.integers(0, 40),
        st.integers(1, 24),
        st.integers(0, 23),
        st.sampled_from([1.0, 0.5, 0.1]),
        st.sampled_from([1e-100, 1e-20, 1.0, 1e20, 1e100]),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @example(24, 0, 24, 0, 1.0, 1.0, True, False, 5)  # centered, l = m: lambda_m = 0
    @example(24, 0, 24, 1, 1.0, 1.0, True, False, 5)  # the same data at l = m - 1
    @example(16, 8, 16, 11, 0.5, 1.0, True, False, 0)  # lambda_l / lambda_1 = 1.8e-3
    @example(16, 8, 16, 7, 0.5, 1.0, True, False, 3)  # lambda_l / lambda_1 = 6.5e-6
    def test_gram_pairs_match_dense_eigh(
        self, m, extra, rank, below_m, decay, scale, center, to_correlation, seed
    ):
        # Wide data of any rank, rows falling geometrically by decay, at
        # extreme scales. From lambda_l / lambda_1 = 1e-3 up the pairs come
        # from the Gram matrix alone; from 1e-5 down, from one Rayleigh-Ritz
        # step on range(F.T) (_GRAM_MIN_RATIO is 1e-4). Either way they are
        # the dense pairs: values to a relative 1e-10 (values under 1e-4
        # lambda_1, which are rounding noise, to 1e-10 lambda_1), vectors to a
        # cosine of 1 - 1e-8 wherever the value is resolved.
        rng = np.random.Generator(np.random.Philox(seed))
        n = 2 * m + 1 + extra
        r = min(rank, m)
        X = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        X = scale * X * decay ** np.arange(m)[:, None]
        l = max(1, m - below_m)
        if to_correlation and not np.all(np.ptp(X, axis=0) > 0):
            return  # a zero-variance column, rejected before any factor
        A = covariance_from_data(DataMatrix(X), center=center, to_correlation=to_correlation)
        if A._factor is None:
            return  # entries too small for a factor
        with pytest.MonkeyPatch.context() as mp:
            ritz = count_calls(mp, matrix_mod, "_rayleigh_ritz")
            pairs = top_l_eigenpairs(A, l)
        w, V = np.linalg.eigh(A.entries)
        w, V = w[::-1][:l], V[:, ::-1][:, :l]
        lam1 = w[0]
        if w[-1] >= 1e-3 * lam1:
            assert ritz == []
        elif w[-1] <= 1e-5 * lam1:
            assert len(ritz) == 1
        resolved = w >= 1e-4 * lam1
        tol = 1e-10 * np.where(resolved, w, lam1)
        assert np.all(np.abs(pairs.values - w) <= tol)
        cosines = np.abs(np.sum(pairs.vectors * V, axis=0))[resolved]
        assert cosines.min(initial=1.0) >= 1.0 - 1e-8

    def test_more_pairs_than_samples_take_the_dense_path(self):
        A = covariance_from_data(wide_data(8, 40, 3))
        pairs = top_l_eigenpairs(A, 9)
        full = A._eig
        assert full is not None
        assert pairs.values.tobytes() == full.values[:9].tobytes()
        assert pairs.vectors.tobytes() == full.vectors[:, :9].tobytes()

    @pytest.mark.parametrize("to_correlation", [False, True])
    def test_spectral_norm_matches_the_dense_norm(self, monkeypatch, to_correlation):
        import scipy.sparse.linalg

        arpack = count_calls(monkeypatch, scipy.sparse.linalg, "eigsh")
        A = covariance_from_data(wide_data(40, 600, 11), to_correlation=to_correlation)
        w = np.linalg.eigvalsh(A.entries)
        assert spectral_norm(A) == pytest.approx(max(abs(w[0]), abs(w[-1])), rel=1e-12)
        assert arpack == []

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 64),
        st.integers(1, 12),
        st.sampled_from(["wide", "tall", "flat"]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e6]),
        st.sampled_from([1e-130, 1e-100, 1.0, 1e100]),
        st.sampled_from([PSD_SLACK, 200 * EPS]),
        st.booleans(),
        st.booleans(),
    )
    def test_rounding_bound_on_the_smallest_eigenvalue(
        self, m, rank, shape, seed, mean, scale, slack, center, to_correlation
    ):
        # The lemma the certificate rests on: with no entry of X_c below
        # 2**-400, lambda_min(A) >= -(m + 8) eps trace(A). covariance_from_data
        # then certifies A when m (m + 8) eps <= slack / 2, and a certified A
        # has lambda_min(A) >= -slack ||A||_2 / 4. Low-rank data, tall data,
        # flat spectra (orthogonal rows), large column means and extreme
        # scales; the smaller slack certifies m <= 6 only. One sample cannot
        # be centered.
        center = center and m > 1
        rng = np.random.Generator(np.random.Philox(seed))
        if shape == "flat":
            n = m + int(rng.integers(0, 40))
            X, _ = np.linalg.qr(rng.standard_normal((n, m)))
            X = X.T
        else:
            n = 2 * m + 1 + int(rng.integers(0, 40)) if shape == "wide" else m // 2 + 1
            r = min(rank, m, n)
            X = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        X = scale * (X + mean * (1.0 + rng.random(n)))
        X_c = X - X.mean(axis=0) if center else X
        if to_correlation and np.any(np.linalg.norm(X_c, axis=0) == 0.0):
            return  # zero variance, rejected before any certificate
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matrix_mod, "PSD_SLACK", slack)
            A = covariance_from_data(DataMatrix(X), center=center, to_correlation=to_correlation)
        exact = np.all((X_c == 0.0) | (np.abs(X_c) >= 2.0**-400))
        assert A._psd == (exact and m * (m + 8) * EPS <= slack / 2)
        assert (A._factor is not None) == (exact and 2 * m < n)
        w = np.linalg.eigvalsh(A.entries)
        if exact:
            assert w[0] >= -(m + 8) * EPS * A.trace
        if A._psd:
            assert w[0] >= -slack * max(abs(w[0]), abs(w[-1])) / 4

    @pytest.mark.parametrize("to_correlation", [False, True])
    def test_psd_check_needs_no_factorization_at_any_scale(self, monkeypatch, to_correlation):
        cholesky = count_calls(monkeypatch, matrix_mod, "_shifted_cholesky_succeeds")
        X = wide_data(40, LARGE_N, 13).entries
        for scale in (1e-100, 1e-20, 1.0, 1e20, 1e100):
            A = covariance_from_data(DataMatrix(scale * X), to_correlation=to_correlation)
            ensure_psd(A)
            assert A._psd
        assert cholesky == []

    def test_tall_covariance_needs_no_factorization(self, monkeypatch):
        # No data factor, yet certified when it is built.
        cholesky = count_calls(monkeypatch, matrix_mod, "_shifted_cholesky_succeeds")
        A = covariance_from_data(wide_data(600, LARGE_N, 13))
        assert A._factor is None and A._psd
        ensure_psd(A)
        assert cholesky == []

    def test_bound_that_does_not_settle_falls_back_to_cholesky(self, monkeypatch):
        # At a slack of 1e-20 the rule cannot certify; the shifted Cholesky
        # runs once and fails on this rank-40 matrix, and the eigenvalues
        # (lambda_min about -5e-16 ||A||) decide as for any matrix.
        cholesky = count_calls(monkeypatch, matrix_mod, "_shifted_cholesky_succeeds")
        monkeypatch.setattr(matrix_mod, "PSD_SLACK", 1e-20)
        A = covariance_from_data(wide_data(40, LARGE_N, 13))
        assert not A._psd
        with pytest.raises(NotPSD):
            ensure_psd(A)
        assert len(cholesky) == 1 and not A._psd


def _dense_covariance_with_factor(X):
    # Too small a slack certifies nothing, so the wide covariance is built
    # dense and keeps its factor; the check then runs at the usual slack.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix_mod, "PSD_SLACK", 1e-20)
        A = covariance_from_data(X)
    assert A._entries is not None and A._factor is not None and not A._psd
    return A


# Fresh copies of one matrix of each kind: without a data factor on both
# sides of the dense crossover, factor-only, and dense with a factor.
_KINDS = {
    "dense-12": lambda: random_psd(12, 8),
    "dense-257": lambda: random_psd(LARGE_N, 8),
    "factor-only": lambda: covariance_from_data(wide_data(6, 20, 8)),
    "dense-with-factor": lambda: _dense_covariance_with_factor(wide_data(6, 20, 8)),
}

_SUPPORT = np.array([0, 2, 5])

_QUERIES = {
    "ensure_psd": ensure_psd,
    "spectral_norm": spectral_norm,
    "eigendecompose": eigendecompose,
    "exact-1": lambda A: top_l_eigenpairs(A, 1),
    "exact-3": lambda A: top_l_eigenpairs(A, 3),
    "krylov-1": lambda A: top_l_eigenpairs(A, 1, "block_krylov", seed=5),
    "krylov-3": lambda A: top_l_eigenpairs(A, 3, "block_krylov", seed=5),
    "entries": lambda A: A.entries,
    "quadratic_form": lambda A: SparseUnitVector(
        A.n, _SUPPORT, np.array([0.6, 0.0, 0.8])
    ).quadratic_form(A),
    "restricted_top_eigenpair": lambda A: restricted_top_eigenpair(A, _SUPPORT),
    "solve_sdp_relaxation": lambda A: solve_sdp_relaxation(A, 3, AdmmConfig(max_iters=1)),
}


def _bits(result):
    """A comparable record of every bit of a query's result."""
    if isinstance(result, SymmetricMatrix):
        return None  # the input, which an SdpSolution keeps
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, tuple):
        return tuple(map(_bits, result))
    if dataclasses.is_dataclass(result):
        return tuple(_bits(getattr(result, f.name)) for f in dataclasses.fields(result))
    return result


@pytest.fixture(scope="module")
def first_calls():
    """Each query's result when it is the first call on a fresh copy."""
    return {
        kind: {name: _bits(query(make())) for name, query in _QUERIES.items()}
        for kind, make in _KINDS.items()
    }


@pytest.mark.parametrize("kind", sorted(_KINDS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(order=st.permutations(sorted(_QUERIES)))
def test_spectral_queries_do_not_depend_on_call_order(first_calls, kind, order):
    # Each query, called in any order on a fresh copy, gives the bits it
    # gives when called first.
    A = _KINDS[kind]()
    for name in order:
        assert _bits(_QUERIES[name](A)) == first_calls[kind][name], name

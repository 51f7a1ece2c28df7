"""Dense symmetric matrices and the spectral primitives shared by every solver.

The conventions fixed here keep all downstream output deterministic:

* eigenvalues are reported in descending order;
* every eigenvector is scaled so that its largest-magnitude coordinate is
  positive, ties resolved toward the lowest index;
* randomized paths draw from a counter-based Philox generator, so identical
  seeds give bit-identical results;
* every dense symmetric eigensolve but the oracle's batched ``eigvalsh`` goes
  through :func:`_symmetric_eigh`, SciPy's LAPACK on the lower triangle.

Each spectral quantity cached on a :class:`SymmetricMatrix` has one route,
chosen by n and by whether ``A`` carries a data factor ``F``, never by what
ran before; a cache holds only that route's result:

* the top eigenpair (:func:`_top_eigenpair`) is one ``dsyevr``: the
  relaxation solver's start and, without ``F``, the exact top-1 pair;
* the PSD verdict (:func:`_psd_failure`) is a pass certified at
  construction (:func:`spcakit.data.covariance_from_data`) or cached, else
  one shifted Cholesky factorization, with eigenvalues only when that
  fails, so no path pays for a full eigensolve of ``A`` to validate it;
* the spectral norm is the top eigenvalue of ``F F.T``, else Lanczos above
  ``_DENSE_CHECK_MAX_N``, else the top pair's when ``A`` meets the PSD rule;
* a principal block (:func:`_principal_block`), and so a quadratic form, is
  ``F_S.T F_S`` with ``F``, and gathered from the entries without.

A sample covariance built from fewer than ``n / 2`` samples carries its
scaled data factor ``F`` (m x n, ``A = F.T F``); a certified one holds
nothing else, and builds its n x n entries only when they are first read.
The eigenbasis-thresholding path never reads them: :func:`top_l_eigenpairs`
skips the iteration when its subspace would already hold ``range(F.T)``,
and builds the top pairs from one eigendecomposition of the m x m Gram
matrix ``G = F F.T``, cached on ``A`` (:func:`_gram_eigh`), which also
gives the norm; products with ``A`` (an unsaturated block Krylov run and
its Rayleigh-Ritz step) cost ``2 m n`` flops per column through ``F``
against ``n^2``. The relaxation, the oracle and the full decomposition read
the entries, and so build them. The entries are ``F.T F`` itself (with a
unit diagonal under ``to_correlation``), so values computed through ``F``
differ from those read from the entries only in the order of the roundings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetryExceedsTolerance,
    ConvergenceFailure,
    InvalidRank,
    NonFiniteEntries,
    NotPSD,
    NotSquare,
)

# Relative slack for advisory PSD validation: covariance estimates are often
# marginally indefinite, so eigenvalues down to -PSD_SLACK * ||A||_2 pass.
PSD_SLACK = 1e-8
_SYMMETRY_RTOL = 1e-8  # largest mirrored gap symmetrize accepts, as a share of max |A_ij|
_FLOAT_MAX = float(np.finfo(float).max)

_KRYLOV_C = 2.0

# Largest n at which ensure_psd and spectral_norm of a matrix without a data
# factor take their norm from the top eigenpair (one dsyevr); above it they
# use Lanczos. Measured with one BLAS thread on sample covariances of rank
# n / 4, microseconds per check (norm plus one shifted dpotrf), against one
# full dsyevd:
#   n =  20 /  64 / 128 /  256 / 512
#   top pair   16 /  81 / 300 / 1370 / 7600
#   Lanczos   233 / 257 / 570 / 1100 / 4760
#   dsyevd     22 / 143 / 546 / 2440 / 14000
# Lanczos overtakes the top pair between n = 128 and 256, but the relaxation
# solver needs the top pair for its start anyway, and the first Lanczos call
# imports scipy.sparse.linalg (about 27 ms and 2.5 MB once per process).
_DENSE_CHECK_MAX_N = 256

# Side of the square tiles _bitwise_symmetric compares with their mirror images;
# at n = 2048 (2 MiB of L2 per core) the compare at 128 takes about 0.007 s.
_TILE = 128

# _symmetric_eigh computes only the top m eigenpairs asked for while m < n and
# m <= max(2, n // _PARTIAL_EIG_DIVISOR), and all n otherwise. Measured with
# one BLAS thread, microseconds per call, top-m dsyevr against a full dsyevd
# (np.linalg.eigh in parentheses):
#   n =  20, m = 1/2/4/8:         19 / 24 / 36 / 69 against 45 (56)
#   n =  64, m = 1/2/4/8/16:      137 / 178 / 254 / 383 / 637 against 461 (431)
#   n = 128, m = 1/2/4/8/16/32:   464 / 531 / 601 / 1015 / 1720 / 2872 against 1554 (1635)
#   n = 256, m = 1/2/4/8/16/32:   2619 / 2802 / 3021 / 3513 / 4154 / 6548 against 7792 (8726)
# At n // 16 a partial call costs at most about two thirds of a full one, which
# leaves room for the PSD projection's failed certificates that pay for both.
_PARTIAL_EIG_DIVISOR = 16

# Smallest lambda_l / lambda_1 for which top_l_eigenpairs builds the top l
# pairs of a factor-backed A = F.T F from those of G = F F.T. Each computed
# pair (lambda_i, u_i) of G has a residual r_i = F F.T u_i - lambda_i u_i with
# ||r_i|| <= eta lambda_1, eta a small multiple of eps (the eigensolver's
# backward error plus the rounding of forming G). Then v_i = F.T u_i /
# sqrt(lambda_i) has v_i.T v_j - delta_ij = u_i.T r_j / sqrt(lambda_i lambda_j)
# up to O(eps), at most eta lambda_1 / lambda_l, and the values err by the
# same relative amount. At 1e-4 that is at most 1e4 eta, about 2.2e-12 for
# eta = eps: the 1e-8 orthonormality check of EigenPairs holds for eta up to
# 4500 eps. Measured on geometric spectra at m x n = 32 x 600, 128 x 2048 and
# 256 x 8192, the error at ratios down to 1e-4 was at most 2.6e-13, and it
# grew as eps lambda_1 / lambda_l below. A centered covariance has rank at
# most m - 1, so l = m always falls below.
_GRAM_MIN_RATIO = 1e-4


def _fix_signs(vectors):
    """Flip column signs so the largest-|entry| coordinate is positive.

    np.argmax returns the first occurrence of the maximum, which implements
    the lowest-index tie break.
    """
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _symmetric_eigh(M, top=None, vectors=True):
    """Ascending eigenvalues of symmetric ``M`` and, if ``vectors``, their
    eigenvectors (else None), from SciPy's LAPACK on the lower triangle.

    The full ``dsyevd`` call reads the triangle ``np.linalg.eigh`` reads and,
    on the builds tested, matches it bit for bit. With ``top``, the ``top``
    largest pairs come from ``dsyevr``'s index range when ``top < n`` and
    ``top <= max(2, n // _PARTIAL_EIG_DIVISOR)``; otherwise, or when
    ``dsyevr`` fails or finds fewer pairs (m = 0 on an exactly repeated or a
    tightly clustered top eigenvalue), all n are returned. Raises
    :class:`ConvergenceFailure` when ``dsyevd`` fails.
    """
    # Imported on first use, like dpotrf below.
    from scipy.linalg import lapack

    n = M.shape[0]
    if top is not None and top < n and top <= max(2, n // _PARTIAL_EIG_DIVISOR):
        w, v, m, _, info = lapack.dsyevr(
            M, compute_v=int(vectors), range="I", il=n - top + 1, iu=n, lower=1
        )
        if info == 0 and m == top:
            return w[:m], v if vectors else None
    w, v, info = lapack.dsyevd(M, compute_v=int(vectors), lower=1)
    if info != 0:
        raise ConvergenceFailure(f"LAPACK dsyevd failed with info={info}")
    return w, v if vectors else None


def _bitwise_symmetric(arr):
    """Whether every mirrored pair of ``arr`` has the same bit pattern.

    Compares the int64 views of each pair of ``_TILE``-square tiles and stops
    at the first pair that differs. Bits, not values: ``+0.0 == -0.0``, but
    their average is ``+0.0``, so such a pair must still be averaged.
    """
    bits = arr.view(np.int64)
    n = arr.shape[0]
    for r in range(0, n, _TILE):
        rows = slice(r, r + _TILE)
        for c in range(r, n, _TILE):
            cols = slice(c, c + _TILE)
            if not np.array_equal(bits[rows, cols], bits[cols, rows].T):
                return False
    return True


def _symmetric_entries(raw):
    """The frozen, read-only average of ``raw`` and its transpose (see :func:`symmetrize`)."""
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise NotSquare(f"expected a square 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteEntries("matrix contains NaN or infinite entries")
    if _bitwise_symmetric(arr):
        # The average is the input itself: (a + a) / 2 == a bit for bit
        # wherever a + a stays finite, and a is the exact average above
        # that. The F-ordered memory of a symmetric array is its C-ordered
        # memory, so either order copies straight.
        entries = (arr.T if arr.flags.f_contiguous else arr).copy(order="C")
    else:
        # Whole-array, not tiled: only near-symmetric input made by hand gets here.
        largest = max(float(arr.max()), -float(arr.min()))
        step = 2.0 if largest > _FLOAT_MAX / 2.0 else 1.0
        part = arr / 2.0 if step == 2.0 else arr
        # One n x n buffer holds the gap, then the sum.
        entries = np.subtract(part, part.T, order="C")
        np.abs(entries, out=entries)
        i, j = divmod(int(np.argmax(entries)), arr.shape[0])  # first in row-major order
        delta, tol = step * float(entries[i, j]), _SYMMETRY_RTOL * largest
        if delta > tol:
            raise AsymmetryExceedsTolerance(i, j, delta, tol)
        np.add(part, part.T, out=entries)
        if step == 1.0:
            entries /= 2.0
    entries.flags.writeable = False
    return entries


class SymmetricMatrix:
    """Immutable symmetric matrix with cached spectral data.

    Construct through :func:`symmetrize`; the constructor averages the input
    with its transpose after checking the asymmetry tolerance (relative, see
    :func:`symmetrize`), or copies it when it is bitwise symmetric, then
    freezes the storage. The full eigendecomposition, the top eigenpair,
    the eigendecomposition of a data factor's Gram matrix, the spectral norm
    and a passing PSD verdict are computed lazily and cached, so repeated
    solves on the same matrix pay for each once.
    :func:`spcakit.data.covariance_from_data` sets the verdict of a sample
    covariance it certifies, and ``_factor``, the data factor ``F`` with
    ``A = F.T F``, of a wide one; else ``_factor`` is None. A certified wide
    covariance holds ``F`` alone (:meth:`_from_factor`): its ``entries`` are
    built on first read.
    """

    __slots__ = (
        "n", "trace", "_entries", "_build", "_eig", "_top", "_gram", "_norm", "_psd", "_factor",
    )

    def __init__(self, raw):
        entries = _symmetric_entries(raw)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = float(np.trace(entries))
        if not math.isfinite(trace):
            # a partial sum overflowed, which depends on the order of the terms:
            # sum exactly, and round once
            from fractions import Fraction

            try:
                trace = float(sum(map(Fraction, np.diagonal(entries).tolist())))
            except OverflowError:
                # the sums of every later step (norms, objectives, floors) overflow too
                raise NonFiniteEntries("the diagonal entries sum past the largest float") from None
        self._init(entries.shape[0], trace, entries, None, None)

    @classmethod
    def _from_factor(cls, factor, trace, build):
        """The matrix ``F.T F`` of the read-only factor ``F``, holding no entries.

        ``build()`` returns the raw entries, which go through :func:`symmetrize`'s
        checks on the first read of ``entries``. The caller makes sure they are
        finite and that ``trace`` is their trace, up to rounding.
        """
        A = cls.__new__(cls)
        A._init(int(factor.shape[1]), trace, None, factor, build)
        return A

    def _init(self, n, trace, entries, factor, build):
        self.n = int(n)
        self.trace = trace
        self._entries = entries
        self._build = build
        self._eig = None
        self._top = None
        self._gram = None
        self._norm = None
        self._psd = False
        self._factor = factor

    @property
    def entries(self):
        """The read-only n x n array, built on first read when ``A`` holds only a factor."""
        if self._entries is None:
            self._entries = _symmetric_entries(self._build())
            self._build = None
        return self._entries

    def __repr__(self):
        return f"SymmetricMatrix(n={self.n}, trace={self.trace:.6g})"


def symmetrize(raw):
    """Build a :class:`SymmetricMatrix` from a square array.

    Entries are replaced by (raw + raw.T) / 2, computed as raw / 2 + raw.T / 2
    when an entry exceeds half the largest float so that it cannot overflow;
    bitwise symmetric input is copied as it is, which is the same average. Raises
    :class:`AsymmetryExceedsTolerance` if any mirrored pair differs by more
    than ``_SYMMETRY_RTOL * max |raw_ij|`` before averaging; scaling raw by
    a power of two changes no verdict. Raises :class:`NonFiniteEntries` on
    NaN or infinite entries, and when the trace overflows.
    """
    return SymmetricMatrix(raw)


@dataclass(frozen=True)
class EigenPairs:
    """Leading eigenvalues/eigenvectors of a symmetric matrix.

    ``values`` is sorted descending and ``vectors`` holds the matching
    orthonormal columns. Pairs built by a caller, and by the block Krylov
    path, are checked for both. Pairs that :func:`eigendecompose` takes from
    LAPACK, and their truncations, skip the orthonormality check: LAPACK
    returns columns orthonormal to working precision, and the check's l x l
    Gram product cost about 0.2 s on top of a 1.8 s ``eigh`` at n = 2048 with
    one BLAS thread.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self._freeze(check_orthonormal=True)

    @classmethod
    def _from_lapack(cls, values, vectors):
        """Pairs from ``eigh`` output: every check but orthonormality."""
        pairs = cls.__new__(cls)
        object.__setattr__(pairs, "values", values)
        object.__setattr__(pairs, "vectors", vectors)
        pairs._freeze(check_orthonormal=False)
        return pairs

    def _freeze(self, check_orthonormal):
        values = np.asarray(self.values, dtype=float)
        vectors = np.asarray(self.vectors, dtype=float)
        if values.ndim != 1 or vectors.ndim != 2 or vectors.shape[1] != values.shape[0]:
            raise ValueError("values must be 1-d and align with vector columns")
        scale = max(1.0, float(np.abs(values).max(initial=0.0)))
        if np.any(np.diff(values) > 1e-10 * scale):
            raise ValueError("eigenvalues must be sorted in descending order")
        if check_orthonormal:
            gram_err = np.abs(vectors.T @ vectors - np.eye(values.shape[0])).max()
            if gram_err > 1e-8:
                raise ValueError(f"eigenvector columns not orthonormal (error {gram_err:.3e})")
        values.flags.writeable = False
        vectors.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)

    @property
    def l(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class SvdParams:
    """Eigensolver options forwarded to :func:`top_l_eigenpairs`."""

    method: str = "exact"  # "exact" or "block_krylov"
    svd_eps: float = 0.1
    seed: int = 0


def _top_eigenpair(A: SymmetricMatrix):
    """``(lambda_max, v)`` of ``A``: ``_symmetric_eigh(A.entries, top=1)``, cached on ``A``.

    ``v`` is a read-only unit vector, signs as LAPACK returns them.
    """
    if A._top is None:
        w, v = _symmetric_eigh(A.entries, top=1)
        v = v[:, -1].copy()
        v.flags.writeable = False
        A._top = (float(w[-1]), v)
    return A._top


def eigendecompose(A: SymmetricMatrix) -> EigenPairs:
    """Full eigendecomposition of ``A``, descending order, fixed signs.

    The result is cached on the matrix, so repeated calls are free.
    Reconstruction satisfies ``||A - V diag(w) V.T||_F <= 1e-8 n ||A||_F``.
    """
    if A._eig is not None:
        return A._eig
    w, v = _symmetric_eigh(A.entries)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = _fix_signs(v[:, order])
    pairs = EigenPairs._from_lapack(w, v)
    A._eig = pairs
    return pairs


def _product(A, block, gram=False):
    """``A @ block``, or ``block.T @ A @ block`` with ``gram``.

    With a data factor ``F`` on ``A`` these are ``F.T (F block)`` and
    ``(F block).T (F block)``, and the n x n entries are never read.
    """
    F = A._factor
    if F is None:
        return block.T @ A.entries @ block if gram else A.entries @ block
    low = F @ block
    return low.T @ low if gram else F.T @ low


def _principal_block(A, idx):
    """The principal block ``A[idx, idx]`` for an index array ``idx``.

    ``F_S.T F_S`` when ``A`` carries a data factor ``F``, whether or not its
    entries are built, so reading a block never builds them; else gathered
    from the entries.
    """
    if A._factor is None:
        return A.entries[np.ix_(idx, idx)]
    low = A._factor[:, idx]
    return low.T @ low


def _gram_eigh(A):
    """``(w, U)``: the eigenvalues, descending, and eigenvectors of ``G = F F.T``
    for the data factor ``F`` of ``A``, from :func:`_symmetric_eigh`, cached on ``A``."""
    if A._gram is None:
        F = A._factor
        w, U = _symmetric_eigh(F @ F.T)
        w, U = w[::-1].copy(), U[:, ::-1].copy()
        w.flags.writeable = False
        U.flags.writeable = False
        A._gram = (w, U)
    return A._gram


def _krylov_iters(n, svd_eps):
    return int(math.ceil(_KRYLOV_C * math.log(max(n, 2)) / math.sqrt(svd_eps)))


def _rayleigh_ritz(A, basis, l):
    """The top ``l`` Ritz pairs of ``A`` on the orthonormal columns of ``basis``."""
    small = _product(A, basis, gram=True)
    small = (small + small.T) / 2.0
    w, s = _symmetric_eigh(small)
    order = np.argsort(-w, kind="stable")[:l]
    values = np.maximum(w[order], 0.0)
    vectors = _fix_signs(basis @ s[:, order])
    if not np.isfinite(values).all() or not np.isfinite(vectors).all():
        raise ConvergenceFailure("Rayleigh-Ritz step produced non-finite output")
    return EigenPairs(values, vectors)


def top_l_eigenpairs(
    A: SymmetricMatrix,
    l: int,
    method: str = "exact",
    svd_eps: float = 0.1,
    seed: int = 0,
) -> EigenPairs:
    """Leading ``l`` eigenpairs of ``A``.

    ``method="exact"`` truncates the cached full decomposition; for ``l = 1``
    it is the cached top eigenpair (:func:`_top_eigenpair`), signs fixed.
    ``method="block_krylov"`` runs a randomized block Krylov iteration with
    block size ``l`` and ``ceil(_KRYLOV_C * log(n) / sqrt(svd_eps))``
    multiplications; each returned value is within a relative ``svd_eps`` of
    the true eigenvalue for PSD input. When the Krylov subspace would reach
    the full dimension, the dense path is used instead (the iteration has
    saturated); the output is still deterministic for a given seed. Its
    products with ``A`` go through the data factor when ``A`` carries one.

    A matrix with an m x n data factor ``F`` and ``l <= m`` skips both, for
    ``method="exact"`` and for a Krylov iteration of at least ``m`` vectors
    beyond its start block: every eigenvector of a nonzero eigenvalue lies in
    ``range(F.T)``, which such an iteration would already span. The exact
    pairs, to rounding, then come without the seed, the n x n entries or a
    full decomposition. While ``lambda_l >= _GRAM_MIN_RATIO * lambda_1``
    they are ``(lambda_i, F.T u_i / sqrt(lambda_i))`` for the top pairs
    ``(lambda_i, u_i)`` of the cached ``G = F F.T`` (:func:`_gram_eigh`).
    Below that ratio those vectors lose orthogonality, and one Rayleigh-Ritz
    step on an orthonormal basis of ``range(F.T)`` gives the pairs instead.
    """
    if not 1 <= l <= A.n:
        raise InvalidRank(f"l={l} outside [1, {A.n}]")
    if method not in ("exact", "block_krylov"):
        raise ValueError(f"unknown eigensolver method {method!r}")
    n = A.n
    if method == "block_krylov" and not 0.0 < svd_eps < 1.0:
        raise ValueError("svd_eps must lie in (0, 1) for block_krylov")
    F = A._factor
    if F is not None and l <= F.shape[0] and (
        method == "exact" or l * _krylov_iters(n, svd_eps) >= F.shape[0]
    ):
        w, U = _gram_eigh(A)
        if w[l - 1] > 0.0 and w[l - 1] >= _GRAM_MIN_RATIO * w[0]:
            return EigenPairs(w[:l].copy(), _fix_signs(F.T @ (U[:, :l] / np.sqrt(w[:l]))))
        # SciPy's economic QR: at 2048 x 128 with one BLAS thread it took
        # 12 ms against 16 ms for np.linalg.qr.
        from scipy.linalg import qr

        basis, _ = qr(F.T, mode="economic", check_finite=False)
        return _rayleigh_ritz(A, basis, l)
    if method == "exact" or l * (_krylov_iters(n, svd_eps) + 1) >= n:
        if l == 1:
            lam, v = _top_eigenpair(A)
            return EigenPairs._from_lapack(np.array([lam]), _fix_signs(v[:, None]))
        full = eigendecompose(A)
        return EigenPairs._from_lapack(full.values[:l].copy(), full.vectors[:, :l].copy())

    iters = _krylov_iters(n, svd_eps)
    rng = np.random.Generator(np.random.Philox(seed))
    basis = np.empty((n, l * (iters + 1)), order="F")
    basis[:, :l], _ = np.linalg.qr(rng.standard_normal((n, l)))
    for i in range(1, iters + 1):
        # Block Gram-Schmidt against the blocks before, twice, then QR: the
        # later blocks are nearly parallel power iterates, and what sets them
        # apart is lost when they are orthonormalized only as a final stack.
        # The basis still spans the block Krylov space.
        done = basis[:, : l * i]
        block = _product(A, basis[:, l * (i - 1) : l * i])
        for _ in range(2):
            block -= done @ (done.T @ block)
        basis[:, l * i : l * (i + 1)], _ = np.linalg.qr(block)
    # Orthonormal already, unless a block was rank-deficient (an exactly
    # invariant subspace, such as the zero matrix gives): its QR columns
    # then need not be orthogonal to the blocks before.
    basis, _ = np.linalg.qr(basis)
    return _rayleigh_ritz(A, basis, l)


def _lanczos_norm(entries) -> float:
    n = entries.shape[0]
    if not entries.any():
        return 0.0
    if n == 1:
        return abs(float(entries[0, 0]))
    # Imported here: the module alone adds about 2.5 MB to the process.
    from scipy.sparse.linalg import ArpackError, eigsh

    v0 = np.random.Generator(np.random.Philox(0)).standard_normal(n)
    try:
        w = eigsh(entries, k=1, which="LM", tol=0, v0=v0, return_eigenvectors=False)
    except ArpackError as exc:
        raise ConvergenceFailure(f"Lanczos spectral norm failed: {exc}") from exc
    return abs(float(w[0]))


def _norm_of(values) -> float:
    return max(abs(float(values[0])), abs(float(values[-1])))


def spectral_norm(A: SymmetricMatrix) -> float:
    """``max(|lambda_max|, |lambda_min|)`` of ``A``, cached on ``A``.

    With a data factor ``F``, the top eigenvalue of ``F F.T`` from
    :func:`_gram_eigh`, so a factor-only matrix builds no entries for it.
    Without one, above ``_DENSE_CHECK_MAX_N``, Lanczos (ARPACK ``eigsh``,
    largest magnitude, full precision) from a fixed-seed Philox start vector.
    Up to that n, the top eigenpair's eigenvalue when ``A`` meets the PSD
    rule (:func:`_psd_failure`) and it is positive, as no eigenvalue then lies
    below ``-PSD_SLACK * ||A||_2``; else the largest ``|lambda|`` of all
    eigenvalues. The zero matrix has norm 0.
    """
    if A._norm is None:
        if A._factor is not None:
            A._norm = _norm_of(_gram_eigh(A)[0])
        elif A.n > _DENSE_CHECK_MAX_N:
            A._norm = _lanczos_norm(A.entries)
        else:
            values = _psd_failure(A)
            if values is None and _top_eigenpair(A)[0] > 0.0:
                A._norm = _top_eigenpair(A)[0]
            else:
                if values is None:
                    values, _ = _symmetric_eigh(A.entries, vectors=False)
                A._norm = _norm_of(values)
    return A._norm


def _shifted_cholesky_succeeds(entries, shift) -> bool:
    # Imported on first use like eigsh: importing it with this module measured
    # about 1.3 MB more peak RSS on the svd-pipeline benchmark.
    from scipy.linalg import lapack

    shifted = entries.copy()
    shifted.flat[:: entries.shape[0] + 1] += shift
    # LAPACK potrf in place on the (symmetric) Fortran-ordered view: one n x n
    # buffer, and at n = 2048 about 2.4x faster than np.linalg.cholesky.
    _, info = lapack.dpotrf(shifted.T, lower=1, overwrite_a=1, clean=0)
    return info == 0


def _psd_failure(A: SymmetricMatrix):
    """None when ``A`` meets ``lambda_min >= -PSD_SLACK * ||A||_2``, else its
    eigenvalues, ascending: the one statement of the PSD rule.

    A pass, cached or certified by :func:`spcakit.data.covariance_from_data`,
    returns at once. Otherwise ``A`` passes when ``A + PSD_SLACK * s * I`` has
    a Cholesky factor, with ``s`` at most ``||A||_2``: ``max(lambda_max, 0)``
    from the top eigenpair up to ``_DENSE_CHECK_MAX_N`` without a data factor,
    else :func:`spectral_norm`. Only if that fails do the eigenvalues decide.
    """
    if not A._psd:
        if A._factor is None and A.n <= _DENSE_CHECK_MAX_N:
            scale = max(_top_eigenpair(A)[0], 0.0)
        else:
            scale = spectral_norm(A)
        if not _shifted_cholesky_succeeds(A.entries, PSD_SLACK * scale):
            values, _ = _symmetric_eigh(A.entries, vectors=False)
            if values[0] < -PSD_SLACK * max(_norm_of(values), 1e-300):
                return values
        A._psd = True
    return None


def ensure_psd(A: SymmetricMatrix) -> None:
    """Raise :class:`NotPSD` unless ``lambda_min >= -PSD_SLACK * ||A||_2``.

    The verdict is :func:`_psd_failure`'s, and a pass is cached on ``A``, so
    repeated checks are free.
    """
    values = _psd_failure(A)
    if values is not None:
        raise NotPSD(
            f"minimum eigenvalue {float(values[0]):.6e} below "
            f"-{PSD_SLACK:g} * spectral norm ({_norm_of(values):.6e})"
        )

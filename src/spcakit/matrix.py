"""Dense symmetric matrices and the spectral primitives shared by every solver.

The conventions fixed here keep all downstream output deterministic:

* eigenvalues are reported in descending order;
* every eigenvector is scaled so that its largest-magnitude coordinate is
  positive, ties resolved toward the lowest index;
* randomized paths draw from a counter-based Philox generator, so identical
  seeds give bit-identical results.

PSD validation and the spectral norm read the full decomposition only for
small matrices or when it is already cached; larger matrices are checked by a
Lanczos norm and one shifted Cholesky factorization, so the block Krylov
solver never pays for a dense ``eigh``.
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

_KRYLOV_C = 2.0

# Largest n at which ensure_psd and spectral_norm read the full decomposition;
# above it they use a Lanczos norm plus one shifted Cholesky. Measured with one
# BLAS thread on sample covariances (check plus norm, against the dense path):
# equal cost near n = 96, 1.8x faster at 128, 4-5x at 256, 5-7x at 512 and
# 12-14x at 2048. Its first use also imports scipy.sparse.linalg (about 27 ms
# and 2.5 MB once per process), more than the under-5 ms it saves per matrix
# up to n = 256.
_DENSE_CHECK_MAX_N = 256


def _fix_signs(vectors):
    """Flip column signs so the largest-|entry| coordinate is positive.

    np.argmax returns the first occurrence of the maximum, which implements
    the lowest-index tie break.
    """
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


class SymmetricMatrix:
    """Immutable dense symmetric matrix with cached spectral data.

    Construct through :func:`symmetrize`; the constructor averages the input
    with its transpose after checking the asymmetry tolerance, then freezes
    the storage. The full eigendecomposition, the Lanczos spectral norm and a
    passing PSD verdict are computed lazily and cached, so repeated solves on
    the same matrix pay for each once.
    """

    __slots__ = ("entries", "n", "symmetry_tol", "trace", "_eig", "_norm", "_psd")

    def __init__(self, raw, symmetry_tol=1e-8):
        arr = np.array(raw, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise NotSquare(f"expected a square 2-d array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NonFiniteEntries("matrix contains NaN or infinite entries")
        if symmetry_tol < 0:
            raise ValueError("symmetry_tol must be nonnegative")
        gap = np.abs(arr - arr.T)
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        if gap[i, j] > symmetry_tol:
            raise AsymmetryExceedsTolerance(int(i), int(j), float(gap[i, j]), symmetry_tol)
        entries = (arr + arr.T) / 2.0
        entries.flags.writeable = False
        self.entries = entries
        self.n = int(arr.shape[0])
        self.symmetry_tol = float(symmetry_tol)
        self.trace = float(np.trace(entries))
        self._eig = None
        self._norm = None
        self._psd = False

    def __repr__(self):
        return f"SymmetricMatrix(n={self.n}, trace={self.trace:.6g})"


def symmetrize(raw, symmetry_tol=1e-8):
    """Build a :class:`SymmetricMatrix` from a square array.

    Entries are replaced by (raw + raw.T) / 2. Raises
    :class:`AsymmetryExceedsTolerance` if any mirrored pair differs by more
    than ``symmetry_tol`` before averaging.
    """
    return SymmetricMatrix(raw, symmetry_tol)


@dataclass(frozen=True)
class EigenPairs:
    """Leading eigenvalues/eigenvectors of a symmetric matrix.

    ``values`` is sorted descending, ``vectors`` holds the matching
    orthonormal columns, and ``residual`` is the largest per-column
    ``||A v - lambda v||_2`` observed at construction time.
    """

    values: np.ndarray
    vectors: np.ndarray
    method: str
    residual: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        vectors = np.asarray(self.vectors, dtype=float)
        if values.ndim != 1 or vectors.ndim != 2 or vectors.shape[1] != values.shape[0]:
            raise ValueError("values must be 1-d and align with vector columns")
        scale = max(1.0, float(np.abs(values).max(initial=0.0)))
        if np.any(np.diff(values) > 1e-10 * scale):
            raise ValueError("eigenvalues must be sorted in descending order")
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


def _column_residual(A_entries, values, vectors):
    resid = A_entries @ vectors - vectors * values
    return float(np.linalg.norm(resid, axis=0).max(initial=0.0))


def eigendecompose(A: SymmetricMatrix) -> EigenPairs:
    """Full eigendecomposition of ``A``, descending order, fixed signs.

    The result is cached on the matrix, so repeated calls are free.
    Reconstruction satisfies ``||A - V diag(w) V.T||_F <= 1e-8 n ||A||_F``.
    """
    if A._eig is not None:
        return A._eig
    try:
        w, v = np.linalg.eigh(A.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"dense eigensolver failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = _fix_signs(v[:, order])
    pairs = EigenPairs(w, v, "exact", _column_residual(A.entries, w, v))
    A._eig = pairs
    return pairs


def _krylov_iters(n, svd_eps):
    return int(math.ceil(_KRYLOV_C * math.log(max(n, 2)) / math.sqrt(svd_eps)))


def _uses_full_decomposition(n, l, method, svd_eps) -> bool:
    """Whether :func:`top_l_eigenpairs` truncates the full decomposition:
    always for "exact", and for "block_krylov" once the Krylov subspace would
    span all ``n`` dimensions. False for arguments it rejects."""
    if method == "exact":
        return True
    return (
        method == "block_krylov"
        and 0.0 < svd_eps < 1.0
        and l * (_krylov_iters(n, svd_eps) + 1) >= n
    )


def top_l_eigenpairs(
    A: SymmetricMatrix,
    l: int,
    method: str = "exact",
    svd_eps: float = 0.1,
    seed: int = 0,
) -> EigenPairs:
    """Leading ``l`` eigenpairs of ``A``.

    ``method="exact"`` truncates the cached full decomposition.
    ``method="block_krylov"`` runs a randomized block Krylov iteration with
    block size ``l`` and ``ceil(_KRYLOV_C * log(n) / sqrt(svd_eps))``
    multiplications; each returned value is within a relative ``svd_eps`` of
    the true eigenvalue for PSD input. When the Krylov subspace would reach
    the full dimension, the dense path is used instead (the iteration has
    saturated); the output is still deterministic for a given seed.
    """
    if not 1 <= l <= A.n:
        raise InvalidRank(f"l={l} outside [1, {A.n}]")
    if method not in ("exact", "block_krylov"):
        raise ValueError(f"unknown eigensolver method {method!r}")
    n = A.n
    if method == "block_krylov" and not 0.0 < svd_eps < 1.0:
        raise ValueError("svd_eps must lie in (0, 1) for block_krylov")
    if _uses_full_decomposition(n, l, method, svd_eps):
        full = eigendecompose(A)
        values = full.values[:l].copy()
        vectors = full.vectors[:, :l].copy()
        return EigenPairs(values, vectors, method, _column_residual(A.entries, values, vectors))

    rng = np.random.Generator(np.random.Philox(seed))
    block, _ = np.linalg.qr(rng.standard_normal((n, l)))
    blocks = [block]
    for _ in range(_krylov_iters(n, svd_eps)):
        # Per-block QR keeps the basis well conditioned without changing
        # the accumulated span.
        block, _ = np.linalg.qr(A.entries @ block)
        blocks.append(block)
    basis, _ = np.linalg.qr(np.hstack(blocks))
    small = basis.T @ A.entries @ basis
    small = (small + small.T) / 2.0
    try:
        w, s = np.linalg.eigh(small)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"Rayleigh-Ritz eigensolver failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")[:l]
    values = np.maximum(w[order], 0.0)
    vectors = _fix_signs(basis @ s[:, order])
    if not np.isfinite(values).all() or not np.isfinite(vectors).all():
        raise ConvergenceFailure("block Krylov iteration produced non-finite output")
    return EigenPairs(values, vectors, "block_krylov", _column_residual(A.entries, values, vectors))


@dataclass(frozen=True)
class MatrixFunctionals:
    trace: float
    spectral_norm: float
    frobenius_norm: float
    entrywise_l1: float
    min_eigenvalue: float


def matrix_functionals(A: SymmetricMatrix) -> MatrixFunctionals:
    """Trace, norms, and extreme eigenvalues of ``A``.

    ``spectral_norm`` is the largest eigenvalue magnitude (equal to the top
    eigenvalue for PSD input); ``min_eigenvalue`` comes from the full
    decomposition, which this always computes. Solvers need only the norm and
    the PSD verdict, and get them cheaper from :func:`spectral_norm` and
    :func:`ensure_psd`.
    """
    eig = eigendecompose(A)
    lam_max = float(eig.values[0])
    lam_min = float(eig.values[-1])
    return MatrixFunctionals(
        trace=A.trace,
        spectral_norm=max(abs(lam_max), abs(lam_min)),
        frobenius_norm=float(np.linalg.norm(A.entries)),
        entrywise_l1=float(np.abs(A.entries).sum()),
        min_eigenvalue=lam_min,
    )


def _dense_check(A: SymmetricMatrix) -> bool:
    """Whether ensure_psd and spectral_norm read the full decomposition."""
    return A._eig is not None or A.n <= _DENSE_CHECK_MAX_N


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


def spectral_norm(A: SymmetricMatrix) -> float:
    """``max(|lambda_max|, |lambda_min|)`` of ``A``.

    Read from the full decomposition when it is cached or ``n`` is at most
    ``_DENSE_CHECK_MAX_N`` (then equal to ``matrix_functionals(A).spectral_norm``).
    Otherwise Lanczos (ARPACK ``eigsh``, largest magnitude, full precision)
    from a fixed-seed Philox start vector, cached on ``A``, so equal matrices
    give bit-identical norms. The zero matrix has norm 0.
    """
    if _dense_check(A):
        values = eigendecompose(A).values
        return max(abs(float(values[0])), abs(float(values[-1])))
    if A._norm is None:
        A._norm = _lanczos_norm(A.entries)
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


def ensure_psd(A: SymmetricMatrix) -> None:
    """Raise :class:`NotPSD` unless ``lambda_min >= -PSD_SLACK * ||A||_2``.

    Small matrices, and matrices whose full decomposition is cached, are
    judged from that decomposition. Larger ones pass when
    ``A + PSD_SLACK * ||A||_2 * I`` has a Cholesky factor, with the norm from
    :func:`spectral_norm`; only if that factorization fails are the
    eigenvalues computed, and the rule above decides from them. A pass is
    cached on ``A``, so repeated checks are free.
    """
    if A._psd:
        return
    if _dense_check(A):
        values = eigendecompose(A).values
    else:
        norm = spectral_norm(A)
        if norm == 0.0 or _shifted_cholesky_succeeds(A.entries, PSD_SLACK * norm):
            A._psd = True
            return
        values = np.linalg.eigvalsh(A.entries)
    lam_min = float(values.min())
    norm = float(np.abs(values).max())
    if lam_min < -PSD_SLACK * max(norm, 1e-300):
        raise NotPSD(
            f"minimum eigenvalue {lam_min:.6e} below "
            f"-{PSD_SLACK:g} * spectral norm ({norm:.6e})"
        )
    A._psd = True

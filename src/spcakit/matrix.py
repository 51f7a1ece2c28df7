"""Dense symmetric matrices and the spectral primitives shared by every solver.

The conventions fixed here keep all downstream output deterministic:

* eigenvalues are reported in descending order;
* every eigenvector is scaled so that its largest-magnitude coordinate is
  positive, ties resolved toward the lowest index;
* randomized paths draw from a counter-based Philox generator, so identical
  seeds give bit-identical results.
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
    the storage. The full eigendecomposition is computed lazily and cached,
    so repeated solves on the same matrix pay for it once.
    """

    __slots__ = ("entries", "n", "symmetry_tol", "trace", "_eig")

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
    if method == "block_krylov":
        if not 0.0 < svd_eps < 1.0:
            raise ValueError("svd_eps must lie in (0, 1) for block_krylov")
        iters = int(math.ceil(_KRYLOV_C * math.log(max(n, 2)) / math.sqrt(svd_eps)))
    if method == "exact" or l * (iters + 1) >= n:
        full = eigendecompose(A)
        values = full.values[:l].copy()
        vectors = full.vectors[:, :l].copy()
        return EigenPairs(values, vectors, method, _column_residual(A.entries, values, vectors))

    rng = np.random.Generator(np.random.Philox(seed))
    block, _ = np.linalg.qr(rng.standard_normal((n, l)))
    blocks = [block]
    for _ in range(iters):
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
    decomposition and feeds PSD validation.
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


def ensure_psd(A: SymmetricMatrix) -> None:
    """Raise :class:`NotPSD` unless ``lambda_min >= -PSD_SLACK * ||A||_2``."""
    f = matrix_functionals(A)
    if f.min_eigenvalue < -PSD_SLACK * max(f.spectral_norm, 1e-300):
        raise NotPSD(
            f"minimum eigenvalue {f.min_eigenvalue:.6e} below "
            f"-{PSD_SLACK:g} * spectral norm ({f.spectral_norm:.6e})"
        )

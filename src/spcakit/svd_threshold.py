"""Sparse PCA by thresholding rows of the leading eigenbasis.

Given a PSD matrix A, the solver keeps the eigenvector rows that carry
enough mass, restricts the weighted eigenbasis to those coordinates, and
extracts the top singular direction of the restricted factor. The output is
a unit vector supported on the kept coordinates whose quadratic form is
within an additive ``3 * epsilon * trace(A)`` of the best k-sparse value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .matrix import (
    EigenPairs,
    SvdParams,
    SymmetricMatrix,
    _fix_signs,
    ensure_psd,
    top_l_eigenpairs,
)

# Guard against last-ulp rounding at the inclusive threshold boundary.
_THRESHOLD_SLACK = 1e-12


def _check_count(label, value, n):
    """Raise ``ValueError`` unless ``value`` is an integer (NumPy integers included) in [1, n]."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{label} {value} is not an integer")
    if not 1 <= value <= n:
        raise ValueError(f"{label} {value} outside [1, {n}]")


def _check_sizing(n, k, sparsity, epsilon):
    """Raise ``ValueError`` unless ``k`` and the support size are valid for dimension ``n``.

    ``k`` is a count in [1, n], and ``epsilon``, when given, lies in (0, 1].
    Budget mode (``sparsity`` given) needs a count ``sparsity`` in [1, n];
    theory mode (``sparsity`` is None) needs epsilon.
    """
    _check_count("k", k, n)
    if epsilon is not None and not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if sparsity is None:
        if epsilon is None:
            raise ValueError("theory mode requires epsilon in (0, 1]")
    else:
        _check_count("sparsity", sparsity, n)


def _top_indices(scores, s):
    """Sorted indices of the ``s`` largest ``scores``, ties toward the lowest index."""
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:s]).astype(np.int64)


@dataclass(frozen=True)
class SparseUnitVector:
    """A sparse vector with explicit support, stored as (indices, values).

    The norm contract is exact unit by default; relaxation-rounded outputs
    set ``norm_le_one`` and may have norm strictly below one.
    """

    n: int
    support: np.ndarray
    values: np.ndarray
    norm_le_one: bool = False

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        values = np.asarray(self.values, dtype=float)
        if support.ndim != 1 or values.shape != support.shape:
            raise ValueError("support and values must be aligned 1-d arrays")
        if support.size < 1:
            raise ValueError("support must contain at least one index")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support indices must be strictly increasing")
        if support[0] < 0 or support[-1] >= self.n:
            raise ValueError(f"support indices outside [0, {self.n})")
        norm = float(np.linalg.norm(values))
        if self.norm_le_one:
            if norm > 1.0 + 1e-10:
                raise ValueError(f"norm {norm} exceeds 1")
        elif abs(norm - 1.0) > 1e-10:
            raise ValueError(f"norm {norm} is not 1 within 1e-10")
        support.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)

    @property
    def sparsity(self):
        return int(self.support.size)

    @property
    def norm(self):
        return float(np.linalg.norm(self.values))

    def to_dense(self):
        dense = np.zeros(self.n)
        dense[self.support] = self.values
        return dense

    def quadratic_form(self, A: SymmetricMatrix) -> float:
        """The value x.T A x, computed on the support only."""
        if A.n != self.n:
            raise DimensionMismatch(f"vector dim {self.n} vs matrix dim {A.n}")
        sub = A.entries[np.ix_(self.support, self.support)]
        return float(self.values @ sub @ self.values)


def threshold_row_indices(pairs: EigenPairs, k, sparsity=None, epsilon=None):
    """Select the retained coordinate set from squared eigenvector row norms.

    With ``sparsity`` (budget mode) the ``sparsity`` largest rows are kept,
    ties broken toward the lowest index; without it (theory mode) every row
    with squared norm >= epsilon^2 / k (inclusive). A would-be-empty
    selection falls back to the single heaviest row. Returns a sorted index
    array.
    """
    row_norms_sq = np.einsum("ij,ij->i", pairs.vectors, pairs.vectors)
    _check_sizing(row_norms_sq.shape[0], k, sparsity, epsilon)
    if sparsity is None:
        thr = epsilon * epsilon / k
        selected = np.flatnonzero(row_norms_sq >= thr - _THRESHOLD_SLACK * max(thr, 1.0))
        # |R| * eps^2/k <= sum of squared row norms = l, hence |R| <= k*l/eps^2.
        size_bound = k * pairs.l / (epsilon * epsilon)
        if selected.size > size_bound + 1e-9:
            raise InvariantViolation(
                f"theory-mode selection has {selected.size} rows, above k*l/eps^2 = {size_bound}"
            )
    else:
        selected = _top_indices(row_norms_sq, sparsity)
    if selected.size == 0:
        selected = np.array([int(np.argmax(row_norms_sq))], dtype=np.int64)
    return selected.astype(np.int64)


def _top_right_singular_vector(factor):
    """Unit top right singular vector of a small dense factor (l x r).

    Read from the SVD of the factor itself, which does not square its
    condition number as a Gram matrix would. A zero factor falls back to the
    first coordinate so the output is always well defined.
    """
    _, sigma, vt = np.linalg.svd(factor, full_matrices=False)
    if sigma[0] <= 0.0:
        y = np.zeros(factor.shape[1])
        y[0] = 1.0
        return y
    return vt[0]


def spca_svd(
    A: SymmetricMatrix,
    k: int,
    sparsity: int | None = None,
    epsilon: float = 1.0,
    l_override: int | None = None,
    svd: SvdParams | None = None,
) -> SparseUnitVector:
    """Sparse principal direction by eigenbasis-row thresholding.

    Steps: compute the top ``l`` eigenpairs, select the retained rows R,
    form the weighted restricted factor ``diag(sqrt(values)) @ vectors[R].T``
    and return its top right singular direction embedded back into R^n.
    The result has unit norm and support R. Rescaling A by c > 0 leaves it
    unchanged up to rounding, and bit for bit when c is an even power of two:
    the factor then scales by the power of two ``sqrt(c)``, while an odd power
    of two scales it by an irrational number.

    With ``sparsity`` (budget mode) R is the ``sparsity`` heaviest rows;
    without it (theory mode) R is every row with squared norm at least
    ``epsilon**2 / k``, so ``|R| <= k * l / epsilon**2``. The number of
    leading eigenpairs is ``ceil(1 / epsilon)`` unless pinned by
    ``l_override``; ``svd`` selects the eigensolver. Budget mode needs no
    epsilon: ``epsilon=None`` counts as 1.0 there, so ``l`` is 1.
    """
    _check_sizing(A.n, k, sparsity, epsilon)
    if l_override is not None and not (
        isinstance(l_override, numbers.Integral) and l_override >= 1
    ):
        raise ValueError("l_override must be a positive integer")
    svd = svd or SvdParams()
    l = min(l_override if l_override is not None else math.ceil(1.0 / (epsilon or 1.0)), A.n)
    pairs = top_l_eigenpairs(A, l, method=svd.method, svd_eps=svd.svd_eps, seed=svd.seed)
    # Checked after the eigensolver: when it decomposes A in full, the check
    # reads the cached spectrum instead of running its own Lanczos and Cholesky.
    ensure_psd(A)
    selected = threshold_row_indices(pairs, k, sparsity, epsilon)
    factor = np.sqrt(np.maximum(pairs.values, 0.0))[:, None] * pairs.vectors[selected].T
    y = _top_right_singular_vector(factor)
    y = _fix_signs(y[:, None])[:, 0]
    y = y / np.linalg.norm(y)
    return SparseUnitVector(A.n, selected, y)

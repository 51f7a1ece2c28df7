"""Sparse PCA by thresholding rows of the leading eigenbasis.

Given a PSD matrix A, the solver keeps the eigenvector rows that carry
enough mass, restricts the weighted eigenbasis to those coordinates, and
extracts the top singular direction of the restricted factor. The output is
a unit vector supported on the kept coordinates whose quadratic form is
within an additive ``3 * epsilon * trace(A)`` of the best k-sparse value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .matrix import (
    EigenPairs,
    SvdParams,
    SymmetricMatrix,
    _fix_signs,
    _uses_full_decomposition,
    eigendecompose,
    ensure_psd,
    top_l_eigenpairs,
)

# Guard against last-ulp rounding at the inclusive threshold boundary.
_THRESHOLD_SLACK = 1e-12


def _check_mode(mode, epsilon, budget_s):
    """Raise ``ValueError`` unless ``mode`` is "theory" with epsilon in (0, 1]
    or "budget" with ``budget_s >= 1``."""
    if mode == "theory":
        if epsilon is None or not 0.0 < epsilon <= 1.0:
            raise ValueError("theory mode requires epsilon in (0, 1]")
    elif mode == "budget":
        if budget_s is None or budget_s < 1:
            raise ValueError("budget mode requires budget_s >= 1")
    else:
        raise ValueError(f"unknown mode {mode!r}")


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


@dataclass(frozen=True)
class SvdThresholdConfig:
    """Configuration for :func:`spca_svd`.

    ``mode="theory"`` keeps every row of the truncated eigenbasis with
    squared norm at least ``epsilon**2 / k`` (output sparsity is then at most
    ``k * l / epsilon**2``); ``mode="budget"`` keeps exactly the
    ``budget_s`` heaviest rows. The number of leading eigenpairs defaults to
    ``ceil(1 / epsilon)`` and can be pinned with ``l_override``.
    """

    k: int
    epsilon: float = 1.0
    l_override: int | None = None
    mode: str = "theory"
    budget_s: int | None = None
    svd: SvdParams = field(default_factory=SvdParams)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        # epsilon sizes l in both modes, so it is checked in budget mode too.
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        _check_mode(self.mode, self.epsilon, self.budget_s)
        if self.l_override is not None and self.l_override < 1:
            raise ValueError("l_override must be a positive integer")

    def resolve_l(self, n):
        l = self.l_override if self.l_override is not None else math.ceil(1.0 / self.epsilon)
        return min(l, n)


def threshold_row_indices(pairs: EigenPairs, k, epsilon, mode="theory", budget_s=None):
    """Select the retained coordinate set from squared eigenvector row norms.

    Theory mode keeps rows with squared norm >= epsilon^2 / k (inclusive);
    budget mode keeps the ``budget_s`` largest, ties broken toward the lowest
    index. A would-be-empty selection falls back to the single heaviest row.
    Returns a sorted index array.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    _check_mode(mode, epsilon, budget_s)
    row_norms_sq = np.einsum("ij,ij->i", pairs.vectors, pairs.vectors)
    n = row_norms_sq.shape[0]
    if mode == "theory":
        thr = epsilon * epsilon / k
        selected = np.flatnonzero(row_norms_sq >= thr - _THRESHOLD_SLACK * max(thr, 1.0))
        # |R| * eps^2/k <= sum of squared row norms = l, hence |R| <= k*l/eps^2.
        size_bound = k * pairs.l / (epsilon * epsilon)
        if selected.size > size_bound + 1e-9:
            raise InvariantViolation(
                f"theory-mode selection has {selected.size} rows, above k*l/eps^2 = {size_bound}"
            )
    else:
        order = np.argsort(-row_norms_sq, kind="stable")
        selected = np.sort(order[: min(budget_s, n)])
    if selected.size == 0:
        selected = np.array([int(np.argmax(row_norms_sq))], dtype=np.int64)
    return selected.astype(np.int64)


def _top_right_singular_vector(factor):
    """Unit top right singular vector of a small dense factor (l x r).

    For r > l the l x l Gram matrix is the cheaper eigenproblem; the right
    singular vector is recovered from the top left one. Otherwise the r x r
    Gram matrix is used directly. A zero factor falls back to the first
    coordinate so the output is always well defined.
    """
    l, r = factor.shape
    if r > l:
        gram = factor @ factor.T
        w, vecs = np.linalg.eigh((gram + gram.T) / 2.0)
        left = vecs[:, -1]
        y = factor.T @ left
        norm = np.linalg.norm(y)
        if norm <= 1e-300 or w[-1] <= 0.0:
            y = np.zeros(r)
            y[0] = 1.0
            return y
        return y / norm
    gram = factor.T @ factor
    w, vecs = np.linalg.eigh((gram + gram.T) / 2.0)
    if w[-1] <= 0.0:
        y = np.zeros(r)
        y[0] = 1.0
        return y
    return vecs[:, -1]


def spca_svd(A: SymmetricMatrix, cfg: SvdThresholdConfig) -> SparseUnitVector:
    """Sparse principal direction by eigenbasis-row thresholding.

    Steps: compute the top ``l`` eigenpairs, select the retained rows R,
    form the weighted restricted factor ``diag(sqrt(values)) @ vectors[R].T``
    and return its top right singular direction embedded back into R^n.
    The result has unit norm, support R, and is invariant under positive
    rescaling of A.
    """
    l = cfg.resolve_l(A.n)
    if _uses_full_decomposition(A.n, l, cfg.svd.method, cfg.svd.svd_eps):
        # The eigensolver decomposes A anyway; doing it first lets the PSD
        # check read the cached spectrum instead of its own Lanczos and Cholesky.
        eigendecompose(A)
    ensure_psd(A)
    if cfg.k > A.n:
        raise ValueError(f"k={cfg.k} exceeds matrix dimension {A.n}")
    pairs = top_l_eigenpairs(
        A,
        l,
        method=cfg.svd.method,
        svd_eps=cfg.svd.svd_eps,
        seed=cfg.svd.seed,
    )
    selected = threshold_row_indices(pairs, cfg.k, cfg.epsilon, cfg.mode, cfg.budget_s)
    factor = np.sqrt(np.maximum(pairs.values, 0.0))[:, None] * pairs.vectors[selected].T
    y = _top_right_singular_vector(factor)
    y = _fix_signs(y[:, None])[:, 0]
    y = y / np.linalg.norm(y)
    return SparseUnitVector(A.n, selected, y)

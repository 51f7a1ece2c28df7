"""Exact sparse PCA by exhaustive support enumeration.

Ground truth for small instances: for PSD A the best unit vector on a fixed
support is the top eigenpair of the corresponding principal submatrix, so
enumerating all size-k supports solves the problem exactly.

Supports are taken from ``itertools.combinations`` in lexicographic order, in
fixed-size chunks. Each chunk's principal submatrices are gathered into one
stacked ``(chunk, k, k)`` array and screened by their Gershgorin bound
``max_i sum_j |A_SS[i, j]|``, which is at least ``lambda_max(A_SS)``. Only
blocks whose bound reaches the threshold, the larger of a greedy
forward-selection incumbent and the best value found so far, less a small
rounding margin, go to one stacked ``eigvalsh`` call. The greedy incumbent is
skipped when it would score more supports than the enumeration screens, as
near k = n, or when its blocks would not fit in one chunk. A support is pruned
only when its bound is strictly below that threshold, so the first optimal
support in lexicographic order is never pruned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationBudgetExceeded, InvalidSupport
from .matrix import SymmetricMatrix, _fix_signs, ensure_psd
from .svd_threshold import SparseUnitVector, _check_count

DEFAULT_ENUMERATION_BUDGET = 2_000_000

# Matrix entries per stacked chunk: 2 MB of float64 submatrices whatever k is.
_CHUNK_ENTRIES = 1 << 18
# Relative slack on the screen, in units of k * max|A_ij|. It covers the
# rounding in the computed Gershgorin sums and eigenvalues, which is many
# orders of magnitude smaller.
_SCREEN_MARGIN = 1e-9


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum and how the enumeration reached it.

    ``instances_enumerated`` is ``C(n, k)``, the number of supports screened;
    ``instances_pruned`` counts those the Gershgorin screen discarded without
    an eigenvalue computation.
    """

    optimal_value: float
    optimal_vector: SparseUnitVector
    support: tuple
    instances_enumerated: int
    instances_pruned: int


def restricted_top_eigenpair(A: SymmetricMatrix, support):
    """Top eigenvalue and eigenvector of the principal submatrix A[S, S]."""
    idx = np.asarray(sorted(support), dtype=np.int64)
    if idx.size == 0:
        raise InvalidSupport("support must be nonempty")
    if np.unique(idx).size != idx.size:
        raise InvalidSupport("support indices must be distinct")
    if idx[0] < 0 or idx[-1] >= A.n:
        raise InvalidSupport(f"support indices outside [0, {A.n})")
    sub = A.entries[np.ix_(idx, idx)]
    w, v = np.linalg.eigh(sub)
    vec = _fix_signs(v[:, -1:])[:, 0]
    return float(w[-1]), vec


def _principal_blocks(entries, supports):
    """Stacked principal submatrices ``entries[S, S]`` for each row S of ``supports``."""
    return entries[supports[:, :, None], supports[:, None, :]]


def _greedy_incumbent(entries, k):
    """Top eigenvalue of the support grown by greedy forward selection.

    Each of the k steps adds the index whose extension has the largest top
    eigenvalue, scored by one stacked ``eigvalsh`` over all extensions: at
    most n * k supports in all, and n * k * k stacked entries per step.
    """
    n = entries.shape[0]
    chosen = np.empty(0, dtype=np.int64)
    value = -math.inf
    for _ in range(k):
        candidates = np.setdiff1d(np.arange(n), chosen)
        supports = np.column_stack(
            [np.broadcast_to(chosen, (candidates.size, chosen.size)), candidates]
        )
        values = np.linalg.eigvalsh(_principal_blocks(entries, supports))[:, -1]
        best = int(np.argmax(values))
        chosen = supports[best]
        value = float(values[best])
    return value


def exact_spca(
    A: SymmetricMatrix, k: int, max_enumeration: int = DEFAULT_ENUMERATION_BUDGET
) -> OracleResult:
    """Exhaustive optimum of max x.T A x over unit x with at most k nonzeros.

    Enumerates supports in lexicographic order and keeps the first best, so
    ties resolve to the lexicographically smallest support. Raises
    :class:`EnumerationBudgetExceeded` when C(n, k) exceeds the budget.

    Supports are screened in stacked chunks against a Gershgorin upper bound
    (see the module docstring); the optimum, its support and the tie-break are
    those of evaluating every support, since pruning needs a strict bound.
    """
    _check_count("k", k, A.n)
    ensure_psd(A)
    required = math.comb(A.n, k)
    if required > max_enumeration:
        raise EnumerationBudgetExceeded(required, max_enumeration)

    entries = A.entries
    margin = _SCREEN_MARGIN * k * float(np.abs(entries).max())
    # The greedy incumbent runs only when it scores fewer supports than the
    # enumeration screens and its blocks fit in one chunk; near k = n it would
    # cost more than the whole search.
    greedy = A.n * k < required and A.n * k * k <= _CHUNK_ENTRIES
    incumbent = _greedy_incumbent(entries, k) if greedy else -math.inf
    chunk = max(1, _CHUNK_ENTRIES // (k * k))
    combos = itertools.combinations(range(A.n), k)
    best_value = -math.inf
    best_support = None
    pruned = 0
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(combos, chunk))
        supports = np.fromiter(flat, dtype=np.int64).reshape(-1, k)
        if supports.shape[0] == 0:
            break
        blocks = _principal_blocks(entries, supports)
        bounds = np.abs(blocks).sum(axis=2).max(axis=1)
        survivors = np.flatnonzero(bounds >= max(incumbent, best_value) - margin)
        pruned += supports.shape[0] - survivors.size
        if survivors.size == 0:
            continue
        values = np.linalg.eigvalsh(blocks[survivors])[:, -1]
        top = int(np.argmax(values))
        if values[top] > best_value:
            best_value = float(values[top])
            best_support = tuple(int(i) for i in supports[survivors[top]])

    top_value, top_vec = restricted_top_eigenpair(A, best_support)
    vector = SparseUnitVector(A.n, np.asarray(best_support, dtype=np.int64), top_vec)
    return OracleResult(
        optimal_value=top_value,
        optimal_vector=vector,
        support=best_support,
        instances_enumerated=required,
        instances_pruned=pruned,
    )

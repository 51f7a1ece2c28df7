"""Exact sparse PCA by exhaustive support enumeration.

Ground truth for small instances: for PSD A the best unit vector on a fixed
support is the top eigenpair of the corresponding principal submatrix, so
enumerating all size-k supports solves the problem exactly.

Supports are built in lexicographic order by extending prefixes one index at
a time. Each prefix P carries its trace ``t = sum_{i in P} A_ii``, its squared
Frobenius norm ``f = sum_{i, j in P} A_ij**2`` and the row vector
``c = sum_{i in P} A_i.**2``; appending index j gives ``t + A_jj`` and
``f + A_jj**2 + 2 c_j``, so a support's statistics cost O(1) and no k x k
block is gathered to score it. Every support is screened by the
Wolkowicz-Styan bound ``t/k + sqrt((k-1)/k * (f - t**2/k))``, which is at
least ``lambda_max(A_SS)`` for any symmetric block, plus a rounding slack
``2k sqrt(eps f)`` that covers the cancellation in ``f - t**2/k`` (derived in
``_screen_bounds``). Only supports whose bound reaches the threshold, the
larger of a greedy forward-selection incumbent and the best value found so
far, less a small margin, have their blocks gathered and sent to one stacked
``eigvalsh`` call. The greedy incumbent is skipped when it would score more
supports than the enumeration screens, as near k = n, or when its blocks
would not fit in one chunk. A support is pruned only when its bound is
strictly below that threshold, so the first optimal support in lexicographic
order is never pruned.

Prefixes are expanded depth-first in slices of at most
``(_CHUNK_ENTRIES >> (k - e + 1)) // n`` prefixes of length e, and at least
one. A slice forms the ``c`` rows of its prefixes only when their children
are prefixes too; a support reads its parent's ``c_j`` as the grandparent's
entry plus one square. So the ``c`` rows alive at all depths stay under a
quarter of ``_CHUNK_ENTRIES`` entries, as does a batch of scored supports (at
most n per prefix of a slice), and each stack sent to ``eigvalsh`` stays
under all of it, whatever n and k are, unless a single row exceeds its
share, as when k is near n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationBudgetExceeded, InvalidSupport
from .matrix import SymmetricMatrix, _fix_signs, _principal_block, _symmetric_eigh, ensure_psd
from .svd_threshold import SparseUnitVector, _check_count

DEFAULT_ENUMERATION_BUDGET = 2_000_000

# Entries per working array of the enumeration: 2 MB of float64 whatever n and
# k are. It caps the prefix rows (see the module docstring), the scored
# supports and the stacked submatrices sent to eigvalsh.
_CHUNK_ENTRIES = 1 << 18
# Fixed slack on the screen, in units of k * max|A_ij|. It covers the errors
# that are linear in eps, those of eigvalsh included (see _screen_bounds).
_SCREEN_MARGIN = 1e-9


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum and how the enumeration reached it.

    ``instances_enumerated`` is ``C(n, k)``, the number of supports screened;
    ``instances_pruned`` counts those whose Wolkowicz-Styan bound, slack
    included, fell below the threshold, so that their block was never gathered
    nor its eigenvalues computed.
    """

    optimal_value: float
    optimal_vector: SparseUnitVector
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
    w, v = _symmetric_eigh(_principal_block(A, idx))
    vec = _fix_signs(v[:, -1:])[:, 0]
    return float(w[-1]), vec


def _principal_blocks(entries, supports):
    """Stacked principal submatrices ``entries[S, S]`` for each row S of ``supports``."""
    return entries[supports[:, :, None], supports[:, None, :]]


def _greedy_incumbent(entries, k):
    """Top eigenvalue of the support grown by greedy forward selection.

    Each of the k steps adds the index whose extension has the largest top
    eigenvalue, scored by one stacked ``eigvalsh`` over all extensions: at
    most n * k supports in all, and n * k * k stacked entries per step. Row i
    of ``supports`` is the chosen indices, in the order chosen, followed by
    the i-th free index; each pick is written into its column of every row.
    """
    n = entries.shape[0]
    free = np.ones(n, dtype=bool)
    supports = np.empty((n, k), dtype=np.int64)
    value = -math.inf
    for step in range(k):
        candidates = np.flatnonzero(free)
        rows = supports[: candidates.size, : step + 1]
        rows[:, step] = candidates
        values = np.linalg.eigvalsh(_principal_blocks(entries, rows))[:, -1]
        best = int(np.argmax(values))
        supports[:, step] = candidates[best]
        free[candidates[best]] = False
        value = float(values[best])
    return value


def _leaf_batches(entries, k):
    """Every size-k support in lexicographic order, in batches, with its ``t`` and ``f``.

    Yields ``(prefixes, rows, cols, trace, frob)``: support i of a batch is
    ``prefixes[rows[i]]`` followed by ``cols[i]``, with trace ``trace[i]`` and
    squared Frobenius norm ``frob[i]``. Prefixes are expanded depth-first from
    an explicit stack of per-depth generators, so k near n needs no recursion.
    """
    n = entries.shape[0]
    diag = entries.diagonal()
    diag_sq = diag * diag

    def children(prefixes, trace, frob, cross, owner):
        # The c row of prefix p is cross[owner[p]] + A[last_p]**2: its
        # parent's row plus the square of its last index's row. The root's is
        # cross[0].
        depth = prefixes.shape[1]
        last = prefixes[:, -1] if depth else np.full(1, -1)
        # A child's new index must leave room for the k - depth - 1 after it.
        counts = n - k + depth - last
        rows = np.repeat(np.arange(last.size), counts)
        cols = np.arange(rows.size) + np.repeat(last + 1 - np.cumsum(counts) + counts, counts)
        if depth + 1 == k:
            c = cross[owner[rows], cols]
            if depth:
                c += np.square(entries[last[rows], cols])
            yield (
                prefixes,
                rows,
                cols,
                trace[rows] + diag[cols],
                frob[rows] + diag_sq[cols] + 2.0 * c,
            )
            return
        c = cross[owner] + np.square(entries[last]) if depth else cross
        step = max(1, (_CHUNK_ENTRIES >> (k - depth)) // n)
        for start in range(0, rows.size, step):
            r, j = rows[start : start + step], cols[start : start + step]
            yield (
                np.column_stack([prefixes[r], j]),
                trace[r] + diag[j],
                frob[r] + diag_sq[j] + 2.0 * c[r, j],
                c,
                r,
            )

    root = np.zeros((1, 0), dtype=np.int64)
    owner = np.zeros(1, dtype=np.int64)
    levels = [children(root, np.zeros(1), np.zeros(1), np.zeros((1, n)), owner)]
    while levels:
        batch = next(levels[-1], None)
        if batch is None:
            levels.pop()
        elif len(levels) == k:
            yield batch
        else:
            levels.append(children(*batch))


def _screen_bounds(trace, frob, k):
    """Wolkowicz-Styan bound on ``lambda_max(A_SS)`` plus its cancellation slack.

    With u = eps/2 the unit roundoff and M = max|A_ij|, the computed f is a
    sum of k**2 nonnegative squares, each passed through at most 2k + 1
    roundings, so it is within (2k + 1)u f of the exact f. The trace sums k
    diagonal entries, and Cauchy-Schwarz gives t**2 <= k f, so the computed
    ``t**2/k`` is within about (2k + 2)u f. The subtraction ``f - t**2/k``
    therefore carries an absolute error of at most about (4k + 5)u f, which is
    below 4k**2 eps f for k >= 2, however far it cancels (k = 1 has no square
    root term). Since ``sqrt(a + b) <= sqrt(a) + sqrt(b)``, adding
    ``sqrt(4k**2 eps f) = 2k sqrt(eps f)`` covers it. The other errors, in
    ``t/k``, the square root, the sums and eigvalsh's own (a modest multiple
    of k eps ||A_SS||_2 <= k**2 eps M), are linear in eps and fall under
    ``_SCREEN_MARGIN * k * M``, which the caller subtracts from the threshold.
    """
    spread = np.sqrt(np.maximum(frob - trace * trace / k, 0.0) * ((k - 1) / k))
    return trace / k + spread + 2.0 * k * np.sqrt(np.finfo(float).eps * frob)


def exact_spca(
    A: SymmetricMatrix, k: int, max_enumeration: int = DEFAULT_ENUMERATION_BUDGET
) -> OracleResult:
    """Exhaustive optimum of max x.T A x over unit x with at most k nonzeros.

    Enumerates supports in lexicographic order and keeps the first best, so
    ties resolve to the lexicographically smallest support. Raises
    :class:`EnumerationBudgetExceeded` when C(n, k) exceeds the budget.

    Supports are screened in batches against a Wolkowicz-Styan upper bound
    (see the module docstring); the optimum, its support and the tie-break are
    those of evaluating every support, since pruning needs a strict bound.
    """
    _check_count("k", k, A.n)
    ensure_psd(A)
    required = math.comb(A.n, k)
    if required > max_enumeration:
        raise EnumerationBudgetExceeded(required, max_enumeration)

    # Search A times the power of two putting max|A_ij| in [1/2, 1), so no square over/underflows.
    entries = A.entries
    largest, exponent = math.frexp(max(float(entries.max()), -float(entries.min())))
    entries = np.ldexp(entries, -exponent)
    margin = _SCREEN_MARGIN * k * largest
    # The greedy incumbent runs only when it scores fewer supports than the
    # enumeration screens and its blocks fit in one chunk; near k = n it would
    # cost more than the whole search.
    greedy = A.n * k < required and A.n * k * k <= _CHUNK_ENTRIES
    incumbent = _greedy_incumbent(entries, k) if greedy else -math.inf
    chunk = max(1, _CHUNK_ENTRIES // (k * k))
    best_value = -math.inf
    best_support = None
    pruned = 0
    for prefixes, rows, cols, trace, frob in _leaf_batches(entries, k):
        bounds = _screen_bounds(trace, frob, k)
        survivors = np.flatnonzero(bounds >= max(incumbent, best_value) - margin)
        pruned += rows.size - survivors.size
        for start in range(0, survivors.size, chunk):
            picked = survivors[start : start + chunk]
            supports = np.column_stack([prefixes[rows[picked]], cols[picked]])
            values = np.linalg.eigvalsh(_principal_blocks(entries, supports))[:, -1]
            top = int(np.argmax(values))
            if values[top] > best_value:
                best_value = float(values[top])
                best_support = tuple(int(i) for i in supports[top])

    top_value, top_vec = restricted_top_eigenpair(A, best_support)
    vector = SparseUnitVector(A.n, np.asarray(best_support, dtype=np.int64), top_vec)
    return OracleResult(
        optimal_value=top_value,
        optimal_vector=vector,
        instances_enumerated=required,
        instances_pruned=pruned,
    )

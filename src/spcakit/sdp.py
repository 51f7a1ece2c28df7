"""Sparse PCA via a trace/l1-constrained convex relaxation and rounding.

The relaxation maximizes ``trace(A Z)`` over PSD matrices with
``trace(Z) <= 1`` and ``sum |Z_ij| <= k``. It is solved by over-relaxed ADMM
with the splitting Z = Y, where the Z-block owns the PSD trace ball and the
Y-block owns the entrywise l1 ball. Both projections are exact, and both
avoid work the exact answer does not need: the PSD projection computes only
the eigenpairs it keeps plus one, with a certificate that the rest map to
zero, and the l1 projection finds its threshold by a filter iteration
instead of a full sort. The solver stops on a certified duality gap: the
scaled dual variable gives an upper bound on the relaxation's optimum
(d'Aspremont, El Ghaoui, Jordan & Lanckriet, SIAM Review 2007), and a
rescaled Z iterate is a feasible point whose objective is within a relative
``gap_tol`` of it; the gap is checked on a cadence that widens as the
iterations grow. Before the first iteration the same test is applied to the
thresholding solution x, as the feasible point ``x x^T``, and the structured
dual ``clip(A, -t, t)``; when they already close the gap, no iteration runs.
The search for t starts at the least t that cancels every entry of A off
x's support, whose bound takes one k x k eigensolve; no larger t gives a
lower bound, so when that point does not close the gap it bisects below it.
One Rayleigh step from x skips the search when it proves that no dual bound
can close the gap. Rounding takes the best
rank-1 factor u of the solution and keeps its ``s`` largest-magnitude
coordinates, giving a vector with norm at most one and a certified objective
floor ``(1/alpha) * trace(A Z) - epsilon``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSolution, InvariantViolation
from .matrix import SymmetricMatrix, _fix_signs, _symmetric_eigh, _top_eigenpair, ensure_psd
from .oracle import restricted_top_eigenpair
from .svd_threshold import SparseUnitVector, _check_count, _check_sizing, _top_indices

# rho stays within this factor of its starting value.
_RHO_RANGE = 1e6
# Residual balancing runs on a cadence with a capped change budget; adapting
# every iteration can lock the iteration into a rho limit cycle.
_RHO_ADAPT_EVERY = 100
_RHO_ADAPT_BUDGET = 30
# Over-relaxation factor (Boyd et al., *Distributed Optimization and
# Statistical Learning via ADMM*, 2011, section 3.4.3): the l1 step and the
# dual update see 1.6 Z + (1 - 1.6) Y_prev in place of Z.
_OVER_RELAXATION = 1.6
# Bisection steps of the threshold search for the structured dual
# clip(A, -t, t) (_clip_threshold) below its first point t_off, each one top
# eigenpair of the rows the threshold leaves nonzero. They run only when
# t_off does not certify: on 86 of 1200 spiked inputs (n = 128, gen seeds
# 0-399, k = 8/16/32), which certify after 12-13 steps in 0.68 ms (median,
# one BLAS thread). On pit props k = 2 certifies after 2 steps and k = 12
# after 15, and k = 11 fails after all 16, so the cap cannot drop. Inputs
# that no threshold can certify skip the search (_clip_cannot_certify); on
# the 20 x 20 Wishart inputs of oracle-small, every one of them.
_CLIP_SEARCH_STEPS = 16
# The skip rule compares a Rayleigh quotient with the thresholding objective.
# Both, and every dual bound, carry rounding errors of a few ulps of
# lambda_max(A) times n; the rule asks for a margin far above that.
_SKIP_MARGIN = 1e-9
# rank_one_diagnostics takes Z as rank-1 when a column factor u leaves
# ||Z - u u^T||_F at most this share of ||Z||_F. On 583 solves (spiked
# n = 128 at k = 8/16/32, pit props at k = 1..13, random Gram matrices under
# four iteration caps) the residual of the 335 rank-1 Z was at most 1.01 eps,
# and that of the others at least 6e9 eps.
_RANK_ONE_RTOL = 16 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class AdmmConfig:
    """First-order solver parameters for the relaxation.

    The solve stops once ``dual_bound - objective <= gap_tol * dual_bound``,
    a relative gap, so the stopping rule does not depend on the scale of A.
    ``rho`` is the starting penalty: None (the default) starts at
    ``lambda_max(A)``, the penalty's natural scale (Boyd et al. 2011, section
    3.4.1), and a finite positive value is used as given, whatever the scale
    of A. The penalty then follows residual balancing: it is doubled or halved
    (with the matching dual rescaling) whenever one residual exceeds ten times
    the other, within a factor ``_RHO_RANGE`` of the start. The dual residual
    is measured in units of ``lambda_max(A)`` (1.0 when that is not
    positive), the default start, so an explicit start far from it is still
    corrected, and scaling A by a power of two (and an explicit ``rho`` with
    it) scales the objective and the bound by it and leaves every iterate
    unchanged. ``gap_tol`` must be finite, positive and below 1: a relative
    gap of 1 or more would certify any nonnegative objective. ``max_iters``
    must be an integer of at least 1.
    """

    rho: float | None = None
    max_iters: int = 50_000
    gap_tol: float = 1e-4

    def __post_init__(self):
        for name in ("rho", "gap_tol"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not self.gap_tol < 1.0:
            raise ValueError(f"gap_tol must be below 1, got {self.gap_tol}")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer of at least 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class SdpSolution:
    """Solved relaxation: the matrix Z, its objective, and solve metadata.

    ``matrix`` keeps a reference to the input so diagnostics and rounding can
    be computed later without re-threading it. ``Z`` is feasible and
    ``objective = trace(A Z)``; ``dual_bound`` is an upper bound on the
    relaxation's optimum, and so on the sparse-PCA optimum.
    ``iterations_used`` is 0 when the thresholding solution was certified
    before the first ADMM iteration; ``Z`` is then the rank-1 ``x x^T`` of
    :func:`solve_sdp_relaxation`. Z's rank-1 factor is taken by
    :func:`rank_one_diagnostics`, not here, and from ``Z`` alone: a rank-1
    ``Z``, certified or an ADMM iterate, needs no eigendecomposition.
    """

    matrix: SymmetricMatrix
    Z: np.ndarray
    objective: float
    iterations_used: int
    converged: bool
    dual_bound: float

    @property
    def solver_gap(self) -> float:
        """Certified duality gap ``dual_bound - objective``, converged or not.

        No feasible Z has an objective above ``objective + solver_gap``. Z is
        feasible up to rounding, so on a tight bound the difference can be a
        few ulps below zero; it is reported as zero then.
        """
        return max(0.0, self.dual_bound - self.objective)


@dataclass(frozen=True)
class SdpDiagnostics:
    """Rank-1 quality of the solved relaxation.

    ``alpha = trace(A Z) / trace(A Z1)`` and ``beta = ||Z1||_1 / ||Z||_1``
    with ``Z1 = u u.T`` the best rank-1 approximation of Z; both are close to
    one exactly when the relaxation is nearly rank-1. ``min_eigenvalue`` is
    Z's smallest eigenvalue, from the same decomposition as u: Z is PSD, so
    it is zero up to rounding or above. For a Z that is rank-1 up to
    rounding it is 0, or ``Z[0, 0]`` when n = 1 (see
    :func:`rank_one_diagnostics`).
    """

    alpha: float
    beta: float
    top_eigenvector: np.ndarray
    min_eigenvalue: float


def _simplex_threshold(values, radius, total):
    """Theta with ``sum(max(values - theta, 0)) == radius``; ``total`` is ``values.sum()``.

    Needs ``sum(max(values, 0)) > radius``. Exact filter iteration (Michelot's
    algorithm; see Condat, *Fast projection onto the simplex and the l1 ball*,
    Math. Programming 2016): theta starts at the mean excess over all values,
    each pass keeps the values above theta and recomputes it on them, and it
    stops when theta no longer rises. Theta never decreases and the kept set
    only shrinks, so no sort is needed and the passes get cheaper.
    """
    theta = (total - radius) / values.size
    while True:
        values = values[values > theta]
        new = (values.sum() - radius) / max(values.size, 1)
        if not new > theta:
            return theta
        theta = new


def _trace_ball_threshold(w):
    """Eigenvalue shift of the PSD trace-ball projection: 0 inside the ball.

    ``w`` is ascending, as LAPACK returns it, so one pass from the top finds
    the simplex threshold of the sorted values: a value is kept while it
    exceeds the threshold of the values above it, and the first one that
    does not ends the pass. The threshold is held at zero or above, which
    stops the pass at the first nonpositive value when the positive ones sum
    to at most one.

    The pass's running sum only picks the kept values; theta is then taken
    from NumPy's sum of them, the sum :func:`_simplex_threshold` takes, so
    the two agree bit for bit rather than to a rounding error that, after
    the cancellation in ``total - 1``, can be large relative to theta.
    """
    theta, total, count = 0.0, 0.0, 0
    for value in reversed(w.tolist()):
        if value <= theta:
            break
        total += value
        count += 1
        theta = max((total - 1.0) / count, 0.0)
    if theta > 0.0:
        theta = max((float(w[w.size - count :].sum()) - 1.0) / count, 0.0)
    return theta


def project_psd_trace_ball(M, rank=1):
    """Frobenius-nearest matrix in {Z PSD, trace(Z) <= 1}.

    The eigenvalues of the symmetric part of ``M`` are shifted down by theta
    and clipped at zero: theta is 0 when the positive eigenvalues sum to at
    most one, and otherwise their simplex threshold.

    Only the top r + 1 eigenpairs are asked of
    :func:`~spcakit.matrix._symmetric_eigh` (lower triangle), with r =
    ``rank``, the number the previous call kept. Theta is taken from those
    values; when the smallest of them is at most theta, every lower
    eigenvalue also maps to zero, so the result is the exact projection.
    Otherwise one full decomposition is used instead.

    Returns ``(matrix, kept)`` with ``kept`` the number of nonzero
    eigenvalues, the ``rank`` for the next call.
    """
    # Imported on first use, as in matrix.py: data.py imports scipy.linalg at
    # package load anyway, but importing it here, earlier in that load,
    # measured 1.2 MB more peak RSS.
    from scipy.linalg import blas

    M = np.asarray(M, dtype=float)
    sym = M + M.T
    sym *= 0.5
    # sym is exactly symmetric, so its transpose is the same matrix in the
    # Fortran order LAPACK reads without a transposing copy.
    sym = sym.T
    n = sym.shape[0]
    w, v = _symmetric_eigh(sym, top=max(rank, 1) + 1)
    theta = _trace_ball_threshold(w)
    if w.size < n and w[0] > theta:
        w, v = _symmetric_eigh(sym)
        theta = _trace_ball_threshold(w)
    shifted = w - theta
    kept = int(np.count_nonzero(shifted > 0.0))
    if kept == 0:
        projected = np.zeros((n, n))
    else:
        # w is ascending, so the kept pairs are the last columns. The result
        # is transposed to C order; (V X^T)^T = X V^T with X = V diag(shifted).
        vectors = v[:, w.size - kept:]
        projected = blas.dgemm(1.0, vectors, vectors * shifted[-kept:], trans_b=True).T
    return projected, kept


def project_l1_ball_matrix(M, radius):
    """Frobenius-nearest matrix with entrywise l1 norm at most ``radius``.

    Inside the ball the input is returned unchanged; outside, entries are
    soft-thresholded by the simplex threshold of their magnitudes
    (:func:`_simplex_threshold`, no sort). Symmetric input yields symmetric
    output.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    M = np.asarray(M, dtype=float)
    magnitudes = np.abs(M)
    total = magnitudes.sum()
    if total <= radius:
        return M.copy()
    theta = _simplex_threshold(magnitudes.ravel(), radius, total)
    return M - np.clip(M, -theta, theta)


def _frobenius(D):
    # Not np.linalg.norm, which calls NumPy's BLAS (see solve_sdp_relaxation).
    return math.sqrt(np.einsum("ij,ij->", D, D))


def _certificate(C, Z, rho, U, k):
    """Feasibility scale for ``Z``, the feasible objective, and a dual bound.

    ``Z`` is PSD with trace at most one, so ``Z * scale`` with
    ``scale = min(1, k / ||Z||_1)`` is feasible. For every symmetric W and
    feasible X, ``trace(C X) = trace((C - W) X) + trace(W X)
    <= max(0, lambda_max(C - W)) + k * max |W_ij|``. With W the symmetric
    part of ADMM's scaled dual ``rho * U``, which tends to the optimal
    multiplier of the l1 constraint, the bound tends to the optimum.
    """
    l1 = float(np.abs(Z).sum())
    scale = k / l1 if l1 > k else 1.0
    objective = scale * float(np.einsum("ij,ij->", C, Z))
    M = U + U.T
    M *= -0.5 * rho
    l1_term = k * float(np.abs(M).max())
    M += C
    lam = float(_symmetric_eigh(M, top=1, vectors=False)[0][-1])
    return scale, objective, max(0.0, lam) + l1_term


def _gap_closed(objective, bound, gap_tol):
    """The relative gap test ``bound - objective <= gap_tol * bound``.

    Every certificate of the solve passes or fails by this one test: the
    clip search's first point and its early stop before ADMM, and the loop's
    stop.
    """
    return bound - objective <= gap_tol * bound


def _clip_bound(block, t, k, slope):
    """``g(t)`` of :func:`_clip_threshold` from a principal block of C, and g's slope.

    ``block`` holds every row and column of C with an entry above t in
    magnitude. The other rows of ``C - clip(C, -t, t)`` are zero and add only
    zero eigenvalues, which ``max(0, .)`` ignores, so one top eigenpair of
    the soft-thresholded block gives the bound. Where its eigenvalue is
    positive and simple with eigenvector v, ``g'(t) = k - v' sign(C - W) v``,
    and elsewhere ``g'(t) = k``. The second value is True when g falls at t;
    without ``slope`` no eigenvector is taken and it is False.
    """
    excess = block - np.clip(block, -t, t)
    w, v = _symmetric_eigh(excess, top=1, vectors=slope)
    lam = float(w[-1])
    falls = slope and lam > 0.0 and k < v[:, -1] @ np.sign(excess) @ v[:, -1]
    return max(0.0, lam) + k * t, falls


def _clip_threshold(C, keep, k, objective, gap_tol):
    """Threshold t for the structured dual ``W = clip(C, -t, t)``, and its bound.

    ``W`` gives the bound ``g(t) = max(0, lambda_max(C - W)) + k t`` of
    :func:`_certificate` for every t, so the search affects how often the
    bound certifies, never whether it holds. Its first point is ``t_off``,
    the largest ``|C_ij|`` outside ``S x S``, S = ``keep``: the least t that
    cancels every entry off the support (d'Aspremont, Bach & El Ghaoui,
    *Optimal solutions for sparse PCA*, JMLR 2008). There ``C - W`` is zero
    outside ``S x S``, so ``g(t_off)`` takes one k x k eigensolve.

    No larger t does better. For ``t_off <= t1 <= t2`` both soft-thresholded
    matrices vanish outside ``S x S``, so their difference is supported on
    ``S x S`` with entries at most ``t2 - t1``; by Weyl's inequality
    lambda_max rises by at most ``k (t2 - t1)``, and ``g(t1) <= g(t2)``.
    When ``g(t_off)`` leaves a relative ``gap_tol`` to ``objective`` open,
    the search bisects ``[0, t_off]`` on the sign of ``g'`` for
    ``_CLIP_SEARCH_STEPS`` steps, each on the rows whose largest ``|C_ij|``
    exceeds t (:func:`_clip_bound`), and stops early once the gap closes.
    It returns the best t it saw with its bound. :func:`solve_sdp_relaxation`
    calls it only when :func:`_clip_cannot_certify` does not rule every t out.
    """
    support = np.ix_(keep, keep)
    off = np.abs(C)
    off[support] = 0.0
    lo, hi = 0.0, float(off.max())
    best_t = hi
    best, _ = _clip_bound(C[support], hi, k, slope=False)
    if _gap_closed(objective, best, gap_tol):
        return best_t, best
    row_max = np.abs(C).max(axis=1)
    for _ in range(_CLIP_SEARCH_STEPS):
        t = 0.5 * (lo + hi)
        rows = np.flatnonzero(row_max > t)
        bound, falls = _clip_bound(C[np.ix_(rows, rows)], t, k, slope=True)
        if bound < best:
            best_t, best = t, bound
            if _gap_closed(objective, best, gap_tol):
                break
        if falls:
            lo = t
        else:
            hi = t
    return best_t, best


def _clip_cannot_certify(C, x, keep, objective, lam, gap_tol):
    """True when no dual bound can certify ``objective`` within ``gap_tol``.

    One Rayleigh step on x's support S gives ``y = C[S, S] x_S / ||C[S, S]
    x_S||``, a unit k-sparse vector, so ``||y||_1^2 <= k`` and ``y y^T`` is
    feasible. Every dual bound is then at least ``y'Cy``, and the gap test
    ``bound * (1 - gap_tol) <= objective`` fails for every bound once
    ``y'Cy * (1 - gap_tol)`` exceeds ``objective`` by more than
    ``_SKIP_MARGIN * lam``, a margin for rounding, with ``lam =
    lambda_max(C)``. It costs two k x k products and no eigensolve.
    """
    block = C[np.ix_(keep, keep)]
    step = block @ x[keep]
    norm_sq = float(step @ step)
    if norm_sq == 0.0:
        return False
    lower = float(step @ block @ step) / norm_sq
    return lower * (1.0 - gap_tol) - objective > _SKIP_MARGIN * lam


def _gap_check_every(iteration):
    """Iterations between duality-gap checks around ``iteration``: 5 up to
    iteration 199, then 5 more per hundred iterations, up to 25 from 500 on.

    A check costs about 0.2-0.3 of an iteration (37 us against 160 us at
    n = 20, 464 us against 1.3-2.1 ms at n = 128), so the interval that
    balances checks against overshoot, about sqrt(2 * ratio * iterations),
    grows with the iteration count rather than with n. It is an integer rule,
    so the check points, and the reports, stay deterministic.
    """
    return 5 * min(5, max(1, iteration // 100))


def solve_sdp_relaxation(A: SymmetricMatrix, k: int, cfg: AdmmConfig | None = None) -> SdpSolution:
    """ADMM solve of max trace(A Z) s.t. Z PSD, trace(Z) <= 1, ||Z||_1 <= k.

    The thresholding solution is tried first. x is, up to rounding, the
    vector ``spca_svd(A, k, sparsity=k)`` returns: the top eigenvector kept
    on its k largest squared entries and renormalized. It is built here from
    one top eigenpair so that, like every ADMM iterate, it does not change
    when A is scaled by a power of two. x is a unit k-sparse vector, so
    ``||x||_1^2 <= k`` and ``x x^T`` is feasible (scaled by ``min(1, k /
    ||x||_1^2)`` against rounding). The structured dual ``clip(A, -t, t)``
    bounds the optimum for every t. :func:`_clip_threshold` searches t: its
    first point is ``t_off``, the least t that cancels every entry off x's
    support, whose bound needs one k x k eigensolve, and no larger t does
    better, so only when that bound does not close the gap does it bisect
    ``[0, t_off]``. When its best bound meets the gap test below, the solve
    returns the scaled ``x x^T`` with ``iterations_used=0``,
    ``converged=True`` and that bound as ``dual_bound``. Otherwise
    ADMM starts from zero, as if the check had not run; continuing from that
    point was measured slower on the inputs that do not certify. The search
    is skipped when one Rayleigh step from x proves that no t can certify
    (:func:`_clip_cannot_certify`); the skip never drops a certificate, so
    it changes no result.

    The loop starts at ``rho = cfg.rho``, or at ``lambda_max(A)`` when that
    is None (1.0 for the zero matrix, which certifies before the loop). That
    eigenvalue comes from the same top eigenpair as x, so the default start
    costs no eigensolve and makes the loop scale-free: scaling A by a power
    of two changes no iterate. The pair is the one cached on A
    (:func:`~spcakit.matrix._top_eigenpair`), also the exact top-1 pair of a
    matrix without a data factor, and its PSD scale and norm up to n = 256.

    At every multiple of :func:`_gap_check_every` (5 early on, widening to
    25 from iteration 500), and at ``max_iters``, the PSD iterate is scaled
    to a feasible point and the scaled dual ``rho * U`` gives an upper bound
    on the optimum (:func:`_certificate`). The solve
    stops with ``converged=True`` once ``dual_bound - objective <= gap_tol *
    dual_bound``, or at ``max_iters`` with ``converged=False`` (not an
    error). Either way the reported ``Z`` is the last feasible point and
    ``solver_gap`` its certified gap. The l1 step is over-relaxed
    (``_OVER_RELAXATION``).

    Each PSD projection starts from the rank the previous one kept. Every
    eigensolve goes to :func:`~spcakit.matrix._symmetric_eigh` and every BLAS
    call inside the loop to SciPy's library: NumPy bundles a second one, and
    alternating the two makes their thread pools contend. With two BLAS
    threads at n = 128, a top-2 ``dsyevr`` followed by ``np.linalg.norm``
    measured 10.3 ms, against 0.67 ms with the norm computed without BLAS.
    """
    cfg = cfg or AdmmConfig()
    _check_count("k", k, A.n)
    ensure_psd(A)

    n = A.n
    C = A.entries
    lam, v = _top_eigenpair(A)
    keep = _top_indices(v * v, k)
    x = np.zeros(n)
    x[keep] = v[keep] / math.sqrt(v[keep] @ v[keep])
    scale = min(1.0, k / float(np.abs(x).sum()) ** 2)
    objective = scale * float(x @ C @ x)
    if not _clip_cannot_certify(C, x, keep, objective, lam, cfg.gap_tol):
        _, dual_bound = _clip_threshold(C, keep, k, objective, cfg.gap_tol)
        if _gap_closed(objective, dual_bound, cfg.gap_tol):
            return SdpSolution(A, scale * np.outer(x, x), objective, 0, True, dual_bound)

    rho_unit = lam if lam > 0.0 else 1.0
    rho0 = cfg.rho if cfg.rho is not None else rho_unit
    rho = rho0
    Y = np.zeros((n, n))
    U = np.zeros((n, n))
    rank = 1
    converged = False
    iterations = 0
    adaptations = 0
    for iterations in range(1, cfg.max_iters + 1):
        Z, rank = project_psd_trace_ball(Y - U + C / rho, rank)
        # Over-relaxed l1 step and dual update; U holds U + Z_hat in between,
        # so no other n x n array outlives the step.
        U += _OVER_RELAXATION * Z + (1.0 - _OVER_RELAXATION) * Y
        Y_prev = Y
        Y = project_l1_ball_matrix(U, float(k))
        U -= Y
        if iterations % _gap_check_every(iterations) == 0 or iterations == cfg.max_iters:
            scale, objective, dual_bound = _certificate(C, Z, rho, U, k)
            if _gap_closed(objective, dual_bound, cfg.gap_tol):
                converged = True
                break
        if adaptations < _RHO_ADAPT_BUDGET and iterations % _RHO_ADAPT_EVERY == 0:
            primal = _frobenius(Z - Y)
            dual = rho / rho_unit * _frobenius(Y - Y_prev)
            if primal > 10.0 * dual and rho < _RHO_RANGE * rho0:
                rho *= 2.0
                U /= 2.0
                adaptations += 1
            elif dual > 10.0 * primal and rho > rho0 / _RHO_RANGE:
                rho /= 2.0
                U *= 2.0
                adaptations += 1

    return SdpSolution(A, Z * scale, objective, iterations, converged, dual_bound)


def _rank_one_factor(Z):
    """``u`` with ``Z = u u^T`` up to rounding, or None.

    ``u`` is the column of Z at its largest diagonal entry, divided by that
    entry's square root; it is accepted when ``||Z - u u^T||_F <=
    _RANK_ONE_RTOL * ||Z||_F``.
    """
    diagonal = np.diagonal(Z)
    j = int(np.argmax(diagonal))
    if not diagonal[j] > 0.0:
        return None
    u = Z[:, j] / math.sqrt(diagonal[j])
    if _frobenius(Z - np.outer(u, u)) <= _RANK_ONE_RTOL * _frobenius(Z):
        return u
    return None


def rank_one_diagnostics(sol: SdpSolution) -> SdpDiagnostics:
    """Best rank-1 factor of the solved Z together with alpha and beta.

    When Z is rank-1 up to rounding, :func:`_rank_one_factor` gives the
    factor u from one column, and ``min_eigenvalue`` is 0 (``Z[0, 0]`` when
    n = 1); by Weyl's inequality Z's smallest eigenvalue lies within
    ``||Z - u u^T||_F`` of it. This is decided from Z alone, never from
    ``iterations_used``. Otherwise one full
    decomposition of Z (:func:`~spcakit.matrix._symmetric_eigh`, lower
    triangle: Z is symmetric only up to rounding) gives the factor and
    ``min_eigenvalue``. Either way the factor's signs are fixed as in
    :func:`~spcakit.matrix._fix_signs`.
    Raises :class:`DegenerateSolution` when Z has no positive leading
    eigenvalue, or when its rank-1 factor has no objective (for instance
    when A is the zero matrix).
    """
    Z = sol.Z
    u = _rank_one_factor(Z)
    if u is None:
        w, v = _symmetric_eigh(Z)
        lam1, lam_min = float(w[-1]), float(w[0])
        if lam1 > 1e-12:
            u = math.sqrt(lam1) * _fix_signs(v[:, -1:])[:, 0]
    else:
        lam1, lam_min = float(u @ u), float(Z[0, 0]) if Z.shape[0] == 1 else 0.0
        u = _fix_signs(u[:, None])[:, 0]
    if lam1 <= 1e-12:
        raise DegenerateSolution(f"leading eigenvalue of Z is {lam1:.3e}")
    trace_az1 = float(u @ sol.matrix.entries @ u)
    if trace_az1 <= 1e-300:
        raise DegenerateSolution("rank-1 factor carries no objective mass")
    z_l1 = float(np.abs(sol.Z).sum())
    if z_l1 <= 1e-300:
        raise DegenerateSolution("solved Z is numerically zero")
    alpha = sol.objective / trace_az1
    beta = float(np.abs(u).sum()) ** 2 / z_l1
    return SdpDiagnostics(alpha=alpha, beta=beta, top_eigenvector=u, min_eigenvalue=lam_min)


def round_sdp_solution(sol: SdpSolution, s: int, diag: SdpDiagnostics):
    """Round Z to an s-sparse vector.

    ``diag`` is ``rank_one_diagnostics(sol)``, the one decomposition of Z.
    The vector keeps the ``s`` largest-magnitude coordinates of its scaled
    top eigenvector u (ties toward the lowest index) and is not renormalized,
    so its norm is at most one.
    """
    _check_count("s", s, sol.matrix.n)
    u = diag.top_eigenvector
    keep = _top_indices(np.abs(u), s)
    return SparseUnitVector(sol.matrix.n, keep, u[keep], norm_le_one=True)


def _check_truncation_chain(A: SymmetricMatrix, u, z: SparseUnitVector):
    # Instrumented lower bound: z.T A z >= u.T A u - 3 ||u||_1 * maxrow * ||u - z||_2,
    # with maxrow the largest Euclidean row norm of A. Mathematically
    # guaranteed, so a violation indicates a bug.
    z_dense = z.to_dense()
    lhs = z.quadratic_form(A)
    u_au = float(u @ A.entries @ u)
    max_row = float(np.linalg.norm(A.entries, axis=1).max())
    drop = float(np.linalg.norm(u - z_dense))
    bound = u_au - 3.0 * float(np.abs(u).sum()) * max_row * drop
    if not lhs >= bound - 1e-8:
        raise InvariantViolation(f"truncation chain violated: {lhs} < {bound}")


def spca_sdp(
    A: SymmetricMatrix,
    k: int,
    sparsity: int | None = None,
    epsilon: float | None = None,
    cfg: AdmmConfig | None = None,
    polish: bool = True,
):
    """Solve the relaxation, round it, and re-optimize on the kept support.

    With ``sparsity`` (budget mode) exactly ``sparsity`` coordinates are
    kept. Without it (theory mode) the support size is
    ``ceil(9 k^2 beta^2 / epsilon^2)`` (capped at n) using the measured beta,
    which makes the floor ``(1/alpha) * trace(A Z) - epsilon - solver_gap``
    valid for the output; ``epsilon`` is then required.

    With ``polish`` (the default, and what the published benchmark loadings
    correspond to) the returned vector is the top eigenvector of A restricted
    to the selected support (unit norm); ``polish=False`` returns the raw
    truncation of the rank-1 factor, whose norm may be below one.

    Returns ``(vector, solution, diagnostics)``.
    """
    _check_sizing(A.n, k, sparsity, epsilon)
    sol = solve_sdp_relaxation(A, k, cfg)
    diag = rank_one_diagnostics(sol)
    s = sparsity
    if s is None:
        s = min(A.n, int(math.ceil(9.0 * k * k * diag.beta * diag.beta / (epsilon * epsilon))))
        s = max(s, 1)
    z = round_sdp_solution(sol, s, diag)
    _check_truncation_chain(A, diag.top_eigenvector, z)
    if polish:
        # Best unit vector on the fixed support: top eigenpair of A[S, S]. The
        # quadratic form can only improve over the raw truncation, so every
        # floor certified for the truncation transfers to the polished vector.
        _, vec = restricted_top_eigenpair(A, z.support)
        z = SparseUnitVector(A.n, z.support, vec, norm_le_one=True)
    return z, sol, diag

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
``gap_tol`` of it. Rounding takes the best rank-1 factor u of the solution
and keeps its ``s`` largest-magnitude coordinates, giving a vector with norm
at most one and a certified objective floor
``(1/alpha) * trace(A Z) - epsilon``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DegenerateSolution, InvariantViolation
from .matrix import SymmetricMatrix, _fix_signs, ensure_psd
from .oracle import restricted_top_eigenpair
from .svd_threshold import SparseUnitVector, _check_sizing

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
# The duality gap costs a top-eigenvalue solve, so it is checked on a cadence
# (and at max_iters), not every iteration.
_GAP_CHECK_EVERY = 25

# The PSD projection computes only the top r + 1 eigenpairs while
# r + 1 <= max(2, n // _PARTIAL_EIG_DIVISOR), and all n otherwise. Measured
# with one BLAS thread, microseconds per call, top-m dsyevr against a full
# dsyevd (np.linalg.eigh in parentheses):
#   n =  20, m = 1/2/4/8:         19 / 24 / 36 / 69 against 45 (56)
#   n =  64, m = 1/2/4/8/16:      137 / 178 / 254 / 383 / 637 against 461 (431)
#   n = 128, m = 1/2/4/8/16/32:   464 / 531 / 601 / 1015 / 1720 / 2872 against 1554 (1635)
#   n = 256, m = 1/2/4/8/16/32:   2619 / 2802 / 3021 / 3513 / 4154 / 6548 against 7792 (8726)
# At n // 16 a partial call costs at most about two thirds of a full one, which
# leaves room for the failed certificates that pay for both.
_PARTIAL_EIG_DIVISOR = 16


@dataclass(frozen=True)
class AdmmConfig:
    """First-order solver parameters for the relaxation.

    The solve stops once ``dual_bound - objective <= gap_tol * dual_bound``,
    a relative gap, so the stopping rule does not depend on the scale of A.
    ``rho`` is the starting penalty. ``adaptive_rho`` enables residual
    balancing: the penalty is doubled or halved (with the matching dual
    rescaling) whenever one residual exceeds ten times the other, within a
    factor ``_RHO_RANGE`` of the start. The dual residual is measured in
    units of the starting ``rho``, so scaling A and ``rho`` by the same power
    of two scales the objective and the bound by it and leaves every iterate
    unchanged.
    """

    rho: float = 1.0
    max_iters: int = 50_000
    gap_tol: float = 1e-4
    adaptive_rho: bool = True

    def __post_init__(self):
        if self.rho <= 0 or self.gap_tol <= 0:
            raise ValueError("rho and gap_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class FeasibilityResiduals:
    trace_residual: float
    l1_residual: float
    min_eigenvalue: float


@dataclass(frozen=True)
class SdpSolution:
    """Solved relaxation: the matrix Z, its objective, and solve metadata.

    ``matrix`` keeps a reference to the input so diagnostics and rounding can
    be computed later without re-threading it. ``Z`` is feasible and
    ``objective = trace(A Z)``; ``dual_bound`` is an upper bound on the
    relaxation's optimum, and so on the sparse-PCA optimum.
    """

    matrix: SymmetricMatrix
    Z: np.ndarray
    objective: float
    feasibility: FeasibilityResiduals
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
    one exactly when the relaxation is nearly rank-1.
    """

    alpha: float
    beta: float
    top_eigenvector: np.ndarray


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
    """Eigenvalue shift of the PSD trace-ball projection: 0 inside the ball."""
    positive = np.maximum(w, 0.0).sum()
    return _simplex_threshold(w, 1.0, w.sum()) if positive > 1.0 else 0.0


def _check_lapack(info, routine):
    if info != 0:
        raise ConvergenceFailure(f"LAPACK {routine} failed with info={info}")


def project_psd_trace_ball(M, rank=None):
    """Frobenius-nearest matrix in {Z PSD, trace(Z) <= 1}.

    The eigenvalues of the symmetric part of ``M`` are shifted down by theta
    and clipped at zero: theta is 0 when the positive eigenvalues sum to at
    most one, and otherwise their simplex threshold.

    Only the top r + 1 eigenpairs are computed (LAPACK ``dsyevr``), with r the
    number kept last time: ``rank`` if given, else 1. Theta is taken from those
    values; when the smallest of them is at most theta, every lower eigenvalue
    also maps to zero, so the result is the exact projection. Otherwise, or
    when r + 1 exceeds ``max(2, n // _PARTIAL_EIG_DIVISOR)``, one full
    decomposition (``dsyevd``) is used instead.

    Returns the projected matrix; with ``rank`` given, returns
    ``(matrix, kept)`` with ``kept`` the number of nonzero eigenvalues, the
    hint for the next call.
    """
    # Imported on first use, as in matrix.py: data.py imports scipy.linalg at
    # package load anyway, but importing it here, earlier in that load,
    # measured 1.2 MB more peak RSS.
    from scipy.linalg import blas, lapack

    M = np.asarray(M, dtype=float)
    sym = M + M.T
    sym *= 0.5
    # sym is exactly symmetric, so its transpose is the same matrix in the
    # Fortran order LAPACK reads without a transposing copy.
    sym = sym.T
    n = sym.shape[0]
    r = 1 if rank is None else max(rank, 1)
    w = None
    if r + 1 < n and r + 1 <= max(2, n // _PARTIAL_EIG_DIVISOR):
        top, v, m, _, info = lapack.dsyevr(sym, range="I", il=n - r, iu=n)
        _check_lapack(info, "dsyevr")
        # On a tightly clustered spectrum dsyevr can return fewer pairs than
        # asked for with info = 0 (m = 0 for -I - J / 2 at n = 40); the full
        # decomposition takes over then, as it does when the check fails.
        if m == r + 1:
            theta = _trace_ball_threshold(top[:m])
            if top[0] <= theta:
                w = top[:m]
    if w is None:
        w, v, info = lapack.dsyevd(sym, overwrite_a=1)
        _check_lapack(info, "dsyevd")
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
    return projected if rank is None else (projected, kept)


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


def _lambda_max(M):
    """Largest eigenvalue of the symmetric matrix ``M`` from SciPy's LAPACK."""
    from scipy.linalg import lapack

    n = M.shape[0]
    w, _, m, _, info = lapack.dsyevr(M, compute_v=0, range="I", il=n, iu=n)
    if info == 0 and m == 1:
        return float(w[0])
    # When the top eigenvalue is repeated exactly, the bisection behind
    # dsyevr's index range can find no value (m = 0, info = 2 for a random
    # rotation of diag(1, 1, 1, 0, ...)); all eigenvalues are computed then.
    w, _, info = lapack.dsyevd(M, compute_v=0)
    _check_lapack(info, "dsyevd")
    return float(w[-1])


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
    return scale, objective, max(0.0, _lambda_max(M)) + l1_term


def solve_sdp_relaxation(A: SymmetricMatrix, k: int, cfg: AdmmConfig | None = None) -> SdpSolution:
    """ADMM solve of max trace(A Z) s.t. Z PSD, trace(Z) <= 1, ||Z||_1 <= k.

    Every ``_GAP_CHECK_EVERY`` iterations, and at ``max_iters``, the PSD
    iterate is scaled to a feasible point and the scaled dual ``rho * U``
    gives an upper bound on the optimum (:func:`_certificate`). The solve
    stops with ``converged=True`` once ``dual_bound - objective <= gap_tol *
    dual_bound``, or at ``max_iters`` with ``converged=False`` (not an
    error). Either way the reported ``Z`` is the last feasible point and
    ``solver_gap`` its certified gap. The l1 step is over-relaxed
    (``_OVER_RELAXATION``).

    Each PSD projection starts from the rank the previous one kept. Every
    BLAS and LAPACK call inside the loop goes to SciPy's library: NumPy
    bundles a second one, and alternating the two makes their thread pools
    contend. With two BLAS threads at n = 128, a top-2 ``dsyevr`` followed by
    ``np.linalg.norm`` measured 10.3 ms, against 0.67 ms with the norm
    computed without BLAS.
    """
    cfg = cfg or AdmmConfig()
    ensure_psd(A)
    if not 1 <= k <= A.n:
        raise ValueError(f"k={k} outside [1, {A.n}]")

    n = A.n
    C = A.entries
    rho = cfg.rho
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
        if iterations % _GAP_CHECK_EVERY == 0 or iterations == cfg.max_iters:
            scale, objective, dual_bound = _certificate(C, Z, rho, U, k)
            if dual_bound - objective <= cfg.gap_tol * dual_bound:
                converged = True
                break
        if (
            cfg.adaptive_rho
            and adaptations < _RHO_ADAPT_BUDGET
            and iterations % _RHO_ADAPT_EVERY == 0
        ):
            primal = _frobenius(Z - Y)
            dual = rho / cfg.rho * _frobenius(Y - Y_prev)
            if primal > 10.0 * dual and rho < _RHO_RANGE * cfg.rho:
                rho *= 2.0
                U /= 2.0
                adaptations += 1
            elif dual > 10.0 * primal and rho > cfg.rho / _RHO_RANGE:
                rho /= 2.0
                U *= 2.0
                adaptations += 1

    Z = Z * scale
    feas = FeasibilityResiduals(
        trace_residual=max(0.0, float(np.trace(Z)) - 1.0),
        l1_residual=max(0.0, float(np.abs(Z).sum()) - float(k)),
        min_eigenvalue=float(np.linalg.eigvalsh(Z)[0]),
    )
    return SdpSolution(
        matrix=A,
        Z=Z,
        objective=objective,
        feasibility=feas,
        iterations_used=iterations,
        converged=converged,
        dual_bound=dual_bound,
    )


def rank_one_diagnostics(sol: SdpSolution) -> SdpDiagnostics:
    """Best rank-1 factor of the solved Z together with alpha and beta.

    Raises :class:`DegenerateSolution` when Z has no positive leading
    eigenvalue (for instance when A is the zero matrix).
    """
    w, v = np.linalg.eigh(sol.Z)
    lam1 = float(w[-1])
    if lam1 <= 1e-12:
        raise DegenerateSolution(f"leading eigenvalue of Z is {lam1:.3e}")
    u = math.sqrt(lam1) * _fix_signs(v[:, -1:])[:, 0]
    trace_az1 = float(u @ sol.matrix.entries @ u)
    if trace_az1 <= 1e-300:
        raise DegenerateSolution("rank-1 factor carries no objective mass")
    z_l1 = float(np.abs(sol.Z).sum())
    if z_l1 <= 1e-300:
        raise DegenerateSolution("solved Z is numerically zero")
    alpha = sol.objective / trace_az1
    beta = float(np.abs(u).sum()) ** 2 / z_l1
    return SdpDiagnostics(alpha=alpha, beta=beta, top_eigenvector=u)


def _truncate_to_top_magnitudes(u, s):
    order = np.argsort(-np.abs(u), kind="stable")
    return np.sort(order[:s]).astype(np.int64)


def round_sdp_solution(sol: SdpSolution, s: int, diag: SdpDiagnostics | None = None):
    """Round Z to an s-sparse vector plus diagnostics.

    The vector keeps the ``s`` largest-magnitude coordinates of the scaled
    top eigenvector u (ties toward the lowest index) and is not renormalized,
    so its norm is at most one. ``diag`` is ``rank_one_diagnostics(sol)`` when
    the caller already has it.
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
    if diag is None:
        diag = rank_one_diagnostics(sol)
    u = diag.top_eigenvector
    keep = _truncate_to_top_magnitudes(u, s)
    z = SparseUnitVector(sol.matrix.n, keep, u[keep], norm_le_one=True)
    return z, diag


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
    _check_sizing(A.n, sparsity, epsilon)
    sol = solve_sdp_relaxation(A, k, cfg)
    diag = rank_one_diagnostics(sol)
    s = sparsity
    if s is None:
        s = min(A.n, int(math.ceil(9.0 * k * k * diag.beta * diag.beta / (epsilon * epsilon))))
        s = max(s, 1)
    z, _ = round_sdp_solution(sol, s, diag)
    _check_truncation_chain(A, diag.top_eigenvector, z)
    if polish:
        # Best unit vector on the fixed support: top eigenpair of A[S, S]. The
        # quadratic form can only improve over the raw truncation, so every
        # floor certified for the truncation transfers to the polished vector.
        _, vec = restricted_top_eigenpair(A, z.support)
        z = SparseUnitVector(A.n, z.support, vec, norm_le_one=True)
    return z, sol, diag

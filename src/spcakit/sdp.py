"""Sparse PCA via a trace/l1-constrained convex relaxation and rounding.

The relaxation maximizes ``trace(A Z)`` over PSD matrices with
``trace(Z) <= 1`` and ``sum |Z_ij| <= k``. It is solved by ADMM with the
splitting Z = Y, where the Z-block owns the PSD trace ball and the Y-block
owns the entrywise l1 ball; both projections are exact. Rounding takes the
best rank-1 factor u of the solution and keeps its ``s`` largest-magnitude
coordinates, giving a vector with norm at most one and a certified
objective floor ``(1/alpha) * trace(A Z) - epsilon``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSolution, InvariantViolation
from .matrix import SymmetricMatrix, _fix_signs, ensure_psd
from .oracle import restricted_top_eigenpair
from .svd_threshold import SparseUnitVector, _check_sizing

_RHO_MIN = 1e-6
_RHO_MAX = 1e6
# Residual balancing runs on a cadence with a capped change budget; adapting
# every iteration can lock the iteration into a rho limit cycle.
_RHO_ADAPT_EVERY = 100
_RHO_ADAPT_BUDGET = 30


@dataclass(frozen=True)
class AdmmConfig:
    """First-order solver parameters for the relaxation.

    ``adaptive_rho`` enables residual balancing: the penalty is doubled or
    halved (with the matching dual rescaling) whenever one residual exceeds
    ten times the other.
    """

    rho: float = 1.0
    max_iters: int = 50_000
    primal_tol: float = 1e-6
    dual_tol: float = 1e-6
    adaptive_rho: bool = True

    def __post_init__(self):
        if self.rho <= 0 or self.primal_tol <= 0 or self.dual_tol <= 0:
            raise ValueError("rho and tolerances must be positive")
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
    be computed later without re-threading it. ``solver_gap`` is the additive
    objective slack charged to finite-precision termination,
    ``primal_tol * (||A||_F + rho)``.
    """

    matrix: SymmetricMatrix
    Z: np.ndarray
    objective: float
    feasibility: FeasibilityResiduals
    iterations_used: int
    converged: bool
    solver_gap: float


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


def _project_simplex(v, radius):
    """Euclidean projection of a vector onto {x >= 0, sum(x) = radius}.

    Sorted cumulative-sum threshold rule; negative entries are handled by the
    max with zero.
    """
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    positions = np.arange(1, v.size + 1)
    candidates = np.flatnonzero(u - (cumulative - radius) / positions > 0)
    rho = candidates[-1]
    theta = (cumulative[rho] - radius) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def project_psd_trace_ball(M):
    """Frobenius-nearest matrix in {Z PSD, trace(Z) <= 1}.

    Eigenvalues are clipped at zero; if their sum still exceeds one they are
    projected onto the unit simplex instead (projecting the original
    eigenvalue vector gives the same result, since the simplex threshold is
    positive in that branch).
    """
    sym = (M + M.T) / 2.0
    w, v = np.linalg.eigh(sym)
    clipped = np.maximum(w, 0.0)
    if clipped.sum() > 1.0:
        clipped = _project_simplex(w, 1.0)
    return (v * clipped) @ v.T


def project_l1_ball_matrix(M, radius):
    """Frobenius-nearest matrix with entrywise l1 norm at most ``radius``.

    Inside the ball the input is returned unchanged; outside, entries are
    soft-thresholded with the simplex threshold of their magnitudes.
    Symmetric input yields symmetric output.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    M = np.asarray(M, dtype=float)
    if np.abs(M).sum() <= radius:
        return M.copy()
    magnitudes = _project_simplex(np.abs(M).ravel(), radius)
    return (np.sign(M).ravel() * magnitudes).reshape(M.shape)


def solve_sdp_relaxation(A: SymmetricMatrix, k: int, cfg: AdmmConfig | None = None) -> SdpSolution:
    """ADMM solve of max trace(A Z) s.t. Z PSD, trace(Z) <= 1, ||Z||_1 <= k.

    Terminates when the primal residual ``||Z - Y||_F`` and the dual residual
    ``rho ||Y_t - Y_{t-1}||_F`` both fall below their tolerances, or at
    ``max_iters`` with ``converged=False`` (not an error). The reported
    matrix is the l1-feasible Y iterate re-projected once onto the PSD trace
    ball, so all residual families hold at solver level.
    """
    cfg = cfg or AdmmConfig()
    ensure_psd(A)
    if not 1 <= k <= A.n:
        raise ValueError(f"k={k} outside [1, {A.n}]")

    n = A.n
    C = A.entries
    rho = cfg.rho
    Z = np.zeros((n, n))
    Y = np.zeros((n, n))
    U = np.zeros((n, n))
    converged = False
    iterations = 0
    adaptations = 0
    for iterations in range(1, cfg.max_iters + 1):
        Z = project_psd_trace_ball(Y - U + C / rho)
        Y_prev = Y
        Y = project_l1_ball_matrix(Z + U, float(k))
        U = U + Z - Y
        primal = float(np.linalg.norm(Z - Y))
        dual = rho * float(np.linalg.norm(Y - Y_prev))
        if primal <= cfg.primal_tol and dual <= cfg.dual_tol:
            converged = True
            break
        if (
            cfg.adaptive_rho
            and adaptations < _RHO_ADAPT_BUDGET
            and iterations % _RHO_ADAPT_EVERY == 0
        ):
            if primal > 10.0 * dual and rho < _RHO_MAX:
                rho *= 2.0
                U /= 2.0
                adaptations += 1
            elif dual > 10.0 * primal and rho > _RHO_MIN:
                rho /= 2.0
                U *= 2.0
                adaptations += 1

    reported = project_psd_trace_ball(Y)
    objective = float(np.sum(C * reported))
    eigenvalues = np.linalg.eigvalsh(reported)
    feas = FeasibilityResiduals(
        trace_residual=max(0.0, float(np.trace(reported)) - 1.0),
        l1_residual=max(0.0, float(np.abs(reported).sum()) - float(k)),
        min_eigenvalue=float(eigenvalues[0]),
    )
    gap = cfg.primal_tol * (float(np.linalg.norm(C)) + rho)
    return SdpSolution(
        matrix=A,
        Z=reported,
        objective=objective,
        feasibility=feas,
        iterations_used=iterations,
        converged=converged,
        solver_gap=gap,
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


def round_sdp_solution(sol: SdpSolution, s: int):
    """Round Z to an s-sparse vector plus diagnostics.

    The vector keeps the ``s`` largest-magnitude coordinates of the scaled
    top eigenvector u (ties toward the lowest index) and is not renormalized,
    so its norm is at most one.
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
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
    keep = _truncate_to_top_magnitudes(diag.top_eigenvector, s)
    z = SparseUnitVector(A.n, keep, diag.top_eigenvector[keep], norm_le_one=True)
    _check_truncation_chain(A, diag.top_eigenvector, z)
    if polish:
        # Best unit vector on the fixed support: top eigenpair of A[S, S]. The
        # quadratic form can only improve over the raw truncation, so every
        # floor certified for the truncation transfers to the polished vector.
        _, vec = restricted_top_eigenpair(A, keep)
        z = SparseUnitVector(A.n, keep, vec, norm_le_one=True)
    return z, sol, diag

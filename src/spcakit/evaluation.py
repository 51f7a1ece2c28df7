"""Solution-quality metrics and certified lower bounds.

``f_value`` is the quadratic form divided by the spectral norm (between 0
and 1 for vectors of norm at most one); ``pve`` divides by the trace
instead. Two bound families can be attached to a report:

* ``thm1_floor = Z_ref - 3 * epsilon * trace(A)``, the additive floor of the
  eigenbasis-thresholding solver;
* ``thm2_floor = (1/alpha) * Z_ref - epsilon - solver_gap``, the
  multiplicative floor of the relaxation-rounding solver; ``solver_gap`` is
  the relaxation solve's certified duality gap ``dual_bound - trace(A Z)``.

``Z_ref`` is the exact optimum when available; the relaxation objective is a
valid stand-in since it upper-bounds the optimum. :func:`solve` runs one
solver and wires these inputs; :func:`sparsity_sweep` maps it over a grid.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .errors import DimensionMismatch
from .matrix import SvdParams, SymmetricMatrix, spectral_norm
from .oracle import exact_spca
from .sdp import AdmmConfig, spca_sdp
from .svd_threshold import SparseUnitVector, _check_sizing, spca_svd


@dataclass(frozen=True)
class EvalContext:
    """Optional bound inputs: accuracy parameter, measured alpha, reference value."""

    epsilon: float | None = None
    alpha: float | None = None
    z_ref: float | None = None
    solver_gap: float = 0.0


@dataclass(frozen=True)
class EvalReport:
    objective: float
    f_value: float
    pve: float
    sparsity: int
    norm: float
    thm1_floor: float | None = None
    thm2_floor: float | None = None
    bound_ratio: dict | None = None
    z_ref: float | None = None

    def to_dict(self):
        return {
            "objective": self.objective,
            "f_value": self.f_value,
            "pve": self.pve,
            "sparsity": self.sparsity,
            "norm": self.norm,
            "thm1_floor": self.thm1_floor,
            "thm2_floor": self.thm2_floor,
            "bound_ratio": self.bound_ratio,
            "z_ref": self.z_ref,
        }


def evaluate(A: SymmetricMatrix, y: SparseUnitVector, context: EvalContext | None = None) -> EvalReport:
    """Metrics of ``y`` on ``A`` plus whatever floors the context supports.

    Floors are omitted when the context lacks the needed reference; ratio
    entries divide each floor by both the achieved objective and the
    reference value (labelled separately, since the two normalizations
    answer different questions).
    """
    context = context or EvalContext()
    if y.n != A.n:
        raise DimensionMismatch(f"vector dim {y.n} vs matrix dim {A.n}")
    norm = spectral_norm(A)
    objective = y.quadratic_form(A)
    f_value = objective / norm if norm > 0 else 0.0
    pve = objective / A.trace if A.trace != 0 else 0.0

    thm1 = thm2 = None
    if context.z_ref is not None and context.epsilon is not None:
        thm1 = context.z_ref - 3.0 * context.epsilon * A.trace
        if context.alpha is not None and context.alpha > 0:
            thm2 = context.z_ref / context.alpha - context.epsilon - context.solver_gap

    ratios = {}
    if objective > 0:
        if thm1 is not None:
            ratios["thm1"] = thm1 / objective
        if thm2 is not None:
            ratios["thm2"] = thm2 / objective
    if context.z_ref is not None and context.z_ref > 0:
        if thm1 is not None:
            ratios["thm1_vs_ref"] = thm1 / context.z_ref
        if thm2 is not None:
            ratios["thm2_vs_ref"] = thm2 / context.z_ref

    return EvalReport(
        objective=objective,
        f_value=f_value,
        pve=pve,
        sparsity=y.sparsity,
        norm=y.norm,
        thm1_floor=thm1,
        thm2_floor=thm2,
        bound_ratio=ratios or None,
        z_ref=context.z_ref,
    )


def solve(
    A: SymmetricMatrix,
    algo: str,
    k: int,
    sparsity: int | None = None,
    epsilon: float | None = None,
    l_override: int | None = None,
    svd: SvdParams | None = None,
    admm: AdmmConfig | None = None,
    oracle_ref: bool = False,
):
    """Run one solver on ``A`` and evaluate its vector against the floor it certifies.

    ``algo`` is ``"svd"``, ``"sdp"`` or ``"oracle"``. Budget mode keeps
    exactly ``sparsity`` coordinates (1 to n; for the oracle, which is always
    k-sparse, ``sparsity`` must equal ``k``); omitting ``sparsity`` selects
    theory mode, which needs ``epsilon`` for every algorithm. ``epsilon`` must
    lie in (0, 1]; in budget mode it defaults to 1.0 for the floors and for
    :func:`spca_svd`. With ``oracle_ref``, or for ``algo="oracle"``, the
    exact optimum at ``k`` is the reference value; without it the sdp floor
    uses the relaxation objective. All arguments are checked before any
    solver or the enumeration runs.

    Returns ``(vector, report, solution, diagnostics)``; the last two are set
    only for ``algo="sdp"``.
    """
    if algo not in ("svd", "sdp", "oracle"):
        raise ValueError(f"unknown algorithm {algo!r}")
    if epsilon is not None and not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if algo == "oracle" and sparsity not in (None, k):
        raise ValueError(f"oracle sparsity {sparsity} must equal k={k}")
    _check_sizing(A.n, sparsity, epsilon)
    eps = epsilon if epsilon is not None else 1.0
    z_ref = sol = diag = None
    if oracle_ref or algo == "oracle":
        oracle_res = exact_spca(A, k)
        z_ref = oracle_res.optimal_value
    if algo == "svd":
        vec = spca_svd(A, k, sparsity, eps, l_override, svd)
    elif algo == "sdp":
        vec, sol, diag = spca_sdp(A, k, sparsity, epsilon, admm)
        if z_ref is None:
            z_ref = sol.objective
    else:
        vec = oracle_res.optimal_vector
    ctx = EvalContext(
        epsilon=eps,
        alpha=diag.alpha if diag is not None else None,
        z_ref=z_ref,
        solver_gap=sol.solver_gap if sol is not None else 0.0,
    )
    return vec, evaluate(A, vec, ctx), sol, diag


def sparsity_sweep(
    A: SymmetricMatrix,
    algo: str,
    grid,
    epsilon: float | None = None,
    svd: SvdParams | None = None,
    admm: AdmmConfig | None = None,
    oracle_ref: bool = False,
    workers: int = 1,
):
    """One :class:`EvalReport` per grid value, from :func:`solve` with k = s.

    ``epsilon``, ``svd``, ``admm`` and ``oracle_ref`` are passed to every
    :func:`solve` call. Grid points are independent and may be evaluated on a
    thread pool of ``workers`` threads; reports are returned in grid order
    either way.
    """
    grid = [int(s) for s in grid]
    if not grid:
        raise ValueError("sparsity grid is empty")
    for s in grid:
        if not 1 <= s <= A.n:
            raise ValueError(f"grid value {s} outside [1, {A.n}]")

    def point(s):
        return solve(
            A, algo, s, sparsity=s, epsilon=epsilon, svd=svd, admm=admm, oracle_ref=oracle_ref
        )[1]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(point, grid))
    return [point(s) for s in grid]


def env_workers(default: int = 1) -> int:
    """Worker count from the SPCA_THREADS environment variable."""
    raw = os.environ.get("SPCA_THREADS", "")
    try:
        value = int(raw)
    except ValueError:
        return default
    return max(1, value)

"""Solution-quality metrics and certified lower bounds.

``f_value`` is the quadratic form divided by the spectral norm (between 0
and 1 for vectors of norm at most one); ``pve`` divides by the trace
instead. Two bound families can be attached to a report:

* ``thm1_floor = Z_ref - 3 * epsilon * trace(A)``, the additive floor of the
  eigenbasis-thresholding solver;
* ``thm2_floor = (1/alpha) * Z_ref - epsilon - solver_gap``, the
  multiplicative floor of the relaxation-rounding solver; ``solver_gap`` is
  the relaxation solve's certified duality gap ``dual_bound - trace(A Z)``.

``Z_ref`` is the exact optimum when available. Without it the sdp floor
uses the relaxation objective ``trace(A Z)``, which does not bound the
optimum from above: Z is a feasible point, so ``trace(A Z)`` is at least
``Z* - solver_gap``, and it is ``dual_bound = trace(A Z) + solver_gap`` that
bounds Z* from above. The floor stays valid for the output, because rounding
certifies ``trace(A Z) / alpha`` directly. :func:`solve` runs one solver and
wires these inputs; :func:`sparsity_sweep` maps it over a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .matrix import SvdParams, SymmetricMatrix, spectral_norm
from .oracle import exact_spca
from .sdp import AdmmConfig, spca_sdp
from .svd_threshold import SparseUnitVector, _check_count, _check_sizing, spca_svd


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


def evaluate(
    A: SymmetricMatrix,
    y: SparseUnitVector,
    epsilon: float | None = None,
    alpha: float | None = None,
    z_ref: float | None = None,
    solver_gap: float = 0.0,
) -> EvalReport:
    """Metrics of ``y`` on ``A`` plus whatever floors the bound inputs support.

    ``epsilon`` is the accuracy parameter, ``alpha`` the measured rounding
    factor, ``z_ref`` the reference value and ``solver_gap`` the relaxation's
    certified duality gap. ``thm1_floor`` needs ``z_ref`` and ``epsilon``;
    ``thm2_floor`` also needs a positive ``alpha``. Ratio entries divide each
    floor by both the achieved objective and the reference value (labelled
    separately, since the two normalizations answer different questions).
    """
    if y.n != A.n:
        raise DimensionMismatch(f"vector dim {y.n} vs matrix dim {A.n}")
    norm = spectral_norm(A)
    objective = y.quadratic_form(A)
    f_value = objective / norm if norm > 0 else 0.0
    pve = objective / A.trace if A.trace != 0 else 0.0

    thm1 = thm2 = None
    if z_ref is not None and epsilon is not None:
        thm1 = z_ref - 3.0 * epsilon * A.trace
        if alpha is not None and alpha > 0:
            thm2 = z_ref / alpha - epsilon - solver_gap

    ratios = {}
    if objective > 0:
        if thm1 is not None:
            ratios["thm1"] = thm1 / objective
        if thm2 is not None:
            ratios["thm2"] = thm2 / objective
    if z_ref is not None and z_ref > 0:
        if thm1 is not None:
            ratios["thm1_vs_ref"] = thm1 / z_ref
        if thm2 is not None:
            ratios["thm2_vs_ref"] = thm2 / z_ref

    return EvalReport(
        objective=objective,
        f_value=f_value,
        pve=pve,
        sparsity=y.sparsity,
        norm=y.norm,
        thm1_floor=thm1,
        thm2_floor=thm2,
        bound_ratio=ratios or None,
        z_ref=z_ref,
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
    uses the relaxation objective. ``k`` and ``sparsity`` must be integers
    in [1, n]; they and ``epsilon`` are checked before any solver or the
    enumeration runs.

    Returns ``(vector, report, solution, diagnostics)``; the last two are set
    only for ``algo="sdp"``.
    """
    if algo not in ("svd", "sdp", "oracle"):
        raise ValueError(f"unknown algorithm {algo!r}")
    if algo == "oracle" and sparsity not in (None, k):
        raise ValueError(f"oracle sparsity {sparsity} must equal k={k}")
    _check_sizing(A.n, k, sparsity, epsilon)
    eps = epsilon if epsilon is not None else 1.0
    z_ref = sol = diag = alpha = None
    gap = 0.0
    if oracle_ref or algo == "oracle":
        oracle_res = exact_spca(A, k)
        z_ref = oracle_res.optimal_value
    if algo == "svd":
        vec = spca_svd(A, k, sparsity, eps, l_override, svd)
    elif algo == "sdp":
        vec, sol, diag = spca_sdp(A, k, sparsity, epsilon, admm)
        alpha, gap = diag.alpha, sol.solver_gap
        if z_ref is None:
            z_ref = sol.objective
    else:
        vec = oracle_res.optimal_vector
    report = evaluate(A, vec, epsilon=eps, alpha=alpha, z_ref=z_ref, solver_gap=gap)
    return vec, report, sol, diag


def sparsity_sweep(
    A: SymmetricMatrix,
    algo: str,
    grid,
    epsilon: float | None = None,
    svd: SvdParams | None = None,
    admm: AdmmConfig | None = None,
    oracle_ref: bool = False,
):
    """One :class:`EvalReport` per grid value, in grid order, from :func:`solve` at k = s.

    ``epsilon``, ``svd``, ``admm`` and ``oracle_ref`` are passed to every
    :func:`solve` call. Every grid value must be an integer in [1, n]; the
    whole grid is checked before the first point runs.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("sparsity grid is empty")
    for s in grid:
        _check_count("grid value", s, A.n)
    return [
        solve(
            A, algo, s, sparsity=s, epsilon=epsilon, svd=svd, admm=admm, oracle_ref=oracle_ref
        )[1]
        for s in grid
    ]

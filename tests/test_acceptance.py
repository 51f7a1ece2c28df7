"""End-to-end acceptance gate.

One test per criterion; each prints a PASS/FAIL line (visible with -s or in
captured output) and enforces its stated tolerance and runtime budget.
Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import time

import numpy as np

from spcakit import (
    AdmmConfig,
    SyntheticConfig,
    covariance_from_data,
    exact_spca,
    givens_composition_apply,
    hadamard_basis,
    pit_props,
    rank_one_diagnostics,
    solve_sdp_relaxation,
    sparsity_sweep,
    spca_sdp,
    spca_svd,
    synthetic_spiked,
    top_l_eigenpairs,
    unit_row_normalize,
)
from spcakit.cli import main as cli_main

from helpers import random_psd, random_unit_vector

PITPROPS_ZERO_VARIABLES = {2, 3, 4, 10, 11, 12}  # moist testsg ovensg clear knots diaknot
SVD_EXPECTED_ABS = [0.420, 0.422, 0.0, 0.0, 0.0, 0.296, 0.416, 0.305, 0.371, 0.394, 0.0, 0.0, 0.0]
SDP_EXPECTED_ABS = [0.424, 0.430, 0.0, 0.0, 0.0, 0.268, 0.403, 0.313, 0.379, 0.399, 0.0, 0.0, 0.0]


def _report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_pitprops_table_reproduction():
    start = time.perf_counter()
    A = pit_props()
    svd_vec = spca_svd(A, 7, sparsity=7, epsilon=1.0)
    sdp_vec, sol, _ = spca_sdp(A, k=7, sparsity=7)
    elapsed = time.perf_counter() - start

    svd_obj = svd_vec.quadratic_form(A)
    sdp_obj = sdp_vec.quadratic_form(A)
    svd_dense = np.abs(svd_vec.to_dense())
    sdp_dense = np.abs(sdp_vec.to_dense())
    checks = [
        abs(svd_obj - 3.993) <= 0.01,
        abs(svd_obj / 13.0 - 0.3071) <= 0.001,
        abs(sdp_obj - 3.996) <= 0.01,
        abs(sdp_obj / 13.0 - 0.3074) <= 0.001,
        all(svd_dense[i] == 0.0 for i in PITPROPS_ZERO_VARIABLES),
        all(sdp_dense[i] == 0.0 for i in PITPROPS_ZERO_VARIABLES),
        np.abs(svd_dense - SVD_EXPECTED_ABS).max() <= 0.01,
        np.abs(sdp_dense - SDP_EXPECTED_ABS).max() <= 0.01,
        elapsed < 10.0,
    ]
    _report(
        1,
        all(checks),
        f"svd {svd_obj:.4f} (pve {svd_obj / 13:.4%}), sdp {sdp_obj:.4f} "
        f"(pve {sdp_obj / 13:.4%}), zero pattern + loadings within 0.01, {elapsed:.1f}s",
    )


def test_criterion_02_pitprops_optimality_at_k7():
    start = time.perf_counter()
    A = pit_props()
    oracle_value = exact_spca(A, 7).optimal_value
    sdp_vec, _, _ = spca_sdp(A, k=7, sparsity=7)
    sdp_obj = sdp_vec.quadratic_form(A)
    elapsed = time.perf_counter() - start
    ok = abs(oracle_value - sdp_obj) <= 0.005 and elapsed < 30.0
    _report(2, ok, f"oracle {oracle_value:.5f} vs sdp {sdp_obj:.5f}, {elapsed:.1f}s")


def test_criterion_03_additive_floor_suite():
    start = time.perf_counter()
    eps = 0.25
    worst = np.inf
    for i in range(50):
        rng = np.random.Generator(np.random.Philox(1000 + i))
        n = int(rng.integers(6, 11))
        k = int(rng.integers(2, 5))
        A = random_psd(n, 2000 + i)
        z = spca_svd(A, k, epsilon=eps, l_override=4)
        z_star = exact_spca(A, k).optimal_value
        worst = min(worst, z.quadratic_form(A) - (z_star - 3 * eps * A.trace))
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-8 and elapsed < 60.0
    _report(3, ok, f"50 instances, worst floor slack {worst:.6f}, {elapsed:.1f}s")


def _normalized_suite_instances():
    for i in range(30):
        rng = np.random.Generator(np.random.Philox(5000 + i))
        n = int(rng.integers(6, 11))
        yield unit_row_normalize(random_psd(n, 6000 + i))


def test_criterion_04_multiplicative_floor_suite():
    start = time.perf_counter()
    eps = 0.3
    worst = np.inf
    for A in _normalized_suite_instances():
        # bound certified for the raw truncation, so polish is disabled here
        z, sol, diag = spca_sdp(A, k=3, sparsity=A.n, polish=False)
        z_star = exact_spca(A, 3).optimal_value
        floor = z_star / diag.alpha - eps - sol.solver_gap
        worst = min(worst, z.quadratic_form(A) - floor)
    elapsed = time.perf_counter() - start
    ok = worst >= 0.0 and elapsed < 300.0
    _report(4, ok, f"30 normalized instances, worst floor slack {worst:.6f}, {elapsed:.1f}s")


def test_criterion_05_relaxation_dominance_and_feasibility():
    start = time.perf_counter()
    worst_gap = np.inf
    max_trace = 0.0
    max_l1_rel = 0.0
    min_eig = 0.0
    for A in _normalized_suite_instances():
        sol = solve_sdp_relaxation(A, 3)
        z_star = exact_spca(A, 3).optimal_value
        worst_gap = min(worst_gap, sol.objective - (z_star - 1e-3))
        max_trace = max(max_trace, float(np.trace(sol.Z)))
        max_l1_rel = max(max_l1_rel, float(np.abs(sol.Z).sum()) / 3.0)
        min_eig = min(min_eig, np.linalg.eigvalsh(sol.Z)[0])
    elapsed = time.perf_counter() - start
    ok = (
        worst_gap >= 0.0
        and max_trace <= 1.0 + 1e-5
        and max_l1_rel <= 1.0 + 1e-5
        and min_eig >= -1e-6
    )
    _report(
        5,
        ok,
        f"dominance slack {worst_gap:.6f}, trace <= {max_trace:.8f}, "
        f"l1/k <= {max_l1_rel:.8f}, min eig {min_eig:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_truncated_form_loss_bound():
    start = time.perf_counter()
    worst = np.inf
    count = 0
    i = 0
    while count < 100:
        n = 6 + (i % 15)  # n up to 20
        A = random_psd(n, 12000 + i)
        for l in (1, 2, 4):
            if count >= 100:
                break
            x = random_unit_vector(n, 13000 + i * 3 + l)
            pairs = top_l_eigenpairs(A, l)
            kept = float(np.linalg.norm(np.sqrt(pairs.values) * (pairs.vectors.T @ x)) ** 2)
            total = float(x @ A.entries @ x)
            worst = min(worst, kept - (total - A.trace / l))
            count += 1
        i += 1
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-8 and elapsed < 10.0
    _report(6, ok, f"{count} (A, x) pairs, worst slack {worst:.6f}, {elapsed:.1f}s")


def test_criterion_07_rank_one_diagnostics_near_unity():
    start = time.perf_counter()
    alphas = []
    betas = []

    _, _, diag = spca_sdp(pit_props(), k=7, sparsity=7)
    alphas.append(diag.alpha)
    betas.append(diag.beta)

    # Desk-scale proxy: 32 x 256 spiked data, uncentered second moment
    # (centering would annihilate the spike: its left factor is the constant
    # basis column), sparsity budget k = n/4.
    for seed in range(10):
        X = synthetic_spiked(SyntheticConfig(m=2**5, n=2**8, seed=seed))
        A = covariance_from_data(X, center=False)
        sol = solve_sdp_relaxation(A, k=64, cfg=AdmmConfig(rho=50.0))
        d = rank_one_diagnostics(sol)
        alphas.append(d.alpha)
        betas.append(d.beta)
    elapsed = time.perf_counter() - start
    ok = all(1 - 1e-6 <= a <= 1.01 for a in alphas) and all(0.98 <= b <= 1.02 for b in betas)
    _report(
        7,
        ok,
        f"alpha in [{min(alphas):.8f}, {max(alphas):.8f}], "
        f"beta in [{min(betas):.8f}, {max(betas):.8f}] over pit props + 10 spiked, {elapsed:.1f}s",
    )


def test_criterion_08_randomized_eigensolver_contract():
    start = time.perf_counter()
    A = random_psd(256, 31337)
    approx = top_l_eigenpairs(A, 4, method="block_krylov", svd_eps=0.1, seed=11)
    elapsed = time.perf_counter() - start
    exact = top_l_eigenpairs(A, 4, method="exact")
    rel = np.abs(approx.values - exact.values) / exact.values
    ok = np.all(rel <= 0.1) and elapsed < 5.0
    _report(8, ok, f"relative errors {np.array2string(rel, precision=2)}, {elapsed:.2f}s")


def test_criterion_09_synthetic_generator_fidelity():
    start = time.perf_counter()
    X = synthetic_spiked(SyntheticConfig(m=8, n=16, sigma=0.0, seed=1))
    sv = np.linalg.svd(X.entries, compute_uv=False)
    expected = np.array([100.0] + [np.exp(-i) for i in range(2, 9)])
    sv_err = float(np.abs(sv[:8] - expected).max())

    v = hadamard_basis(16)
    identity_ok = np.array_equal(givens_composition_apply(v, 0.0), v)

    gram_err = 0.0
    for p in (2, 16, 256, 1024):
        H = hadamard_basis(p)
        gram_err = max(gram_err, float(np.abs(H.T @ H - np.eye(p)).max()))
    elapsed = time.perf_counter() - start
    ok = sv_err <= 1e-8 and identity_ok and gram_err <= 1e-12
    _report(
        9,
        ok,
        f"singular-value error {sv_err:.2e}, zero-angle identity {identity_ok}, "
        f"Gram error {gram_err:.2e} up to p=1024, {elapsed:.1f}s",
    )


def test_criterion_10_bound_tightness_ordering():
    start = time.perf_counter()
    A = pit_props()
    grid = [3, 5, 7, 9]
    svd_reports = sparsity_sweep(A, "svd", grid, epsilon=0.9, oracle_ref=True)
    sdp_reports = sparsity_sweep(A, "sdp", grid, epsilon=0.9, oracle_ref=True)
    ordering_ok = all(
        rd.bound_ratio["thm2"] > rs.bound_ratio["thm1"]
        for rs, rd in zip(svd_reports, sdp_reports)
    )
    negative_ok = all(rs.thm1_floor < 0 for rs in svd_reports)
    elapsed = time.perf_counter() - start
    ok = ordering_ok and negative_ok
    ratios = [(round(rs.bound_ratio["thm1"], 2), round(rd.bound_ratio["thm2"], 2))
              for rs, rd in zip(svd_reports, sdp_reports)]
    _report(10, ok, f"(thm1, thm2) ratios by sparsity {ratios}, {elapsed:.1f}s")


def test_criterion_11_byte_identical_reports(tmp_path):
    start = time.perf_counter()
    args = [
        "solve", "--input", "builtin:pitprops", "--algo", "sdp",
        "--k", "7", "--sparsity", "7", "--epsilon", "0.5", "--seed", "42",
    ]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli_main(args + ["--output", str(first)]) == 0
    assert cli_main(args + ["--output", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    parsed = json.loads(first.read_text())
    elapsed = time.perf_counter() - start
    ok = identical and parsed["config"]["seed"] == 42
    _report(11, ok, f"repeated runs byte-identical ({len(first.read_bytes())} bytes), {elapsed:.1f}s")

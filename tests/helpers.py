"""Shared fixtures and independent oracles used across the test suite.

Oracles here must stay independent of the library code paths they check:
eigenvalues via the characteristic polynomial; projections via bisection, a
full sort, or a full eigendecomposition; covariance via explicit two-pass
loops; exact sparse PCA via one eigensolver call per support.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import spcakit
from spcakit import DataMatrix, SparseUnitVector, symmetrize


def random_psd(n, seed, scale=1.0):
    """Seeded Gram-matrix PSD instance."""
    rng = np.random.Generator(np.random.Philox(seed))
    g = rng.standard_normal((n, n))
    return symmetrize(scale * (g @ g.T) / n)


def wide_data(m, n, seed):
    """Seeded m x n Gaussian samples, column scales falling from 2 to 0.5."""
    rng = np.random.Generator(np.random.Philox(seed))
    return DataMatrix(rng.standard_normal((m, n)) * np.linspace(2.0, 0.5, n))


def random_unit_vector(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


def charpoly_eigenvalues(entries):
    """Eigenvalues as roots of the characteristic polynomial.

    Coefficients come from the Faddeev-LeVerrier recurrence (traces of
    matrix powers only, no eigensolver), roots from the companion matrix.
    Independent of the symmetric eigensolver under test.
    """
    n = entries.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(entries)
    c = 1.0
    for k in range(1, n + 1):
        m = entries @ (m + c * np.eye(n))
        c = -np.trace(m) / k
        coeffs.append(c)
    return np.sort(np.roots(coeffs).real)[::-1]


def exhaustive_spca_loop(entries, k):
    """Exact sparse PCA by one ``eigvalsh`` call per support.

    Supports are visited in lexicographic order and the first best is kept,
    so ties resolve to the lexicographically smallest support. Returns
    ``(value, support, count)``; the value is the top eigenvalue of ``eigh``
    on the winning submatrix, the decomposition the library reports from.
    """
    best_value, best_support, count = -np.inf, None, 0
    for support in itertools.combinations(range(entries.shape[0]), k):
        count += 1
        value = float(np.linalg.eigvalsh(entries[np.ix_(support, support)])[-1])
        if value > best_value:
            best_value, best_support = value, support
    top = float(np.linalg.eigh(entries[np.ix_(best_support, best_support)])[0][-1])
    return top, best_support, count


def l1_ball_projection_bisection(matrix, radius, tol=1e-12):
    """Projection onto the entrywise l1 ball by bisection on the threshold."""
    flat = np.abs(matrix).ravel()
    if flat.sum() <= radius:
        return matrix.copy()
    lo, hi = 0.0, flat.max()
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if np.maximum(flat - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    theta = (lo + hi) / 2.0
    return np.sign(matrix) * np.maximum(np.abs(matrix) - theta, 0.0)


def simplex_projection_sort(v, radius):
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


def psd_trace_ball_projection_full(M):
    """Projection onto {Z PSD, trace(Z) <= 1} from a full ``eigh`` of the symmetric part.

    Eigenvalues are clipped at zero; if their sum still exceeds one they are
    projected onto the unit simplex instead.
    """
    w, v = np.linalg.eigh((M + M.T) / 2.0)
    clipped = np.maximum(w, 0.0)
    if clipped.sum() > 1.0:
        clipped = simplex_projection_sort(w, 1.0)
    return (v * clipped) @ v.T


def l1_ball_projection_sort(M, radius):
    """Projection onto the entrywise l1 ball by a full sort of the magnitudes."""
    if np.abs(M).sum() <= radius:
        return M.copy()
    magnitudes = simplex_projection_sort(np.abs(M).ravel(), radius)
    return (np.sign(M).ravel() * magnitudes).reshape(M.shape)


def two_pass_covariance(data, center=True):
    """Naive covariance with explicit loops, for cross-checking."""
    m, n = data.shape
    mu = data.sum(axis=0) / m if center else np.zeros(n)
    cov = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for t in range(m):
                acc += (data[t, i] - mu[i]) * (data[t, j] - mu[j])
            cov[i, j] = acc / (m - 1)
    return cov


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's ``spcakit`` and these helpers."""
    paths = [str(Path(spcakit.__file__).parents[1]), str(Path(__file__).parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; return the list of its call arguments."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def record_results(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; return the list of its return values."""
    results = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, wrapper)
    return results


def failing_dsyevd(M, **kwargs):
    """Stand-in for LAPACK ``dsyevd`` that reports a convergence failure (info = 1)."""
    n = M.shape[0]
    return np.zeros(n), np.zeros((n, n)), 1


def forged_truncation(m=36, t=0.5):
    """``(A, u, z)`` for which z.T A z breaks the SDP truncation-chain bound.

    u is e_0, and z tilts it by angle t toward a vector spread evenly over m
    more coordinates, where the indefinite A is -(6/m) J. Every row of A has
    unit norm, so the chain's bound is 1 - 6 sin(t/2), but z.T A z is
    cos(t)^2 - 6 sin(t)^2, which is smaller for t = 0.5. A true truncation of
    a rank-1 factor of a PSD solution cannot do this.
    """
    A = np.zeros((m + 1, m + 1))
    A[0, 0] = 1.0
    A[1:, 1:] = -6.0 / m
    u = np.zeros(m + 1)
    u[0] = 1.0
    values = np.full(m + 1, np.sin(t) / np.sqrt(m))
    values[0] = np.cos(t)
    return symmetrize(A), u, SparseUnitVector(m + 1, np.arange(m + 1), values)

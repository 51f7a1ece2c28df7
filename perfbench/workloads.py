"""The benchmark's workloads: seeded inputs, operations, and independent output checks.

Every operation is one or two calls to ``spcakit.cli.main(argv)``. A workload
writes its inputs in :meth:`Workload.setup`, inside the current directory, from
the workload seed alone; the program sees only the generated files. Set-up also
computes the values the checks compare against, with plain NumPy, never with
the package, so the checks share no code with what they check.

Operations repeat in a fixed cycle, so every operation key recurs and its
report can be compared byte for byte with the earlier ones.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Relative tolerance for recomputed quadratic forms and exact optima.
REL_TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output broke the contract it is checked against."""


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: ``argvs`` run in order through ``cli.main``."""

    key: str
    argvs: tuple
    outputs: tuple  # files the operation writes, removed before it runs
    check: object  # callable(Op) -> {f_value, oracle_ratio, floor_ratio: value}; raises CheckFailed


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_matrix_market(path, arr):
    """Dense MatrixMarket array file, column-major, shortest round-trip reprs."""
    rows, cols = arr.shape
    values = "\n".join(repr(v) for v in np.asarray(arr, dtype=float).T.ravel().tolist())
    Path(path).write_text(f"%%MatrixMarket matrix array real general\n{rows} {cols}\n{values}\n")


def read_matrix_market(path):
    """Inverse of :func:`write_matrix_market` for dense array files."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("%")]
    rows, cols = (int(t) for t in lines[0].split())
    return np.array(lines[1:], dtype=float).reshape(cols, rows).T


def _load_report(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"report {path} unreadable: {exc}") from None


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _close(a, b, scale):
    return abs(a - b) <= REL_TOL * max(scale, 1e-300)


def _check_vector(result, n, sparsity, unit_norm):
    """Support and values from a solve report, checked against the vector contract."""
    support = np.asarray(result["support"], dtype=np.int64)
    values = np.asarray(result["values"], dtype=float)
    _require(support.shape == values.shape == (sparsity,),
             f"expected {sparsity} support entries, got {support.size} / {values.size}")
    _require(result["sparsity"] == sparsity, f"reported sparsity {result['sparsity']} != {sparsity}")
    _require(bool(np.all(np.diff(support) > 0)) and support[0] >= 0 and support[-1] < n,
             "support not strictly increasing inside [0, n)")
    norm = float(np.linalg.norm(values))
    if unit_norm:
        _require(abs(norm - 1.0) <= 1e-9, f"norm {norm!r} is not 1")
    else:
        _require(0.0 < norm <= 1.0 + 1e-9, f"norm {norm!r} outside (0, 1]")
    return support, values


def _check_objective(metrics, recomputed, lam_max):
    objective = metrics["objective"]
    _require(_close(objective, recomputed, lam_max),
             f"objective {objective!r} but x'Ax recomputes to {recomputed!r}")
    return recomputed / lam_max


def _relabelled_wishart(seed, index, n):
    """Wishart matrix ``index`` of a fixed family, its coordinates permuted and sign-flipped by ``seed``."""
    g = np.random.default_rng([0, index]).standard_normal((n, n))
    w = g @ g.T / n
    rng = np.random.default_rng([seed, index])
    perm = rng.permutation(n)
    signs = rng.choice([-1.0, 1.0], size=n)
    w = (signs[:, None] * w * signs[None, :])[np.ix_(perm, perm)]
    return (w + w.T) / 2.0


def exact_optima(A, ks):
    """max over |S| = k of lambda_max(A[S, S]), by stacked eigvalsh over all supports."""
    n = A.shape[0]
    optima = {}
    for k in ks:
        supports = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
        blocks = A[supports[:, :, None], supports[:, None, :]]
        optima[k] = float(np.linalg.eigvalsh(blocks)[:, -1].max())
    return optima


class Workload:
    name = ""
    largest_n = 0  # set-up warms the BLAS with an eigh of this size

    def setup(self, cli_main, seed):
        """Write the inputs for ``seed`` into the current directory and compute
        the reference values the checks compare against."""
        raise NotImplementedError

    def cycle(self):
        """The operations of one cycle, in order."""
        raise NotImplementedError


class SdpSpiked(Workload):
    name = "sdp-spiked"
    largest_n = 128
    sparsities = (8, 16, 32)
    # ADMM iteration counts move by about 10% between noise draws, so a run
    # averages over several datasets derived from the seed.
    datasets = 3

    def setup(self, cli_main, seed):
        self.inputs = []
        for i in range(self.datasets):
            rc = cli_main(["gen-synthetic", "--m", "32", "--n", "128",
                           "--seed", str(seed * self.datasets + i), "--output", f"spiked_data{i}.mtx"])
            if rc != 0:
                raise RuntimeError(f"gen-synthetic exited {rc}")
            X = read_matrix_market(f"spiked_data{i}.mtx")
            A = X.T @ X / (X.shape[0] - 1)  # uncentered second moment
            A = (A + A.T) / 2.0
            write_matrix_market(f"spiked{i}.mtx", A)
            self.inputs.append(A)
        self.lam_max = [float(np.linalg.eigvalsh(A)[-1]) for A in self.inputs]

    def cycle(self):
        return [
            Op(
                key=f"d{i}s{s}",
                argvs=(["solve", "--input", f"spiked{i}.mtx", "--algo", "sdp", "--k", str(s),
                        "--sparsity", str(s), "--strict", "--output", f"sdp{i}_s{s}.json"],),
                outputs=(f"sdp{i}_s{s}.json",),
                check=lambda op, i=i, s=s: self._check(op, i, s),
            )
            for i in range(self.datasets)
            for s in self.sparsities
        ]

    def _check(self, op, i, s):
        A, lam_max = self.inputs[i], self.lam_max[i]
        result = _load_report(op.outputs[0])["result"]
        support, values = _check_vector(result, A.shape[0], s, unit_norm=False)
        recomputed = float(values @ A[np.ix_(support, support)] @ values)
        metrics = result["metrics"]
        f_value = _check_objective(metrics, recomputed, lam_max)
        _require(result["sdp"]["converged"] is True, "relaxation reported not converged")
        floor = metrics["thm2_floor"]
        _require(floor <= metrics["objective"] + REL_TOL * lam_max,
                 f"floor {floor!r} above objective {metrics['objective']!r}")
        return {"f_value": f_value, "floor_ratio": floor / metrics["objective"]}


class OracleSmall(Workload):
    name = "oracle-small"
    largest_n = 20
    grid = (3, 4, 5, 6)
    # ADMM iteration counts on Wishart inputs are heavy-tailed (50 to 4000 per
    # solve), so independent draws per seed would make run times depend on the
    # draw more than on the code. The seed relabels a fixed family instead:
    # a signed permutation changes every entry and the enumeration order but
    # keeps the spectrum, and with it the difficulty mix, of each input.
    matrices = 8

    def setup(self, cli_main, seed):
        self.inputs = [_relabelled_wishart(seed, i, self.largest_n) for i in range(self.matrices)]
        for i, W in enumerate(self.inputs):
            write_matrix_market(f"wishart{i}.mtx", W)
        self.refs = [(float(np.linalg.eigvalsh(W)[-1]), exact_optima(W, self.grid))
                     for W in self.inputs]

    def cycle(self):
        grid = f"{self.grid[0]}:{self.grid[-1]}"
        return [
            Op(
                key=f"w{i}",
                argvs=(["sweep", "--input", f"wishart{i}.mtx", "--algo", "sdp", "--grid", grid,
                        "--oracle-ref", "--output", f"sweep{i}.json"],),
                outputs=(f"sweep{i}.json",),
                check=lambda op, i=i: self._check(op, i),
            )
            for i in range(self.matrices)
        ]

    def _check(self, op, i):
        # Sweep reports carry metrics but no vector, so the objective is
        # checked against the exact optimum instead of being recomputed.
        lam_max, optima = self.refs[i]
        results = _load_report(op.outputs[0])["results"]
        _require([r["grid_sparsity"] for r in results] == list(self.grid), "grid mismatch")
        quality = {"f_value": [], "oracle_ratio": [], "floor_ratio": []}
        for r in results:
            k = r["grid_sparsity"]
            opt, objective = optima[k], r["objective"]
            _require(_close(r["z_ref"], opt, opt), f"k={k}: z_ref {r['z_ref']!r} != optimum {opt!r}")
            _require(objective <= opt + REL_TOL * opt, f"k={k}: objective {objective!r} above optimum")
            _require(r["sparsity"] == k and 0.0 < r["norm"] <= 1.0 + 1e-9,
                     f"k={k}: sparsity {r['sparsity']} / norm {r['norm']!r} break the contract")
            _require(_close(r["f_value"], objective / lam_max, 1.0), f"k={k}: f_value mismatch")
            _require(r["thm2_floor"] <= objective + REL_TOL * opt, f"k={k}: floor above objective")
            quality["f_value"].append(objective / lam_max)
            quality["oracle_ratio"].append(objective / opt)
            quality["floor_ratio"].append(r["thm2_floor"] / objective)
        return {name: min(values) for name, values in quality.items()}


class SvdPipeline(Workload):
    name = "svd-pipeline"
    largest_n = 2048
    # f_value moves by about 15% between noise draws; the minimum over three
    # datasets derived from the seed moves by about 6%.
    datasets = 3
    solve_args = ("--input-kind", "data", "--algo", "svd", "--svd-method", "block_krylov",
                  "--k", "16", "--sparsity", "16", "--epsilon", "0.25")

    def _gen_argv(self, i, output):
        return ["gen-synthetic", "--m", "128", "--n", "2048", "--sigma", "0.1",
                "--seed", str(self.seed * self.datasets + i), "--output", output]

    def setup(self, cli_main, seed):
        self.seed = seed
        self.refs = []
        for i in range(self.datasets):
            rc = cli_main(self._gen_argv(i, f"reference{i}.mtx"))
            if rc != 0:
                raise RuntimeError(f"gen-synthetic exited {rc}")
            X = read_matrix_market(f"reference{i}.mtx")
            Xc = X - X.mean(axis=0)  # solve centers the data by default
            scale = 1.0 / (X.shape[0] - 1)
            lam_max = float(np.linalg.svd(Xc, compute_uv=False)[0]) ** 2 * scale
            self.refs.append((file_digest(f"reference{i}.mtx"), Xc, scale, lam_max))

    def cycle(self):
        return [
            Op(
                key=f"d{i}",
                argvs=(self._gen_argv(i, f"data{i}.mtx"),
                       ["solve", "--input", f"data{i}.mtx", *self.solve_args,
                        "--output", f"svd{i}.json"]),
                outputs=(f"data{i}.mtx", f"data{i}.mtx.meta.json", f"svd{i}.json"),
                check=lambda op, i=i: self._check(op, i),
            )
            for i in range(self.datasets)
        ]

    def _check(self, op, i):
        digest, Xc, scale, lam_max = self.refs[i]
        _require(file_digest(op.outputs[0]) == digest, "generated data differs from set-up's")
        result = _load_report(op.outputs[2])["result"]
        support, values = _check_vector(result, Xc.shape[1], 16, unit_norm=True)
        recomputed = float(np.sum((Xc[:, support] @ values) ** 2)) * scale
        return {"f_value": _check_objective(result["metrics"], recomputed, lam_max)}


WORKLOADS = {w.name: w for w in (SdpSpiked, OracleSmall, SvdPipeline)}

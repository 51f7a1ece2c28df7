"""Command-line front end: solve, sweep, generate data, reproduce benchmarks.

Reports are JSON (or CSV for tabular sweeps) with a top-level
schema_version and the fully resolved configuration embedded, so any report
can be reproduced byte-for-byte from its own config block. All randomness
derives from --seed. Exit codes: 0 success, 2 usage or validation error (one
JSON diagnostic line on stderr), 3 relaxation duality gap not certified
within --max-iters under --strict.

``main(argv)`` also runs a command in-process and returns its exit code. The
argument parser is built once per process: parsing leaves it unchanged, so
every call after the first pays only for its own parse.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    DataMatrix,
    SyntheticConfig,
    covariance_from_data,
    load_matrix,
    pit_props,
    save_matrix,
    synthetic_spiked,
    unit_row_normalize,
    PIT_PROPS_VARIABLES,
)
from .errors import SpcaError
from .evaluation import solve, sparsity_sweep
from .matrix import SvdParams, symmetrize
from .oracle import exact_spca
from .sdp import AdmmConfig

SCHEMA_VERSION = 2

# Published benchmark values for the pit props first sparse component at
# sparsity 7 (absolute loadings; signs differ between solvers).
PITPROPS_REFERENCE = {
    "svd": {
        "loadings_abs": [0.420, 0.422, 0.0, 0.0, 0.0, 0.296, 0.416, 0.305, 0.371, 0.394, 0.0, 0.0, 0.0],
        "pve": 0.3071,
        "objective": 3.993,
    },
    "sdp": {
        "loadings_abs": [0.424, 0.430, 0.0, 0.0, 0.0, 0.268, 0.403, 0.313, 0.379, 0.399, 0.0, 0.0, 0.0],
        "pve": 0.3074,
        "objective": 3.996,
    },
    "oracle_objective": 3.996,
    "loading_tol": 0.01,
    "pve_tol": 0.001,
}


def _builtin_input(name):
    builtin = re.fullmatch(r"builtin:identity(\d+)", name)
    if builtin:
        n = int(builtin.group(1))
        if n < 1:
            raise ValueError(f"identity size must be positive, got {n}")
        return symmetrize(np.eye(n))
    if name == "builtin:pitprops":
        return pit_props()
    raise ValueError(f"unknown builtin dataset {name!r}")


def _load_input(args):
    """The input matrix, after every input flag; a flag that cannot apply is an error.

    The report's config block records each flag, so a flag that would be
    ignored is rejected instead.
    """
    name = args.input
    if args.input_kind != "data":
        for flag, given in (("--no-center", not args.center),
                            ("--to-correlation", args.to_correlation)):
            if given:
                raise ValueError(f"{flag} applies only with --input-kind data")
    if name.startswith("builtin:"):
        for flag, given in (("--input-kind data", args.input_kind == "data"),
                            ("--input-format", args.input_format is not None)):
            if given:
                raise ValueError(f"{flag} does not apply to builtin inputs")
        loaded = _builtin_input(name)
    else:
        loaded = load_matrix(name, format=args.input_format, kind=args.input_kind)
        if isinstance(loaded, DataMatrix):
            loaded = covariance_from_data(loaded, center=args.center,
                                          to_correlation=args.to_correlation)
    if args.unit_row_norm:
        loaded = unit_row_normalize(loaded)
    return loaded, name


def _check_solver_flags(args):
    """Reject a solver flag that ``--algo`` does not read, as ``_load_input`` does.

    Only flags whose default is None or off are checked: ``--max-iters``,
    ``--gap-tol``, ``--svd-method``, ``--svd-eps`` and ``--seed`` cannot be
    told apart from their defaults.
    """
    for flag, given, algo in (("--rho", args.rho is not None, "sdp"),
                              ("--strict", getattr(args, "strict", False), "sdp"),
                              ("--l-override", getattr(args, "l_override", None) is not None,
                               "svd")):
        if given and args.algo != algo:
            raise ValueError(f"{flag} applies only with --algo {algo}")


def _admm_config(args):
    return AdmmConfig(rho=args.rho, max_iters=args.max_iters, gap_tol=args.gap_tol)


def _svd_params(args):
    return SvdParams(method=args.svd_method, svd_eps=args.svd_eps, seed=args.seed)


def _resolved_config(args):
    # the destination path is not part of the computation, so reports stay
    # byte-identical wherever they are written
    skip = ("func", "output")
    cfg = {key: value for key, value in sorted(vars(args).items()) if key not in skip}
    cfg["version"] = __version__
    return cfg


def _vector_payload(vec, variable_names=None):
    payload = {
        "support": [int(i) for i in vec.support],
        "values": [float(v) for v in vec.values],
        "loadings_abs": [abs(float(v)) for v in vec.values],
        "sparsity": vec.sparsity,
        "norm": vec.norm,
    }
    if variable_names is not None:
        payload["support_names"] = [variable_names[i] for i in vec.support]
    return payload


def _emit(args, command, input_name, n, **body):
    """Write ``body`` (``result=`` or ``results=``) inside the report envelope."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": {"name": input_name, "n": n},
        "config": _resolved_config(args),
        **body,
    }
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = _to_csv(report)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _flatten(value, row, prefix=""):
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(sub, row, f"{prefix}{key}.")
    else:
        name = prefix[:-1]
        if isinstance(value, list):
            row[name] = ";".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            row[name] = repr(value)
        elif value is None:
            row[name] = ""
        else:
            row[name] = str(value)


def _to_csv(report):
    import csv  # here, so that JSON reports load nothing more
    import io

    rows = report.get("results") if isinstance(report.get("results"), list) else [report]
    flat_rows = []
    for entry in rows:
        flat = {}
        _flatten(entry, flat)
        flat_rows.append(flat)
    header = sorted({key for flat in flat_rows for key in flat})
    text = io.StringIO()
    # Quotes only the fields that need it, as one with a comma.
    csv.writer(text, lineterminator="\n").writerows(
        [header, *([flat.get(key, "") for key in header] for flat in flat_rows)]
    )
    return text.getvalue()


def _parse_grid(spec):
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in spec.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# Commands


def _cmd_solve(args):
    _check_solver_flags(args)
    A, input_name = _load_input(args)
    vec, metrics, sol, diag = solve(
        A,
        args.algo,
        args.k,
        sparsity=args.sparsity,
        epsilon=args.epsilon,
        l_override=args.l_override,
        svd=_svd_params(args),
        admm=_admm_config(args),
        oracle_ref=args.oracle_ref,
    )
    names = PIT_PROPS_VARIABLES if input_name == "builtin:pitprops" else None
    result = {**_vector_payload(vec, names), "metrics": dataclasses.asdict(metrics)}
    exit_code = 0
    if sol is not None:
        result["sdp"] = {
            "objective": sol.objective,
            "iterations_used": sol.iterations_used,
            "converged": sol.converged,
            "solver_gap": sol.solver_gap,
            "alpha": diag.alpha,
            "beta": diag.beta,
            "min_eigenvalue": diag.min_eigenvalue,
        }
        if not sol.converged and args.strict:
            exit_code = 3
    _emit(args, "solve", input_name, A.n, result=result)
    return exit_code


def _cmd_oracle(args):
    A, input_name = _load_input(args)
    res = exact_spca(A, args.k, args.max_enumeration)
    names = PIT_PROPS_VARIABLES if input_name == "builtin:pitprops" else None
    result = {
        "optimal_value": res.optimal_value,
        "instances_enumerated": res.instances_enumerated,
        **_vector_payload(res.optimal_vector, names),
    }
    _emit(args, "oracle", input_name, A.n, result=result)
    return 0


def _cmd_sweep(args):
    _check_solver_flags(args)
    A, input_name = _load_input(args)
    grid = _parse_grid(args.grid)
    algo = {"exact": "oracle"}.get(args.algo, args.algo)
    reports = sparsity_sweep(
        A,
        algo,
        grid,
        epsilon=args.epsilon,
        svd=_svd_params(args),
        admm=_admm_config(args),
        oracle_ref=args.oracle_ref,
    )
    results = [{"grid_sparsity": s, **dataclasses.asdict(r)} for s, r in zip(grid, reports)]
    _emit(args, "sweep", input_name, A.n, results=results)
    return 0


def _cmd_gen_synthetic(args):
    cfg = SyntheticConfig(m=args.m, n=args.n, theta=args.theta, sigma=args.sigma, seed=args.seed)
    X = synthetic_spiked(cfg)
    metadata = {
        "name": "synthetic_spiked",
        **dataclasses.asdict(cfg),
        "schema_version": SCHEMA_VERSION,
    }
    save_matrix(args.output, X, metadata=metadata)
    sys.stdout.write(json.dumps(metadata, indent=2, sort_keys=True) + "\n")
    return 0


def reproduce_pitprops(admm: AdmmConfig | None = None):
    """Run both solvers and the oracle on pit props at sparsity 7.

    Returns a comparison against the published benchmark values with
    per-entry deltas and pass/fail flags (tolerances: 0.01 on absolute
    loadings, 0.1 percentage point on PVE).
    """
    A = pit_props()
    ref = PITPROPS_REFERENCE
    rows = {}

    svd_vec, svd_report, _, _ = solve(A, "svd", 7, sparsity=7)
    sdp_vec, sdp_report, sol, diag = solve(A, "sdp", 7, sparsity=7, admm=admm)
    # The oracle row reports the restricted-eigenpair optimum itself, not an
    # evaluation of its vector, so it calls the oracle directly.
    oracle_res = exact_spca(A, 7)

    for name, vec, report in (("svd", svd_vec, svd_report), ("sdp", sdp_vec, sdp_report)):
        dense_abs = np.abs(vec.to_dense())
        expected = np.asarray(ref[name]["loadings_abs"])
        deltas = np.abs(dense_abs - expected)
        rows[name] = {
            "loadings_abs": [float(v) for v in dense_abs],
            "expected_loadings_abs": [float(v) for v in expected],
            "max_loading_delta": float(deltas.max()),
            "loadings_ok": bool(deltas.max() <= ref["loading_tol"]),
            "pve": report.pve,
            "expected_pve": ref[name]["pve"],
            "pve_delta": abs(report.pve - ref[name]["pve"]),
            "pve_ok": bool(abs(report.pve - ref[name]["pve"]) <= ref["pve_tol"]),
            "objective": report.objective,
            "expected_objective": ref[name]["objective"],
            "zero_pattern": [PIT_PROPS_VARIABLES[i] for i in range(13) if dense_abs[i] == 0.0],
        }
    rows["oracle"] = {
        "optimal_value": oracle_res.optimal_value,
        "expected_value": ref["oracle_objective"],
        "value_ok": bool(abs(oracle_res.optimal_value - ref["oracle_objective"]) <= 0.005),
        "support_names": [PIT_PROPS_VARIABLES[i] for i in oracle_res.optimal_vector.support],
    }
    rows["sdp"]["alpha"] = diag.alpha
    rows["sdp"]["beta"] = diag.beta
    rows["sdp"]["converged"] = sol.converged
    rows["all_ok"] = bool(
        rows["svd"]["loadings_ok"]
        and rows["svd"]["pve_ok"]
        and rows["sdp"]["loadings_ok"]
        and rows["sdp"]["pve_ok"]
        and rows["oracle"]["value_ok"]
    )
    return rows


def _cmd_reproduce_pitprops(args):
    rows = reproduce_pitprops(_admm_config(args))
    _emit(args, "reproduce-pitprops", "builtin:pitprops", 13, results=[rows])
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_io_arguments(sub, needs_input=True):
    if needs_input:
        sub.add_argument("--input", required=True, help="file path or builtin:<name>")
        sub.add_argument("--input-format", choices=["matrix_market", "dense_csv"], default=None)
        sub.add_argument("--input-kind", choices=["symmetric", "data"], default="symmetric")
        sub.add_argument("--no-center", dest="center", action="store_false",
                         help="with --input-kind data: skip mean-centering")
        sub.add_argument("--to-correlation", action="store_true",
                         help="with --input-kind data: use the correlation matrix")
        sub.add_argument("--unit-row-norm", action="store_true",
                         help="rescale the input toward unit row norms")
    sub.add_argument("--output", default=None, help="write the report here instead of stdout")
    sub.add_argument("--format", choices=["json", "csv"], default="json")


def _add_admm_arguments(sub):
    sub.add_argument("--rho", type=float, default=None,
                     help="starting ADMM penalty, absolute; default: the top eigenvalue of the input")
    sub.add_argument("--max-iters", type=int, default=50_000)
    sub.add_argument("--gap-tol", type=float, default=1e-4,
                     help="stop once the certified duality gap is at most this share of the bound, in (0, 1)")


def _add_svd_arguments(sub):
    sub.add_argument("--svd-method", choices=["exact", "block_krylov"], default="exact")
    sub.add_argument("--svd-eps", type=float, default=0.1)
    sub.add_argument("--seed", type=int, default=0, help="seed of the block Krylov start")


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so main reports them like any bad value."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="spca", description="Sparse PCA by thresholding: solvers, oracle, and sweeps."
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="run one solver on one matrix")
    solve.add_argument("--algo", choices=["svd", "sdp"], required=True)
    solve.add_argument("--k", type=int, required=True)
    solve.add_argument("--sparsity", type=int, default=None,
                       help="output sparsity budget; omitting it selects theory mode")
    solve.add_argument("--epsilon", type=float, default=None)
    solve.add_argument("--l-override", type=int, default=None)
    solve.add_argument("--oracle-ref", action="store_true",
                       help="also compute the exact optimum for bound reporting")
    solve.add_argument("--strict", action="store_true",
                       help="exit 3 when the relaxation's duality gap is not certified")
    _add_io_arguments(solve)
    _add_admm_arguments(solve)
    _add_svd_arguments(solve)
    solve.set_defaults(func=_cmd_solve)

    oracle = commands.add_parser("oracle", help="exact optimum by enumeration")
    oracle.add_argument("--k", type=int, required=True)
    oracle.add_argument("--max-enumeration", type=int, default=2_000_000)
    _add_io_arguments(oracle)
    oracle.set_defaults(func=_cmd_oracle)

    sweep = commands.add_parser("sweep", help="evaluate across a sparsity grid")
    sweep.add_argument("--algo", choices=["svd", "sdp", "exact"], required=True)
    sweep.add_argument("--grid", required=True, help="'lo:hi' or comma list, e.g. 1:4 or 3,5,7")
    sweep.add_argument("--epsilon", type=float, default=None)
    sweep.add_argument("--oracle-ref", action="store_true")
    _add_io_arguments(sweep)
    _add_admm_arguments(sweep)
    _add_svd_arguments(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    gen = commands.add_parser("gen-synthetic", help="write a spiked synthetic data matrix")
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--theta", type=float, default=0.27 * math.pi)
    gen.add_argument("--sigma", type=float, default=1e-3)
    gen.add_argument("--output", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_gen_synthetic)

    repro = commands.add_parser("reproduce-pitprops",
                                help="compare both solvers and the oracle on pit props")
    _add_io_arguments(repro, needs_input=False)
    _add_admm_arguments(repro)
    repro.set_defaults(func=_cmd_reproduce_pitprops)

    return parser


@functools.cache
def _parser():
    """The one parser ``main`` uses; ``build_parser`` stays fresh for callers that edit theirs."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SpcaError as exc:
        _diagnostic(type(exc).__name__, str(exc))
        return 2
    except ValueError as exc:
        _diagnostic("ValueError", str(exc))
        return 2
    except OSError as exc:
        _diagnostic("IOError", str(exc))
        return 2


def _diagnostic(code, message):
    sys.stderr.write(json.dumps({"code": code, "message": message, "context": {}}) + "\n")


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()

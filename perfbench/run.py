"""spcakit benchmark: seeded closed-loop CLI workloads with output checks.

Usage, from the repository root:

    python3 perfbench/run.py --workload sdp-spiked --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One process, one closed-loop client: each operation is one or two calls to
``spcakit.cli.main(argv)``, started only after the previous one returned. With
``--trace 0`` the run reports end-to-end metrics; with ``--trace 1`` every
operation runs twice, untraced then traced, and the run reports per-layer
metrics. The lines printed first give every metric by name with its unit; the
last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the metrics BENCHMARK.json
declares). See README.md in this directory.
"""

import os
import sys

# The thread count must be fixed before NumPy loads its BLAS. One thread (at
# most nproc anywhere) keeps per-layer times attributable and runs steady on a
# shared machine.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("SPCA_THREADS", None)  # sweeps run one worker
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

from tracer import SELF_TIMED, SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_MIN_SECONDS
SETUP_MIN_SECONDS = 2.0
MIN_OPS = 11  # op_s_tail needs ten operations beyond it


def import_cli():
    """Import spcakit.cli from this checkout's src/, never from anywhere else."""
    package = SRC / "spcakit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import spcakit.cli

    if Path(spcakit.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported spcakit from {spcakit.cli.__file__}, not {SRC}")
    return spcakit.cli


class Runner:
    """Runs one workload's operations and checks every output."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.digests = {}  # op key -> sha256 of its first reports
        self.failures = []

    def setup(self, seed):
        """Build inputs and references repeatedly; return (median seconds, set-ups run).

        Each repeat also runs a dense eigh at the workload's largest n, so the
        one-time BLAS/LAPACK set-up is paid here and not by the first timed op.
        """
        rng = np.random.default_rng(seed)
        n = self.workload.largest_n
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_SECONDS:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                self.workload.setup(self.cli.main, seed)
            m = rng.standard_normal((n, n))
            np.linalg.eigh(m + m.T)
            times.append(time.perf_counter() - start)
        return statistics.median(times), len(times)

    def run_op(self, op, tracer=None, op_id=None):
        """Run and check one operation; return (seconds, quality values or None on failure)."""
        for path in op.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        err = io.StringIO()
        rc, crash = 0, None
        if tracer is not None:
            tracer.begin_op(op_id)
            tracer.install()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                for argv in op.argvs:
                    rc = self.cli.main(argv)  # looked up per call, so a traced main is used
                    if rc != 0:
                        break
        except (Exception, SystemExit):  # a crash is a failed operation, not a failed run
            crash = traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if crash is not None or rc != 0:
            reason = f"raised\n{crash}" if crash else f"exit {rc}: {err.getvalue().strip()}"
            self.failures.append(f"{op.key}: {reason}")
            return elapsed, None
        try:
            quality = op.check(op)
            reports = b"".join(Path(p).read_bytes() for p in op.outputs if p.endswith(".json"))
            digest = hashlib.sha256(reports).hexdigest()
            if self.digests.setdefault(op.key, digest) != digest:
                raise ValueError("report differs from the first report of this operation")
        except Exception as exc:  # any broken output counts as a failed operation
            self.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            return elapsed, None
        return elapsed, quality

    def report_failures(self):
        for failure in self.failures:
            print(f"  FAILED {failure}", file=sys.stderr)

    def abort(self, reason):
        """End the run without a result, after listing what failed."""
        self.report_failures()
        raise SystemExit(f"benchmark: {reason}")

    def cycles(self, ops, seconds, min_ops, body):
        """Run whole cycles of ``body(op, index)``; return (seconds taken, ops run).

        Stops at the cycle boundary nearest to ``seconds``, once ``min_ops`` ran.
        """
        start = time.perf_counter()
        count = 0
        while True:
            cycle_start = time.perf_counter()
            for op in ops:
                body(op, count)
                count += 1
            now = time.perf_counter()
            if count >= min_ops and seconds - (now - start) < (now - cycle_start) / 2:
                return now - start, count


def tail(times):
    """Highest percentile with at least ten operations beyond it: (value, percentile)."""
    ordered = sorted(times)
    index = len(ordered) - 11
    return ordered[index], math.floor(100 * (index + 1) / len(ordered))


def measure(runner, seconds):
    """Untraced run: end-to-end metrics as {name: (value, unit, note)}."""
    times, by_key, quality = [], {}, {}

    def body(op, _):
        elapsed, values = runner.run_op(op)
        if values is None:
            elapsed = math.inf  # a failed operation misses any latency limit
        for name, value in (values or {}).items():
            quality.setdefault(name, []).append(value)
        times.append(elapsed)
        by_key.setdefault(op.key, []).append(elapsed)

    wall, count = runner.cycles(runner.workload.cycle(), seconds, MIN_OPS, body)
    failed = sum(1 for t in times if t == math.inf)
    if 2 * failed >= count:
        runner.abort(f"{failed} of {count} operations failed; no median time")
    tail_s, pct = tail(times)
    metrics = {
        "ops_per_s": (count / wall, "1/s", ""),
        "op_s_p50": (statistics.median(times), "s",
                     "  ".join(f"{k} {statistics.median(v):.4f}" for k, v in by_key.items())),
        "op_s_tail": (tail_s, "s", f"p{pct}, 10 of {count} ops beyond"),
        "failed_share": (failed / count, "share", f"{failed}/{count}"),
    }
    for name in ("f_value", "oracle_ratio", "floor_ratio"):
        values = quality.get(name)
        metrics[f"{name}_min"] = (min(values), "ratio", "") if values else (math.nan, "ratio", "not applicable")
    return metrics, count, failed


def measure_traced(runner, seconds):
    """Each op untraced then traced: per-layer metrics as {name: (value, unit, note)}."""
    tracer = Tracer()
    pairs = []  # (untraced s, traced s, op key, traced op id) of pairs where both succeeded

    def body(op, index):
        plain, ok_plain = runner.run_op(op)
        traced, ok_traced = runner.run_op(op, tracer, index)
        if ok_plain is not None and ok_traced is not None:
            pairs.append((plain, traced, op.key, index))

    ops = runner.workload.cycle()
    _, count = runner.cycles(ops, seconds, 1, body)
    if not pairs:
        runner.abort("no operation succeeded both untraced and traced")
    attempted = 2 * count
    failed = len(runner.failures)
    per_op = tracer.op_summary()

    # Call counts and counters must repeat exactly whenever an operation recurs.
    first = {}
    for _, _, key, i in pairs:
        snapshot = ({name: per_op[i][name]["calls"] for name in SPAN_NAMES}, dict(tracer.counts[i]))
        if first.setdefault(key, snapshot) != snapshot:
            runner.failures.append(f"{key}: traced call counts differ between repeats")
            failed += 1

    ids = [i for _, _, _, i in pairs]
    cycles = len(ids) / len(ops)  # whole cycles when nothing failed
    traced_s = sum(p[1] for p in pairs)

    def total(name, field):
        return sum(per_op[i][name][field] for i in ids)

    def counter(name):
        return sum(tracer.counts[i].get(name, 0.0) for i in ids)

    m = {}
    for name in SPAN_NAMES:
        field = "self_s" if name in SELF_TIMED else "s"
        seconds_in = total(name, field)
        m[f"{name}.calls"] = (total(name, "calls") / cycles, "count", "per cycle")
        share = f"{name}.self_share" if name in SELF_TIMED else f"{name}.share"
        m[share] = (seconds_in / traced_s, "share", f"{name}.{field} {seconds_in / cycles:.6f} s per cycle")
    iters, supports = counter("sdp.admm_iters"), counter("oracle.supports")
    solves = total("sdp.solve_sdp_relaxation", "calls")
    admm_s, oracle_s = total("sdp.solve_sdp_relaxation", "s"), total("oracle.exact_spca", "s")
    m["sdp.admm_iters"] = (iters / cycles, "count", "per cycle")
    m["sdp.admm_iters_per_s"] = (iters / admm_s if admm_s else 0.0, "1/s",
                                 f"sdp.admm_iter_ms {1e3 * admm_s / iters:.6f} ms" if iters else "")
    m["sdp.admm_unconverged"] = ((solves - counter("sdp.admm_converged")) / cycles, "count",
                                 f"sdp.admm_converged_share {counter('sdp.admm_converged') / solves:.4f}"
                                 if solves else "")
    m["oracle.supports"] = (supports / cycles, "count", "per cycle")
    m["oracle.supports_per_s"] = (supports / oracle_s if oracle_s else 0.0, "1/s",
                                  f"oracle.us_per_support {1e6 * oracle_s / supports:.6f} us"
                                  if supports else "")
    m["matrix.krylov_dense_fallbacks"] = (counter("matrix.krylov_dense_fallbacks") / cycles, "count",
                                          "per cycle")
    for fn in ("data.save_matrix", "data.load_matrix"):
        seconds_in = total(fn, "s")
        m[f"{fn}.mb_per_s"] = (counter(f"{fn}.bytes") / 1e6 / seconds_in if seconds_in else 0.0,
                               "MB/s", "")
    m["trace.op_s_p50"] = (statistics.median(p[1] for p in pairs), "s",
                           f"untraced {statistics.median(p[0] for p in pairs):.6f} s")
    m["trace_overhead_share"] = (statistics.median(t / u - 1.0 for u, t, _, _ in pairs), "share",
                                 "median over op pairs of traced / untraced - 1")
    return m, attempted, failed, tracer.rebound


def declared_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in spec[kind]]


def run_workload(args):
    cli = import_cli()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)  # reports name their inputs by relative path, so they match across runs
    try:
        runner = Runner(cli, WORKLOADS[args.workload]())
        setup_s, setups = runner.setup(args.seed)
        rebound = {}
        if args.trace:
            metrics, attempted, failed, rebound = measure_traced(runner, args.seconds)
        else:
            metrics, attempted, failed = measure(runner, args.seconds)
            metrics["setup_s"] = (setup_s, "s", f"median of {setups} set-ups")
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (peak_mb, "MB", "")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    digest = hashlib.sha256("".join(sorted(runner.digests.values())).encode()).hexdigest()[:16]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}")
    print(f"  blas_threads {BLAS_THREADS}  nproc {NPROC}  report_digest {digest}")
    for name, modules in sorted(rebound.items()):
        print(f"  traced {name} via {', '.join(modules)}")
    runner.report_failures()
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<36} {value:<14.6g} {unit:<6} {note}".rstrip())

    wanted = declared_metrics("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }))
    return 0


def run_all(args):
    """Run every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(cmd, check=False).returncode or status
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description="spcakit benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

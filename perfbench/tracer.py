"""Span tracing of spcakit's public functions, installed from outside the package.

Each traced function is replaced by a wrapper that records a span (operation
id, span id, parent span id, name, start, end) and, for a few functions, a
counter read from its arguments or result. ``from .matrix import ensure_psd``
gives the importing module its own reference, so a wrapper installed on
``spcakit.matrix`` alone would miss every call made through ``spcakit.sdp``
or ``spcakit.oracle``. :meth:`Tracer.install` therefore rebinds the name in
every ``spcakit`` module that holds the original function object, and
:meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# Traced functions by package module. The modules are the layers.
LAYERS = {
    "cli": ("main",),
    "data": ("load_matrix", "save_matrix", "covariance_from_data", "synthetic_spiked"),
    "matrix": ("ensure_psd", "eigendecompose", "top_l_eigenpairs"),
    "svd_threshold": ("spca_svd",),
    "sdp": (
        "solve_sdp_relaxation",
        "project_psd_trace_ball",
        "project_l1_ball_matrix",
        "rank_one_diagnostics",
        "spca_sdp",
    ),
    "oracle": ("exact_spca",),
    "evaluation": ("evaluate", "sparsity_sweep"),
}

# Functions whose own work is what matters, reported as self time (span time
# minus the time of the traced functions they call).
SELF_TIMED = ("cli.main", "sdp.spca_sdp", "svd_threshold.spca_svd", "evaluation.sparsity_sweep")

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Wraps the functions in :data:`LAYERS` and keeps their spans in memory."""

    def __init__(self):
        self.spans = []  # (op_id, span_id, parent_id, name, start, end)
        self.counts = defaultdict(lambda: defaultdict(float))  # op id -> counter -> value
        self.rebound = {}  # span name -> names of the modules whose binding was replaced
        self._stack = []
        self._op_id = None
        self._saved = []
        self._wrappers = None

    def _build_wrappers(self):
        wrappers = {}
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"spcakit.{layer}")
            for fn_name in fns:
                original = getattr(module, fn_name)
                wrappers[id(original)] = (original, self._wrap(f"{layer}.{fn_name}", original))
        return wrappers

    def install(self):
        """Rebind every traced name in every loaded spcakit module."""
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        rebound = defaultdict(list)
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == "spcakit" or mod_name.startswith("spcakit.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._saved.append((module, attr, value))
                    rebound[entry[1].span_name].append(mod_name)
        missing = [name for name in SPAN_NAMES if name not in rebound]
        if missing:
            self.uninstall()
            raise RuntimeError(f"traced functions not found: {missing}")
        self.rebound = dict(rebound)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def begin_op(self, op_id):
        self._op_id = op_id

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # reserve the id so children can name their parent
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = (self._op_id, span_id, parent, name, start, end)
            if counter is not None:
                counter(self, span_id, args, kwargs, result)
            return result

        functools.update_wrapper(traced, fn)
        traced.span_name = name
        return traced

    def op_summary(self):
        """Per op id and span name: calls, inclusive seconds, self seconds."""
        child_time = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        ops = defaultdict(lambda: {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES})
        for op_id, span_id, _, name, start, end in self.spans:
            entry = ops[op_id][name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += (end - start) - child_time[span_id]
        return ops


def _count_admm(tracer, span_id, args, kwargs, sol):
    tracer.counts[tracer._op_id]["sdp.admm_iters"] += sol.iterations_used
    tracer.counts[tracer._op_id]["sdp.admm_converged"] += bool(sol.converged)


def _count_supports(tracer, span_id, args, kwargs, result):
    tracer.counts[tracer._op_id]["oracle.supports"] += result.instances_enumerated


def _count_krylov_fallback(tracer, span_id, args, kwargs, result):
    # top_l_eigenpairs(A, l, method, ...): the block Krylov path falls back to
    # the full decomposition when its subspace would span the whole space.
    method = args[2] if len(args) > 2 else kwargs.get("method", "exact")
    if method == "block_krylov" and any(
        s[2] == span_id and s[3] == "matrix.eigendecompose" for s in tracer.spans[span_id + 1:]
    ):
        tracer.counts[tracer._op_id]["matrix.krylov_dense_fallbacks"] += 1


def _count_file_bytes(key):
    def count(tracer, span_id, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        tracer.counts[tracer._op_id][key] += os.path.getsize(path)

    return count


_COUNTERS = {
    "sdp.solve_sdp_relaxation": _count_admm,
    "oracle.exact_spca": _count_supports,
    "matrix.top_l_eigenpairs": _count_krylov_fallback,
    "data.save_matrix": _count_file_bytes("data.save_matrix.bytes"),
    "data.load_matrix": _count_file_bytes("data.load_matrix.bytes"),
}

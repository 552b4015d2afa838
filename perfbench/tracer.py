"""Span tracer that wraps the package's public functions from outside.

The program has no timer of its own. :func:`install` rebinds every public
function of the layer modules, both in its defining module and in every
module that imported it by name, plus the public methods of
``SparseCoeff``, to a wrapper that records a span (name, start, end,
parent) in memory. :func:`layer_metrics` turns the spans of one traced
region into the per-layer metrics; :func:`uninstall` restores the originals.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import logging
import os
import time

import numpy as np

LAYERS = ("linalg", "coding", "solver", "bench", "io", "cli")

# metric name -> unit; layer_metrics documents how each value is computed
PER_LAYER = {
    "linalg.least_squares.calls": "count",
    "linalg.least_squares.self_s": "s",
    "linalg.least_squares.mean_k": "atoms",
    "linalg.solve_gram.calls": "count",
    "linalg.solve_gram.self_s": "s",
    "linalg.solve_gram.ridged": "count",
    "linalg.rank1_svd.calls": "count",
    "linalg.rank1_svd.self_s": "s",
    "linalg.rank1_svd.unconverged": "count",
    "solver.amplitude_adjust.calls": "count",
    "solver.amplitude_adjust.self_s": "s",
    "solver.amplitude_adjust.dict_half_s": "s",
    "solver.amplitude_adjust.coef_half_s": "s",
    "coding.block_omp.calls": "count",
    "coding.block_omp.self_s": "s",
    "coding.block_omp.total_s": "s",
    "coding.dict_approx_init.self_s": "s",
    "coding.dict_approx_init.dict_ls_s": "s",
    "coding.omp.calls": "count",
    "coding.omp.self_s": "s",
    "coding.omp.total_s": "s",
    "coding.reseed_dead_atoms.atoms": "count",
    "solver.ksvd.self_s": "s",
    "solver.ksvd.total_s": "s",
    "solver.inner_row_switch.calls": "count",
    "solver.inner_row_switch.self_s": "s",
    "solver.inter_row_switch.calls": "count",
    "solver.inter_row_switch.self_s": "s",
    "solver.inter_row_switch.changed_frac": "frac",
    "solver.batch_svd.self_s": "s",
    "solver.batch_svd.outer_rounds": "count",
    "solver.batch_svd.inter_fired": "count",
    "coding.SparseCoeff.calls": "count",
    "coding.SparseCoeff.self_s": "s",
    "coding.SparseCoeff.to_dense.calls": "count",
    "coding.SparseCoeff.to_dense.self_s": "s",
    "bench.run_benchmark.self_s": "s",
    "bench.extract_patches.self_s": "s",
}
IO_FUNCS = ("load_matrix", "save_matrix", "save_sparse", "load_pgm", "write_report_json")
for _f in IO_FUNCS:
    PER_LAYER[f"io.{_f}.self_s"] = "s"
    PER_LAYER[f"io.{_f}.bytes"] = "bytes"

# metrics that are exact counts and must repeat run to run
DETERMINISTIC = tuple(
    k for k, u in PER_LAYER.items()
    if u in ("count", "bytes", "atoms", "frac")
)


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path)


def _gram_k(args, kwargs, result):
    return np.shape(args[0])[1]


def _unconverged(args, kwargs, result):
    return 0 if result.converged else 1


def _changed(args, kwargs, result):
    before = (list(args[1].support), list(args[2].support))
    after = (list(result[0].support), list(result[1].support))
    return int(before != after)


# per-function number taken from each call's arguments or result, summed
NOTES = {"io." + f: _file_bytes for f in IO_FUNCS}
NOTES.update({
    "linalg.least_squares": _gram_k,
    "linalg.rank1_svd": _unconverged,
    "solver.inter_row_switch": _changed,
    "coding.reseed_dead_atoms": lambda args, kwargs, result: result,
})


class _RidgeCounter(logging.Handler):
    """Counts the ridge fallbacks that ``solve_gram`` logs at debug level."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("gram solve"):
            self.count += 1


class Tracer:
    """In-memory span store; one instance per traced process."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_index, note]
        self._stack = []
        self._saved = []  # (owner, attribute, original)
        self._saved_level = logging.NOTSET
        self.ridges = _RidgeCounter()
        self.batch_traces = []  # ObjectiveTrace returned by each batch_svd

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)
        keep_trace = name == "solver.batch_svd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            if keep_trace:
                self.batch_traces.append(result[2])
            return result

        return wrapper

    def install(self):
        """Wrap every public layer function and ``SparseCoeff`` method."""
        pkg = importlib.import_module("batchsvd")
        mods = {layer: importlib.import_module(f"batchsvd.{layer}") for layer in LAYERS}
        originals = {}  # original function -> wrapper
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                originals[obj] = self._wrap(f"{layer}.{attr}", obj)
        # rebind in the defining module and in every module that imported it
        for mod in [pkg, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, originals[obj])
        cls = mods["coding"].SparseCoeff
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"coding.SparseCoeff.{attr}"
            if inspect.isfunction(obj):
                new = self._wrap(name, obj)
            elif isinstance(obj, classmethod):
                new = classmethod(self._wrap(name, obj.__func__))
            elif isinstance(obj, property):
                new = property(self._wrap(name, obj.fget))
            else:
                continue
            self._saved.append((cls, attr, obj))
            setattr(cls, attr, new)
        linalg_log = logging.getLogger("batchsvd.linalg")
        self._saved_level = linalg_log.level
        linalg_log.setLevel(logging.DEBUG)
        linalg_log.addHandler(self.ridges)

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()
        linalg_log = logging.getLogger("batchsvd.linalg")
        linalg_log.removeHandler(self.ridges)
        linalg_log.setLevel(self._saved_level)

    # -- regions ----------------------------------------------------------
    def mark(self):
        """Opaque position; spans and counters after it form one region."""
        return len(self.spans), self.ridges.count, len(self.batch_traces)


def _inter_fired(trace) -> int:
    """Outer rounds whose segment of the trace holds an ``inter`` entry."""
    fired, seen = 0, False
    for phase, _ in trace.entries():
        if phase == "inter":
            seen = True
        elif phase == "outer":
            fired += seen
            seen = False
    return fired


def layer_metrics(tracer: Tracer, start, end) -> dict:
    """Per-layer metrics over the spans recorded between two marks.

    ``self_s`` is a span's duration minus its direct children's durations;
    ``total_s`` is the duration. ``dict_half_s`` / ``coef_half_s`` are the
    ``solve_gram`` / ``least_squares`` time whose parent span is
    ``amplitude_adjust``; ``dict_ls_s`` is the ``solve_gram`` time under
    ``dict_approx_init``. ``changed_frac`` is the share of
    ``inter_row_switch`` calls that moved a support.
    """
    s0, r0, b0 = start
    s1, r1, b1 = end
    spans = tracer.spans
    calls, total, child, notes = {}, {}, {}, {}
    under = {}  # (child name, parent name) -> seconds
    for idx in range(s0, s1):
        name, t0, t1, parent, note = spans[idx]
        dur = (t1 - t0) * 1e-9
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        notes[name] = notes.get(name, 0) + note
        if parent >= 0:
            pname = spans[parent][0]
            child[parent] = child.get(parent, 0.0) + dur
            under[(name, pname)] = under.get((name, pname), 0.0) + dur
    self_s = {}
    for idx in range(s0, s1):
        name, t0, t1 = spans[idx][:3]
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) * 1e-9 - child.get(idx, 0.0)

    def c(name):
        return calls.get(name, 0)

    def sf(name):
        return self_s.get(name, 0.0)

    sc_names = [n for n in calls if n.startswith("coding.SparseCoeff.")]
    batch = tracer.batch_traces[b0:b1]
    ls_calls = c("linalg.least_squares")
    inter_calls = c("solver.inter_row_switch")
    out = {
        "linalg.least_squares.calls": ls_calls,
        "linalg.least_squares.self_s": sf("linalg.least_squares"),
        "linalg.least_squares.mean_k":
            notes.get("linalg.least_squares", 0) / ls_calls if ls_calls else 0.0,
        "linalg.solve_gram.calls": c("linalg.solve_gram"),
        "linalg.solve_gram.self_s": sf("linalg.solve_gram"),
        "linalg.solve_gram.ridged": r1 - r0,
        "linalg.rank1_svd.calls": c("linalg.rank1_svd"),
        "linalg.rank1_svd.self_s": sf("linalg.rank1_svd"),
        "linalg.rank1_svd.unconverged": notes.get("linalg.rank1_svd", 0),
        "solver.amplitude_adjust.calls": c("solver.amplitude_adjust"),
        "solver.amplitude_adjust.self_s": sf("solver.amplitude_adjust"),
        "solver.amplitude_adjust.dict_half_s":
            under.get(("linalg.solve_gram", "solver.amplitude_adjust"), 0.0),
        "solver.amplitude_adjust.coef_half_s":
            under.get(("linalg.least_squares", "solver.amplitude_adjust"), 0.0),
        "coding.block_omp.calls": c("coding.block_omp"),
        "coding.block_omp.self_s": sf("coding.block_omp"),
        "coding.block_omp.total_s": total.get("coding.block_omp", 0.0),
        "coding.dict_approx_init.self_s": sf("coding.dict_approx_init"),
        "coding.dict_approx_init.dict_ls_s":
            under.get(("linalg.solve_gram", "coding.dict_approx_init"), 0.0),
        "coding.omp.calls": c("coding.omp"),
        "coding.omp.self_s": sf("coding.omp"),
        "coding.omp.total_s": total.get("coding.omp", 0.0),
        "coding.reseed_dead_atoms.atoms": notes.get("coding.reseed_dead_atoms", 0),
        "solver.ksvd.self_s": sf("solver.ksvd"),
        "solver.ksvd.total_s": total.get("solver.ksvd", 0.0),
        "solver.inner_row_switch.calls": c("solver.inner_row_switch"),
        "solver.inner_row_switch.self_s": sf("solver.inner_row_switch"),
        "solver.inter_row_switch.calls": inter_calls,
        "solver.inter_row_switch.self_s": sf("solver.inter_row_switch"),
        "solver.inter_row_switch.changed_frac":
            notes.get("solver.inter_row_switch", 0) / inter_calls if inter_calls else 0.0,
        "solver.batch_svd.self_s": sf("solver.batch_svd"),
        "solver.batch_svd.outer_rounds": sum(len(t.values("outer")) - 1 for t in batch),
        "solver.batch_svd.inter_fired": sum(_inter_fired(t) for t in batch),
        "coding.SparseCoeff.calls": sum(calls[n] for n in sc_names),
        "coding.SparseCoeff.self_s": sum(sf(n) for n in sc_names),
        "coding.SparseCoeff.to_dense.calls": c("coding.SparseCoeff.to_dense"),
        "coding.SparseCoeff.to_dense.self_s": sf("coding.SparseCoeff.to_dense"),
        "bench.run_benchmark.self_s": sf("bench.run_benchmark"),
        "bench.extract_patches.self_s": sf("bench.extract_patches"),
    }
    for f in IO_FUNCS:
        out[f"io.{f}.self_s"] = sf(f"io.{f}")
        out[f"io.{f}.bytes"] = notes.get(f"io.{f}", 0)
    return out

"""Tracing from outside the program, and the per-layer metrics.

The package's modules import each other with ``from ... import``, so a
function is rebound in every module whose code looks it up, not only in
the module that defines it. Each call then records a span: name, start,
end, parent span and one number (the mode of a factor update, or the
bytes of an unfolding's input or a tensor file). Spans live in flat
arrays and are written out once, when the run ends.
"""

import functools
import os
import time
from array import array

import numpy as np

import beta_ntd.cli
import beta_ntd.segmentation
import beta_ntd.solver
import beta_ntd.tensor_ops
import beta_ntd.tfb


def _mode(args, kwargs):
    return args[2]


def _input_bytes(args, kwargs):
    return np.asarray(args[0]).nbytes


def _file_bytes(args, kwargs):
    return os.path.getsize(args[0])


# (module or class, attribute, span name, extra number recorded per call)
PATCHES = [
    (beta_ntd.cli, "main", "cli.main", None),
    (beta_ntd.cli, "solve", "solver.solve", None),
    (beta_ntd.solver, "solve", "solver.solve", None),
    (beta_ntd.cli, "read_tensor", "tensor_ops.read_tensor", _file_bytes),
    (beta_ntd.cli, "write_tensor", "tensor_ops.write_tensor", None),
    (beta_ntd.cli, "write_matrix", "tensor_ops.write_matrix", None),
    (beta_ntd.tfb, "read_spectrogram", "tfb.read_spectrogram", None),
    (beta_ntd.tfb, "read_bars", "tfb.read_bars", None),
    (beta_ntd.tfb, "nnlms", "tfb.nnlms", None),
    (beta_ntd.tfb, "build_tfb", "tfb.build_tfb", None),
    (beta_ntd.segmentation, "bar_autosimilarity", "segmentation.bar_autosimilarity", None),
    (beta_ntd.segmentation, "segment_bars", "segmentation.segment_bars", None),
    (beta_ntd.segmentation, "bars_to_seconds", "segmentation.bars_to_seconds", None),
    (beta_ntd.segmentation, "write_boundaries", "segmentation.write_boundaries", None),
    (beta_ntd.solver, "iterate", "solver.iterate", None),
    (beta_ntd.solver, "update_mode_factor", "solver.update_mode_factor", _mode),
    (beta_ntd.solver, "update_core", "solver.update_core", None),
    (beta_ntd.solver, "init_factors", "solver.init_factors", None),
    (beta_ntd.solver.FactorSet, "approximation", "solver.approximation", None),
    (beta_ntd.solver, "objective", "divergence.objective", None),
    (beta_ntd.solver, "contracted_unfolding", "tensor_ops.contracted_unfolding", None),
    (beta_ntd.solver, "matricize", "tensor_ops.matricize", _input_bytes),
    (beta_ntd.solver, "multiway_product", "tensor_ops.multiway_product", None),
    (beta_ntd.solver, "ew_power", "tensor_ops.ew_power", None),
    (beta_ntd.solver, "clamp_min", "tensor_ops.clamp_min", None),
    (beta_ntd.tensor_ops, "matricize", "tensor_ops.matricize", _input_bytes),
    (beta_ntd.tensor_ops, "mode_product", "tensor_ops.mode_product", None),
]


class Tracer:
    """Spans in flat arrays; ``names[code]`` is a span's name."""

    def __init__(self):
        self.names = []
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.extra = array("d")
        self._stack = [-1]
        self._saved = []

    def wrap(self, fn, name, extra=None):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.code)
            self.code.append(code)
            self.parent.append(stack[-1])
            self.extra.append(extra(args, kwargs) if extra else 0.0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()

        return traced

    def install(self):
        for owner, attr, name, extra in PATCHES:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, name, extra))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, path):
        """Save the spans as compressed numpy arrays: span i has name
        ``names[code[i]]``, perf_counter ``start[i]``/``end[i]`` in
        seconds, ``parent[i]`` (-1 at the top) and ``extra[i]``."""
        np.savez_compressed(
            path, names=np.array(self.names), code=self.code, start=self.start,
            end=self.end, parent=self.parent, extra=self.extra,
        )


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def per_layer(tracer, ops):
    """
    Per-layer metrics from the spans of the timed operations.

    `ops` holds one ``(first span, end span, solver iterations)`` triple per
    operation. "_ms"/"_s" figures are medians per call (solver and
    contraction layers) or per operation (I/O, TFB, segmentation, CLI);
    "_per_iter" figures are an operation's total over its iterations, with
    the median taken over operations. A layer that a workload never calls
    reads 0.
    """
    names = tracer.names
    code = np.frombuffer(tracer.code, dtype=np.uint16)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    extra = np.frombuffer(tracer.extra)
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], dur[has_parent], minlength=dur.size)

    def mask(name):
        return code == names.index(name) if name in names else np.zeros(code.size, bool)

    def per_call(name, values=dur, where=None):
        m = mask(name) if where is None else mask(name) & where
        return _median(values[m])

    def per_op(name, values=dur, per_iter=False):
        m = mask(name)
        out = []
        for lo, hi, iters in ops:
            total = float(values[lo:hi][m[lo:hi]].sum())
            out.append(total / iters if per_iter else total)
        return _median(out)

    def calls_per_iter(name):
        return per_op(name, np.ones(code.size), per_iter=True)

    ms, mb = 1e3, 1e-6
    read = mask("tensor_ops.read_tensor")
    read_s = float(dur[read].sum())
    metrics = {
        "solver.mode1_ms": per_call("solver.update_mode_factor", where=extra == 1) * ms,
        "solver.mode2_ms": per_call("solver.update_mode_factor", where=extra == 2) * ms,
        "solver.mode3_ms": per_call("solver.update_mode_factor", where=extra == 3) * ms,
        "solver.core_ms": per_call("solver.update_core") * ms,
        "solver.approximation_calls_per_iter": calls_per_iter("solver.approximation"),
        "solver.approximation_ms": per_call("solver.approximation") * ms,
        "solver.iterate_self_ms": per_call("solver.iterate", self_time) * ms,
        "solver.solve_self_ms_per_iter": per_op("solver.solve", self_time, per_iter=True) * ms,
        "divergence.objective_ms": per_call("divergence.objective") * ms,
        "divergence.objective_calls_per_iter": calls_per_iter("divergence.objective"),
        "tensor_ops.matricize_calls_per_iter": calls_per_iter("tensor_ops.matricize"),
        "tensor_ops.matricize_ms_per_iter": per_op("tensor_ops.matricize", per_iter=True) * ms,
        "tensor_ops.matricize_mb_per_iter": per_op("tensor_ops.matricize", extra, per_iter=True) * mb,
        "tensor_ops.contracted_unfolding_ms": per_call("tensor_ops.contracted_unfolding") * ms,
        "tensor_ops.mode_product_calls_per_iter": calls_per_iter("tensor_ops.mode_product"),
        "tensor_ops.ew_power_calls_per_iter": calls_per_iter("tensor_ops.ew_power"),
        "tensor_ops.ew_power_ms_per_iter": per_op("tensor_ops.ew_power", per_iter=True) * ms,
        "tensor_ops.read_tensor_s": per_op("tensor_ops.read_tensor"),
        "tensor_ops.read_mb_per_s": float(extra[read].sum()) * mb / read_s if read_s else 0.0,
        "tensor_ops.write_tensor_s": per_op("tensor_ops.write_tensor"),
        "tensor_ops.write_matrix_s": per_op("tensor_ops.write_matrix"),
        "tfb.read_spectrogram_s": per_op("tfb.read_spectrogram"),
        "tfb.nnlms_ms": per_op("tfb.nnlms") * ms,
        "tfb.build_tfb_ms": per_op("tfb.build_tfb") * ms,
        "segmentation.bar_autosimilarity_ms": per_op("segmentation.bar_autosimilarity") * ms,
        "segmentation.segment_bars_ms": per_op("segmentation.segment_bars") * ms,
        "cli.self_s": per_op("cli.main", self_time),
    }
    return metrics

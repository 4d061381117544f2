"""Traced child: wrap qkring's layers from outside, run one operation, write
the trace at exit.

Usage: python bench/shim.py TRACE_FILE OP_ID CALL_JSON

Every public function of a measured module is replaced, in every qkring
namespace that binds it, by a wrapper that records a span: id, parent span,
name, start, end and self time (duration minus the time of wrapped calls
inside it).  Hot leaf arithmetic (LEAVES) keeps only an in-memory call count
and summed time per name, because one span per call would dominate the run.
Spans stay in memory and are written to TRACE_FILE when the operation ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import operation

# Each module is a layer.  cohomology and report are on no workload's
# measured path and are deliberately left unwrapped.
MEASURED = ("adams", "cli", "intmath", "intmatrix", "kring", "lens", "repring",
            "truncation")

# (module, class or None, attribute) -> counter name.  A call to any of these,
# and any wrapped call made inside one, is counted instead of spanned.
LEAVES = {
    ("intmath", "CyclotomicInt", "__mul__"): "intmath.cyclo_mul",
    ("intmath", "CyclotomicInt", "__add__"): "intmath.cyclo_add",
    ("intmath", "CyclotomicInt", "conj"): "intmath.cyclo_conj",
    ("intmath", "IntPoly", "compose"): "intmath.intpoly_compose",
    ("intmath", None, "binomial"): "intmath.binomial",
    ("kring", "Rule", "applies_to"): "kring.rule_applies_to",
    ("kring", None, "apply_rule_once"): "kring.apply_rule_once",
    ("kring", None, "fp_add_term"): "kring.fp_add_term",
}

# lru caches whose hit ratio is reported, read from the original objects.
CACHES = (("repring", "_character_table"), ("kring", "relations_for"))


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent id or None, name, start, end, self_s]
        self.leaves = {}  # name -> [calls, total_s, self_s]
        self.stack = []  # open frames: [span id or None, start, child_s]
        self.snf_max_bits = 0

    def _enter(self, span_id):
        frame = [span_id, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame[1]
        if self.stack:
            self.stack[-1][2] += duration
        return end, duration, duration - frame[2]

    def _in_leaf(self) -> bool:
        return bool(self.stack) and self.stack[-1][0] is None

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def leaf(self, name: str, fn):
        stats = self.leaves.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(None)
            try:
                return fn(*args, **kwargs)
            finally:
                _, duration, self_s = self._leave(frame)
                stats[0] += 1
                stats[1] += duration
                stats[2] += self_s
        return wrapper

    def span(self, name: str, fn, after=None):
        as_leaf = self.leaf(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_leaf():
                return as_leaf(*args, **kwargs)
            span_id = len(self.spans)
            record = [span_id, self._parent_span(), name, 0.0, 0.0, 0.0]
            self.spans.append(record)
            frame = self._enter(span_id)
            record[3] = frame[1]
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4], _, record[5] = self._leave(frame)
            if after is not None:
                after(result)
            return result
        return wrapper

    def record_snf_bits(self, snf):
        for matrix in (snf.D, snf.U, snf.V):
            for row in matrix:
                for entry in row:
                    self.snf_max_bits = max(self.snf_max_bits, abs(entry).bit_length())


def _rebind(modules, original, replacement):
    """Point every name bound to ``original`` in ``modules`` at ``replacement``."""
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


def install(tracer: Tracer):
    """Wrap the measured layers; return the original cached functions."""
    import qkring

    layers = {name: importlib.import_module(f"qkring.{name}") for name in MEASURED}
    namespaces = [qkring] + list(layers.values())
    caches = {f"{m}.{f}": getattr(layers[m], f) for m, f in CACHES}
    for (module_name, class_name, attr), counter in LEAVES.items():
        if class_name is None:
            continue
        cls = getattr(layers[module_name], class_name)
        original = cls.__dict__[attr]
        wrapped = tracer.leaf(counter, original)
        for name, value in list(vars(cls).items()):  # e.g. __rmul__ = __mul__
            if value is original:
                setattr(cls, name, wrapped)
    for module_name, module in layers.items():
        for name, obj in list(vars(module).items()):
            if (name.startswith("_") or inspect.isclass(obj) or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            counter = LEAVES.get((module_name, None, name))
            if counter is not None:
                wrapped = tracer.leaf(counter, obj)
            elif (module_name, name) == ("intmatrix", "smith_normal_form"):
                wrapped = tracer.span(f"{module_name}.{name}", obj,
                                      after=tracer.record_snf_bits)
            else:
                wrapped = tracer.span(f"{module_name}.{name}", obj)
            _rebind(namespaces, obj, wrapped)
    return caches


def main(trace_file: str, op_id: str, call: dict) -> int:
    tracer = Tracer()
    caches = install(tracer)
    try:
        return operation.run(call)
    finally:
        trace = {
            "op": op_id,
            "spans": tracer.spans,
            "leaves": {name: stats for name, stats in tracer.leaves.items() if stats[0]},
            "caches": {name: [fn.cache_info().hits, fn.cache_info().misses]
                       for name, fn in caches.items()},
            "snf_max_bits": tracer.snf_max_bits,
        }
        with open(trace_file, "w") as fh:
            json.dump(trace, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], json.loads(sys.argv[3])))

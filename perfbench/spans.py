"""In-memory span recorder and the layer instrumentation of the traced run.

A span is one call into a layer: its name, start, end, parent span and the
request (decision) it belongs to.  Spans stay in memory and are written out
when the run ends.  The instrumentation wraps the public layer functions of
``scatterpoly`` from the outside, in every module namespace that holds them,
so ``src/`` needs no tracing code of its own.  It also counts calls to the
scalar methods of ``FieldCtx``, which are too many to record as spans.

The recorder is single-threaded: traced code runs at ``jobs=1``.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, function, span name) for every layer boundary that gets a span.
LAYER_FUNCTIONS = (
    ("field", "build_field", "field.build"),
    ("linpoly", "evaluate_many", "linpoly.evaluate_many"),
    ("linpoly", "rho_transform", "linpoly.rho_transform"),
    ("scatter", "is_scattered_bruteforce", "scatter.oracle"),
    ("scatter", "is_permutation", "scatter.permutation"),
    ("scatter", "scattered_via_pp", "scatter.pp"),
    ("cyclotomic", "coefficient_table", "cyclotomic.coefficient_table"),
    ("criteria", "applicable_criteria", "criteria.dispatch"),
    ("criteria", "index_shift_reduction", "criteria.reduction"),
    ("verify", "coset_multipliers_consistent", "verify.coset_check"),
    ("cli", "main", "cli.request"),
)

SCALAR_METHODS = (
    "encode", "element_from_dlog", "element_from_encoding", "element_from_coeffs",
    "zero", "one", "minus_one", "add", "neg", "sub", "mul", "inv", "frobenius",
    "element_order", "relative_norm", "in_base_subfield",
)

_MODULES = ("field", "linpoly", "cyclotomic", "scatter", "criteria", "verify", "cli")


class Recorder:
    """Spans and counters of one traced stretch of work."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.tags: dict[int, str] = {}
        self.counters: Counter = Counter()
        self.request_id = -1
        self.active = True
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def rows(self) -> list[list]:
        """Spans as [name, start, end, parent, request] rows, for writing out."""
        return [list(r) for r in zip(self.names, self.starts, self.ends,
                                     self.parents, self.requests)]


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[idx], ends[idx]))
    return [ends[i] - starts[i] - union_length(children.get(i, ()), starts[i], ends[i])
            for i in range(len(starts))]


def _table_bytes(ctx) -> int:
    """Bytes held by a field's numpy tables, whatever they are called."""
    return sum(v.nbytes for v in vars(ctx).values() if hasattr(v, "nbytes"))


def _note(span: str, rec: Recorder, idx: int, args, result) -> None:
    """Counters measured at a layer boundary from its arguments and result."""
    c = rec.counters
    if span == "field.build":
        c["field.table_bytes"] += _table_bytes(result)
        c["field.elements"] += result.size
    elif span == "linpoly.evaluate_many":
        # Computed from array sizes: the input and output vectors plus one
        # antilog-table entry per term per point.
        ctx, s, dlogs = args[:3]
        entry = getattr(ctx, "_antilog", result).itemsize
        c["linpoly.points"] += dlogs.size
        c["linpoly.bytes"] += dlogs.nbytes + result.nbytes + dlogs.size * s.k * entry
    elif span == "scatter.oracle":
        c["scatter.points_scanned"] += result.projective_points
        c["scatter.distinct_ratio_values"] += result.distinct_ratio_values
        rec.tags[idx] = "scattered" if result.scattered else "not_scattered"
    elif span == "cyclotomic.coefficient_table":
        c["cyclotomic.cosets"] += len(result.A)
    elif span == "criteria.dispatch":
        t = args[2]
        if any(v.applicable and v.verdict_for_index(t) is not None for v in result):
            c["criteria.deciding_dispatches"] += 1


def _span_wrapper(tracer: "Tracer", fn, span: str):
    def wrapper(*args, **kwargs):
        rec = tracer.rec
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        _note(span, rec, idx, args, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _count_wrapper(tracer: "Tracer", fn):
    def wrapper(*args, **kwargs):
        rec = tracer.rec
        if rec.active:
            rec.counters["field.scalar_calls"] += 1
        return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


class Tracer:
    """Installs the layer wrappers and routes them to the current recorder."""

    def __init__(self):
        self.rec = Recorder()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        mods = [importlib.import_module(f"scatterpoly.{m}") for m in _MODULES]
        mods.append(importlib.import_module("scatterpoly"))
        for mod_name, attr, span in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(f"scatterpoly.{mod_name}"), attr)
            wrapper = _span_wrapper(self, original, span)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)
        field_ctx = importlib.import_module("scatterpoly.field").FieldCtx
        for name in SCALAR_METHODS:
            original = field_ctx.__dict__[name]
            self._patched.append((field_ctx, name, original))
            setattr(field_ctx, name, _count_wrapper(self, original))

    def uninstall(self) -> None:
        while self._patched:
            obj, name, original = self._patched.pop()
            setattr(obj, name, original)


def summarize(rec: Recorder) -> dict:
    """Busy time, self time and call count per span name, plus the counters."""
    selfs = self_times(rec.starts, rec.ends, rec.parents)
    busy: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for idx, name in enumerate(rec.names):
        busy[name] += rec.ends[idx] - rec.starts[idx]
        own[name] += selfs[idx]
        calls[name] += 1
        tag = rec.tags.get(idx)
        if tag is not None:
            own[f"{name}.{tag}"] += selfs[idx]
    roots = sum(rec.ends[i] - rec.starts[i]
                for i, parent in enumerate(rec.parents) if parent < 0)
    return {"busy": busy, "self": own, "calls": calls,
            "counters": rec.counters, "root_s": roots}

"""In-memory spans around calls into qcover's public functions.

``Tracer.install`` rebinds each traced function, in every loaded qcover
module that holds a reference to it, to a wrapper that records one span per
call: name, start, end, parent span and operation id.  Nested calls become
child spans, so a span's self time is its duration minus its children's.
Spans stay in memory until the run writes them out.  Untraced runs never
install the tracer, so they call the program unchanged.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

# Traced public functions, as (module, attribute) -> span name.  The span
# name is "<layer>.<function>", the layer being the qcover module.
SPANS = {
    ("qcover.fileio", "parse_facets"): "fileio.parse_facets",
    ("qcover.fileio", "complex_digest"): "fileio.complex_digest",
    ("qcover.complexes", "new_complex"): "complexes.new_complex",
    ("qcover.quasiforest", "is_quasi_tree"): "quasiforest.is_quasi_tree",
    ("qcover.quasiforest", "leaf_order"): "quasiforest.leaf_order",
    ("qcover.quasiforest", "relation_tree"): "quasiforest.relation_tree",
    ("qcover.cycles", "find_special_odd_cycle"): "cycles.find_special_odd_cycle",
    ("qcover.covers", "witness_cover_from_cycle"): "covers.witness_cover_from_cycle",
    ("qcover.covers", "decompose_cover"): "covers.decompose_cover",
    ("qcover.covers", "indecomposable_covers"): "covers.indecomposable_covers",
    ("qcover.gradedness", "is_standard_graded"): "gradedness.is_standard_graded",
    ("qcover.gradedness", "brute_force_verdict"): "gradedness.brute_force_verdict",
    ("qcover.gradedness", "cross_validate"): "gradedness.cross_validate",
}
# Methods traced on their class, as (module, class, method) -> span name.
METHOD_SPANS = {
    ("qcover.gradedness", "Verdict", "to_dict"): "gradedness.Verdict.to_dict",
}
# Functions only counted: they run too often for a span each.
COUNTED = {("qcover.complexes", "smd"): "complexes.smd.calls"}


def _count_result(name, args, kwargs, result, counts):
    if name == "cycles.find_special_odd_cycle":
        counts["cycles.found"] += result is not None
    elif name == "covers.indecomposable_covers":
        cx = args[0] if args else kwargs["cx"]
        k = args[1] if len(args) > 1 else kwargs["k"]
        cap = 1 if k == 0 else k
        # computed, not measured: the size of the box the search ranges over
        counts["covers.box_rows"] += (cap + 1) ** len(cx.active_vertices)
        counts["covers.found"] += len(result)


class Tracer:
    """Records spans for one process; create one per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.failed_in: dict = {}  # op id -> innermost span an exception left
        self.op = None
        self._stack: list[int] = []
        self._bindings: list[tuple] = []  # (owner, attr, original, wrapper)
        for (mod_name, attr), name in SPANS.items():
            original = getattr(importlib.import_module(mod_name), attr)
            self._bind(original, self._wrap(name, original))
        for (mod_name, attr), name in COUNTED.items():
            original = getattr(importlib.import_module(mod_name), attr)
            self._bind(original, self._counter(name, original))
        for (mod_name, cls_name, attr), name in METHOD_SPANS.items():
            cls = getattr(importlib.import_module(mod_name), cls_name)
            original = vars(cls)[attr]
            self._bindings.append((cls, attr, original, self._wrap(name, original)))

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = time.perf_counter()
                tracer.failed_in.setdefault(tracer.op, name)
                raise
            finally:
                tracer._stack.pop()
            span[2] = time.perf_counter()
            _count_result(name, args, kwargs, result, tracer.counts)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _bind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qcover" and not mod_name.startswith("qcover."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._bindings.append((mod, attr, original, replacement))

    def install(self) -> None:
        """Rebind the traced functions to their wrappers."""
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def run(self, op, fn, *args, name: str = "op"):
        """Call fn(*args) as operation ``op`` under a root span ``name``."""
        self.op = op
        try:
            return self._wrap(name, fn)(*args)
        finally:
            self.op = None

    def export(self) -> dict:
        """Spans, counts and failure layers, for a parent process to adopt."""
        return {"spans": self.spans, "counts": self.counts, "failed_in": list(self.failed_in.values())}

    def adopt(self, recorded: dict, parent: int, op) -> None:
        """Take in what a child process exported, under span ``parent``.

        perf_counter reads the system-wide monotonic clock on Linux, so the
        child's times line up with this process's.
        """
        base = len(self.spans)
        for name, start, end, par, _ in recorded["spans"]:
            self.spans.append([name, start, end, parent if par is None else base + par, op])
        self.counts.update(recorded["counts"])
        for name in recorded["failed_in"]:
            self.failed_in[op] = name

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )

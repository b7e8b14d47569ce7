"""Spans around the calls into each layer, recorded from outside the program.

A hook replaces a module-level name that its callers resolve at call time,
such as ``behametric.lifting.solve_transportation``, with a wrapper that
records a span: name, parent span, start, end, a size, and whether an
enclosing span already has the same name.  The layer of a span is the part
of its name before the first dot.  A hook whose target no longer exists is
skipped and reported, so the metrics built on it read as missing.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter


def _cells(inst, *args, **kwargs):
    return sum(1 for row in inst.cost for v in row if not v.is_infinite)


def _rows(lp, *args, **kwargs):
    return len(lp.constraints)


# (module under behametric, attribute, span name, size of the call)
HOOKS = (
    ("coalgebra", "load_system", "coalgebra.load", None),
    ("coalgebra", "PseudometricTable", "functors.table", None),
    ("fixpoint", "behavioral_distances", "fixpoint.solve", None),
    ("fixpoint", "_round_value", "fixpoint.round", None),
    ("fixpoint", "PseudometricTable", "functors.table", None),
    ("fixpoint", "LiftingEngine", "lifting.engine", None),
    ("lifting", "LiftingEngine", "lifting.engine", None),
    ("lifting", "kantorovich_linear_value", "lifting.kantorovich", None),
    ("lifting", "solve_transportation", "lp.transport", _cells),
    ("lifting", "solve_max", "lp.solve_max", _rows),
    ("suites", "run_suite", "suites.run", None),
    ("suites", "random_pseudometric", "suites.gen", None),
    ("suites", "random_structure", "suites.gen", None),
    ("suites", "random_distribution", "suites.gen", None),
    ("suites", "node_catalogue", "suites.gen", None),
    ("suites", "PseudometricTable", "functors.table", None),
    ("suites", "LiftingEngine", "lifting.engine", None),
    ("suites", "check_well_behaved", "lifting.well_behaved", None),
    ("suites", "solve_max", "lp.solve_max", _rows),
    ("suites", "wasserstein_oracle", "oracle.wasserstein", None),
    ("suites", "kantorovich_vertex_oracle", "oracle.vertex", None),
    ("cli", "matrix_to_csv", "cli.render", None),
)


class Tracer:
    """Spans of one traced section, kept in memory in start order."""

    def __init__(self):
        self.spans = []  # (name, parent index, start, end, size, outer)
        self._stack = []
        self._active = Counter()

    def wrap(self, name, fn, size=None):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            outer = not active[name]
            amount = size(*args, **kwargs) if size else 0
            spans.append(None)
            stack.append(index)
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                spans[index] = (name, parent, start, end, amount, outer)

        return traced


def _engine_factory(tracer: Tracer, cls):
    """Build engines as before, with each engine's dist traced too."""

    def make(*args, **kwargs):
        engine = cls(*args, **kwargs)
        engine.dist = tracer.wrap("lifting.dist", engine.dist)
        return engine

    return make


class Hooks:
    """Install every hook for one tracer; restore the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing = {}  # span name -> hook targets not found
        self._saved = []

    def __enter__(self):
        found = set()
        for module_name, attr, name, size in HOOKS:
            module = importlib.import_module(f"behametric.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.setdefault(name, []).append(f"{module.__name__}.{attr}")
                continue
            found.add(name)
            fn = _engine_factory(self.tracer, original) if name == "lifting.engine" else original
            setattr(module, attr, self.tracer.wrap(name, fn, size))
            self._saved.append((module, attr, original))
        # a span name still hooked at some other call site is not missing
        for name in found:
            self.missing.pop(name, None)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def summarize(spans):
    """Per span name: [calls, seconds, summed size, max size], where seconds
    counts only spans with no enclosing span of the same name; per layer:
    self seconds, a span's duration minus the durations of its children."""
    child = [0.0] * len(spans)
    for _, parent, start, end, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name = {}
    self_s = Counter()
    for i, (name, _, start, end, size, outer) in enumerate(spans):
        agg = by_name.setdefault(name, [0, 0.0, 0, 0])
        agg[0] += 1
        if outer:
            agg[1] += end - start
        agg[2] += size
        agg[3] = max(agg[3], size)
        self_s[name.split(".", 1)[0]] += end - start - child[i]
    return by_name, dict(self_s)

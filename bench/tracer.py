"""Span recorder for the traced benchmark run.

The recorder wraps a fixed list of public hamcert functions from outside
the program.  Each function is wrapped once and the wrapper is bound in
every ``hamcert.*`` namespace that binds the original, so calls made
through names imported into ``harness``, ``theorem`` or ``cli`` are
recorded as well as calls inside the defining module.  Hot helpers such
as ``iter_bits`` or ``Graph.edges`` are deliberately not wrapped: they
run millions of times per pass and the wrapper would swamp them.

A span is ``(function index, start, end, parent span, item id, outcome)``.
Spans stay in memory while a pass runs; statistics are computed from
them afterwards and the benchmark writes them to disk when it ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function, outcome predicate or None).  The predicate turns a
# return value into the "useful outcome" counted by the ratio metrics.
TARGETS = [
    ("cli", "run", None),
    ("harness", "verify_order", None),
    ("theorem", "certify", lambda cert: cert.kind == "extremal"),
    ("theorem", "trace_proof", None),
    ("theorem", "check_hypothesis", None),
    ("theorem", "recognize_extremal", None),
    ("cycles", "find_hamiltonian_cycle", lambda cycle: cycle is not None),
    ("cycles", "longest_cycle", None),
    ("invariants", "chromatic_number", None),
    ("invariants", "is_k_colorable", lambda coloring: coloring is not None),
    ("invariants", "greedy_coloring", None),
    ("invariants", "max_clique", None),
    ("invariants", "nordhaus_gaddum", None),
    ("invariants", "vertex_connectivity", lambda kappa: kappa >= 2),
    ("invariants", "menger_fan", None),
    ("graph6", "parse_graph6", None),
    ("graph6", "to_graph6", None),
    ("graphs", "from_edge_mask", None),
    ("graphs", "complement", None),
]

NAMES = [f"{module}.{function}" for module, function, _ in TARGETS]


class Tracer:
    """Installs wrappers, records spans, and turns them into statistics."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.item = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, index, fn, outcome):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (index, start, perf_counter(), parent, self.item, False)
                raise
            finally:
                stack.pop()
            end = perf_counter()
            useful = outcome(result) if outcome is not None else False
            spans[sid] = (index, start, end, parent, self.item, useful)
            return result

        return wrapper

    def install(self) -> None:
        """Bind a wrapper in place of every target in every hamcert module."""
        modules = [
            mod for name, mod in sys.modules.items()
            if name == "hamcert" or name.startswith("hamcert.")
        ]
        for index, (module, function, outcome) in enumerate(TARGETS):
            original = getattr(sys.modules[f"hamcert.{module}"], function)
            wrapper = self._wrap(index, original, outcome)
            for mod in modules:
                if getattr(mod, function, None) is original:
                    self._bindings.append((mod, function, original))
                    setattr(mod, function, wrapper)

    def uninstall(self) -> None:
        for mod, function, original in self._bindings:
            setattr(mod, function, original)
        self._bindings.clear()

    def stats(self, first_span: int = 0) -> dict[str, dict[str, float]]:
        """Per-function calls, self_s, total_s and useful count over
        spans[first_span:].  Self time is a span's duration minus the
        durations of its direct children; total time counts a span only
        when no ancestor is a call of the same function."""
        spans = self.spans
        child = [0.0] * (len(spans) - first_span)
        for index, start, end, parent, _, _ in spans[first_span:]:
            if parent >= first_span:
                child[parent - first_span] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "useful": 0} for name in NAMES}
        for sid in range(first_span, len(spans)):
            index, start, end, parent, _, useful = spans[sid]
            entry = out[NAMES[index]]
            duration = end - start
            entry["calls"] += 1
            entry["self_s"] += duration - child[sid - first_span]
            entry["useful"] += useful
            while parent >= first_span and spans[parent][0] != index:
                parent = spans[parent][3]
            if parent < first_span:
                entry["total_s"] += duration
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="ascii") as handle:
            handle.write("span\tname\tstart\tend\tparent\titem\tuseful\n")
            for sid, (index, start, end, parent, item, useful) in enumerate(self.spans):
                handle.write(
                    f"{sid}\t{NAMES[index]}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\t{int(useful)}\n"
                )

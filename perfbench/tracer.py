"""In-memory span tracer that wraps vgsst's public module attributes.

The solvers look their collaborators up as module globals at call time,
so replacing an attribute (``vgsst.greedy.graded_shortest_paths``) in
every vgsst module that holds it makes the calls inside the library go
through the wrapper too, and spans nest the way the calls do. A span's
self time is its duration minus the durations of its direct children.

Nothing in ``src/`` is edited: the wrappers exist only while a
``Tracer`` is active and every attribute is put back on exit, so
untraced runs in the same process measure unwrapped code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

#: Spanned callables: (module, attribute). The span name is
#: "<module suffix>.<attribute>".
SPANNED = (
    ("vgsst.greedy", "solve_greedy"),
    ("vgsst.greedy", "init_forest"),
    ("vgsst.greedy", "select_global_candidate"),
    ("vgsst.greedy", "graded_shortest_paths"),
    ("vgsst.greedy", "apply_merge"),
    ("vgsst.heuristics", "solve_topdown"),
    ("vgsst.heuristics", "solve_bottomup"),
    ("vgsst.heuristics", "greedy_as_vst"),
    ("vgsst.heuristics", "single_grade_view"),
    ("vgsst.instance", "normalize"),
    ("vgsst.instance", "validate"),
    ("vgsst.instance", "check_feasible"),
    ("vgsst.instance", "extract_tree"),
    ("vgsst.oracle", "brute_force_optimum"),
    ("vgsst.oracle", "build_ilp"),
    ("vgsst.oracle", "solve_ilp_by_enumeration"),
    ("vgsst.reductions", "reduce_to_dst"),
    ("vgsst.reductions", "brute_force_dst"),
    ("vgsst.io", "read_instance"),
    ("vgsst.io", "read_solution"),
    ("vgsst.io", "write_atomic"),
    ("vgsst.cli", "main"),
    ("vgsst.cli", "cmd_solve"),
    ("vgsst.cli", "cmd_verify"),
)

#: Callables that are only counted: they run tens of thousands of times
#: per solve, where a span per call would distort the split it measures.
COUNTED = (("vgsst.greedy", "MergeCandidate"),)

#: Candidate spaces at or below this size are "small" for
#: ``oracle.vector_path_share`` (the oracle's vectorised/lattice cut-over
#: at the time the benchmark was written).
VECTOR_LIMIT = 200_000


def _short(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


def _vgsst_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "vgsst" or name.startswith("vgsst."))]


class Tracer:
    """Context manager: wrap on enter, record spans and counts, restore on exit.

    ``spans`` holds tuples (span id, parent id, op id, name, start ns,
    end ns, self ns); ``op`` is set by the caller to tag every span of
    one benchmark op with the same identifier.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def _replace(self, module: str, attr: str, make) -> None:
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for mod in _vgsst_modules():
            if getattr(mod, attr, None) is original:
                self._patched.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def __enter__(self) -> "Tracer":
        hooks = {
            "brute_force_optimum": self._count_bf_space,
            "solve_ilp_by_enumeration": self._count_ilp_space,
        }
        results = {"build_ilp": self._count_cut_rows}
        try:
            for module, attr in SPANNED:
                name = _short(module, attr)
                self._replace(
                    module, attr,
                    lambda fn, n=name, a=attr: self._span(n, fn, hooks.get(a), results.get(a)),
                )
            for module, attr in COUNTED:
                self._replace(module, attr, lambda fn, n=_short(module, attr): self._counter(n, fn))
            self._replace("vgsst.oracle", "feasibility_tester", self._counting_tester)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, parent, self.op, name, start, end, duration - frame[1]))
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_tester(self, factory):
        counts = self.counts

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            feasible = factory(*args, **kwargs)

            def counted(y):
                counts["oracle.feasible"] += 1
                return feasible(y)

            return counted

        return wrapper

    def _count_space(self, space: int) -> None:
        self.counts["oracle.scan_small" if space <= VECTOR_LIMIT else "oracle.scan_large"] += 1

    def _count_bf_space(self, args, kwargs) -> None:
        instance = args[0] if args else kwargs["instance"]
        space = 1
        for v in range(instance.num_vertices):
            space *= instance.grades - instance.required.get(v, 0) + 1
        self._count_space(space)

    def _count_ilp_space(self, args, kwargs) -> None:
        model = args[0] if args else kwargs["model"]
        self._count_space((model.grades + 1) ** model.num_vertices)

    def _count_cut_rows(self, model) -> None:
        self.counts["oracle.cut_rows"] += len(model.cuts)

    # -- results -----------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total ns, self ns)."""
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for _id, _parent, _op, name, start, end, self_ns in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += self_ns
        return calls, total, own

    def root_ns(self) -> int:
        """Time covered by spans that have no traced parent."""
        return sum(end - start for _i, parent, _o, _n, start, end, _s in self.spans if parent < 0)

    def write(self, path: str) -> None:
        """Dump spans (one JSON array per line) and counts (last line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

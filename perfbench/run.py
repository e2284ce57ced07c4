#!/usr/bin/env python3
"""Benchmark harness for vgsst.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solvers --seed 1 --seconds 55 --trace 0

It builds the workload's inputs from ``--seed``, runs passes over the
workload's ops for about ``--seconds`` (always at least one) and keeps
each op's best time. It checks every op's output, and prints machine
notes, a readable table, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run times the in-process op set once plainly and once
with every public vgsst layer wrapped by ``tracer.Tracer``, and reports
the per-layer split. Spans are written to ``.perfbench/`` at the root of
the checkout. The library is imported from ``src/`` next to this
directory; without it the harness exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Set-up repeats per run, at least this many seconds apart; ``setup_s``
#: is their median.
SETUP_REPEATS = 5
SETUP_GAP_S = 4.0
IMPORT_TIMEOUT = 60
#: Seconds between ``import_ms`` probes, which run between passes.
PROBE_GAP_S = 2.0
#: Share of traced wall time the top-level spans must cover.
COVERAGE_MIN = 0.95
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

WORKLOADS = ("solvers", "oracles-cli")


def _import_vgsst():
    """Import vgsst from this checkout's ``src/``; None when it is absent."""
    if not (SRC / "vgsst" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import vgsst

    if SRC not in Path(vgsst.__file__).resolve().parents:
        return None
    return vgsst


# ---------------------------------------------------------------------------
# Measurement helpers


def tail(values):
    """Mean of the samples from the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it: (value, percentile label). Falls
    back to the maximum for small sets.

    One order statistic of a few dozen ops' times moved by up to 30%
    between seeds, as ops of different sizes traded places around it; the
    mean of the slowest ops moves with all of them together.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], "max"
    return (statistics.fmean(ordered[n - TAIL_BEYOND - 1:]),
            f"mean from p{100 * (n - TAIL_BEYOND) // n}")


def probe_import() -> float:
    """Wall ms of ``python -c "import vgsst"`` in a fresh interpreter."""
    import workloads

    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import vgsst"], env=workloads.subprocess_env(),
                   check=True, timeout=IMPORT_TIMEOUT, capture_output=True)
    return (time.perf_counter() - start) * 1e3


def probe_import_split() -> tuple[float, float]:
    """(numpy cumulative ms, vgsst modules' own ms) from ``-X importtime``."""
    import workloads

    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import vgsst"],
                          env=workloads.subprocess_env(), check=True, timeout=IMPORT_TIMEOUT,
                          capture_output=True, text=True)
    numpy_us = own_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":")[1])
            cumulative_us = int(parts[1])
        except ValueError:  # the header line
            continue
        name = parts[2].strip()
        if name == "numpy":
            numpy_us = cumulative_us
        elif name == "vgsst" or name.startswith("vgsst."):
            own_us += self_us
    return numpy_us / 1e3, own_us / 1e3


def machine_notes() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------
# Passes


class Run:
    """Times passes over an op set and checks every output.

    An op's time is its best over the passes. On a shared 2-vCPU VM the
    host's speed drifted by up to 2x, in phases of seconds and regimes of
    a minute or more; the best of samples spread over a minute repeated
    within a few per cent where a mean or median moved by 10-40%. The first pass fixes
    each op's cost; later passes must reproduce it exactly.
    """

    def __init__(self, ops):
        self.ops = ops
        self.costs: list[int | None] | None = None
        self.walls: list[int] = []
        self.op_ns: list[list[int]] = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def timed_pass(self, tracer=None) -> None:
        """Run every op once, in order."""
        outputs = []
        clock = time.perf_counter_ns
        start = clock()
        for i in range(len(self.ops)):
            if tracer is not None:
                tracer.op = i
            t0 = clock()
            try:
                outputs.append((i, self.ops[i].run(), None))
            except Exception as exc:  # the program under test failed this op
                outputs.append((i, None, exc))
            self.op_ns[i].append(clock() - t0)
        self.walls.append(clock() - start)
        self._check(outputs)

    def _fail(self, i, why) -> None:
        if len(self.errors) < 5:
            self.errors.append(f"{self.ops[i].label}: {why}")

    def _check(self, outputs) -> None:
        costs: dict[int, int | None] = {}
        for i, out, exc in outputs:
            if exc is not None:
                self._fail(i, f"raised {exc!r}")
                costs[i] = None
                continue
            try:
                costs[i] = self.ops[i].check(out)
            except Exception as err:  # a check failing, whatever raised it
                self._fail(i, f"check failed: {err!r}")
                costs[i] = None
        groups: dict = {}
        for i, cost in costs.items():
            if self.ops[i].group is not None and cost is not None:
                groups.setdefault(self.ops[i].group, []).append(i)
        for members in groups.values():
            if len({costs[i] for i in members}) > 1:
                for i in members:
                    self._fail(i, "ops disagree on the cost")
                    costs[i] = None
        if self.costs is None:
            self.costs = [costs[i] for i in range(len(self.ops))]
        else:
            for i, cost in costs.items():
                if cost is not None and self.costs[i] is not None and cost != self.costs[i]:
                    self._fail(i, "cost changed between passes")
                    costs[i] = None
        self.attempted += len(costs)
        self.failed += sum(c is None for c in costs.values())

    def op_ms(self) -> list[float]:
        """Each op's best time over the passes, in ms."""
        return [min(ns) / 1e6 for ns in self.op_ns]

    def wall_s(self) -> float:
        """The op set's time with every op at its best."""
        return sum(min(ns) for ns in self.op_ns) / 1e9

    def cost_total(self) -> float:
        return sum(c for c in self.costs if c is not None) / 1e6


def paced(seconds: float, step, min_steps: int = 1) -> int:
    """Repeat ``step`` at least ``min_steps`` times, and once more only
    while another step should still end within ``seconds``."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_steps and elapsed + statistics.median(durations) > seconds:
            return len(durations)


# ---------------------------------------------------------------------------
# Workload runs


def _setup(name, seed, workdir, tiny):
    """Build the workload and warm it up; returns it and the seconds taken."""
    import workloads

    start = time.perf_counter()
    workload = workloads.BUILDERS[name](seed, workdir, tiny=tiny)
    workloads.warm_up(workload)
    return workload, time.perf_counter() - start


def end_to_end(name, seed, seconds, workdir, tiny=False):
    workload, first = _setup(name, seed, workdir, tiny)
    setups = [first]
    run = Run(workload.ops)
    imports = [probe_import()]
    last = {"probe": time.perf_counter(), "setup": time.perf_counter()}

    # Import probes and the repeated set-ups are spread over the run, so
    # one slow phase of the machine does not decide them.
    def between():
        if time.perf_counter() - last["probe"] >= PROBE_GAP_S:
            imports.append(probe_import())
            last["probe"] = time.perf_counter()
        if len(setups) < SETUP_REPEATS and time.perf_counter() - last["setup"] >= SETUP_GAP_S:
            setups.append(_setup(name, seed, workdir, tiny)[1])
            last["setup"] = time.perf_counter()

    passes = paced(seconds, lambda: (run.timed_pass(), between()))
    while len(setups) < SETUP_REPEATS:
        setups.append(_setup(name, seed, workdir, tiny)[1])
    setup_s = statistics.median(setups)
    op_ms = run.op_ms()
    tail_ms, tail_label = tail(op_ms)
    by_label: dict[str, list[float]] = {}
    for op, ms in zip(workload.ops, op_ms):
        by_label.setdefault(op.label, []).append(ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (run.wall_s(), "s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "cost_total": (run.cost_total(), "cost"),
        # The harness or its largest child (a CLI call or an import probe).
        "peak_rss_mb": (max(resource.getrusage(who).ru_maxrss
                            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
                        / 1024, "MB"),
        "import_ms": (min(imports), "ms"),
    }
    notes = {
        "passes": passes,
        "pass_walls_s": [round(w / 1e9, 3) for w in run.walls],
        "executions": run.attempted,
        "import_probes": len(imports),
        "ops": len(workload.ops),
        "op_ms_tail_percentile": tail_label,
        "op_samples": len(op_ms),
        "best_ms_by_label": {k: round(statistics.mean(v), 3) for k, v in by_label.items()},
        "failed_frac": run.failed / run.attempted,
    }
    return run, metrics, notes


def _ms(ns: int) -> float:
    return ns / 1e6


def layer_metrics(tracer, traced: Run, plain: Run) -> dict:
    """Per-layer figures per traced pass (every pass does the same work).

    ``trace.wall_s`` is the mean traced pass, like the layer totals;
    ``trace.overhead_s`` compares the best-of sums of traced and plain
    passes, which drift with the machine far less than means do.
    """
    passes = len(traced.walls)
    calls, total, own = (
        {k: v / passes for k, v in c.items()} for c in tracer.totals())
    calls, total, own = Counter(calls), Counter(total), Counter(own)
    counts = Counter({k: v / passes for k, v in tracer.counts.items()})
    merges = calls["greedy.apply_merge"]
    built = counts["greedy.MergeCandidate"]
    solve_ns = total["greedy.solve_greedy"]
    split_ns = own["greedy.select_global_candidate"] + total["greedy.graded_shortest_paths"] \
        + total["greedy.apply_merge"]
    small, large = counts["oracle.scan_small"], counts["oracle.scan_large"]
    traced_ns = sum(traced.walls)
    covered = tracer.root_ns()
    return {
        "greedy.rounds": (merges, "count"),
        "greedy.select_ms": (_ms(total["greedy.select_global_candidate"]), "ms"),
        "greedy.scan_self_ms": (_ms(own["greedy.select_global_candidate"]), "ms"),
        "greedy.candidates_built": (built, "count"),
        "greedy.winner_ratio": (merges / built if built else 0.0, "ratio"),
        "greedy.dijkstra_calls": (calls["greedy.graded_shortest_paths"], "count"),
        "greedy.dijkstra_ms": (_ms(total["greedy.graded_shortest_paths"]), "ms"),
        "greedy.apply_ms": (_ms(total["greedy.apply_merge"]), "ms"),
        "greedy.init_ms": (_ms(total["greedy.init_forest"]), "ms"),
        "greedy.solve_ms": (_ms(solve_ns), "ms"),
        "greedy.split_coverage": (split_ns / solve_ns if solve_ns else 0.0, "ratio"),
        "heuristics.vst_calls": (calls["heuristics.greedy_as_vst"], "count"),
        "heuristics.vst_ms": (_ms(total["heuristics.greedy_as_vst"]), "ms"),
        "heuristics.view_ms": (_ms(total["heuristics.single_grade_view"]), "ms"),
        "heuristics.self_ms": (_ms(own["heuristics.solve_topdown"]
                                   + own["heuristics.solve_bottomup"]), "ms"),
        "instance.normalize_ms": (_ms(total["instance.normalize"]), "ms"),
        "instance.validate_ms": (_ms(total["instance.validate"]), "ms"),
        "instance.check_feasible_calls": (calls["instance.check_feasible"], "count"),
        "instance.check_feasible_ms": (_ms(total["instance.check_feasible"]), "ms"),
        "instance.extract_tree_ms": (_ms(total["instance.extract_tree"]), "ms"),
        "oracle.bf_ms": (_ms(total["oracle.brute_force_optimum"]), "ms"),
        "oracle.feasible_calls": (counts["oracle.feasible"], "count"),
        "oracle.vector_path_share": (small / (small + large) if small + large else 0.0, "ratio"),
        "oracle.ilp_build_ms": (_ms(total["oracle.build_ilp"]), "ms"),
        "oracle.cut_rows": (counts["oracle.cut_rows"], "count"),
        "oracle.ilp_solve_ms": (_ms(total["oracle.solve_ilp_by_enumeration"]), "ms"),
        "reductions.dst_reduce_ms": (_ms(total["reductions.reduce_to_dst"]), "ms"),
        "reductions.dst_solve_ms": (_ms(total["reductions.brute_force_dst"]), "ms"),
        "io.read_ms": (_ms(total["io.read_instance"] + total["io.read_solution"]), "ms"),
        "io.write_ms": (_ms(total["io.write_atomic"]), "ms"),
        "cli.solve_ms": (_ms(total["cli.cmd_solve"]), "ms"),
        "cli.verify_ms": (_ms(total["cli.cmd_verify"]), "ms"),
        "cli.parse_ms": (_ms(own["cli.main"]), "ms"),
        "trace.wall_s": (traced_ns / passes / 1e9, "s"),
        "trace.overhead_s": (traced.wall_s() - plain.wall_s(), "s"),
        "trace.coverage": (covered / traced_ns, "ratio"),
        "trace.uncovered_ms": (_ms(traced_ns - covered) / passes, "ms"),
    }


def attribute_snapshot() -> dict:
    """Every attribute of every loaded vgsst module."""
    return {(name, attr): getattr(mod, attr)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "vgsst" or name.startswith("vgsst."))
            for attr in dir(mod)}


def unchanged(before: dict, after: dict) -> bool:
    return after.keys() == before.keys() and all(after[k] is v for k, v in before.items())


def traced(name, seed, seconds, workdir, tiny=False, spans_path=None):
    """Alternate plain and traced passes of the in-process op set."""
    workload, _ = _setup(name, seed, workdir, tiny)
    plain, traced_run = Run(workload.traced_ops), Run(workload.traced_ops)
    tracer = tracing.Tracer()
    splits = [probe_import_split()]
    restored = []

    def pair():
        plain.timed_pass()
        before = attribute_snapshot()
        with tracer:
            traced_run.timed_pass(tracer=tracer)
        restored.append(unchanged(before, attribute_snapshot()))
        splits.append(probe_import_split())

    passes = paced(seconds, pair, min_steps=2)
    if spans_path is not None:
        tracer.write(spans_path)
    metrics = layer_metrics(tracer, traced_run, plain)
    metrics["import.numpy_ms"] = (min(n for n, _ in splits), "ms")
    metrics["import.vgsst_self_ms"] = (min(o for _, o in splits), "ms")
    coverage = metrics["trace.coverage"][0]
    run = plain
    run.attempted += traced_run.attempted
    run.failed += traced_run.failed
    run.errors += traced_run.errors
    if not all(restored):
        run.errors.append("tracer left wrapped attributes behind")
    notes = {
        "passes": passes,
        "ops": len(workload.traced_ops),
        "attributes_restored": all(restored),
        "spans": len(tracer.spans),
        "failed_frac": run.failed / run.attempted,
        "coverage_check": (f"{'pass' if coverage >= COVERAGE_MIN else 'FAIL'}: spans cover "
                           f"{coverage:.4f} of traced wall time, "
                           f"{metrics['trace.uncovered_ms'][0]:.3f} ms per pass uncovered"),
    }
    return run, metrics, notes, all(restored)


def run_workload(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result object, notes)."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        if trace:
            spans = WORK / f"spans-{name}-seed{seed}.jsonl"
            run, metrics, notes, restored = traced(name, seed, seconds, workdir, tiny, spans)
        else:
            run, metrics, notes = end_to_end(name, seed, seconds, workdir, tiny)
            restored = True
    notes.update(machine_notes(), workload=name, seed=seed, seconds=seconds,
                 trace=trace, errors=run.errors,
                 inputs="fixed corpus (generation seeds 1..count per rung), "
                        "vertex ids shuffled from --seed")
    result = {
        "correct": run.failed == 0 and restored,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if _import_vgsst() is None:
        print(f"error: no vgsst package under {SRC}", file=sys.stderr)
        return 2
    result, notes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("notes " + json.dumps(notes, sort_keys=True))
    for key, metric in result["metrics"].items():
        print(f"  {key:32s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

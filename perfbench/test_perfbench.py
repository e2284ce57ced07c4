"""Tests of the benchmark harness itself.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

run._import_vgsst()

import tracer  # noqa: E402
import vgsst  # noqa: E402
import vgsst.greedy  # noqa: E402
import vgsst.heuristics  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_tracer_wraps_every_binding_and_restores_them():
    before = run.attribute_snapshot()
    original = vgsst.greedy.solve_greedy
    with tracer.Tracer():
        wrapped = vgsst.greedy.solve_greedy
        assert wrapped is not original
        # Bound by name in other modules too, so library-internal calls trace.
        assert vgsst.heuristics.solve_greedy is wrapped
        assert vgsst.solve_greedy is wrapped
    assert run.unchanged(before, run.attribute_snapshot())


def test_tracer_restores_after_an_exception():
    before = run.attribute_snapshot()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert run.unchanged(before, run.attribute_snapshot())


def test_spans_nest_and_self_time_excludes_children():
    with tracer.Tracer() as t:
        report = vgsst.greedy.solve_greedy(vgsst.fig3_instance())
    assert len(report.iterations) == 2
    calls, total, own = t.totals()
    assert calls["greedy.solve_greedy"] == 1
    assert calls["greedy.apply_merge"] == 2
    assert t.counts["greedy.MergeCandidate"] > 0
    names = {s[0]: s[3] for s in t.spans}
    roots = [s for s in t.spans if s[1] < 0]
    assert [s[3] for s in roots] == ["greedy.solve_greedy"]
    dijkstra_parents = {names[s[1]] for s in t.spans if s[3] == "greedy.graded_shortest_paths"}
    assert dijkstra_parents == {"greedy.select_global_candidate"}
    select = "greedy.select_global_candidate"
    assert own[select] == total[select] - total["greedy.graded_shortest_paths"]
    assert t.root_ns() == total["greedy.solve_greedy"]


def test_tail_averages_from_the_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1, 21))) == (15, "mean from p50")
    assert run.tail(list(range(1, 101))) == (95, "mean from p90")
    assert run.tail([3, 1, 2]) == (3, "max")


def test_relabel_keeps_the_optimum_and_follows_the_seed():
    base = vgsst.random_instance(8, 2, seed=4, edge_prob=0.4)
    a = workloads.relabel(base, random.Random("7"))
    assert a == workloads.relabel(base, random.Random("7"))
    assert a != workloads.relabel(base, random.Random("8"))
    assert (vgsst.brute_force_optimum(a).total_cost
            == vgsst.brute_force_optimum(base).total_cost)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_of_each_workload(name, trace):
    before = run.attribute_snapshot()
    result, notes = run.run_workload(name, seed=3, seconds=0.2, trace=bool(trace), tiny=True)
    assert result["correct"], notes["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # Untraced code runs unwrapped after a traced run in the same process.
    assert run.unchanged(before, run.attribute_snapshot())


def test_exits_nonzero_without_the_library():
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        shutil.copytree(Path(run.__file__).parent, Path(bare) / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "solvers",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The benchmark's workloads: inputs made from a seed, ops, and output checks.

Every op is one solve, one oracle call or one CLI invocation. Ops look
the library function up on its module when they run (for example
``vgsst.greedy.solve_greedy``), so a traced run reaches the wrapped
attribute. Each op has a check that returns the op's cost in micros or
raises ``CheckError``; ops that share a ``group`` must report the same
cost.

Two workloads hold four kinds of op. ``solvers`` runs the greedy on
the roadmap's size ladder and the layered heuristics on its three-grade
family; ``oracles-cli`` runs the three exact routes on desk-scale
instances and ``vgsst solve`` / ``verify`` as subprocesses. Fewer,
longer runs keep the figures steady on a host whose speed drifts in
regimes of a minute or more (see README.md).

Inputs are a fixed corpus, drawn with fixed generation seeds as the
roadmap's ladder asks, whose vertex ids are shuffled by ``--seed``. A
relabelling changes every id, scan order and tie-break the solvers see
but not the instance's shape, so the work in a run moves by a few per
cent between seeds. Freshly drawn instances move it by 20-45% each,
which would need several times the work per run to average out.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import vgsst
import vgsst.cli
import vgsst.greedy
import vgsst.heuristics
import vgsst.oracle
import vgsst.reductions
from vgsst.costs import Cost
from vgsst.generators import fig3_instance, random_instance
from vgsst.instance import Instance, check_feasible, solution_cost
from vgsst.io import instance_to_json, read_instance, read_solution

#: Seconds one CLI call may take before it counts as failed.
CLI_TIMEOUT = 60

#: (n, grades, instances) per rung; edge probability 6/n, 30% terminals.
#: n=120 at three grades is left out: one solve took about 2 s, a third of
#: a pass, and cut the passes a run fits (and so each op's samples) by half.
GREEDY_LADDER = ((60, 2, 6), (60, 3, 6), (90, 2, 1), (90, 3, 1), (120, 2, 1))
#: The ladder's family at three grades, for the layered heuristics.
LAYERED = ((90, 3, 4), (120, 3, 1))
#: (n, grades, instances); edge probability 0.4, 40% terminals. Every
#: instance fits the cut model's 24-variable enumeration cap. ILP
#: candidate spaces are (grades+1)^n, so n=12 at two grades (531k) is the
#: shape above the oracle's 200k vectorised/lattice cut-over.
ORACLES = ((7, 3, 4), (8, 3, 4), (9, 2, 4), (10, 2, 4), (11, 2, 4), (12, 1, 4), (12, 2, 2))
#: (n, grades, instances) of random CLI files, written next to fig3.
CLI_FILES = ((7, 3, 1), (10, 2, 1))

#: Reduced corpora for the harness's own smoke tests.
TINY = {
    "greedy": ((20, 2, 2), (30, 3, 1)),
    "layered": ((20, 3, 2),),
    "oracles": ((7, 3, 1), (12, 2, 1)),
    "cli": ((6, 1, 1),),
}


class CheckError(Exception):
    """An op's output failed a correctness check."""


@dataclass
class Op:
    #: What the op does; ops of one rung share their label.
    label: str
    run: Callable[[], object]
    check: Callable[[object], int]
    group: object = None


@dataclass
class Workload:
    ops: list[Op]
    #: In-process ops for the traced run (a tracer cannot see into the
    #: CLI subprocesses).
    traced_ops: list[Op]
    #: Ops run once, with their checks, before timing: the first op of
    #: each kind of work, and the ops sharing its group.
    warm: list[Op]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def check_report(instance, report, greedy: bool = False) -> int:
    """Feasible, cost recomputes exactly, and (greedy) rounds add up."""
    ok, witness = check_feasible(instance, report.assignment)
    _require(ok, f"infeasible assignment: {witness}")
    _require(solution_cost(instance, report.assignment) == report.total_cost,
             "reported cost differs from the assignment's cost")
    if greedy:
        _require(bool(report.iterations), "greedy report has no iterations")
        _require(sum(r.incurred_cost.micros for r in report.iterations)
                 == report.total_cost.micros,
                 "iteration costs do not sum to the total")
    if report.grade_costs is not None:
        _require(sum(c.micros for c in report.grade_costs) == report.total_cost.micros,
                 "per-grade costs do not sum to the total")
    return report.total_cost.micros


def relabel(instance: Instance, rng: random.Random) -> Instance:
    """The same instance with its vertex ids shuffled."""
    n = instance.num_vertices
    perm = list(range(n))
    rng.shuffle(perm)
    costs = [None] * n
    for v, ladder in enumerate(instance.costs):
        costs[perm[v]] = ladder
    return Instance.build(
        n,
        [(perm[u], perm[v]) for u, v in instance.edges],
        instance.grades,
        {perm[t]: r for t, r in instance.required.items()},
        costs,
    )


def _family(rungs, seed: int, edge_prob=None, terminal_fraction=0.3):
    """Corpus instances for each (n, grades, count) rung, drawn with
    generation seeds 1..count and relabelled from ``seed``."""
    out = []
    for n, levels, count in rungs:
        p = 6 / n if edge_prob is None else edge_prob
        for gen_seed in range(1, count + 1):
            base = random_instance(n, levels, seed=gen_seed, edge_prob=p,
                                   terminal_fraction=terminal_fraction)
            rng = random.Random(f"{seed}:{n}:{levels}:{gen_seed}")
            out.append(((n, levels), relabel(base, rng)))
    return out


def _greedy_ops(seed: int, tiny: bool) -> list[Op]:
    return [
        Op(f"greedy n={n} L={levels}",
           lambda inst=inst: vgsst.greedy.solve_greedy(inst),
           lambda rep, inst=inst: check_report(inst, rep, greedy=True))
        for (n, levels), inst in _family(TINY["greedy"] if tiny else GREEDY_LADDER, seed)
    ]


def _layered_ops(seed: int, tiny: bool) -> list[Op]:
    return [
        Op(f"{name} n={n} L={levels}",
           lambda inst=inst, name=name: getattr(vgsst.heuristics, name)(
               inst, vgsst.heuristics.greedy_as_vst),
           lambda rep, inst=inst: check_report(inst, rep))
        for (n, levels), inst in _family(TINY["layered"] if tiny else LAYERED, seed)
        for name in ("solve_topdown", "solve_bottomup")
    ]


# The brute-force and DST oracles take caps sized to each instance: their
# defaults (10 vertices, 14 layered nodes) would exclude n=11-12. The
# corpus keeps both well inside their hard limits (10^7 candidates, and
# at most 24 nodes with at most 5 terminals for the DST subset DP).
def _bf(inst):
    return vgsst.oracle.brute_force_optimum(inst, limit=inst.num_vertices)


def _ilp(inst):
    return vgsst.oracle.solve_ilp_by_enumeration(vgsst.oracle.build_ilp(inst))


def _dst(inst):
    dst = vgsst.reductions.reduce_to_dst(inst)
    return vgsst.reductions.brute_force_dst(dst, cap=dst.num_nodes)


def _check_ilp(inst, sol) -> int:
    # Cut rows only ask for facilities next to terminal sets, so terminals
    # may sit below their demand in the model's optimum; lifting them is
    # free on these (normalized) instances and must give a feasible point.
    y = tuple(max(g, inst.required.get(v, 0)) for v, g in enumerate(sol.assignment))
    ok, witness = check_feasible(inst, y)
    _require(ok, f"ILP optimum infeasible: {witness}")
    _require(solution_cost(inst, y) == sol.objective,
             "ILP objective differs from the assignment's cost")
    return sol.objective.micros


def _oracle_ops(seed: int, tiny: bool) -> list[Op]:
    family = _family(TINY["oracles"] if tiny else ORACLES, seed,
                     edge_prob=0.4, terminal_fraction=0.4)
    ops = []
    for k, ((n, levels), inst) in enumerate(family):
        shape = f"n={n} L={levels}"
        group = ("oracle", k)
        ops.append(Op(f"brute_force {shape}", lambda inst=inst: _bf(inst),
                      lambda rep, inst=inst: check_report(inst, rep), group))
        ops.append(Op(f"ilp {shape}", lambda inst=inst: _ilp(inst),
                      lambda sol, inst=inst: _check_ilp(inst, sol), group))
        ops.append(Op(f"dst {shape}", lambda inst=inst: _dst(inst),
                      lambda cost: cost.micros, group))
    return ops


def subprocess_env() -> dict:
    """Environment for child interpreters: the imported vgsst's source
    tree on the path, and no seed override."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(vgsst.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("VGSST_SEED", None)
    return env


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "vgsst.cli", *argv],
        env=subprocess_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT,
    )


def _check_solve(path: str, sol_path: str, proc) -> int:
    _require(proc.returncode == 0, f"solve exited {proc.returncode}: {proc.stderr.strip()}")
    return check_report(read_instance(path), read_solution(sol_path), greedy=True)


def _check_verify(proc) -> int:
    _require(proc.returncode == 0, f"verify exited {proc.returncode}: {proc.stdout.strip()}")
    head = proc.stdout.split(",")[0].strip()
    _require(head.startswith("PASS: cost "), f"verify printed {proc.stdout.strip()!r}")
    return Cost.parse(head[len("PASS: cost "):]).micros


def _in_process(*argv: str):
    """``vgsst.cli.main`` in this process, shaped like a finished subprocess."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = vgsst.cli.main(list(argv))
    return subprocess.CompletedProcess(argv, code, out.getvalue(), "")


def _cli_ops(seed: int, workdir: str, tiny: bool) -> tuple[list[Op], list[Op]]:
    """(subprocess ops, the same calls through ``vgsst.cli.main`` in-process)."""
    family = _family(TINY["cli"] if tiny else CLI_FILES, seed,
                     edge_prob=0.4, terminal_fraction=0.4)
    instances = [("fig3", "fig3", fig3_instance())] + [
        (f"r{k}", f"n={n} L={levels}", inst) for k, ((n, levels), inst) in enumerate(family)
    ]
    ops: list[Op] = []
    traced: list[Op] = []
    for k, (stem, shape, inst) in enumerate(instances):
        path = os.path.join(workdir, f"{stem}.json")
        sol = os.path.join(workdir, f"{stem}.sol.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(instance_to_json(inst))
        for runner, out in ((_cli, ops), (_in_process, traced)):
            out.append(Op(f"cli solve {shape}",
                          lambda r=runner, p=path, s=sol: r("solve", p, "-o", s),
                          lambda proc, p=path, s=sol: _check_solve(p, s, proc), ("cli", k)))
            out.append(Op(f"cli verify {shape}",
                          lambda r=runner, p=path, s=sol: r("verify", p, s),
                          _check_verify, ("cli", k)))
    return ops, traced


def _first_groups(*parts: list[Op]) -> list[Op]:
    """The first op of each part and the ops of its part sharing its group."""
    out = []
    for part in parts:
        first = part[0]
        out += [op for op in part
                if op is first or (first.group is not None and op.group == first.group)]
    return out


def solvers(seed: int, workdir: str, tiny: bool = False) -> Workload:
    greedy, layered = _greedy_ops(seed, tiny), _layered_ops(seed, tiny)
    ops = greedy + layered
    return Workload(ops, ops, _first_groups(greedy, layered))


def oracles_cli(seed: int, workdir: str, tiny: bool = False) -> Workload:
    oracle = _oracle_ops(seed, tiny)
    cli, cli_in_process = _cli_ops(seed, workdir, tiny)
    return Workload(oracle + cli, oracle + cli_in_process, _first_groups(oracle, cli))


def warm_up(workload: Workload) -> None:
    """Run and check the warm-up ops once, so imports, byte-code caches
    and lazy set-up are paid before timing."""
    for op in workload.warm:
        op.check(op.run())


BUILDERS = {
    "solvers": solvers,
    "oracles-cli": oracles_cli,
}

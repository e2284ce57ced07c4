"""Command-line interface.

Subcommands: solve, gen, export, verify, bench. Every subcommand is
deterministic given its inputs, flags and seed. Exit codes: 0 success,
1 verification failure, 2 input error, 3 internal invariant breach,
4 size cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .costs import Cost, CostPrecisionError
from .generators import fig2_instance, fig3_instance, random_instance
from .greedy import solve_greedy
from .heuristics import VstContractError, greedy_as_vst, solve_bottomup, solve_topdown
from .instance import (
    InfeasibleAssignmentError,
    InputError,
    Instance,
    InternalInvariantError,
    SizeCapError,
    SolutionReport,
    _check_assignment,
    _edge_masks,
    _reach,
    assert_valid,
    canon_edge,
    check_feasible,
    denormalize_solution,
    normalize,
    solution_cost,
)
from .io import (
    instance_to_json,
    read_instance,
    read_solution,
    solution_to_json,
    write_atomic,
)
from .oracle import _assignment_ranges, build_ilp, export_lp, brute_force_optimum
from .reductions import check_grt

_ORACLE_VERTEX_LIMIT = 10
_ALGORITHMS = ("greedy", "topdown", "bottomup", "exact")


def _ratio_text(cost: Cost, optimum: Cost) -> str:
    if optimum.micros == 0:
        return "1.0" if cost.micros == 0 else "infinite"
    value = float(Fraction(cost.micros, optimum.micros))
    return f"{value:.1f}" if value == int(value) else f"{value:.6g}"


def _solve_instance(instance: Instance, algorithm: str) -> SolutionReport:
    if algorithm == "exact":
        return brute_force_optimum(instance, limit=_ORACLE_VERTEX_LIMIT)
    norm = normalize(instance)
    if norm.instance == instance:
        target = instance
        mapped = None
    else:
        target = norm.instance
        mapped = norm
    if algorithm == "greedy":
        report = solve_greedy(target)
    elif algorithm == "topdown":
        report = solve_topdown(target, greedy_as_vst)
    elif algorithm == "bottomup":
        report = solve_bottomup(target, greedy_as_vst)
    else:
        raise InputError(f"unknown algorithm {algorithm!r}")
    if mapped is not None:
        report = denormalize_solution(instance, mapped, report)
    return report


def _solve_one_file(task: tuple[str, str, str]) -> tuple[str, str, str]:
    path, algorithm, out_path = task
    instance = read_instance(path)
    assert_valid(instance, structural_only=True)
    report = _solve_instance(instance, algorithm)
    write_atomic(out_path, solution_to_json(report))
    line = f"{path}: cost {report.total_cost} iterations {len(report.iterations)}"
    return path, out_path, line


def _default_solution_path(input_path: str) -> str:
    stem = input_path[:-5] if input_path.endswith(".json") else input_path
    return stem + ".sol.json"


def cmd_solve(args) -> int:
    if not args.input:
        raise InputError("no instance files given")
    tasks = []
    for path in args.input:
        out = args.output if args.output and len(args.input) == 1 else _default_solution_path(path)
        tasks.append((path, args.algorithm, out))

    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    # Refuse instances beyond the oracle's caps before anything is solved.
    oracle_inputs = {}
    if args.ratio or args.algorithm == "exact":
        for path in args.input:
            oracle_inputs[path] = read_instance(path)
            _assignment_ranges(oracle_inputs[path], _ORACLE_VERTEX_LIMIT)
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_solve_one_file, tasks))
    else:
        results = [_solve_one_file(t) for t in tasks]

    for path, out, line in results:
        print(line)
        if args.ratio:
            report = read_solution(out)
            # An exact solve's report already is the optimum.
            if args.algorithm == "exact":
                optimum = report
            else:
                optimum = brute_force_optimum(oracle_inputs[path], limit=_ORACLE_VERTEX_LIMIT)
            print(f"{path}: ratio {_ratio_text(report.total_cost, optimum.total_cost)}")
    return 0


def _seed(args) -> int:
    """``--seed``, unless the environment variable VGSST_SEED overrides it."""
    text = os.environ.get("VGSST_SEED", str(args.seed))
    try:
        return int(text)
    except ValueError:
        raise InputError(f"VGSST_SEED must be an integer, got {text!r}") from None


def cmd_gen(args) -> int:
    seed = _seed(args)
    if args.builtin == "fig3":
        instance = fig3_instance()
    elif args.builtin == "fig2":
        instance = fig2_instance(args.levels, args.eps)
    elif args.random:
        instance = random_instance(
            n=args.n,
            levels=args.levels,
            seed=seed,
            edge_prob=args.edge_prob,
            num_terminals=args.terminals,
            terminal_fraction=args.terminal_fraction,
        )
    else:
        raise InputError("choose --builtin fig3|fig2 or --random")
    text = instance_to_json(instance)
    if args.output:
        write_atomic(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def instance_to_dot(instance: Instance, assignment=None) -> str:
    """Graphviz rendering: ladder-labelled vertices, double-circled
    terminals annotated with their demand, grades shaded when given."""
    lines = ["graph gsst {", "  node [shape=circle style=filled fillcolor=white];"]
    for v in range(instance.num_vertices):
        ladder = ",".join(c.as_decimal_str() for c in instance.costs[v])
        label = f"{v}/({ladder})"
        attrs = []
        if v in instance.required:
            label += f"\\nR={instance.required[v]}"
            attrs.append("peripheries=2")
        if assignment is not None:
            grade = assignment[v]
            label += f"\\ny={grade}"
            if grade > 0:
                shade = max(35, 95 - 15 * grade)
                attrs.append(f'fillcolor="gray{shade}"')
        attrs.insert(0, f'label="{label}"')
        lines.append(f"  {v} [{' '.join(attrs)}];")
    for u, v in instance.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export(args) -> int:
    instance = read_instance(args.input)
    assert_valid(instance, structural_only=True)
    if args.lp:
        model = build_ilp(instance)
        text = export_lp(model)
    else:
        assignment = None
        if args.solution:
            assignment = read_solution(args.solution).assignment
            _check_assignment(instance, assignment)
        text = instance_to_dot(instance, assignment)
    if args.output:
        write_atomic(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _tree_failures(instance: Instance, report: SolutionReport) -> list[str]:
    """Check that the tree edges certify the assignment.

    They must be instance edges forming a spanning tree of the bought
    vertices, and for every grade i the edges between vertices of grade i
    or more must join every terminal demanding i or more.
    """
    edges = set(instance.edges)
    for u, v in report.tree_edges:
        if canon_edge(u, v) not in edges:
            return [f"tree edge ({u},{v}) is not an instance edge"]
    y = report.assignment
    support = sum(1 << v for v, g in enumerate(y) if g >= 1)
    if len(report.tree_edges) != support.bit_count() - 1:
        return [
            f"{len(report.tree_edges)} tree edges for "
            f"{support.bit_count()} bought vertices"
        ]
    tree_masks = _edge_masks(instance.num_vertices, report.tree_edges)
    failures = []
    for grade in range(1, instance.grades + 1):
        level = sum(1 << v for v, g in enumerate(y) if g >= grade)
        need = sum(1 << t for t, r in instance.required.items() if r >= grade)
        if grade == 1:
            need |= support
        if not need:
            continue
        apart = need & ~_reach(tree_masks, level, (need & -need).bit_length() - 1)
        if apart:
            vertex = (apart & -apart).bit_length() - 1
            failures.append(f"grade-{grade} tree edges do not reach vertex {vertex}")
    return failures


def cmd_verify(args) -> int:
    instance = read_instance(args.instance)
    assert_valid(instance, structural_only=True)
    report = read_solution(args.solution)
    failures = []

    recomputed = solution_cost(instance, report.assignment)
    if recomputed != report.total_cost:
        failures.append(
            f"cost mismatch: file says {report.total_cost}, assignment costs {recomputed}"
        )
    ok, witness = check_feasible(instance, report.assignment)
    if not ok:
        if witness.kind == "requirement":
            failures.append(f"terminal {witness.vertex} below its demand")
        else:
            failures.append(
                f"grade-{witness.grade} witness pair {witness.pair} disconnected"
            )
    failures.extend(_tree_failures(instance, report))
    if report.iterations and not failures:
        root = report.iterations[-1].root
        grt_ok, path = check_grt(
            instance, report.tree_edges, report.assignment, root
        )
        if not grt_ok:
            failures.append(f"grades increase away from root {root} along {path}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    try:
        _assignment_ranges(instance, _ORACLE_VERTEX_LIMIT)
    except SizeCapError:
        ratio = "skipped (beyond oracle caps)"
    else:
        optimum = brute_force_optimum(instance, limit=_ORACLE_VERTEX_LIMIT)
        ratio = _ratio_text(report.total_cost, optimum.total_cost)
    print(f"PASS: cost {report.total_cost}, ratio {ratio}")
    return 0


def cmd_bench(args) -> int:
    seed = _seed(args)
    algorithms = args.algorithms.split(",")
    for algorithm in algorithms:
        if algorithm not in _ALGORITHMS:
            raise InputError(f"unknown algorithm {algorithm!r}")
    instances = [
        random_instance(n=args.n, levels=args.levels, seed=seed + k, edge_prob=args.edge_prob)
        for k in range(args.count)
    ]
    # Refuse instances beyond the oracle's caps before printing anything.
    if "exact" in algorithms:
        for instance in instances:
            _assignment_ranges(instance, _ORACLE_VERTEX_LIMIT)
    print("instance " + " ".join(algorithms))
    for k, instance in enumerate(instances):
        row = [f"seed={seed + k}"]
        for algorithm in algorithms:
            report = _solve_instance(instance, algorithm)
            row.append(str(report.total_cost))
        print(" ".join(row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vgsst",
        description="Solvers and tooling for multi-grade node-weighted Steiner trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve instance files")
    p_solve.add_argument("input", nargs="*", help="instance JSON file(s)")
    p_solve.add_argument(
        "--algorithm",
        choices=_ALGORITHMS,
        default="greedy",
    )
    p_solve.add_argument("--output", "-o", help="solution path (single input only)")
    p_solve.add_argument("--ratio", action="store_true", help="also report cost/optimum")
    p_solve.add_argument("--jobs", type=int, default=1, help="parallel solves for batches")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate instance files")
    p_gen.add_argument("--builtin", choices=["fig3", "fig2"])
    p_gen.add_argument("--random", action="store_true")
    p_gen.add_argument("--n", type=int, default=9)
    p_gen.add_argument("--levels", type=int, default=2)
    p_gen.add_argument("--eps", default="0.1")
    p_gen.add_argument("--edge-prob", type=float, default=0.5, dest="edge_prob")
    p_gen.add_argument("--terminals", type=int, default=None)
    p_gen.add_argument(
        "--terminal-fraction", type=float, default=0.4, dest="terminal_fraction"
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", "-o")
    p_gen.set_defaults(func=cmd_gen)

    p_export = sub.add_parser("export", help="emit DOT drawings or LP models")
    p_export.add_argument("input", help="instance JSON file")
    group = p_export.add_mutually_exclusive_group()
    group.add_argument("--lp", action="store_true", help="cut-model LP text")
    group.add_argument("--dot", action="store_true", help="Graphviz drawing (default)")
    p_export.add_argument("--solution", help="solution file to color grades from")
    p_export.add_argument("--output", "-o")
    p_export.set_defaults(func=cmd_export)

    p_verify = sub.add_parser("verify", help="check a solution file against its instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("solution")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="compare algorithms on seeded families")
    p_bench.add_argument("--n", type=int, default=9)
    p_bench.add_argument("--levels", type=int, default=2)
    p_bench.add_argument("--count", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--edge-prob", type=float, default=0.5, dest="edge_prob")
    p_bench.add_argument(
        "--algorithms", default="greedy,topdown,bottomup", help="comma-separated list"
    )
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, CostPrecisionError, FileNotFoundError, InfeasibleAssignmentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InternalInvariantError, VstContractError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

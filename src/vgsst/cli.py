"""Command-line interface.

Subcommands: solve, gen, export, verify, bench. Every subcommand is
deterministic given its inputs, flags and seed. Exit codes: 0 success,
1 verification failure, 2 input error, 3 internal invariant breach,
4 size cap exceeded.

Each subcommand imports the solver modules it runs inside its own
function, so that start-up, which dominates a single-file call, loads
only what the command needs: a greedy solve never loads the oracles.
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Context, Decimal
from fractions import Fraction

from .costs import Cost, CostPrecisionError
from .instance import (
    InfeasibleAssignmentError,
    InputError,
    Instance,
    InternalInvariantError,
    SizeCapError,
    SolutionReport,
    VstContractError,
    _check_assignment,
    _edge_masks,
    _grade_reach,
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

_ORACLE_VERTEX_LIMIT = 10
_ALGORITHMS = ("greedy", "topdown", "bottomup", "exact")


def _ratio_text(cost: Cost, optimum: Cost) -> str:
    if optimum.micros == 0:
        return "1.0" if cost.micros == 0 else "infinite"
    exact = Fraction(cost.micros, optimum.micros)
    if exact > 2**53:  # floats stop being exact here: six significant digits, as ".6g" prints
        return f"{(Decimal(exact.numerator) / exact.denominator).normalize(Context(prec=6)):g}"
    value = float(exact)
    return f"{value:.1f}" if value == int(value) else f"{value:.6g}"


def _refuse_beyond_oracle_caps(instances: list[Instance]) -> None:
    """Raise ``SizeCapError`` for the first instance the exact oracle
    refuses, before anything is solved."""
    from . import oracle

    for instance in instances:
        oracle._assignment_ranges(instance, _ORACLE_VERTEX_LIMIT)


def _exact_report(instance: Instance) -> SolutionReport:
    """The exact optimum, as every subcommand computes it."""
    from . import oracle

    return oracle.brute_force_optimum(instance, limit=_ORACLE_VERTEX_LIMIT)


def _solve_instance(instance: Instance, algorithm: str) -> SolutionReport:
    if algorithm == "exact":
        return _exact_report(instance)
    norm = normalize(instance)
    if algorithm == "greedy":
        from . import greedy

        report = greedy.solve_greedy(norm.instance)
    else:
        from . import heuristics

        solver = heuristics.solve_topdown if algorithm == "topdown" else heuristics.solve_bottomup
        report = solver(norm.instance, heuristics.greedy_as_vst)
    if norm.instance is not instance:
        report = denormalize_solution(instance, norm, report)
    return report


def _solve_one_file(task: tuple[str, Instance, str, str]) -> tuple[Cost, str]:
    path, instance, algorithm, out_path = task
    report = _solve_instance(instance, algorithm)
    write_atomic(out_path, solution_to_json(report))
    line = f"{path}: cost {report.total_cost} iterations {len(report.iterations)}"
    return report.total_cost, line


def _default_solution_path(input_path: str) -> str:
    stem = input_path[:-5] if input_path.endswith(".json") else input_path
    return stem + ".sol.json"


def cmd_solve(args) -> int:
    if not args.input:
        raise InputError("no instance files given")
    if args.output and len(args.input) > 1:
        raise InputError(f"--output takes a single input, got {len(args.input)} inputs")
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    # Every input is parsed and validated once, here, and refused beyond
    # the oracle's caps before anything is solved or written.
    instances = [read_instance(path) for path in args.input]
    for instance in instances:
        assert_valid(instance, structural_only=True)
    if args.ratio or args.algorithm == "exact":
        _refuse_beyond_oracle_caps(instances)
    tasks = [
        (path, instance, args.algorithm, args.output or _default_solution_path(path))
        for path, instance in zip(args.input, instances)
    ]
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_solve_one_file, tasks))
    else:
        results = [_solve_one_file(t) for t in tasks]

    for path, instance, (cost, line) in zip(args.input, instances, results):
        print(line)
        if args.ratio:
            # An exact solve's cost already is the optimum.
            optimum = cost if args.algorithm == "exact" else _exact_report(instance).total_cost
            print(f"{path}: ratio {_ratio_text(cost, optimum)}")
    return 0


def _seed(args) -> int:
    """``--seed``, unless the environment variable VGSST_SEED overrides it."""
    text = os.environ.get("VGSST_SEED", str(args.seed))
    try:
        return int(text)
    except ValueError:
        raise InputError(f"VGSST_SEED must be an integer, got {text!r}") from None


def cmd_gen(args) -> int:
    from .generators import fig2_instance, fig3_instance, random_instance

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
        from . import oracle

        text = oracle.export_lp(oracle.build_ilp(instance))
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


def _tree_failures(instance: Instance, report: SolutionReport, root: int | None) -> list[str]:
    """Check that the tree edges certify the assignment.

    They must be instance edges forming a spanning tree of the bought
    vertices, and for every grade i the edges between vertices of grade i
    or more must join every terminal demanding i or more. Given a merge
    ``root``, grades must not rise along tree paths away from it: at each
    grade i up to the top, y[root] >= i and the root reaches every vertex
    of grade i or more over the edges between such vertices.
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
    for grade, need in enumerate(instance._demand_masks, start=1):
        if grade == 1:
            need |= support
        if not need:
            continue
        apart = need & ~_grade_reach(tree_masks, y, grade, (need & -need).bit_length() - 1)[1]
        if apart:
            vertex = (apart & -apart).bit_length() - 1
            failures.append(f"grade-{grade} tree edges do not reach vertex {vertex}")
    if root is None or failures:
        return failures
    if y[root] < 1:
        return [f"merge root {root} is not a bought vertex"]
    for grade in range(1, max(y) + 1):
        level, reached = _grade_reach(tree_masks, y, grade, root)
        if y[root] < grade or level & ~reached:
            return [f"grades increase away from root {root} at grade {grade}"]
    return []


def cmd_verify(args) -> int:
    instance = read_instance(args.instance)
    assert_valid(instance, structural_only=True)
    report = read_solution(args.solution)
    root = report.iterations[-1].root if report.iterations else None
    if root is not None and not 0 <= root < instance.num_vertices:
        raise InputError(f"merge root {root} is not a vertex of the instance")
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
    # The merge root is checked only on an otherwise valid certificate.
    failures.extend(_tree_failures(instance, report, None if failures else root))

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    try:
        optimum = _exact_report(instance)
    except SizeCapError:
        ratio = "skipped (beyond oracle caps)"
    else:
        ratio = _ratio_text(report.total_cost, optimum.total_cost)
    print(f"PASS: cost {report.total_cost}, ratio {ratio}")
    return 0


def cmd_bench(args) -> int:
    from .generators import random_instance

    seed = _seed(args)
    if args.count < 1:
        raise InputError(f"--count must be at least 1, got {args.count}")
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
        _refuse_beyond_oracle_caps(instances)
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
    except (InputError, CostPrecisionError, OSError, InfeasibleAssignmentError) as exc:
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

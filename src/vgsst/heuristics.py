"""Layered baseline heuristics.

Both reduce the multi-grade problem to single-grade Steiner tree calls
through a pluggable subroutine. The top-down pass solves one tree per
grade from the highest down, contracting as it goes, and is within a
factor of (number of grades) of optimal when the subroutine is exact.
The bottom-up pass buys one tree at the top grade and then demotes
vertices to the highest requirement below them; it carries no guarantee
and exists as a comparison baseline.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .costs import Cost
from .greedy import solve_greedy
from .instance import (
    Instance,
    SolutionReport,
    VgsstError,
    VstContractError,
    _reach,
    _solver_report,
    assert_valid,
    normalize,
    spanning_tree_by_levels,
)
from .reductions import _build_rooted, _subtree_demand

#: Contract for the single-grade subroutine: takes a one-grade instance
#: (every terminal requiring grade 1) and returns a vertex set that
#: induces a connected subgraph containing all its terminals.
VstSubroutine = Callable[[Instance], frozenset[int]]


def single_grade_view(
    instance: Instance,
    grade: int,
    terminals: Iterable[int],
    free: Iterable[int] = (),
) -> Instance:
    """One-grade instance over the same graph using one cost column.

    Vertices in ``free`` (typically an already-bought, contracted region)
    get a zero cost so the subroutine can roam them at no charge.
    """
    free_set = set(free)
    column = [
        [Cost.zero()] if v in free_set else [instance.costs[v][grade - 1]]
        for v in range(instance.num_vertices)
    ]
    return Instance.build(
        instance.num_vertices,
        instance.edges,
        1,
        {t: 1 for t in terminals},
        column,
    )


def _check_vst_result(view: Instance, result: frozenset[int]) -> None:
    missing = set(view.terminals) - set(result)
    if missing:
        raise VstContractError(f"subroutine result misses terminals {sorted(missing)}")
    chosen = sum(1 << v for v in result if 0 <= v < view.num_vertices)
    reached = _reach(view._neighbor_masks, chosen, view.terminals[0])
    if chosen.bit_count() != len(result) or reached != chosen:
        raise VstContractError("subroutine result does not induce a connected subgraph")


def greedy_as_vst(view: Instance) -> frozenset[int]:
    """Default polynomial subroutine: the merge solver run at one grade.

    Handles terminals with positive cost by normalizing first and mapping
    the zero-cost twins back out of the answer.
    """
    if view.grades != 1:
        raise VgsstError("subroutine views must have exactly one grade")
    norm = normalize(view)
    report = solve_greedy(norm.instance)
    spanned = {v for v in range(view.num_vertices) if report.assignment[v] >= 1}
    spanned.update(view.terminals)
    return frozenset(spanned)


def solve_topdown(instance: Instance, vst: VstSubroutine) -> SolutionReport:
    """Grade-by-grade construction from the top down.

    Each round spans the terminals demanding exactly that grade plus the
    region built so far (represented by a zero-cost member vertex rather
    than an explicit contraction, keeping vertex ids stable), then assigns
    the round's grade to newly bought vertices. Grades never decrease.
    The exit certifies the result once, against the sum of the per-grade
    spends.
    """
    assert_valid(instance)
    n = instance.num_vertices
    y = [0] * n
    spanned: set[int] = set()
    per_grade = [Cost.zero()] * instance.grades

    for grade in range(instance.grades, 0, -1):
        fresh = [t for t in instance.terminals if instance.required[t] == grade]
        if not fresh:
            continue
        terminals = set(fresh)
        if spanned:
            terminals.add(min(spanned))
        view = single_grade_view(instance, grade, terminals, free=spanned)
        result = frozenset(vst(view))
        _check_vst_result(view, result)
        incurred = Cost.zero()
        for v in sorted(result - spanned):
            incurred = incurred + instance.costs[v][grade - 1]
            y[v] = grade
        per_grade[grade - 1] = incurred
        spanned |= result

    total = Cost.from_micros(sum(c.micros for c in per_grade))
    return _solver_report(instance, y, total, grade_costs=tuple(per_grade))


def solve_bottomup(instance: Instance, vst: VstSubroutine) -> SolutionReport:
    """One top-grade tree over all terminals, then demote along subtrees.

    The tree is rooted at the smallest-id terminal demanding the top
    grade; every vertex then drops to the highest requirement found in
    its subtree (terminal-free branches are pruned). Vertices that sit
    between high-demand terminals cannot demote, which is exactly where
    this heuristic loses to the merge solver. The exit builds and checks
    the tree of the demoted assignment.
    """
    assert_valid(instance)
    view = single_grade_view(instance, instance.grades, instance.terminals)
    result = frozenset(vst(view))
    _check_vst_result(view, result)

    indicator = [1 if v in result else 0 for v in range(instance.num_vertices)]
    edges = spanning_tree_by_levels(instance, indicator)
    root = min(v for v in instance.terminals if instance.required[v] == instance.grades)

    _parent, children, order = _build_rooted(edges, root)
    assignment = [0] * instance.num_vertices
    for v, d in _subtree_demand(order, children, instance.required).items():
        assignment[v] = max(d, 0)
    return _solver_report(instance, assignment)

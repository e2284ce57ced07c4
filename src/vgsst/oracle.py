"""Exact desk-scale solvers: exhaustive assignment search and a cut-based
0/1 programming model with an enumerating mini-solver and LP-file export.

Ground truth for every approximation-ratio test in the suite. Both
enumerators share one backend, a best-first walk of the grade lattice
that visits assignments in exact (cost, lexicographic) order and returns
the first feasible one, so results and tie-breaks are reproducible.

The walk asks each infeasible point for the highest coordinate whose
raise could repair it and generates no child beyond it; a pruned child
heads a subtree of infeasible points only (see ``_scan_lattice``).

The cut model stores only what its rows derive from: the neighbour
masks and, per grade, the terminals demanding it. A row's neighbourhood
is its subset's entry in one table of every subset's boundary.
``IlpModel.cuts`` builds the rows from it on first access, as plain
``(grade, subset_mask, neighborhood)`` tuples, for export and
inspection; the solve builds none and scans only the non-dominated
distinct masks of each grade. A row at grade g' >= g whose neighbourhood
is a subset of another row's implies that row: the vertex of grade >= g'
that satisfies it lies in the larger neighbourhood too. Dropping
implied rows leaves the feasible region, and so the first feasible point
of the walk, unchanged.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .costs import Cost, _Record
from .instance import (
    GradeAssignment,
    Instance,
    InternalInvariantError,
    SizeCapError,
    SolutionReport,
    _solver_report,
    assert_valid,
    feasibility_tester,
)

#: Hard ceiling on the candidate count for the assignment oracle.
_PRODUCT_CAP = 10**7


def _assignment_ranges(instance: Instance, limit: int) -> list[tuple[int, int]]:
    """Per-vertex inclusive grade ranges: terminals start at their demand.

    Raises SizeCapError beyond ``limit`` vertices or ``_PRODUCT_CAP``
    candidate assignments.
    """
    if instance.num_vertices > limit:
        raise SizeCapError(
            f"oracle limited to {limit} vertices, got {instance.num_vertices}"
        )
    ranges = [
        (instance.required.get(v, 0), instance.grades)
        for v in range(instance.num_vertices)
    ]
    product = 1
    for lo, hi in ranges:
        product *= hi - lo + 1
    if product > _PRODUCT_CAP:
        raise SizeCapError(f"{product} candidate assignments exceed the oracle cap")
    return ranges


def _cost_tables(instance: Instance, ranges) -> list[list[int]]:
    return [
        [instance.cost_of(v, g).micros for g in range(lo, hi + 1)]
        for v, (lo, hi) in enumerate(ranges)
    ]


def _scan_lattice(ranges, tables, violated) -> tuple[tuple[int, ...], int] | None:
    """Best-first walk of the grade lattice in (cost, lex) order.

    Children raise one coordinate at or right of the last raised one, so
    every assignment is generated exactly once. Cost tables never decrease
    and a raised coordinate makes the vector lexicographically larger, so
    every child's (cost, vector) key exceeds its parent's: the heap pops
    assignments in globally sorted order while holding only the frontier.

    ``violated(y)`` returns None when ``y`` is feasible. Otherwise it
    returns a coordinate ``last`` such that some constraint that ``y``
    fails stays failed until a coordinate at or left of ``last`` rises;
    children are generated only for k in ``start..last``. This is exact:
    a child raising k > ``last``, and every descendant of it, raises only
    coordinates at or right of k, so it agrees with ``y`` up to ``last``
    and fails the same constraint. Pruning therefore removes only
    infeasible points, and every feasible point keeps its parent chain.
    Every node left keeps its (cost, vector) key and so its place in the
    pop order; the first feasible point popped, tie-break included, is
    the one the unpruned walk returns.
    """
    n = len(ranges)
    floors = tuple(lo for lo, _ in ranges)
    base = sum(tables[v][0] for v in range(n))
    heap: list[tuple[int, tuple[int, ...], int]] = [(base, floors, 0)]
    while heap:
        cost, y, start = heapq.heappop(heap)
        last = violated(y)
        if last is None:
            return y, cost
        for k in range(start, last + 1):
            lo, hi = ranges[k]
            g = y[k]
            if g < hi:
                delta = tables[k][g + 1 - lo] - tables[k][g - lo]
                child = y[:k] + (g + 1,) + y[k + 1 :]
                heapq.heappush(heap, (cost + delta, child, k))
    return None


def brute_force_optimum(instance: Instance, limit: int = 10) -> SolutionReport:
    """Exhaustive minimum-cost feasible assignment.

    Enumerates every grade vector that meets the terminal floors, keeps
    the cheapest feasible one (ties broken toward the lexicographically
    smallest vector). Refuses instances beyond ``limit`` vertices or 10^7
    candidates.
    """
    ranges = _assignment_ranges(instance, limit)
    found = _scan_lattice(ranges, _cost_tables(instance, ranges), feasibility_tester(instance))
    if found is None:
        raise InternalInvariantError("a connected instance always has a feasible assignment")
    y, cost_micros = found
    return _solver_report(instance, y, Cost.from_micros(cost_micros))


def exact_vst(view: Instance) -> frozenset[int]:
    """Oracle-backed single-grade subroutine: the true minimum-cost set of
    vertices inducing a connected subgraph over the view's terminals."""
    report = brute_force_optimum(view, limit=view.num_vertices)
    return frozenset(v for v, g in enumerate(report.assignment) if g >= 1)


# ---------------------------------------------------------------------------
# Cut-based 0/1 model


class IlpModel(_Record):
    """Binary model over x[v][i] = "v carries a facility of grade >= i".

    Objective splits each ladder into increments so that a ladder-
    consistent point pays exactly the assignment cost. Cut rows enforce
    per-grade terminal connectivity; ladder rows order the indicators.

    The model holds what its cut rows derive from: each vertex's
    neighbour mask, and per grade i the mask of the terminals demanding
    grade i or more. ``cuts`` builds the rows on first access, from the
    subsets of ``_row_subsets`` and their ``_boundaries`` entries, and
    keeps them; the cache takes no part in equality or hashing.
    """

    def __init__(
        self, num_vertices: int, grades: int,
        objective: tuple[tuple[Cost, ...], ...],  # [v][i-1] -> c_i(v) - c_{i-1}(v)
        neighbor_masks: tuple[int, ...],  # [v] -> bitmask of v's neighbours
        demand_masks: tuple[int, ...],  # [i-1] -> bitmask of terminals demanding >= i
    ):
        self.__dict__.update(
            num_vertices=num_vertices, grades=grades, objective=objective,
            neighbor_masks=neighbor_masks, demand_masks=demand_masks,
        )

    @cached_property
    def cuts(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """Every cut row as ``(grade, subset_mask, neighborhood)``: some
        facility of grade ``grade`` must sit in ``neighborhood``, the
        vertices bordering the subset. Grade ascending, then subset mask
        ascending."""
        boundary = _boundaries(self.neighbor_masks)
        # One tuple per distinct boundary, shared by every row that has it.
        vertices = range(self.num_vertices)
        shared = {b: tuple(v for v in vertices if b >> v & 1) for b in set(boundary)}
        return tuple(
            (grade, s, shared[boundary[s]])
            for grade, subsets in _row_subsets(self).items() for s in subsets
        )

    @property
    def num_variables(self) -> int:
        return self.num_vertices * self.grades

    @property
    def num_constraints(self) -> int:
        """Cut rows plus ladder rows, without building the cuts: a grade
        demanded by c >= 2 terminals has a row for each of the 2^n - 2^(n-c+1)
        subsets holding some but not all of them."""
        n = self.num_vertices
        counts = (mask.bit_count() for mask in self.demand_masks)
        cut_rows = sum((1 << n) - (1 << (n - c + 1)) for c in counts if c >= 2)
        return cut_rows + n * (self.grades - 1)


def _boundaries(neighbor_masks: Sequence[int]) -> list[int]:
    """``boundary[s]`` for every vertex subset mask ``s``: the vertices
    outside ``s`` adjacent to one in it: the neighbourhood of every cut
    row over ``s``. The neighbour-mask unions double per vertex v: the
    subsets holding v get those without it, with v's mask added."""
    spread = [0]
    for nb in neighbor_masks:
        spread += [x | nb for x in spread]
    return [x & ~s for s, x in enumerate(spread)]


def _row_subsets(model: IlpModel) -> dict[int, list[int]]:
    """Per grade i, ascending, its cut rows' subset masks, ascending: the
    subsets holding some but not all of the terminals demanding grade i or
    more. A grade demanded by fewer than two terminals has no entry."""
    every = range(1 << model.num_vertices)
    return {
        grade: [s for s in every if 0 < s & term_mask != term_mask]
        for grade, term_mask in enumerate(model.demand_masks, start=1)
        if term_mask.bit_count() >= 2
    }


def build_ilp(instance: Instance, limit: int = 15) -> IlpModel:
    """The cut model of ``instance``: objective increments, neighbour
    masks and per-grade demand masks.

    Refuses instances beyond ``limit`` vertices, and instances that are
    not normalized: the model has no rows for the terminals' floors, so
    it is exact only where those floors are free. Nothing is enumerated
    here: the boundary table and the rows are built by the first read of
    ``IlpModel.cuts`` and by each solve.
    """
    assert_valid(instance)
    n = instance.num_vertices
    if n > limit:
        raise SizeCapError(f"cut enumeration limited to {limit} vertices, got {n}")
    objective = tuple(
        tuple(
            instance.cost_of(v, i) - instance.cost_of(v, i - 1)
            for i in range(1, instance.grades + 1)
        )
        for v in range(n)
    )
    return IlpModel(
        num_vertices=n,
        grades=instance.grades,
        objective=objective,
        neighbor_masks=instance._neighbor_masks,
        demand_masks=instance._demand_masks,
    )


def export_lp(model: IlpModel) -> str:
    """Deterministic LP-format text for the model.

    Variables are named x_<vertex>_<grade>; cut rows come first (grade
    ascending, subset mask ascending), then ladder rows. Identical models
    produce identical bytes.
    """
    lines = ["Minimize"]
    terms = []
    for v in range(model.num_vertices):
        for i in range(1, model.grades + 1):
            coef = model.objective[v][i - 1].as_decimal_str()
            terms.append(f"{coef} x_{v}_{i}")
    lines.append(" obj: " + " + ".join(terms))
    lines.append("Subject To")
    for grade, subset, neighborhood in model.cuts:
        row = " + ".join(f"x_{v}_{grade}" for v in neighborhood)
        lines.append(f" cut_{grade}_{subset}: {row} >= 1")
    for v in range(model.num_vertices):
        for i in range(1, model.grades):
            lines.append(f" lad_{v}_{i}: x_{v}_{i} - x_{v}_{i + 1} >= 0")
    lines.append("Bounds")
    for v in range(model.num_vertices):
        for i in range(1, model.grades + 1):
            lines.append(f" 0 <= x_{v}_{i} <= 1")
    lines.append("Binaries")
    names = [
        f"x_{v}_{i}"
        for v in range(model.num_vertices)
        for i in range(1, model.grades + 1)
    ]
    lines.append(" " + " ".join(names))
    lines.append("End")
    return "\n".join(lines) + "\n"


class IlpSolution(_Record):
    """Optimum of the 0/1 model: grades recovered from the indicators."""

    def __init__(self, assignment: GradeAssignment, objective: Cost):
        self.__dict__.update(assignment=assignment, objective=objective)


def model_point_feasible(model: IlpModel, y: Sequence[int]) -> bool:
    """Does the ladder encoding of ``y`` satisfy every cut row?"""
    return all(any(y[v] >= grade for v in nbhd) for grade, _, nbhd in model.cuts)


def _minimal_rows(masks_by_grade: Mapping[int, Iterable[int]]) -> list[tuple[int, int]]:
    """The non-dominated (grade, neighbourhood mask) rows.

    Row (g', M') dominates (g, M) when g' >= g and M' is a subset of M:
    whichever v in M' carries grade >= g' also lies in M and carries
    grade >= g, so the dominated row can never be the one that fails.
    Rows come in descending grade, then ascending popcount (ties by
    mask), so every possible dominator comes first; a dominator that was
    dropped has a kept dominator of its own, which dominates this row
    too. The kept rows come out in that order, so the scan tries the
    small masks, the likeliest to fail, first.
    """
    kept: list[tuple[int, int]] = []
    for grade in sorted(masks_by_grade, reverse=True):
        for mask in sorted(sorted(masks_by_grade[grade]), key=int.bit_count):
            for _, low in kept:
                if low & mask == low:
                    break
            else:
                kept.append((grade, mask))
    return kept


def _objective_tables(model: IlpModel) -> list[list[int]]:
    """Per vertex, the objective in micros of each grade 0..top."""
    tables = []
    for v in range(model.num_vertices):
        run = [0]
        for i in range(1, model.grades + 1):
            run.append(run[-1] + model.objective[v][i - 1].micros)
        tables.append(run)
    return tables


def solve_ilp_by_enumeration(model: IlpModel, cap: int = 24) -> IlpSolution:
    """Exact optimum of the model by scanning ladder-consistent points.

    The ladder rows collapse the search to one grade per vertex, scanned
    in (objective, lexicographic) order; the first point satisfying every
    cut is optimal. The scan checks only the non-dominated cut rows (see
    ``_minimal_rows``): each dropped row is implied by a kept one, so the
    feasible region, and with it the first feasible point, is unchanged.
    Each grade's distinct row masks are read from the ``_boundaries``
    table at its ``_row_subsets``; no row tuple is built. A failed row
    (g, M) is repaired only by raising a vertex of M, so the walk is
    pruned at the smallest top vertex of M among the failed rows.
    """
    if model.num_variables > cap:
        raise SizeCapError(
            f"enumeration limited to {cap} binary variables, got {model.num_variables}"
        )
    ranges = [(0, model.grades)] * model.num_vertices

    boundary = _boundaries(model.neighbor_masks)
    masks_by_grade = {
        grade: {boundary[s] for s in subsets} for grade, subsets in _row_subsets(model).items()
    }
    checks = [
        (grade, mask, mask.bit_length() - 1) for grade, mask in _minimal_rows(masks_by_grade)
    ]

    def violated(y: Sequence[int]) -> int | None:
        last = None
        for grade, mask, top in checks:
            rest = mask
            while rest:
                low = rest & -rest
                if y[low.bit_length() - 1] >= grade:
                    break
                rest ^= low
            else:
                if last is None or top < last:
                    last = top
        return last

    found = _scan_lattice(ranges, _objective_tables(model), violated)
    if found is None:
        raise InternalInvariantError("cut model has no feasible point")
    y, objective = found
    return IlpSolution(assignment=tuple(y), objective=Cost.from_micros(objective))

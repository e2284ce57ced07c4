"""Exact desk-scale solvers: exhaustive assignment search and a cut-based
0/1 programming model with an enumerating mini-solver and LP-file export.

Ground truth for every approximation-ratio test in the suite. Both
enumerators share one backend, a best-first walk of the grade lattice
that visits assignments in exact (cost, lexicographic) order and returns
the first feasible one, so results and tie-breaks are reproducible.

The cut model is built in full, for export and inspection, but its scan
checks only the non-dominated rows. A row at grade g' >= g whose
neighbourhood is a subset of another row's implies that row: the vertex
of grade >= g' that satisfies it lies in the larger neighbourhood too.
Dropping implied rows leaves the feasible region, and so the first
feasible point of the walk, unchanged.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .costs import Cost
from .instance import (
    GradeAssignment,
    Instance,
    InternalInvariantError,
    SizeCapError,
    SolutionReport,
    _edge_masks,
    assert_valid,
    extract_tree,
    feasibility_tester,
    solution_cost,
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


def _scan_lattice(ranges, tables, feasible) -> tuple[tuple[int, ...], int] | None:
    """Best-first walk of the grade lattice in (cost, lex) order.

    Children raise one coordinate at or right of the last raised one, so
    every assignment is generated exactly once. Cost tables never decrease
    and a raised coordinate makes the vector lexicographically larger, so
    every child's (cost, vector) key exceeds its parent's: the heap pops
    assignments in globally sorted order while holding only the frontier.
    """
    n = len(ranges)
    floors = tuple(lo for lo, _ in ranges)
    base = sum(tables[v][0] for v in range(n))
    heap: list[tuple[int, tuple[int, ...], int]] = [(base, floors, 0)]
    while heap:
        cost, y, start = heapq.heappop(heap)
        if feasible(y):
            return y, cost
        for k in range(start, n):
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
    assert_valid(instance, structural_only=True)
    ranges = _assignment_ranges(instance, limit)
    found = _scan_lattice(ranges, _cost_tables(instance, ranges), feasibility_tester(instance))
    if found is None:
        raise InternalInvariantError("a connected instance always has a feasible assignment")
    y, cost_micros = found
    assignment: GradeAssignment = tuple(y)
    total = Cost.from_micros(cost_micros)
    if total != solution_cost(instance, assignment):
        raise InternalInvariantError("oracle cost accounting mismatch")
    return SolutionReport(
        assignment=assignment,
        tree_edges=extract_tree(instance, assignment),
        total_cost=total,
    )


def exact_vst(view: Instance) -> frozenset[int]:
    """Oracle-backed single-grade subroutine: the true minimum-cost set of
    vertices inducing a connected subgraph over the view's terminals."""
    report = brute_force_optimum(view, limit=view.num_vertices)
    return frozenset(v for v, g in enumerate(report.assignment) if g >= 1)


# ---------------------------------------------------------------------------
# Cut-based 0/1 model


@dataclass(frozen=True)
class CutRow:
    """One connectivity cut: some grade-``grade`` facility must sit in the
    neighborhood of the vertex set ``subset`` (stored as a bitmask)."""

    grade: int
    subset_mask: int
    neighborhood: tuple[int, ...]


@dataclass(frozen=True)
class IlpModel:
    """Binary model over x[v][i] = "v carries a facility of grade >= i".

    Objective splits each ladder into increments so that a ladder-
    consistent point pays exactly the assignment cost. Cut rows enforce
    per-grade terminal connectivity; ladder rows order the indicators.
    """

    num_vertices: int
    grades: int
    objective: tuple[tuple[Cost, ...], ...]  # [v][i-1] -> c_i(v) - c_{i-1}(v)
    cuts: tuple[CutRow, ...]

    @property
    def num_variables(self) -> int:
        return self.num_vertices * self.grades

    @property
    def num_constraints(self) -> int:
        return len(self.cuts) + self.num_vertices * (self.grades - 1)


def build_ilp(instance: Instance, limit: int = 15) -> IlpModel:
    """Enumerate all cut constraints over every vertex subset, per grade.

    A subset gets a grade-i row when it contains at least one but not all
    of the terminals demanding grade i or more; grades demanded by fewer
    than two terminals can never produce such a row and are skipped.
    """
    assert_valid(instance, structural_only=True)
    n = instance.num_vertices
    if n > limit:
        raise SizeCapError(f"cut enumeration limited to {limit} vertices, got {n}")
    adj_mask = _edge_masks(n, instance.edges)
    # spread[s]: every neighbour of some vertex of s, one DP over subsets.
    spread = [0] * (1 << n)
    for subset in range(1, 1 << n):
        low = subset & -subset
        spread[subset] = spread[subset ^ low] | adj_mask[low.bit_length() - 1]
    # One tuple per distinct boundary, shared by every row that has it.
    shared: dict[int, tuple[int, ...]] = {}

    cuts: list[CutRow] = []
    for grade in range(1, instance.grades + 1):
        demanding = [t for t in instance.terminals if instance.required[t] >= grade]
        count = len(demanding)
        if count < 2:
            continue
        term_mask = 0
        for t in demanding:
            term_mask |= 1 << t
        for subset in range(1, 1 << n):
            inside = (subset & term_mask).bit_count()
            if inside == 0 or inside == count:
                continue
            boundary = spread[subset] & ~subset
            neighborhood = shared.get(boundary)
            if neighborhood is None:
                neighborhood = shared[boundary] = tuple(
                    v for v in range(n) if boundary >> v & 1
                )
            cuts.append(CutRow(grade=grade, subset_mask=subset, neighborhood=neighborhood))

    objective = tuple(
        tuple(
            instance.cost_of(v, i) - instance.cost_of(v, i - 1)
            for i in range(1, instance.grades + 1)
        )
        for v in range(n)
    )
    return IlpModel(
        num_vertices=n, grades=instance.grades, objective=objective, cuts=cuts
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
    for cut in model.cuts:
        row = " + ".join(f"x_{v}_{cut.grade}" for v in cut.neighborhood)
        lines.append(f" cut_{cut.grade}_{cut.subset_mask}: {row} >= 1")
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


@dataclass(frozen=True)
class IlpSolution:
    """Optimum of the 0/1 model: grades recovered from the indicators."""

    assignment: GradeAssignment
    objective: Cost

    def indicator(self, v: int, grade: int) -> int:
        return 1 if self.assignment[v] >= grade else 0


def model_point_feasible(model: IlpModel, y: Sequence[int]) -> bool:
    """Does the ladder encoding of ``y`` satisfy every cut row?"""
    for cut in model.cuts:
        if not any(y[v] >= cut.grade for v in cut.neighborhood):
            return False
    return True


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
    """
    if model.num_variables > cap:
        raise SizeCapError(
            f"enumeration limited to {cap} binary variables, got {model.num_variables}"
        )
    ranges = [(0, model.grades)] * model.num_vertices

    bits = [1 << v for v in range(model.num_vertices)]
    masks: dict[tuple[int, ...], int] = {}
    masks_by_grade: dict[int, set[int]] = {}
    for cut in model.cuts:
        mask = masks.get(cut.neighborhood)
        if mask is None:
            mask = masks[cut.neighborhood] = sum(map(bits.__getitem__, cut.neighborhood))
        masks_by_grade.setdefault(cut.grade, set()).add(mask)
    checks = _minimal_rows(masks_by_grade)

    def feasible(y: Sequence[int]) -> bool:
        for grade, mask in checks:
            rest = mask
            hit = False
            while rest:
                low = rest & -rest
                if y[low.bit_length() - 1] >= grade:
                    hit = True
                    break
                rest ^= low
            if not hit:
                return False
        return True

    found = _scan_lattice(ranges, _objective_tables(model), feasible)
    if found is None:
        raise InternalInvariantError("cut model has no feasible point")
    y, objective = found
    return IlpSolution(assignment=tuple(y), objective=Cost.from_micros(objective))

"""Problem data model: instances, assignments, feasibility, costs, trees.

An instance is an undirected connected graph whose vertices carry
non-decreasing per-grade cost ladders, plus a set of terminals that each
demand a minimum service grade. A solution is a grade assignment
``y: vertex -> {0..grades}``; vertices with ``y >= 1`` form the bought
subtree, and any two terminals must be joined by bought vertices whose
grade covers the lower of the two requirements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .costs import Cost

GradeAssignment = tuple[int, ...]
Edge = tuple[int, int]


class VgsstError(Exception):
    """Base class for library errors."""


class InputError(VgsstError):
    """Malformed instance/solution data or parameters."""


class SizeCapError(VgsstError):
    """An exact method was asked to run beyond its enumeration cap."""


class InternalInvariantError(VgsstError):
    """A solver produced state that violates its own guarantees (a bug)."""


class InfeasibleAssignmentError(VgsstError):
    """An operation requiring a feasible assignment was given an infeasible one."""


def canon_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Instance:
    """An immutable problem instance.

    num_vertices: vertices are ids 0..n-1.
    edges: canonical sorted tuple of (u, v) pairs with u < v.
    grades: number of service grades, >= 1.
    required: terminal -> required grade in {1..grades}.
    costs: per vertex, a ladder (c_1, ..., c_grades) of Cost values.
    """

    num_vertices: int
    edges: tuple[Edge, ...]
    grades: int
    required: Mapping[int, int]
    costs: tuple[tuple[Cost, ...], ...]

    @staticmethod
    def build(
        num_vertices: int,
        edges: Iterable[Edge],
        grades: int,
        required: Mapping[int, int],
        costs: Sequence[Sequence],
    ) -> "Instance":
        """Canonicalise raw data; rejects structurally unusable input."""
        if num_vertices < 1:
            raise InputError("instance needs at least one vertex")
        if grades < 1:
            raise InputError("instance needs at least one grade")
        edge_list = sorted(canon_edge(u, v) for u, v in edges)
        for u, v in edge_list:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise InputError(f"edge ({u},{v}) out of vertex range")
        for v, r in required.items():
            if not 0 <= v < num_vertices:
                raise InputError(f"terminal {v} out of vertex range")
            if not 1 <= r <= grades:
                raise InputError(f"required grade {r} at vertex {v} out of range")
        if len(costs) != num_vertices:
            raise InputError("cost table must have one ladder per vertex")
        ladders = []
        for v, ladder in enumerate(costs):
            if len(ladder) != grades:
                raise InputError(f"cost ladder at vertex {v} must have {grades} entries")
            ladders.append(tuple(Cost.parse(c) for c in ladder))
        return Instance(
            num_vertices=num_vertices,
            edges=tuple(edge_list),
            grades=grades,
            required=dict(sorted(required.items())),
            costs=tuple(ladders),
        )

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def terminals(self) -> tuple[int, ...]:
        return tuple(sorted(self.required))

    def cost_of(self, v: int, grade: int) -> Cost:
        """c_grade(v) with grade 0 defined as free."""
        if grade == 0:
            return Cost.zero()
        return self.costs[v][grade - 1]

    def is_terminal(self, v: int) -> bool:
        return v in self.required


@dataclass(frozen=True)
class Violation:
    """One broken instance invariant, naming the offending element."""

    rule: str
    subject: object
    detail: str

    def __str__(self) -> str:
        return f"{self.rule} at {self.subject}: {self.detail}"


class _UnionFind:
    """Union-find with path halving; Kruskal's forest in
    :func:`spanning_tree_by_levels`."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def _edge_masks(n: int, edges: Iterable[Edge]) -> list[int]:
    """Per-vertex neighbour bitmasks of an undirected edge list."""
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _reach(adj_masks: Sequence[int], level: int, start: int) -> int:
    """Bitmask of the vertices joined to ``start`` inside the ``level`` set.

    The one connectivity routine of the package: feasibility, graph
    connectivity, subroutine results and verified trees all reduce to it.
    """
    reached = frontier = 1 << start
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= adj_masks[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & level & ~reached
        reached |= frontier
    return reached


def validate(instance: Instance, structural_only: bool = False) -> list[Violation]:
    """Check instance invariants; returns violations instead of raising.

    With ``structural_only`` the normalisation invariants (zero terminal
    ladders up to the requirement, top grade actually demanded) are skipped;
    :func:`normalize` accepts instances that only break those.
    """
    out: list[Violation] = []
    seen: set[Edge] = set()
    for u, v in instance.edges:
        if u == v:
            out.append(Violation("self-loop", (u, v), "self-loops are rejected"))
        elif (u, v) in seen:
            out.append(Violation("duplicate-edge", (u, v), "multigraphs are rejected"))
        seen.add((u, v))
    full = (1 << instance.num_vertices) - 1
    if _reach(_edge_masks(instance.num_vertices, instance.edges), full, 0) != full:
        out.append(Violation("connectivity", None, "graph is not connected"))
    for v, ladder in enumerate(instance.costs):
        for i in range(1, instance.grades):
            if ladder[i] < ladder[i - 1]:
                out.append(
                    Violation(
                        "cost-monotonicity",
                        v,
                        f"c_{i + 1}={ladder[i]} < c_{i}={ladder[i - 1]}",
                    )
                )
                break
    if not instance.required:
        out.append(Violation("terminals", None, "terminal set is empty"))
    if structural_only or not instance.required:
        return out
    if max(instance.required.values()) != instance.grades:
        out.append(
            Violation(
                "grade-span",
                None,
                f"no terminal requires the top grade {instance.grades}",
            )
        )
    for v, r in instance.required.items():
        if instance.costs[v][r - 1] != Cost.zero():
            out.append(
                Violation(
                    "terminal-cost",
                    v,
                    f"terminal ladder not zero up to required grade {r}",
                )
            )
    return out


def assert_valid(instance: Instance, structural_only: bool = False) -> None:
    issues = validate(instance, structural_only=structural_only)
    if issues:
        raise InputError("; ".join(str(i) for i in issues))


# ---------------------------------------------------------------------------
# Normalisation


@dataclass(frozen=True)
class NormalizeResult:
    """Outcome of :func:`normalize`.

    offset is the fixed cost every solution of the original instance pays
    for its costly terminals; optimal cost of ``instance`` plus ``offset``
    equals the optimal cost of the original. ``moved`` maps each original
    terminal that was rewired to its zero-cost replacement vertex.
    """

    instance: Instance
    offset: Cost
    moved: Mapping[int, int]


def normalize(instance: Instance) -> NormalizeResult:
    """Rewrite an instance into the canonical zero-terminal-cost form.

    Terminals whose required grade is not free get a zero-cost twin hanging
    off them that takes over the terminal role; the original vertex keeps
    its ladder reduced by the required-grade cost (so later upgrades are
    charged only their increment). The grade count drops to the highest
    grade actually demanded.
    """
    if not instance.required:
        raise InputError("cannot normalize an instance with no terminals")
    assert_valid(instance, structural_only=True)

    top = max(instance.required.values())
    n = instance.num_vertices
    edges = list(instance.edges)
    ladders = [list(ladder[:top]) for ladder in instance.costs]
    required: dict[int, int] = {}
    moved: dict[int, int] = {}
    offset = Cost.zero()

    for v in sorted(instance.required):
        r = instance.required[v]
        paid = instance.costs[v][r - 1]
        if paid == Cost.zero():
            required[v] = r
            continue
        # Twin vertex takes over the terminal role; v's ladder keeps only
        # the increments above the grade every solution had to buy anyway.
        twin = n
        n += 1
        edges.append(canon_edge(v, twin))
        ladders.append([Cost.zero()] * top)
        ladders[v] = [
            c - paid if c > paid else Cost.zero() for c in ladders[v]
        ]
        required[twin] = r
        moved[v] = twin
        offset = offset + paid

    normalized = Instance.build(n, edges, top, required, ladders)
    return NormalizeResult(instance=normalized, offset=offset, moved=moved)


def denormalize_solution(
    original: Instance, norm: NormalizeResult, report: "SolutionReport"
) -> "SolutionReport":
    """Map a solution of a normalized instance back to the original.

    Rewired terminals are lifted to at least their demand (free in the
    normalized cost model), twin vertices and their pendant edges are
    dropped, and the fixed offset is added back to the cost. Iteration
    telemetry is dropped because it references normalized vertex ids.
    """
    n = original.num_vertices
    y = list(report.assignment[:n])
    for v in norm.moved:
        y[v] = max(y[v], original.required[v])
    assignment = tuple(y)
    tree = tuple(e for e in report.tree_edges if e[0] < n and e[1] < n)
    total = report.total_cost + norm.offset
    if total != solution_cost(original, assignment):
        raise InternalInvariantError("offset accounting broke during mapping")
    ok, witness = check_feasible(original, assignment)
    if not ok:
        raise InternalInvariantError(
            f"mapped solution infeasible on the original instance: {witness}"
        )
    return SolutionReport(
        assignment=assignment,
        tree_edges=tree,
        total_cost=total,
        iterations=(),
        grade_costs=None,
    )


# ---------------------------------------------------------------------------
# Edge-cost elimination


@dataclass(frozen=True)
class EdgeWeightedInstance:
    """An instance variant whose edges also carry cost ladders."""

    num_vertices: int
    edges: tuple[Edge, ...]
    grades: int
    required: Mapping[int, int]
    vertex_costs: tuple[tuple[Cost, ...], ...]
    edge_costs: Mapping[Edge, tuple[Cost, ...]]


def edge_costs_to_vertex_costs(problem: EdgeWeightedInstance) -> Instance:
    """Subdivide every weighted edge so all costs live on vertices.

    Each edge u-v becomes u-w, w-v through a fresh non-terminal w carrying
    the edge's ladder. Zero-cost edges are subdivided too: uniform shape
    beats special cases. Subdivision ids follow canonical edge order.
    """
    n = problem.num_vertices
    edges: list[Edge] = []
    ladders = [list(l) for l in problem.vertex_costs]
    for u, v in sorted(canon_edge(a, b) for a, b in problem.edges):
        ladder = problem.edge_costs[canon_edge(u, v)]
        if len(ladder) != problem.grades:
            raise InputError(f"edge ({u},{v}) ladder must have {problem.grades} entries")
        for i in range(1, problem.grades):
            if ladder[i] < ladder[i - 1]:
                raise InputError(f"edge ({u},{v}) ladder is not non-decreasing")
        w = n
        n += 1
        edges.append(canon_edge(u, w))
        edges.append(canon_edge(w, v))
        ladders.append(list(ladder))
    return Instance.build(n, edges, problem.grades, dict(problem.required), ladders)


# ---------------------------------------------------------------------------
# Feasibility and cost


@dataclass(frozen=True)
class FeasibilityWitness:
    """Why an assignment is infeasible.

    kind "requirement": ``vertex`` is a terminal with y below its demand.
    kind "disconnected": ``grade`` is the smallest level whose bought
    subgraph separates the terminal pair ``pair`` (lexicographically
    smallest such pair).
    """

    kind: str
    vertex: int | None = None
    grade: int | None = None
    pair: Edge | None = None


def _check_assignment(instance: Instance, y: GradeAssignment) -> None:
    """Raise InputError unless ``y`` has one grade in 0..grades per vertex."""
    if len(y) != instance.num_vertices:
        raise InputError(
            f"assignment has {len(y)} entries for {instance.num_vertices} vertices"
        )
    for v in range(instance.num_vertices):
        if not 0 <= y[v] <= instance.grades:
            raise InputError(f"grade {y[v]} at vertex {v} out of range")


def check_feasible(
    instance: Instance, y: GradeAssignment
) -> tuple[bool, FeasibilityWitness | None]:
    """Decide feasibility of a grade assignment.

    Feasible iff every terminal meets its requirement and, for each grade
    i, all terminals demanding i or more sit in one connected component of
    the subgraph induced by ``{v : y(v) >= i}``.
    """
    _check_assignment(instance, y)
    for v in instance.terminals:
        if y[v] < instance.required[v]:
            return False, FeasibilityWitness(kind="requirement", vertex=v)

    adj_masks = _edge_masks(instance.num_vertices, instance.edges)
    for grade in range(1, instance.grades + 1):
        needed = [v for v in instance.terminals if instance.required[v] >= grade]
        if len(needed) < 2:
            continue
        level = sum(1 << v for v, g in enumerate(y) if g >= grade)
        reached = _reach(adj_masks, level, needed[0])
        # Every needed terminal is in the level set, so the lexicographically
        # smallest separated pair starts at needed[0].
        for b in needed[1:]:
            if not reached >> b & 1:
                return False, FeasibilityWitness(
                    kind="disconnected", grade=grade, pair=(needed[0], b)
                )
    return True, None


def feasibility_tester(instance: Instance):
    """Build a fast boolean-only feasibility closure over bitmasks.

    Same criterion as :func:`check_feasible`, without witness bookkeeping;
    meant for enumeration loops.
    """
    n = instance.num_vertices
    adj_masks = _edge_masks(n, instance.edges)
    floors = [(v, instance.required[v]) for v in instance.terminals]
    grade_needs: list[tuple[int, int, int]] = []  # (grade, need_mask, start vertex)
    for grade in range(instance.grades, 0, -1):
        needed = [v for v in instance.terminals if instance.required[v] >= grade]
        if len(needed) >= 2:
            grade_needs.append((grade, sum(1 << v for v in needed), needed[0]))

    def feasible(y: Sequence[int]) -> bool:
        for v, r in floors:
            if y[v] < r:
                return False
        for grade, need, start in grade_needs:
            level = 0
            for v in range(n):
                if y[v] >= grade:
                    level |= 1 << v
            if need & ~_reach(adj_masks, level, start):
                return False
        return True

    return feasible


def solution_cost(instance: Instance, y: GradeAssignment) -> Cost:
    """Total cost of the installed facilities: sum of c_{y(v)}(v)."""
    _check_assignment(instance, y)
    total = Cost.zero()
    for v, grade in enumerate(y):
        if grade >= 1:
            total = total + instance.costs[v][grade - 1]
    return total


# ---------------------------------------------------------------------------
# Tree extraction


def spanning_tree_by_levels(
    instance: Instance, y: Sequence[int], allowed: Iterable[int] | None = None
) -> list[Edge]:
    """Grade-nested spanning forest of the bought vertices.

    Processes grades from the top down, joining components with edges whose
    endpoints both reach the current grade; edges are tried in smallest-
    endpoint order, so the result is reproducible. Any two vertices already
    connected inside a level set stay connected using only that level set.
    """
    keep = set(allowed) if allowed is not None else None
    uf = _UnionFind(instance.num_vertices)
    chosen: list[Edge] = []
    for grade in range(instance.grades, 0, -1):
        for u, v in instance.edges:
            if keep is not None and (u not in keep or v not in keep):
                continue
            if y[u] >= grade and y[v] >= grade and uf.union(u, v):
                chosen.append((u, v))
    return chosen


def extract_tree(instance: Instance, y: GradeAssignment) -> tuple[Edge, ...]:
    """Turn a feasible assignment into explicit tree edges.

    The result spans exactly ``{v : y(v) >= 1}`` and, for any two terminals,
    the unique tree path between them stays at or above the lower of their
    requirements (guaranteed by the top-down level construction).
    """
    ok, witness = check_feasible(instance, y)
    if not ok:
        raise InfeasibleAssignmentError(f"assignment is infeasible: {witness}")
    support = [v for v in range(instance.num_vertices) if y[v] >= 1]
    chosen = spanning_tree_by_levels(instance, y)
    if len(chosen) != len(support) - 1:
        raise InfeasibleAssignmentError(
            "bought vertices do not induce a connected subgraph; "
            "no single tree spans them"
        )
    return tuple(sorted(chosen))


# ---------------------------------------------------------------------------
# Solution reports


@dataclass(frozen=True)
class IterationRecord:
    """Telemetry for one greedy merge."""

    gamma: object  # exact Fraction
    merged_count: int
    incurred_cost: Cost
    root: int
    center: int
    grade: int
    subset_roots: tuple[int, ...]


@dataclass(frozen=True)
class SolutionReport:
    """A solved instance: assignment, explicit tree, exact cost, telemetry.

    grade_costs, when present, carries the per-grade spend of the layered
    heuristic (in-memory only; not part of the solution file format).
    """

    assignment: GradeAssignment
    tree_edges: tuple[Edge, ...]
    total_cost: Cost
    iterations: tuple[IterationRecord, ...] = ()
    grade_costs: tuple[Cost, ...] | None = field(default=None, compare=False)

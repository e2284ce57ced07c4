"""Problem data model: instances, assignments, feasibility, costs, trees.

An instance is an undirected connected graph whose vertices carry
non-decreasing per-grade cost ladders, plus a set of terminals that each
demand a minimum service grade. A solution is a grade assignment
``y: vertex -> {0..grades}``; vertices with ``y >= 1`` form the bought
subtree, and any two terminals must be joined by bought vertices whose
grade covers the lower of the two requirements.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .costs import Cost, _Record

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


class VstContractError(VgsstError):
    """The plugged single-grade subroutine returned an unusable vertex set."""


def canon_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Instance(_Record):
    """An immutable problem instance.

    num_vertices: vertices are ids 0..n-1.
    edges: canonical sorted tuple of (u, v) pairs with u < v.
    grades: number of service grades, >= 1.
    required: terminal -> required grade in {1..grades}.
    costs: per vertex, a ladder (c_1, ..., c_grades) of Cost values.

    The cached properties are computed on first access, outside equality.
    """

    def __init__(
        self, num_vertices: int, edges: tuple[Edge, ...], grades: int,
        required: Mapping[int, int], costs: tuple[tuple[Cost, ...], ...],
    ):
        self.__dict__.update(
            num_vertices=num_vertices, edges=edges, grades=grades, required=required, costs=costs
        )

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

    @cached_property
    def _demand_masks(self) -> tuple[int, ...]:
        """``[i - 1]``: bitmask of the terminals demanding grade i or more."""
        req = self.required.items()
        return tuple(sum(1 << t for t, r in req if r >= i) for i in range(1, self.grades + 1))

    @cached_property
    def _grade_needs(self) -> tuple[tuple[int, int, int], ...]:
        """(grade, demand mask, lowest demanding terminal) per grade two or more demand."""
        masks = enumerate(self._demand_masks, start=1)
        return tuple((i, m, (m & -m).bit_length() - 1) for i, m in masks if m.bit_count() >= 2)

    @cached_property
    def _neighbor_masks(self) -> tuple[int, ...]:
        return tuple(_edge_masks(self.num_vertices, self.edges))

    def cost_of(self, v: int, grade: int) -> Cost:
        """c_grade(v) with grade 0 defined as free."""
        if grade == 0:
            return Cost.zero()
        return self.costs[v][grade - 1]


class Violation(_Record):
    """One broken instance invariant, naming the offending element."""

    def __init__(self, rule: str, subject: object, detail: str):
        self.__dict__.update(rule=rule, subject=subject, detail=detail)

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


def _grade_reach(masks: Sequence[int], y: Sequence[int], grade: int, start: int):
    """The one per-grade test: bitmasks of ``{v : y[v] >= grade}`` and what ``start`` reaches."""
    level = 0
    for v, g in enumerate(y):
        if g >= grade:
            level |= 1 << v
    return level, _reach(masks, level, start)


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
    if _reach(instance._neighbor_masks, full, 0) != full:
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


class NormalizeResult(_Record):
    """Outcome of :func:`normalize`.

    offset is the fixed cost every solution of the original instance pays
    for its costly terminals; optimal cost of ``instance`` plus ``offset``
    equals the optimal cost of the original. ``moved`` maps each original
    terminal that was rewired to its zero-cost replacement vertex.
    """

    def __init__(self, instance: Instance, offset: Cost, moved: Mapping[int, int]):
        self.__dict__.update(instance=instance, offset=offset, moved=moved)


def normalize(instance: Instance) -> NormalizeResult:
    """Rewrite an instance into the canonical zero-terminal-cost form.

    Terminals whose required grade is not free get a zero-cost twin hanging
    off them that takes over the terminal role; the original vertex keeps
    its ladder reduced by the required-grade cost (so later upgrades are
    charged only their increment). The grade count drops to the highest
    grade actually demanded. An instance already in this form is returned
    as is.
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

    if moved or top < instance.grades:
        instance = Instance.build(n, edges, top, required, ladders)
    return NormalizeResult(instance=instance, offset=offset, moved=moved)


def denormalize_solution(
    original: Instance, norm: NormalizeResult, report: "SolutionReport"
) -> "SolutionReport":
    """Map a solution of a normalized instance back to the original.

    Rewired terminals are lifted to at least their demand (free in the
    normalized cost model), twin vertices are dropped, and the fixed
    offset is added back to the cost; the solver exit builds the tree of
    the lifted assignment. Iteration telemetry is dropped because it
    references normalized vertex ids.
    """
    y = list(report.assignment[: original.num_vertices])
    for v in norm.moved:
        y[v] = max(y[v], original.required[v])
    return _solver_report(original, y, report.total_cost + norm.offset)


# ---------------------------------------------------------------------------
# Edge-cost elimination


class EdgeWeightedInstance(_Record):
    """An instance variant whose edges also carry cost ladders."""

    def __init__(
        self, num_vertices: int, edges: tuple[Edge, ...], grades: int,
        required: Mapping[int, int], vertex_costs: tuple[tuple[Cost, ...], ...],
        edge_costs: Mapping[Edge, tuple[Cost, ...]],
    ):
        self.__dict__.update(
            num_vertices=num_vertices, edges=edges, grades=grades, required=required,
            vertex_costs=vertex_costs, edge_costs=edge_costs,
        )


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


class FeasibilityWitness(_Record):
    """Why an assignment is infeasible.

    kind "requirement": ``vertex`` is a terminal with y below its demand.
    kind "disconnected": ``grade`` is the smallest level whose bought
    subgraph separates the terminal pair ``pair`` (lexicographically
    smallest such pair).
    """

    def __init__(
        self, kind: str, vertex: int | None = None, grade: int | None = None,
        pair: Edge | None = None,
    ):
        self.__dict__.update(kind=kind, vertex=vertex, grade=grade, pair=pair)


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

    for grade, need, start in instance._grade_needs:
        # Every needed terminal is in the level set, so the lexicographically
        # smallest separated pair starts at the smallest needed terminal.
        apart = need & ~_grade_reach(instance._neighbor_masks, y, grade, start)[1]
        if apart:
            return False, FeasibilityWitness(
                kind="disconnected", grade=grade, pair=(start, (apart & -apart).bit_length() - 1)
            )
    return True, None


def feasibility_tester(instance: Instance):
    """Build a violation closure over bitmasks for the oracle's lattice walk.

    Same criterion as :func:`check_feasible`, without witness bookkeeping.
    The closure returns None for a feasible ``y``. Otherwise it returns
    the highest vertex whose raise can repair the first failure found:
    a terminal below its floor returns its own index; a grade whose
    demanding terminals are split returns the top vertex of the boundary
    of the first one's component in the level set. Every boundary vertex
    sits below that grade, and every path out of the component crosses
    the boundary, so no raise right of that vertex joins the terminals.
    """
    adj_masks = instance._neighbor_masks
    floors = [(v, instance.required[v]) for v in instance.terminals]
    grade_needs = instance._grade_needs[::-1]  # top grade first

    def violated(y: Sequence[int]) -> int | None:
        for v, r in floors:
            if y[v] < r:
                return v
        for grade, need, start in grade_needs:
            reached = _grade_reach(adj_masks, y, grade, start)[1]
            if need & ~reached:
                spread = 0
                rest = reached
                while rest:
                    low = rest & -rest
                    spread |= adj_masks[low.bit_length() - 1]
                    rest ^= low
                return (spread & ~reached).bit_length() - 1
        return None

    return violated


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


def spanning_tree_by_levels(instance: Instance, y: Sequence[int]) -> list[Edge]:
    """Grade-nested spanning forest of the bought vertices.

    Processes grades from the top down, joining components with edges whose
    endpoints both reach the current grade; edges are tried in smallest-
    endpoint order, so the result is reproducible. Any two vertices already
    connected inside a level set stay connected using only that level set.
    """
    uf = _UnionFind(instance.num_vertices)
    chosen: list[Edge] = []
    for grade in range(instance.grades, 0, -1):
        for u, v in instance.edges:
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


class IterationRecord(_Record):
    """Telemetry for one greedy merge; ``gamma`` is an exact Fraction."""

    def __init__(
        self, gamma, merged_count: int, incurred_cost: Cost, root: int, center: int,
        grade: int, subset_roots: tuple[int, ...],
    ):
        self.__dict__.update(
            gamma=gamma, merged_count=merged_count, incurred_cost=incurred_cost, root=root,
            center=center, grade=grade, subset_roots=subset_roots,
        )


class SolutionReport(_Record):
    """A solved instance: assignment, explicit tree, exact cost, telemetry.

    grade_costs, when present, carries the per-grade spend of the layered
    heuristic (in-memory only; not part of the solution file format, nor
    of equality and hashing).
    """

    def __init__(
        self, assignment: GradeAssignment, tree_edges: tuple[Edge, ...], total_cost: Cost,
        iterations: tuple[IterationRecord, ...] = (), grade_costs: tuple[Cost, ...] | None = None,
    ):
        self.__dict__.update(
            assignment=assignment, tree_edges=tree_edges, total_cost=total_cost,
            iterations=iterations, grade_costs=grade_costs,
        )

    def _key(self) -> tuple:
        return self._values()[:4]


def _solver_report(
    instance: Instance, y: Sequence[int], total: Cost | None = None, **telemetry
) -> SolutionReport:
    """The one exit of every solver: certify ``y``, then report it.

    Builds every solver's tree itself, with :func:`extract_tree`, which
    checks feasibility once, and checks the solver's own ``total``, when
    it keeps one, against :func:`solution_cost`: cost, feasibility and
    tree are certified on one path. A failure here is the solver's bug,
    not the caller's, so every one raises ``InternalInvariantError``.
    """
    y = tuple(y)
    try:
        cost = solution_cost(instance, y)
        tree = extract_tree(instance, y)
    except (InputError, InfeasibleAssignmentError) as exc:
        raise InternalInvariantError(f"solver result rejected: {exc}") from exc
    if total is not None and total != cost:
        raise InternalInvariantError(f"solver total {total} differs from assignment cost {cost}")
    return SolutionReport(assignment=y, tree_edges=tree, total_cost=cost, **telemetry)

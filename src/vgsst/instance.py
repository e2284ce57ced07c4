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

    Make instances with :meth:`build`, which enforces the structural
    rules, or derive one on a built instance's graph with
    :meth:`_regraded`; ``generators.random_instance`` checks its drawn
    graph with :func:`_graph_violations` and finishes as ``build`` does.
    The constructor is the plain record constructor, called only by
    their shared tail :func:`_on_graph` and by unpickling. The cached
    properties are computed on first access, or carried over from the
    graph's, outside equality.
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
        """Canonicalise raw data and refuse structurally unusable input.

        Out-of-range ids, grades and ladder lengths raise at the first one
        found. Then every self-loop, duplicate edge, disconnected graph,
        decreasing ladder and empty terminal set is reported in one
        ``InputError`` that joins the :class:`Violation` lines with "; ".
        The graph rules run here, the terminal and ladder rules in the
        tail :func:`_on_graph` that :meth:`_regraded` shares. The
        normalization rules are :func:`validate`'s.
        """
        if num_vertices < 1:
            raise InputError("instance needs at least one vertex")
        if grades < 1:
            raise InputError("instance needs at least one grade")
        edge_list = tuple(sorted(canon_edge(u, v) for u, v in edges))
        for u, v in edge_list:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise InputError(f"edge ({u},{v}) out of vertex range")
        masks, issues = _graph_violations(num_vertices, edge_list)
        graph = {"_neighbor_masks": masks}
        return _on_graph(num_vertices, edge_list, graph, grades, required, costs, issues)

    def _regraded(
        self, grades: int, required: Mapping[int, int], costs: Sequence[Sequence]
    ) -> "Instance":
        """This instance's graph with other grades, terminals and ladders.

        The graph rules held when this instance was built, so only the
        tail :func:`_on_graph` runs, and the result shares this
        instance's ``edges``, ``adjacency`` and ``_neighbor_masks``.
        It equals :meth:`build` of the same fields and raises the same
        errors; ``grades`` is at least 1 at every caller.
        """
        graph = {"adjacency": self.adjacency, "_neighbor_masks": self._neighbor_masks}
        return _on_graph(self.num_vertices, self.edges, graph, grades, required, costs)

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


def _path(parent, top: int, v: int) -> tuple[int, ...]:
    """Vertices from ``top`` down to ``v``: the parent links from ``v``
    climbed to its ancestor ``top``, reversed.

    The one parent-link walker of the package: the greedy's predecessor
    rows and the rooted trees of ``reductions`` both walk through it. A
    negative link before ``top`` means ``v`` was never reached from it.
    """
    path = [v]
    while path[-1] != top:
        prev = parent[path[-1]]
        if prev < 0:
            raise InternalInvariantError(f"no path recorded to {v}")
        path.append(prev)
    return tuple(reversed(path))


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
    """The one per-grade test: bitmasks of ``{v : y[v] >= grade}`` and what
    ``start`` reaches inside it, which is nothing when ``start`` is outside."""
    level = 0
    for v, g in enumerate(y):
        if g >= grade:
            level |= 1 << v
    return level, _reach(masks, level, start) if level >> start & 1 else 0


def _graph_violations(
    n: int, edges: tuple[Edge, ...]
) -> tuple[tuple[int, ...], list[Violation]]:
    """The graph half of :meth:`Instance.build`: the neighbour masks of the
    sorted ``edges``, and their self-loops, duplicates and disconnection."""
    out: list[Violation] = []
    prev = None
    for edge in edges:  # sorted, so a duplicate follows its twin
        if edge[0] == edge[1]:
            out.append(Violation("self-loop", edge, "self-loops are rejected"))
        elif edge == prev:
            out.append(Violation("duplicate-edge", edge, "multigraphs are rejected"))
        prev = edge
    masks = tuple(_edge_masks(n, edges))
    full = (1 << n) - 1
    if _reach(masks, full, 0) != full:
        out.append(Violation("connectivity", None, "graph is not connected"))
    return masks, out


def _on_graph(
    n: int, edges: tuple[Edge, ...], graph: dict, grades: int,
    required: Mapping[int, int], costs: Sequence[Sequence], issues: Sequence[Violation] = (),
) -> Instance:
    """The tail every instance is made by: check and store its terminals and ladders.

    ``edges`` are canonical and sorted, ``graph`` holds the cached
    properties computed from them, and ``issues`` the graph's
    violations. Terminal ids and demands and ladder lengths raise at the
    first one out of range; decreasing ladders and an empty terminal
    set follow ``issues`` into one ``InputError``.
    """
    for v, r in required.items():
        if not 0 <= v < n:
            raise InputError(f"terminal {v} out of vertex range")
        if not 1 <= r <= grades:
            raise InputError(f"required grade {r} at vertex {v} out of range")
    if len(costs) != n:
        raise InputError("cost table must have one ladder per vertex")
    out = list(issues)
    ladders = []
    for v, ladder in enumerate(costs):
        if len(ladder) != grades:
            raise InputError(f"cost ladder at vertex {v} must have {grades} entries")
        ladder = tuple(map(Cost.parse, ladder))
        for i in range(1, grades):
            if ladder[i].micros < ladder[i - 1].micros:
                detail = f"c_{i + 1}={ladder[i]} < c_{i}={ladder[i - 1]}"
                out.append(Violation("cost-monotonicity", v, detail))
                break
        ladders.append(ladder)
    if not required:
        out.append(Violation("terminals", None, "terminal set is empty"))
    if out:
        raise InputError("; ".join(str(i) for i in out))
    instance = Instance(n, edges, grades, dict(sorted(required.items())), tuple(ladders))
    instance.__dict__.update(graph)
    return instance


def validate(instance: Instance) -> list[Violation]:
    """The normalization rules a built instance can still break.

    Returns violations instead of raising: some terminal must demand the
    top grade (``grade-span``), and every terminal's ladder must be zero
    up to its demand (``terminal-cost``). :func:`normalize` rewrites any
    built instance into this form; the structural rules are
    :meth:`Instance.build`'s. The check reads only the terminals.
    """
    out: list[Violation] = []
    if max(instance.required.values()) != instance.grades:
        out.append(
            Violation(
                "grade-span",
                None,
                f"no terminal requires the top grade {instance.grades}",
            )
        )
    for v, r in instance.required.items():
        if instance.costs[v][r - 1].micros:
            out.append(
                Violation(
                    "terminal-cost",
                    v,
                    f"terminal ladder not zero up to required grade {r}",
                )
            )
    return out


def assert_valid(instance: Instance) -> None:
    issues = validate(instance)
    if issues:
        raise InputError("; ".join(str(i) for i in issues))


# ---------------------------------------------------------------------------
# Normalisation


class NormalizeResult(_Record):
    """Outcome of :func:`normalize`.

    ``instance`` has the original's vertices, edges and terminals, and
    ``offset`` is what every feasible solution of the original pays for
    its terminals' floors: each feasible assignment costs exactly
    ``offset`` more in the original than in ``instance``.
    """

    def __init__(self, instance: Instance, offset: Cost):
        self.__dict__.update(instance=instance, offset=offset)


def normalize(instance: Instance) -> NormalizeResult:
    """Rewrite an instance into the canonical zero-terminal-cost form.

    Every feasible assignment lifts terminal t to its demand R(t), so t's
    ladder drops by its cost at R(t), floored at zero, and that cost
    moves into the offset; later upgrades are charged only their
    increment. The grade count drops to the highest grade demanded.
    Vertices, edges, terminals and the feasible set stay the same. An
    instance already in this form is returned as is; any other is
    rebuilt on the original's checked graph.
    """
    top = max(instance.required.values())
    ladders = [list(ladder[:top]) for ladder in instance.costs]
    offset = Cost.zero()
    for v, r in instance.required.items():
        paid = ladders[v][r - 1]
        ladders[v] = [c - paid if c > paid else Cost.zero() for c in ladders[v]]
        offset = offset + paid

    if offset != Cost.zero() or top < instance.grades:
        instance = instance._regraded(top, instance.required, ladders)
    return NormalizeResult(instance=instance, offset=offset)


def denormalize_solution(
    original: Instance, norm: NormalizeResult, report: "SolutionReport"
) -> "SolutionReport":
    """Map a solution of a normalized instance back to the original.

    The assignment carries over unchanged and the offset is added back to
    the cost; the solver exit builds its tree in the original. Merge
    records are dropped: their costs are priced on the reduced ladders.
    """
    return _solver_report(original, report.assignment, report.total_cost + norm.offset)


# ---------------------------------------------------------------------------
# Edge-cost elimination


def edge_costs_to_vertex_costs(
    instance: Instance, edge_costs: Mapping[Edge, Sequence]
) -> Instance:
    """Subdivide every edge of ``instance`` so all costs live on vertices.

    ``edge_costs`` maps each of ``instance.edges``, and nothing else, to
    the edge's cost ladder. Each edge u-v becomes u-w, w-v through a fresh
    non-terminal w carrying that ladder. Zero-cost edges are subdivided
    too: uniform shape beats special cases. Subdivision ids follow
    canonical edge order.
    """
    missing = sorted(set(instance.edges) - set(edge_costs))
    extra = sorted(set(edge_costs) - set(instance.edges))
    if missing or extra:
        raise InputError(f"edge ladders missing for {missing}, given for non-edges {extra}")
    n = instance.num_vertices
    edges: list[Edge] = []
    ladders = list(instance.costs)
    for u, v in instance.edges:
        ladder = [Cost.parse(c) for c in edge_costs[u, v]]
        if len(ladder) != instance.grades:
            raise InputError(f"edge ({u},{v}) ladder must have {instance.grades} entries")
        for i in range(1, instance.grades):
            if ladder[i] < ladder[i - 1]:
                raise InputError(f"edge ({u},{v}) ladder is not non-decreasing")
        edges += [(u, n), (v, n)]
        ladders.append(ladder)
        n += 1
    return Instance.build(n, edges, instance.grades, instance.required, ladders)


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

    Each edge is tried once, at the grade of its lower endpoint (the top
    grade for any higher). Trying every edge at every grade chooses the
    same list: an edge whose lower endpoint sits above grade g was tried
    at its own, higher grade, and its endpoints have been joined since.
    """
    top = instance.grades
    buckets: list[list[Edge]] = [[] for _ in range(top + 1)]
    for edge in instance.edges:
        # Compares, not min(): every solver exit runs this over all edges,
        # and the call would cost more than the per-grade passes it replaces.
        u, v = edge
        low = y[u]
        if y[v] < low:
            low = y[v]
        if low > 0:
            buckets[low if low < top else top].append(edge)
    uf = _UnionFind(instance.num_vertices)
    chosen: list[Edge] = []
    for bucket in reversed(buckets):
        for u, v in bucket:
            if uf.union(u, v):
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

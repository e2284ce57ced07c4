"""Reductions and structural checkers backing the property-test suite.

Contains the layered-digraph reduction to directed Steiner arborescence
(with an exact subset-DP oracle for desk-size instances), the
grade-respecting-tree predicate, subtree demotion against a marked vertex
set, and the constructive decomposition of a demoted tree into rooted
spiders. The decomposition mirrors the inductive argument it certifies:
peel the deepest subtree holding two or more marked vertices, re-demote
the remainder, repeat.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, Sequence

from .costs import Cost, _Record
from .instance import (
    Edge,
    GradeAssignment,
    InputError,
    Instance,
    InternalInvariantError,
    SizeCapError,
    assert_valid,
)

# ---------------------------------------------------------------------------
# Directed Steiner arborescence reduction


class DstInstance(_Record):
    """Layered directed copy of an instance.

    Node (v, i) — vertex v at grade i — has id (i-1)*n + v. Each
    undirected edge becomes two arcs per layer priced at the head's cost
    for that layer; free down-arcs let a bought vertex serve every lower
    layer. Reaching node (v, i) from the root corresponds to installing
    grade i (or better) on v.
    """

    def __init__(
        self, num_graph_vertices: int, grades: int, num_nodes: int,
        arcs: tuple[tuple[int, int, int], ...],  # (tail, head, cost micros)
        root: int, terminals: tuple[int, ...],
    ):
        self.__dict__.update(
            num_graph_vertices=num_graph_vertices, grades=grades, num_nodes=num_nodes,
            arcs=arcs, root=root, terminals=terminals,
        )

    def node(self, v: int, grade: int) -> int:
        return (grade - 1) * self.num_graph_vertices + v


def reduce_to_dst(instance: Instance) -> DstInstance:
    """Build the layered digraph; root is the smallest-id top-demand terminal."""
    assert_valid(instance)
    n = instance.num_vertices
    levels = instance.grades

    def node(v: int, grade: int) -> int:
        return (grade - 1) * n + v

    arcs: list[tuple[int, int, int]] = []
    for grade in range(1, levels + 1):
        for u, v in instance.edges:
            arcs.append((node(u, grade), node(v, grade), instance.costs[v][grade - 1].micros))
            arcs.append((node(v, grade), node(u, grade), instance.costs[u][grade - 1].micros))
    for grade in range(2, levels + 1):
        for v in range(n):
            arcs.append((node(v, grade), node(v, grade - 1), 0))

    root_vertex = min(
        v for v in instance.terminals if instance.required[v] == levels
    )
    terminals = tuple(
        sorted(node(v, instance.required[v]) for v in instance.terminals)
    )
    return DstInstance(
        num_graph_vertices=n,
        grades=levels,
        num_nodes=n * levels,
        arcs=tuple(arcs),
        root=node(root_vertex, levels),
        terminals=terminals,
    )


def brute_force_dst(dst: DstInstance, cap: int = 14) -> Cost:
    """Exact minimum-cost arborescence reaching every terminal from the root.

    Dreyfus-Wagner subset DP, growing each subset by one Dijkstra as
    Erickson, Monma and Veinott do. ``dp[S][v]``, the cheapest arborescence
    rooted at node v that reaches the terminals S, arcs priced at their
    head, is the least of: 0 when S = {v}; dp[A][v] + dp[B][v] over splits
    A + B = S; c(v, w) + dp[S][w] over arcs (v, w). This is exact, since an
    optimal arborescence either is v alone, or branches at v into two
    optimal parts that pay v's price once (on the arc into v), or leaves v
    by one arc. A Dijkstra over the reversed arcs, seeded with the first two
    terms, resolves the third. Intended for equivalence tests only.
    """
    if dst.num_nodes > cap:
        raise SizeCapError(f"arborescence oracle limited to {cap} nodes, got {dst.num_nodes}")
    n = dst.num_nodes
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for tail, head, cost in dst.arcs:
        into[head].append((tail, cost))

    INF = float("inf")
    full = (1 << len(dst.terminals)) - 1
    dp: list[list] = [[]] * (full + 1)
    for mask in range(1, full + 1):
        label: list = [INF] * n
        if mask & (mask - 1) == 0:
            label[dst.terminals[mask.bit_length() - 1]] = 0
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                for v, (a, b) in enumerate(zip(dp[sub], dp[mask ^ sub])):
                    if a + b < label[v]:
                        label[v] = a + b
            sub = (sub - 1) & mask
        heap = [(d, v) for v, d in enumerate(label) if d < INF]
        heapq.heapify(heap)
        while heap:
            d, u = heapq.heappop(heap)
            if d > label[u]:
                continue
            for v, c in into[u]:
                if d + c < label[v]:
                    label[v] = d + c
                    heapq.heappush(heap, (d + c, v))
        dp[mask] = label
    best = dp[full][dst.root]
    if best == INF:
        raise InternalInvariantError("terminals unreachable in the layered digraph")
    return Cost.from_micros(int(best))


# ---------------------------------------------------------------------------
# Rooted tree utilities


def _build_rooted(tree_edges: Sequence[Edge], root: int):
    """Parents/children/BFS order for an edge list; rejects non-trees."""
    nodes = {root}
    adj: dict[int, list[int]] = {root: []}
    for u, v in tree_edges:
        nodes.update((u, v))
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    parent = {root: -1}
    children: dict[int, list[int]] = {v: [] for v in nodes}
    order = [root]
    for v in order:
        for u in sorted(adj.get(v, ())):
            if u not in parent:
                parent[u] = v
                children[v].append(u)
                order.append(u)
    if len(order) != len(nodes) or len(tree_edges) != len(nodes) - 1:
        raise InputError("edge list is not a tree containing the root")
    return parent, children, order


def _climb(parent: Mapping[int, int], v: int, top: int) -> tuple[int, ...]:
    """Vertices from ``v`` up the parent links to its ancestor ``top``."""
    path = [v]
    while path[-1] != top:
        path.append(parent[path[-1]])
    return tuple(path)


def check_grt(
    instance: Instance,
    tree_edges: Sequence[Edge],
    y: GradeAssignment,
    root: int,
) -> tuple[bool, tuple[int, ...] | None]:
    """Is every root-to-vertex path non-increasing in grade?

    Returns the offending root-to-vertex path on failure (first one found
    in breadth-first order).
    """
    parent, children, order = _build_rooted(tree_edges, root)
    for v in order:
        for u in children[v]:
            if y[u] > y[v]:
                return False, _climb(parent, u, root)[::-1]
    return True, None


def _subtree_demand(
    order: Sequence[int],
    children: dict[int, list[int]],
    y: Sequence[int] | Mapping[int, int],
    marked: set[int],
) -> dict[int, int]:
    """Highest marked grade in each subtree; -1 where no marked vertex."""
    demand = {v: (y[v] if v in marked else -1) for v in order}
    for v in reversed(order):
        for u in children[v]:
            demand[v] = max(demand[v], demand[u])
    return demand


def m_optimize(
    instance: Instance,
    tree_edges: Sequence[Edge],
    y: GradeAssignment,
    root: int,
    marked: Iterable[int],
) -> tuple[tuple[Edge, ...], GradeAssignment]:
    """Prune and demote a grade-respecting tree against a marked set.

    Branches holding no marked vertex are removed; every kept unmarked
    vertex drops to the highest grade of a marked vertex below it. Marked
    vertices keep their grades. The result is still grade-respecting and
    never costs more.
    """
    marked_set = set(marked)
    if root not in marked_set:
        raise InputError("the root must belong to the marked set")
    ok, path = check_grt(instance, tree_edges, y, root)
    if not ok:
        raise InputError(f"input tree is not grade-respecting: path {path}")
    _parent, children, order = _build_rooted(tree_edges, root)
    demand = _subtree_demand(order, children, y, marked_set)

    new_y = list(y)
    kept = set()
    for v in order:
        if demand[v] < 0:
            new_y[v] = 0
        else:
            kept.add(v)
            if v not in marked_set:
                new_y[v] = demand[v]
    edges = tuple(sorted((u, v) for u, v in tree_edges if u in kept and v in kept))
    return edges, tuple(new_y)


# ---------------------------------------------------------------------------
# Rooted spider decomposition


class Spider(_Record):
    """One rooted spider: a grade-respecting tree with a single branch point.

    ``root_path`` runs from the center to the root (a single vertex when
    they coincide); ``legs`` run from the center to each non-root leaf.
    All paths include the center as their first element. ``feet`` are the
    marked vertices of the spider other than its root.
    """

    def __init__(
        self, root: int, center: int, root_path: tuple[int, ...],
        legs: tuple[tuple[int, ...], ...], members: frozenset[int], feet: tuple[int, ...],
    ):
        self.__dict__.update(
            root=root, center=center, root_path=root_path, legs=legs, members=members, feet=feet
        )


class RootedSpiderDecomposition(_Record):
    """Vertex-disjoint rooted spiders covering a marked set, plus the
    grades in force when each spider was carved off."""

    def __init__(self, spiders: tuple[Spider, ...], grades: GradeAssignment):
        self.__dict__.update(spiders=spiders, grades=grades)


def _assert_spider_shape(children: dict[int, list[int]], center: int, nodes: set[int]):
    for v in nodes:
        if v != center and len(children[v]) > 1:
            raise InternalInvariantError(
                f"vertex {v} branches although {center} was chosen deepest"
            )


def _collect(children: dict[int, list[int]], v: int) -> list[int]:
    out = [v]
    for u in out:
        out.extend(children[u])
    return out


def _leaf_paths(children: dict[int, list[int]], center: int) -> list[tuple[int, ...]]:
    """Center-to-leaf paths of a spider-shaped subtree, leaves sorted."""
    paths = []
    for first in children[center]:
        path = [center, first]
        while children[path[-1]]:
            (nxt,) = children[path[-1]]
            path.append(nxt)
        paths.append(tuple(path))
    if not children[center]:
        paths = []
    return sorted(paths, key=lambda p: p[-1])


def spider_decompose(
    instance: Instance,
    tree_edges: Sequence[Edge],
    y: GradeAssignment,
    root: int,
    marked: Iterable[int],
) -> RootedSpiderDecomposition:
    """Cut a demoted grade-respecting tree into vertex-disjoint rooted spiders.

    Repeatedly selects the vertex furthest from the root (ties to the
    smaller id) whose subtree still holds at least two marked vertices:
    that subtree is one spider, rooted at the vertex itself when marked,
    else at a marked descendant of equal grade (which exists because the
    tree is demoted). When only the root remains marked outside, the final
    spider absorbs the root-to-center path; the remainder is re-demoted
    before recursing, matching the construction this certifies.
    """
    marked_set = set(marked)
    if len(marked_set) < 2:
        raise InputError("decomposition needs at least two marked vertices")
    if root not in marked_set:
        raise InputError("the root must belong to the marked set")
    edges, work_y = m_optimize(instance, tree_edges, y, root, marked_set)
    canonical = {tuple(sorted(e)) for e in edges}
    if canonical != {tuple(sorted(e)) for e in tree_edges} or tuple(work_y) != tuple(y):
        raise InputError("input tree is not demoted against the marked set")

    m_cur = set(marked_set)
    spiders: list[Spider] = []

    def emit(center: int, spider_root: int, nodes: list[int], root_path: tuple[int, ...]):
        node_set = set(nodes) | set(root_path)
        _assert_spider_shape(children, center, set(nodes))
        legs = [
            p for p in _leaf_paths(children, center) if p[-1] != spider_root
        ]
        feet = tuple(sorted((node_set & marked_set) - {spider_root}))
        spiders.append(
            Spider(
                root=spider_root,
                center=center,
                root_path=root_path,
                legs=tuple(legs),
                members=frozenset(node_set),
                feet=feet,
            )
        )

    while True:
        parent, children, order = _build_rooted(edges, root)
        depth = {root: 0}
        for v in order:
            for u in children[v]:
                depth[u] = depth[v] + 1
        counts = {v: (1 if v in m_cur else 0) for v in order}
        for v in reversed(order):
            for u in children[v]:
                counts[v] += counts[u]
        deepest = max(
            (v for v in order if counts[v] >= 2),
            key=lambda v: (depth[v], -v),
        )

        if deepest == root:
            emit(root, root, order, (root,))
            break

        subtree = _collect(children, deepest)
        rest = m_cur - set(subtree)
        if len(rest) == 1:
            emit(deepest, root, subtree, _climb(parent, deepest, root))
            break

        if deepest in m_cur:
            spider_root = deepest
            root_path = (deepest,)
        else:
            equals = sorted(
                w for w in subtree if w in m_cur and work_y[w] == work_y[deepest]
            )
            if not equals:
                raise InternalInvariantError(
                    "demoted tree lost its equal-grade marked descendant"
                )
            spider_root = equals[0]
            root_path = _climb(parent, spider_root, deepest)[::-1]
        emit(deepest, spider_root, subtree, root_path)

        # Detach the spider, then prune and re-demote the remainder so the
        # equal-grade guarantee keeps holding for later rounds.
        cut = set(subtree)
        remaining = [(u, v) for u, v in edges if u not in cut and v not in cut]
        m_cur = rest
        edges, work_y = m_optimize(instance, remaining, work_y, root, m_cur)

    return RootedSpiderDecomposition(spiders=tuple(spiders), grades=tuple(work_y))

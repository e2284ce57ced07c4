"""Reductions and structural checkers backing the property-test suite.

Contains the layered-digraph reduction to directed Steiner arborescence
(with an exact subset-DP oracle for desk-size instances), the
grade-respecting-tree predicate, subtree demotion against a marked vertex
set, and the constructive decomposition of a demoted tree into rooted
spiders. The decomposition mirrors the inductive argument it certifies
(peel the deepest subtree holding two or more marked vertices, re-demote
the remainder, repeat) in one deepest-first sweep over the tree.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from operator import add
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

    @cached_property
    def in_arcs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``[h]``: the (tail, cost) of every arc into node h, in arc order.

        On ``reduce_to_dst``'s output, node (v, i) is entered from (u, i)
        for each neighbour u at c_i(v), and from (v, i + 1) at 0. Raises
        ``InputError`` for an arc with an endpoint outside
        0..num_nodes-1 or a negative cost.
        """
        n = self.num_nodes
        into: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for arc in self.arcs:
            tail, head, cost = arc
            if not (0 <= tail < n and 0 <= head < n):
                raise InputError(f"arc {arc} has an endpoint outside 0..{n - 1}")
            if cost < 0:
                raise InputError(f"arc {arc} has negative cost {cost}")
            into[head].append((tail, cost))
        return tuple(map(tuple, into))


def reduce_to_dst(instance: Instance) -> DstInstance:
    """Build the layered digraph; root is the smallest-id top-demand terminal."""
    assert_valid(instance)
    n = instance.num_vertices
    levels = instance.grades
    edges = instance.edges

    arcs: list[tuple[int, int, int]] = []
    for layer in range(levels):
        base = layer * n
        price = [column[layer].micros for column in instance.costs]
        for u, v in edges:
            arcs.append((base + u, base + v, price[v]))
            arcs.append((base + v, base + u, price[u]))
    for base in range(n, levels * n, n):
        arcs.extend([(base + v, base - n + v, 0) for v in range(n)])

    root_vertex = min(
        v for v in instance.terminals if instance.required[v] == levels
    )
    terminals = tuple(
        sorted((instance.required[v] - 1) * n + v for v in instance.terminals)
    )
    return DstInstance(
        num_graph_vertices=n,
        grades=levels,
        num_nodes=n * levels,
        arcs=tuple(arcs),
        root=(levels - 1) * n + root_vertex,
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
    by one arc. A Dijkstra over the reversed arcs (``dst.in_arcs``), seeded
    with the first two terms, resolves the third. Its heap holds the ints
    ``label * num_nodes + node``, which pop in (label, node) order. Intended
    for equivalence tests only.

    The lattice holds only the terminals other than the root r: an
    arborescence rooted at r contains r and pays nothing for it, since no
    arc into r is bought, so dp[T][r] = dp[T - {r}][r]. That is 2^(k-1) - 1
    subset Dijkstras for k terminals, r among them, instead of 2^k - 1.
    Only dp[T - {r}][r] is read from the last subset, so its Dijkstra
    returns when it pops r: labels pop in non-decreasing order, so r's
    label is final then. With no terminal other than r the answer is 0.

    Raises ``SizeCapError`` above ``cap`` nodes, and ``InputError`` for a
    root, terminal or arc endpoint outside 0..num_nodes-1, a negative arc
    cost (see ``DstInstance.in_arcs``), or a terminal that no arc path
    from the root reaches, naming the first such terminal. Each
    singleton's Dijkstra runs to the end (or pops the root), so its root
    label is final when checked; once every terminal is reachable, so is
    the whole set. ROADMAP item 11's fixed digraphs may later turn this
    refusal into a "no arborescence" result.
    """
    if dst.num_nodes > cap:
        raise SizeCapError(f"arborescence oracle limited to {cap} nodes, got {dst.num_nodes}")
    n = dst.num_nodes
    root = dst.root
    for name, node in (("root", root), *(("terminal", t) for t in dst.terminals)):
        if not 0 <= node < n:
            raise InputError(f"{name} {node} outside 0..{n - 1}")
    into = dst.in_arcs
    others = [t for t in dst.terminals if t != root]
    if not others:
        return Cost.zero()

    INF = float("inf")
    pop, push = heapq.heappop, heapq.heappush
    full = (1 << len(others)) - 1
    dp: list[list] = [[]] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        if mask == low:
            label: list = [INF] * n
            label[others[low.bit_length() - 1]] = 0
        else:
            # Each split once: the part holding the lowest terminal.
            sums = []
            sub = (mask - 1) & mask
            while sub:
                if sub & low:
                    sums.append(map(add, dp[sub], dp[mask ^ sub]))
                sub = (sub - 1) & mask
            label = list(map(min, *sums)) if len(sums) > 1 else list(sums[0])
        stop = root if mask == full else -1
        heap = [d * n + v for v, d in enumerate(label) if d < INF]
        heapq.heapify(heap)
        while heap:
            key = pop(heap)
            u = key % n
            d = key // n
            if d > label[u]:
                continue
            if u == stop:
                break
            for v, c in into[u]:
                c += d
                if c < label[v]:
                    label[v] = c
                    push(heap, c * n + v)
        if mask == low and label[root] == INF:
            cut_off = others[low.bit_length() - 1]
            raise InputError(f"terminal {cut_off} is unreachable from root {root}")
        dp[mask] = label
    return Cost.from_micros(int(label[root]))


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
    path = _grade_rise(*_build_rooted(tree_edges, root), y, root)
    return path is None, path


def _grade_rise(parent, children, order, y, root) -> tuple[int, ...] | None:
    """``check_grt``'s test on a tree already rooted by ``_build_rooted``:
    the first root-to-vertex path, in that order, whose grade rises."""
    for v in order:
        for u in children[v]:
            if y[u] > y[v]:
                return _climb(parent, u, root)[::-1]
    return None


def _subtree_demand(
    order: Sequence[int],
    children: dict[int, list[int]],
    marked: Mapping[int, int],
) -> dict[int, int]:
    """Highest grade in ``marked`` (vertex -> grade) per subtree; -1 if none."""
    demand = {v: marked.get(v, -1) for v in order}
    for v in reversed(order):
        for u in children[v]:
            demand[v] = max(demand[v], demand[u])
    return demand


def _root_marked(tree_edges: Sequence[Edge], y: GradeAssignment, root: int, marked: set[int]):
    """``_build_rooted`` plus ``_subtree_demand``, once the root is marked,
    the tree grade-respecting from it and every marked vertex on it."""
    if root not in marked:
        raise InputError("the root must belong to the marked set")
    parent, children, order = _build_rooted(tree_edges, root)
    path = _grade_rise(parent, children, order, y, root)
    if path is not None:
        raise InputError(f"input tree is not grade-respecting: path {path}")
    off_tree = marked.difference(order)
    if off_tree:
        raise InputError(f"marked vertices not on the tree: {sorted(off_tree)}")
    return parent, children, order, _subtree_demand(order, children, {v: y[v] for v in marked})


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
    vertices keep their grades and must all lie on the tree. The result is
    still grade-respecting and never costs more.
    """
    *_, demand = _root_marked(tree_edges, y, root, set(marked))
    new_y = list(y)
    for v, d in demand.items():
        new_y[v] = max(d, 0)
    edges = tuple(sorted((u, v) for u, v in tree_edges if min(demand[u], demand[v]) >= 0))
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


def _leaf_paths(
    children: dict[int, list[int]], count: Mapping[int, int], center: int
) -> list[tuple[int, ...]]:
    """Center-to-leaf paths down the live children (``count`` nonzero) of
    ``center``, leaves sorted. Their union is the spider's live subtree;
    a vertex below the center with two live children raises
    ``InternalInvariantError``, since the center was not the deepest."""
    paths = []
    for path in ([center, u] for u in children[center] if count[u]):
        while live := [u for u in children[path[-1]] if count[u]]:
            if len(live) > 1:
                raise InternalInvariantError(
                    f"vertex {path[-1]} branches although {center} was chosen deepest"
                )
            path.append(live[0])
        paths.append(tuple(path))
    return sorted(paths, key=lambda p: p[-1])


def spider_decompose(
    instance: Instance,
    tree_edges: Sequence[Edge],
    y: GradeAssignment,
    root: int,
    marked: Iterable[int],
) -> RootedSpiderDecomposition:
    """Cut a demoted grade-respecting tree into vertex-disjoint rooted spiders.

    Repeatedly takes the deepest vertex (ties to the smaller id) whose
    subtree still holds two or more marked vertices: that subtree is one
    spider, rooted at the vertex itself when marked, else at a marked
    descendant of equal grade (which exists because the tree is demoted).
    When only the root remains marked outside, the final spider absorbs the
    root-to-center path. Pruning and re-demoting the remainder after a
    spider changes marked counts and grades only on the center's
    ancestors, which come later in deepest-first order; so one sweep over
    the tree, rooted once, finds every spider and settles each vertex at
    its visit. Its descendants, being deeper, are settled already: its
    count of uncarved marked vertices is its own mark plus its children's
    counts (0 for a carved child), and an unmarked vertex's re-demoted
    grade is the largest among its children with a nonzero count, or 0 if
    there are none. After the last spider the sweep goes on settling
    without carving, so ``grades`` holds the re-demotion every vertex had
    when the last spider was cut.
    """
    marked_set = set(marked)
    if len(marked_set) < 2:
        raise InputError("decomposition needs at least two marked vertices")
    parent, children, order, demand = _root_marked(tree_edges, y, root, marked_set)
    if any(demand[v] != y[v] for v in order):
        raise InputError("input tree is not demoted against the marked set")

    depth = {root: 0}
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    count: dict[int, int] = {}  # uncarved marked vertices in each settled subtree
    left = len(marked_set)  # marked vertices in no spider yet
    grades = list(y)
    spiders: list[Spider] = []
    for center in sorted(order, key=lambda v: (-depth[v], v)):
        live = [u for u in children[center] if count[u]]
        count[center] = int(center in marked_set) + sum(count[u] for u in live)
        if center not in marked_set:
            grades[center] = max((grades[u] for u in live), default=0)
        if count[center] < 2 or not left:
            continue
        paths = _leaf_paths(children, count, center)
        members = set().union(*paths)
        last = left - count[center] < 2  # nothing but the root left outside
        if last:
            spider_root = root
            root_path = _climb(parent, center, root)
        elif center in marked_set:
            spider_root = center
            root_path = (center,)
        else:
            equals = sorted(
                w for w in members if w in marked_set and grades[w] == grades[center]
            )
            if not equals:
                raise InternalInvariantError(
                    "demoted tree lost its equal-grade marked descendant"
                )
            spider_root = equals[0]
            root_path = _climb(parent, spider_root, center)[::-1]
        node_set = members | set(root_path)
        spiders.append(
            Spider(
                root=spider_root,
                center=center,
                root_path=root_path,
                legs=tuple(p for p in paths if p[-1] != spider_root),
                members=frozenset(node_set),
                feet=tuple(sorted((node_set & marked_set) - {spider_root})),
            )
        )
        if last:
            left = 0
        else:
            left -= count[center]
            count[center] = 0  # carved; no later walk passes it to the members

    return RootedSpiderDecomposition(spiders=tuple(spiders), grades=tuple(grades))

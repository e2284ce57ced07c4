"""Layered-digraph reduction, arborescence oracle, tree checkers, spiders."""

import hashlib
import heapq
import json
import os
import random

import pytest

from vgsst import (
    Cost,
    DstInstance,
    InputError,
    Instance,
    InternalInvariantError,
    SizeCapError,
    brute_force_dst,
    brute_force_optimum,
    check_grt,
    fig2_instance,
    m_optimize,
    random_instance,
    reduce_to_dst,
    solution_cost,
    solve_greedy,
    spider_decompose,
)
from vgsst import reductions

from conftest import MODEL_RUNGS, mixed_corpus, optimized_grt, random_grt


def _host(n, edges, levels=4, root_demand=None):
    demand = levels if root_demand is None else root_demand
    return Instance.build(n, edges, levels, {0: demand}, [[0] * levels] * n)


# The thirteen-vertex demotion example: a four-grade tree with seven marked
# vertices whose decomposition has exactly three spiders.
DEMO_EDGES = [
    (0, 7), (0, 4), (0, 2), (0, 1), (7, 8), (7, 9),
    (9, 10), (9, 11), (9, 12), (4, 5), (4, 6), (2, 3),
]
DEMO_Y = (4, 3, 3, 2, 3, 2, 1, 2, 2, 2, 2, 1, 2)
DEMO_M = {0, 2, 5, 6, 9, 10, 11}


# ---------------------------------------------------------------------------
# Reduction


def test_reduction_sizes(fig3):
    dst = reduce_to_dst(fig3)
    assert dst.num_nodes == 16
    assert len(dst.arcs) == 2 * 8 * 2 + 8 * (2 - 1)
    assert len(dst.terminals) == 4
    assert dst.root == dst.node(0, 2)


def test_reduction_single_grade_is_vertex_to_arc_rewrite():
    inst = Instance.build(3, [(0, 1), (1, 2)], 1, {0: 1, 2: 1}, [[0], [5], [0]])
    dst = reduce_to_dst(inst)
    assert dst.num_nodes == 3
    assert len(dst.arcs) == 4  # two per undirected edge, no down-arcs
    costs = {(t, h): c for t, h, c in dst.arcs}
    assert costs[(0, 1)] == 5_000_000  # arc cost equals head vertex cost
    assert costs[(1, 0)] == 0


def test_reduction_single_vertex():
    inst = Instance.build(1, [], 1, {0: 1}, [[0]])
    dst = reduce_to_dst(inst)
    assert dst.num_nodes == 1
    assert dst.arcs == ()
    assert brute_force_dst(dst) == Cost.zero()


def test_arborescence_matches_assignment_oracle_on_builtin(fig3):
    dst = reduce_to_dst(fig3)
    assert brute_force_dst(dst, cap=16) == brute_force_optimum(fig3).total_cost
    with pytest.raises(SizeCapError, match="limited to 15 nodes, got 16"):
        brute_force_dst(dst, cap=15)


def test_arborescence_zero_cost_instance():
    inst = Instance.build(3, [(0, 1), (1, 2)], 2, {0: 2, 2: 2}, [[0, 0]] * 3)
    assert brute_force_dst(reduce_to_dst(inst)) == Cost.zero()


def test_arborescence_hub_chain():
    inst = fig2_instance(2)
    dst = reduce_to_dst(inst)
    assert brute_force_dst(dst, cap=12) == Cost.parse("1.1")


def test_arborescence_matches_oracle_on_corpus():
    # Three grades give two layers of down-arcs; up to 21 layered nodes.
    for inst in mixed_corpus(30, seed0=8100, max_n=7, max_levels=3):
        dst = reduce_to_dst(inst)
        assert dst.num_nodes == inst.num_vertices * inst.grades
        assert brute_force_dst(dst, cap=dst.num_nodes) == brute_force_optimum(inst).total_cost


def _rule_in_arcs(inst):
    """The in-arc rule, from the instance alone: node (v, i) is entered
    from (u, i) for each neighbour u at c_i(v), and from (v, i + 1) at 0."""
    n, levels = inst.num_vertices, inst.grades
    rule = []
    for i in range(1, levels + 1):
        for v in range(n):
            entering = [((i - 1) * n + u, inst.costs[v][i - 1].micros) for u in inst.adjacency[v]]
            if i < levels:
                entering.append((i * n + v, 0))
            rule.append(sorted(entering))
    return rule


def test_in_arcs_follow_the_layered_rule():
    rungs = [
        random_instance(n, levels, seed=seed, edge_prob=0.4, terminal_fraction=0.4)
        for n, levels in MODEL_RUNGS
        for seed in (1, 2)
    ]
    for inst in mixed_corpus(30, seed0=8100, max_n=7, max_levels=3) + rungs:
        dst = reduce_to_dst(inst)
        in_arcs = dst.in_arcs
        assert [sorted(entering) for entering in in_arcs] == _rule_in_arcs(inst)
        for head, entering in enumerate(in_arcs):  # arc order within each node
            assert entering == tuple((t, c) for t, h, c in dst.arcs if h == head)
        # Cached, and outside equality, hashing and repr.
        assert dst.in_arcs is in_arcs
        fresh = reduce_to_dst(inst)
        assert dst == fresh and hash(dst) == hash(fresh) and repr(dst) == repr(fresh)


class _CountingHeapq:
    """Stands in for ``heapq`` in ``reductions``; each subset Dijkstra
    heapifies its seeds once."""

    heappop = staticmethod(heapq.heappop)
    heappush = staticmethod(heapq.heappush)

    def __init__(self):
        self.dijkstras = 0

    def heapify(self, heap):
        self.dijkstras += 1
        heapq.heapify(heap)


def test_arborescence_lattice_leaves_out_the_root(monkeypatch, fig3):
    counter = _CountingHeapq()
    monkeypatch.setattr(reductions, "heapq", counter)
    dst = reduce_to_dst(fig3)
    assert len(dst.terminals) == 4 and dst.root in dst.terminals
    brute_force_dst(dst, cap=16)
    assert counter.dijkstras == 7  # 2^3 - 1, not 2^4 - 1

    lone = Instance.build(3, [(0, 1), (1, 2)], 2, {1: 2}, [[0, 0], [0, 0], [1, 2]])
    for inst in mixed_corpus(30, seed0=8100, max_n=7, max_levels=3) + [lone]:
        dst = reduce_to_dst(inst)
        counter.dijkstras = 0
        brute_force_dst(dst, cap=dst.num_nodes)
        assert counter.dijkstras == (1 << (len(dst.terminals) - 1)) - 1


@pytest.mark.parametrize(
    "root, terminals, arcs, bad",
    [
        (-1, (1,), ((0, 1, 5),), "root -1 outside 0..1"),
        (2, (1,), ((0, 1, 5),), "root 2 outside 0..1"),
        (0, (1, -1), ((0, 1, 5),), "terminal -1 outside 0..1"),
        (0, (2,), ((0, 1, 5),), "terminal 2 outside 0..1"),
        (0, (1,), ((0, 1, 5), (1, -1, 0)), r"arc \(1, -1, 0\) has an endpoint outside 0..1"),
        (0, (1,), ((0, 2, 5),), r"arc \(0, 2, 5\) has an endpoint outside 0..1"),
    ],
    ids=["root-low", "root-high", "terminal-low", "terminal-high", "arc-low", "arc-high"],
)
def test_arborescence_refuses_nodes_out_of_range(root, terminals, arcs, bad):
    with pytest.raises(InputError, match=bad):
        brute_force_dst(DstInstance(2, 1, 2, arcs, root, terminals))


def test_arborescence_refuses_negative_arc_cost():
    dst = DstInstance(3, 1, 3, ((0, 1, 5), (1, 2, -3)), 0, (2,))
    with pytest.raises(InputError, match=r"arc \(1, 2, -3\) has negative cost -3"):
        brute_force_dst(dst)


@pytest.mark.parametrize(
    "dst, cut_off",
    [
        (DstInstance(2, 1, 2, (), 0, (1,)), 1),
        (DstInstance(3, 1, 3, ((0, 1, 5),), 0, (1, 2)), 2),
    ],
    ids=["no-arc", "one-of-two-cut-off"],
)
def test_arborescence_refuses_a_terminal_the_root_cannot_reach(dst, cut_off):
    with pytest.raises(InputError, match=rf"^terminal {cut_off} is unreachable from root 0$"):
        brute_force_dst(dst)


@pytest.mark.parametrize("terminals", [(), (0,)])
def test_arborescence_without_other_terminals_is_free(terminals):
    assert brute_force_dst(DstInstance(2, 1, 2, ((0, 1, 5),), 0, terminals)) == Cost.zero()


# ---------------------------------------------------------------------------
# Grade-respecting predicate


def test_grt_accepts_greedy_output(fig3):
    report = solve_greedy(fig3)
    root = report.iterations[-1].root
    ok, path = check_grt(fig3, report.tree_edges, report.assignment, root)
    assert ok and path is None


def test_grt_rejects_dip_and_rise():
    host = _host(3, [(0, 1), (1, 2)], levels=2, root_demand=2)
    ok, path = check_grt(host, [(0, 1), (1, 2)], (2, 1, 2), 0)
    assert not ok
    assert path == (0, 1, 2)


def test_grt_single_vertex():
    host = _host(1, [], levels=1, root_demand=1)
    ok, path = check_grt(host, [], (1,), 0)
    assert ok


def test_grt_rejects_non_trees():
    host = _host(4, [(0, 1), (1, 2), (2, 3), (0, 3)], levels=1, root_demand=1)
    with pytest.raises(InputError):
        check_grt(host, [(0, 1), (1, 2), (2, 3), (0, 3)], (1, 1, 1, 1), 0)
    with pytest.raises(InputError):
        check_grt(host, [(1, 2)], (1, 1, 1, 1), 0)


# ---------------------------------------------------------------------------
# Demotion


def test_demotion_on_thirteen_vertex_example():
    host = _host(13, DEMO_EDGES)
    edges, demoted = m_optimize(host, DEMO_EDGES, DEMO_Y, 0, DEMO_M)
    # Unmarked leaves 1, 3, 8, 12 pruned; the grade-3 fork at vertex 4
    # drops to 2 (its marked subtree tops out there).
    assert set(edges) == {
        (0, 2), (0, 4), (0, 7), (4, 5), (4, 6), (7, 9), (9, 10), (9, 11)
    }
    assert demoted == (4, 0, 3, 0, 2, 2, 1, 2, 0, 2, 2, 1, 0)


def test_demotion_keeps_marked_vertices_unchanged():
    host = _host(13, DEMO_EDGES)
    _, demoted = m_optimize(host, DEMO_EDGES, DEMO_Y, 0, DEMO_M)
    for v in DEMO_M:
        assert demoted[v] == DEMO_Y[v]


def test_demotion_fully_marked_tree_unchanged():
    edges = [(0, 1), (1, 2)]
    host = _host(3, edges, levels=3, root_demand=3)
    y = (3, 2, 1)
    out_edges, out_y = m_optimize(host, edges, y, 0, {0, 1, 2})
    assert set(out_edges) == set(edges)
    assert out_y == y


def test_demotion_to_single_marked_vertex():
    # Star with only the root marked: everything else is pruned.
    edges = [(0, 1), (0, 2), (0, 3)]
    host = _host(4, edges, levels=2, root_demand=2)
    out_edges, out_y = m_optimize(host, edges, (2, 1, 1, 1), 0, {0})
    assert out_edges == ()
    assert out_y == (2, 0, 0, 0)


def test_demotion_requires_marked_root():
    host = _host(2, [(0, 1)], levels=1, root_demand=1)
    with pytest.raises(InputError):
        m_optimize(host, [(0, 1)], (1, 1), 0, {1})


@pytest.mark.parametrize("checker", [m_optimize, spider_decompose])
def test_tree_checkers_refuse_a_grade_rise(checker):
    host = _host(3, [(0, 1), (1, 2)], levels=2, root_demand=2)
    with pytest.raises(InputError, match=r"^input tree is not grade-respecting: path \(0, 1, 2\)$"):
        checker(host, [(0, 1), (1, 2)], (2, 1, 2), 0, {0, 2})


def test_marked_vertices_off_the_tree_are_refused():
    # Vertex 5 is a host vertex but not on the tree 0-1-{2,3}.
    host = _host(6, [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5)], levels=2, root_demand=2)
    tree = [(0, 1), (1, 2), (1, 3)]
    with pytest.raises(InputError, match=r"marked vertices not on the tree: \[5\]"):
        m_optimize(host, tree, (2, 1, 1, 1, 0, 1), 0, {0, 2, 5})
    with pytest.raises(InputError, match=r"marked vertices not on the tree: \[5\]"):
        spider_decompose(host, tree, (2, 1, 1, 1, 0, 0), 0, {0, 2, 3, 5})


def test_demotion_idempotent_and_never_costlier():
    for seed in range(120):
        host, edges, y, root, marked = random_grt(seed)
        e1, y1 = m_optimize(host, edges, y, root, marked)
        e2, y2 = m_optimize(host, e1, y1, root, marked)
        assert (e1, y1) == (e2, y2)
        assert sum(y1) <= sum(y)  # free host ladders: compare grade mass
        ok, _ = check_grt(host, e1, y1, root)
        assert ok
        leaves = _leaves(e1, root)
        assert leaves <= marked


def _leaves(edges, root):
    if not edges:
        return set()
    degree = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return {v for v, d in degree.items() if d == 1 and v != root}


def test_demotion_reduces_real_costs():
    # On priced instances the demoted labeling never costs more.
    import random

    for seed in range(40):
        rng = random.Random(9000 + seed)
        host, edges, y, root, marked = random_grt(seed + 500)
        priced = Instance.build(
            host.num_vertices,
            host.edges,
            host.grades,
            dict(host.required),
            [
                sorted(rng.randint(0, 8) for _ in range(host.grades))
                for _ in range(host.num_vertices)
            ],
        )
        _, demoted = m_optimize(priced, edges, y, root, marked)
        assert solution_cost(priced, demoted).micros <= solution_cost(priced, y).micros


# ---------------------------------------------------------------------------
# Spider decomposition


def test_decomposition_of_thirteen_vertex_example():
    host = _host(13, DEMO_EDGES)
    edges, demoted = m_optimize(host, DEMO_EDGES, DEMO_Y, 0, DEMO_M)
    result = spider_decompose(host, edges, demoted, 0, DEMO_M)
    spiders = result.spiders
    assert len(spiders) == 3
    assert [sorted(s.members) for s in spiders] == [
        [9, 10, 11],
        [4, 5, 6],
        [0, 2],
    ]
    assert [(s.root, s.center) for s in spiders] == [(9, 9), (5, 4), (0, 0)]
    assert sum(1 + len(s.feet) for s in spiders) == len(DEMO_M)


def test_decomposition_two_marked_vertices_is_one_path():
    edges = [(0, 1), (1, 2), (2, 3)]
    host = _host(4, edges, levels=3, root_demand=3)
    y = (3, 2, 2, 2)
    result = spider_decompose(host, edges, y, 0, {0, 3})
    assert len(result.spiders) == 1
    spider = result.spiders[0]
    assert spider.root == 0
    assert spider.members == frozenset({0, 1, 2, 3})
    assert spider.feet == (3,)


def test_decomposition_star_rooted_at_center():
    edges = [(0, 1), (0, 2), (0, 3)]
    host = _host(4, edges, levels=2, root_demand=2)
    y = (2, 1, 1, 1)
    result = spider_decompose(host, edges, y, 0, {0, 1, 2, 3})
    assert len(result.spiders) == 1
    spider = result.spiders[0]
    assert spider.center == 0 and spider.root == 0
    assert spider.feet == (1, 2, 3)


def test_decomposition_requires_two_marked():
    host = _host(2, [(0, 1)], levels=1, root_demand=1)
    with pytest.raises(InputError):
        spider_decompose(host, [(0, 1)], (1, 1), 0, {0})


def test_decomposition_requires_demoted_input():
    host = _host(13, DEMO_EDGES)
    with pytest.raises(InputError):
        spider_decompose(host, DEMO_EDGES, DEMO_Y, 0, DEMO_M)


def test_decomposition_ignores_edge_orientation():
    # The demotion check must compare edges as unordered pairs: a demoted
    # path written (larger, smaller) is the same tree.
    host = _host(3, [(0, 1), (1, 2)], levels=1, root_demand=1)
    forward = spider_decompose(host, [(0, 1), (1, 2)], (1, 1, 1), 0, {0, 2})
    backward = spider_decompose(host, [(1, 0), (2, 1)], (1, 1, 1), 0, {0, 2})
    assert forward == backward
    for seed in range(20):
        host, edges, y, root, marked = optimized_grt(seed)
        flipped = [(v, u) for u, v in edges]
        assert spider_decompose(host, flipped, y, root, marked) == spider_decompose(
            host, edges, y, root, marked
        ), seed


def _assert_valid_decomposition(host, result, marked):
    spiders = result.spiders
    grades = result.grades
    # Pairwise vertex-disjoint.
    seen = set()
    for s in spiders:
        assert not (s.members & seen)
        seen |= s.members
    # Roots and leg ends belong to the marked set; marked set covered.
    covered = set()
    for s in spiders:
        assert s.root in marked
        covered |= s.members & marked
        for leg in s.legs:
            assert leg[-1] in marked
            assert leg[0] == s.center
            # Legs never rise in grade away from the center.
            for a, b in zip(leg, leg[1:]):
                assert grades[b] <= grades[a]
        # Legs are vertex-disjoint outside the center.
        tails = [leg[1:] for leg in s.legs if len(leg) > 1]
        flat = [v for tail in tails for v in tail]
        assert len(flat) == len(set(flat))
        # Root path is grade-monotone from root toward the center's legs.
        rp = s.root_path
        assert rp[0] == s.center and rp[-1] == s.root
        for a, b in zip(rp, rp[1:]):
            # center..root direction: grades never drop toward the root.
            assert grades[a] <= grades[b]
    assert covered == marked
    assert sum(1 + len(s.feet) for s in spiders) == len(marked)


def test_decomposition_properties_on_random_trees():
    checked = 0
    for seed in range(700):
        host, edges, y, root, marked = optimized_grt(seed)
        if len(marked) < 2:
            continue
        result = spider_decompose(host, edges, y, root, marked)
        _assert_valid_decomposition(host, result, marked)
        checked += 1
    assert checked >= 500


# ---------------------------------------------------------------------------
# Pinned decompositions

GOLDEN_SPIDERS = os.path.join(os.path.dirname(__file__), "golden", "spider_decompositions.json")


def _decomposition_json(result):
    return {
        "spiders": [
            {
                "root": s.root,
                "center": s.center,
                "root_path": list(s.root_path),
                "legs": [list(leg) for leg in s.legs],
                "members": sorted(s.members),
                "feet": list(s.feet),
            }
            for s in result.spiders
        ],
        "grades": list(result.grades),
    }


def test_decomposition_matches_pinned_spiders():
    # Every Spider field and the returned grades for optimized_grt seeds
    # 0-99, compared exactly: spider order, legs and root paths included.
    with open(GOLDEN_SPIDERS, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert list(golden) == [f"seed={seed}" for seed in range(100)]
    for seed, expected in enumerate(golden.values()):
        host, edges, y, root, marked = optimized_grt(seed)
        result = spider_decompose(host, edges, y, root, marked)
        assert _decomposition_json(result) == expected, seed


GOLDEN_LARGE_SPIDERS = os.path.join(
    os.path.dirname(__file__), "golden", "spider_decompositions_large.json"
)
#: (n, seed, span) of the large pinned trees; span 0 attaches each vertex
#: anywhere before it, span k only to one of the k vertices just before it,
#: so span 1 is a path and small spans give deep, chain-like trees.
LARGE_TREES = tuple(
    (n, seed, span)
    for n in (50, 200, 1000)
    for seed, span in ((1, 0), (2, 0), (3, 3), (4, 2), (5, 1))
)


def _large_grt(n, seed, span):
    """A demoted three-grade tree on n vertices with 30% of them marked."""
    rng = random.Random(seed)
    levels = 3
    parent = [0] * n
    edges = []
    for v in range(1, n):
        parent[v] = rng.randrange(max(0, v - span) if span else 0, v)
        edges.append((parent[v], v))
    y = [levels] + [0] * (n - 1)
    for v in range(1, n):
        y[v] = rng.randint(1, y[parent[v]])
    marked = {0} | set(rng.sample(range(1, n), int(0.3 * n)))
    host = Instance.build(n, edges, levels, {0: levels}, [[0] * levels] * n)
    pruned, demoted = m_optimize(host, edges, tuple(y), 0, marked)
    return host, pruned, demoted, 0, marked


def test_decomposition_matches_pinned_large_trees():
    # The spider count and the sha256 of the _decomposition_json bytes of
    # each LARGE_TREES decomposition.
    with open(GOLDEN_LARGE_SPIDERS, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert list(golden) == [f"n={n} seed={seed} span={span}" for n, seed, span in LARGE_TREES]
    for (n, seed, span), expected in zip(LARGE_TREES, golden.values()):
        host, edges, y, root, marked = _large_grt(n, seed, span)
        result = spider_decompose(host, edges, y, root, marked)
        _assert_valid_decomposition(host, result, marked)
        digest = hashlib.sha256(json.dumps(_decomposition_json(result)).encode()).hexdigest()
        assert {"spiders": len(result.spiders), "sha256": digest} == expected, (n, seed, span)


def test_decomposition_roots_the_tree_once(monkeypatch):
    # The entry checks and the sweep share one rooting, whatever the
    # number of spiders.
    calls = []
    build = reductions._build_rooted
    monkeypatch.setattr(
        reductions, "_build_rooted", lambda *args: calls.append(1) or build(*args)
    )
    for n, seed, span in LARGE_TREES:
        args = _large_grt(n, seed, span)
        calls.clear()
        spider_decompose(*args)
        assert len(calls) == 1, (n, seed, span)


def test_decomposition_climbs_each_vertex_at_most_once(monkeypatch):
    # The vertices on every parent-link path (``_path``) the decomposition
    # walks, summed, stay within n: each climb runs inside one spider. A
    # path with 450 spiders and a random tree, both on 3,000 vertices.
    climbed = []
    climb = reductions._path

    def counting_climb(*args):
        path = climb(*args)
        climbed.append(len(path))
        return path

    monkeypatch.setattr(reductions, "_path", counting_climb)
    for n, seed, span in ((3000, 14, 1), (3000, 11, 0)):
        args = _large_grt(n, seed, span)
        climbed.clear()
        spider_decompose(*args)
        assert sum(climbed) <= n, (n, seed, span, sum(climbed))


def test_leg_walk_refuses_a_branch_below_the_center():
    # Center 0 has live children 1 and 4; vertex 1 has two live children,
    # 2 and 3, so 0 was not the deepest vertex with two marked below.
    children = {0: [1, 4], 1: [2, 3], 2: [], 3: [], 4: [5], 5: []}
    count = {0: 4, 1: 2, 2: 1, 3: 1, 4: 1, 5: 0}
    with pytest.raises(InternalInvariantError, match="vertex 1 branches although 0"):
        reductions._leaf_paths(children, count, 0)
    count[3] = 0
    assert reductions._leaf_paths(children, count, 0) == [(0, 1, 2), (0, 4)]

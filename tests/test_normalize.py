"""Instance rewrites: costly-terminal rewiring and edge-cost elimination."""

import pytest

import vgsst.instance
from vgsst import (
    Cost,
    EdgeWeightedInstance,
    InputError,
    Instance,
    InternalInvariantError,
    SolutionReport,
    brute_force_optimum,
    denormalize_solution,
    edge_costs_to_vertex_costs,
    normalize,
    random_instance,
    solve_greedy,
    validate,
)


def test_costly_terminal_gets_twin():
    inst = Instance.build(2, [(0, 1)], 1, {0: 1}, [[5], [1]])
    result = normalize(inst)
    assert result.offset == Cost.parse(5)
    assert result.instance.num_vertices == 3
    assert result.instance.terminals == (2,)
    assert result.moved == {0: 2}
    assert (0, 2) in result.instance.edges
    assert result.instance.costs[2] == (Cost.zero(),)
    assert validate(result.instance) == []


def test_builtin_already_normalized(fig3):
    result = normalize(fig3)
    assert result.offset == Cost.zero()
    assert result.moved == {}
    assert result.instance == fig3


def test_normalized_instance_is_returned_as_is(fig3):
    assert normalize(fig3).instance is fig3


def test_grade_count_drops_to_top_demand():
    inst = Instance.build(
        2, [(0, 1)], 3, {0: 2, 1: 1}, [[0, 0, 4], [0, 1, 9]]
    )
    result = normalize(inst)
    assert result.instance.grades == 2
    assert result.instance.costs[0] == (Cost.zero(), Cost.zero())
    assert result.instance.costs[1] == (Cost.zero(), Cost.parse(1))


def test_moved_terminal_keeps_upgrade_increments():
    # Ladder (4, 9) at demand 1: the forced 4 moves into the offset and the
    # grade-2 increment 5 stays on the vertex.
    inst = Instance.build(2, [(0, 1)], 2, {0: 1, 1: 2}, [[4, 9], [0, 0]])
    result = normalize(inst)
    assert result.offset == Cost.parse(4)
    assert result.instance.costs[0] == (Cost.zero(), Cost.parse(5))


def test_normalize_requires_terminals():
    inst = Instance.build(1, [], 1, {}, [[1]])
    with pytest.raises(InputError):
        normalize(inst)


def _denormalized_instance(seed: int) -> Instance:
    """Random instance re-dressed with costly terminals and a spare grade."""
    base = random_instance(n=6, levels=2, seed=seed, edge_prob=0.5, num_terminals=2)
    rng_costs = []
    for v, ladder in enumerate(base.costs):
        padded = list(ladder) + [ladder[-1] + Cost.parse(1)]
        if v in base.required:
            bump = Cost.parse((seed + v) % 3)
            padded = [c + bump for c in padded]
        rng_costs.append(padded)
    return Instance.build(
        base.num_vertices, base.edges, 3, dict(base.required), rng_costs
    )


def test_normalize_preserves_optima():
    for seed in range(30):
        original = _denormalized_instance(seed)
        result = normalize(original)
        lhs = brute_force_optimum(original).total_cost
        rhs = brute_force_optimum(result.instance).total_cost + result.offset
        assert lhs == rhs, f"seed {seed}: {lhs} != {rhs}"


def test_denormalize_reports_a_broken_mapping_as_internal(monkeypatch):
    inst = Instance.build(2, [(0, 1)], 1, {0: 1}, [[5], [1]])
    norm = normalize(inst)
    report = solve_greedy(norm.instance)
    assert denormalize_solution(inst, norm, report).total_cost == Cost.parse(5)
    off = SolutionReport(report.assignment, report.tree_edges, report.total_cost + Cost.parse(1))
    with pytest.raises(InternalInvariantError, match="differs from assignment cost"):
        denormalize_solution(inst, norm, off)
    monkeypatch.setattr(vgsst.instance, "check_feasible", lambda instance, y: (False, None))
    with pytest.raises(InternalInvariantError, match="infeasible"):
        denormalize_solution(inst, norm, report)


# ---------------------------------------------------------------------------
# edge-cost elimination


def _edge_problem(num_vertices, edges, grades, required, vertex_costs, edge_costs):
    return EdgeWeightedInstance(
        num_vertices=num_vertices,
        edges=tuple(edges),
        grades=grades,
        required=required,
        vertex_costs=tuple(
            tuple(Cost.parse(c) for c in ladder) for ladder in vertex_costs
        ),
        edge_costs={
            e: tuple(Cost.parse(c) for c in ladder) for e, ladder in edge_costs.items()
        },
    )


def test_triangle_subdivision():
    problem = _edge_problem(
        3,
        [(0, 1), (1, 2), (0, 2)],
        1,
        {0: 1, 1: 1, 2: 1},
        [[0], [0], [0]],
        {(0, 1): [1], (1, 2): [1], (0, 2): [1]},
    )
    inst = edge_costs_to_vertex_costs(problem)
    assert inst.num_vertices == 6
    new = [v for v in range(3, 6)]
    assert all(len(inst.adjacency[v]) == 2 for v in new)
    assert all(inst.costs[v] == (Cost.parse(1),) for v in new)


def test_zero_cost_edges_still_subdivided():
    problem = _edge_problem(
        2, [(0, 1)], 1, {0: 1, 1: 1}, [[0], [0]], {(0, 1): [0]}
    )
    inst = edge_costs_to_vertex_costs(problem)
    assert inst.num_vertices == 3
    assert inst.costs[2] == (Cost.zero(),)


def test_single_edge_ladder_lands_on_midpoint():
    problem = _edge_problem(
        2, [(0, 1)], 2, {0: 2, 1: 2}, [[0, 0], [0, 0]], {(0, 1): [2, 5]}
    )
    inst = edge_costs_to_vertex_costs(problem)
    assert inst.num_vertices == 3
    assert inst.edges == ((0, 2), (1, 2))
    assert inst.costs[2] == (Cost.parse(2), Cost.parse(5))


@pytest.mark.parametrize(
    "ladder, message",
    [
        ([1], r"^edge \(0,1\) ladder must have 2 entries$"),
        ([5, 2], r"^edge \(0,1\) ladder is not non-decreasing$"),
    ],
    ids=["wrong-length", "decreasing"],
)
def test_subdivision_refuses_a_bad_edge_ladder(ladder, message):
    problem = _edge_problem(2, [(0, 1)], 2, {0: 2, 1: 2}, [[0, 0], [0, 0]], {(0, 1): ladder})
    with pytest.raises(InputError, match=message):
        edge_costs_to_vertex_costs(problem)


def test_subdivision_preserves_optima():
    # Oracle on both sides of the rewrite: the subdivided instance goes to
    # the standard assignment oracle, the edge-weighted original to a joint
    # enumeration over vertex and edge grades.
    import random

    for seed in range(10):
        n = 4 if seed % 2 else 5
        rng = random.Random(200 + seed)
        base = random_instance(
            n=n, levels=2, seed=300 + seed, edge_prob=0.6, num_terminals=2
        )
        edge_costs = {}
        for e in base.edges:
            first = rng.randint(0, 3)
            edge_costs[e] = (Cost.parse(first), Cost.parse(first + rng.randint(0, 2)))
        problem = EdgeWeightedInstance(
            num_vertices=base.num_vertices,
            edges=base.edges,
            grades=2,
            required=dict(base.required),
            vertex_costs=base.costs,
            edge_costs=edge_costs,
        )
        rewritten = edge_costs_to_vertex_costs(problem)
        direct = brute_force_optimum_with_edges(base, edge_costs)
        via_rewrite = brute_force_optimum(rewritten, limit=rewritten.num_vertices)
        assert direct == via_rewrite.total_cost, f"seed {seed}"


def brute_force_optimum_with_edges(base: Instance, edge_costs) -> Cost:
    """Independent oracle for the edge-weighted variant: enumerate vertex
    grades and edge grades jointly (an edge above the lower endpoint grade
    is never useful, so its range is capped there); per grade, demanding
    terminals must share a component over edges of that grade or better."""
    from itertools import product

    from vgsst.instance import _UnionFind

    n = base.num_vertices
    edge_list = list(base.edges)
    vertex_ranges = [
        range(base.required.get(v, 0), base.grades + 1) for v in range(n)
    ]
    best = None
    for y in product(*vertex_ranges):
        edge_ranges = [range(0, min(y[u], y[v]) + 1) for u, v in edge_list]
        for g in product(*edge_ranges):
            feasible = True
            for grade in range(1, base.grades + 1):
                needed = [t for t in base.terminals if base.required[t] >= grade]
                if len(needed) < 2:
                    continue
                uf = _UnionFind(n)
                for (u, v), ge in zip(edge_list, g):
                    if ge >= grade:
                        uf.union(u, v)
                if any(uf.find(t) != uf.find(needed[0]) for t in needed):
                    feasible = False
                    break
            if not feasible:
                continue
            total = Cost.zero()
            for v in range(n):
                if y[v] >= 1:
                    total = total + base.costs[v][y[v] - 1]
            for (u, v), ge in zip(edge_list, g):
                if ge >= 1:
                    total = total + edge_costs[(u, v)][ge - 1]
            if best is None or total < best:
                best = total
    return best

"""Data model: validation, feasibility, costs, tree extraction."""

import random
from itertools import product

import pytest

from vgsst import (
    Cost,
    InfeasibleAssignmentError,
    InputError,
    Instance,
    InternalInvariantError,
    brute_force_optimum,
    check_feasible,
    extract_tree,
    fig3_instance,
    random_instance,
    solution_cost,
    solve_greedy,
    validate,
)
from vgsst.instance import (
    _solver_report,
    _UnionFind,
    feasibility_tester,
    spanning_tree_by_levels,
)

from conftest import mixed_corpus

# Grades drawn in the worked two-merge run: vertex 3 stays out, vertex 6
# stops at grade 1, everything else is bought at grade 2.
FIG3_FINAL = (2, 2, 2, 0, 2, 2, 1, 2)


# ---------------------------------------------------------------------------
# validate


def test_validate_builtin_clean(fig3):
    assert validate(fig3) == []


def test_validate_reports_cost_monotonicity():
    with pytest.raises(InputError, match=r"^cost-monotonicity at 1: c_2=3 < c_1=5$"):
        Instance.build(2, [(0, 1)], 2, {0: 2}, [[0, 0], [5, 3]])


def test_validate_reports_disconnected():
    with pytest.raises(InputError, match=r"^connectivity at None: graph is not connected$"):
        Instance.build(2, [], 1, {0: 1}, [[0], [1]])


def test_validate_rejects_self_loop_and_multi_edge():
    with pytest.raises(InputError, match=r"^self-loop at \(0, 0\): self-loops are rejected$"):
        Instance.build(3, [(0, 0), (0, 1), (1, 2)], 1, {0: 1}, [[0], [1], [1]])
    with pytest.raises(InputError, match=r"^duplicate-edge at \(0, 1\): multigraphs are rejected$"):
        Instance.build(3, [(0, 1), (1, 0), (1, 2)], 1, {0: 1}, [[0], [1], [1]])


def test_build_names_every_broken_rule_in_one_line():
    with pytest.raises(InputError) as caught:
        Instance.build(3, [(0, 1), (1, 0)], 2, {}, [[0, 0], [2, 1], [0, 0]])
    assert str(caught.value) == (
        "duplicate-edge at (0, 1): multigraphs are rejected; "
        "connectivity at None: graph is not connected; "
        "cost-monotonicity at 1: c_2=1 < c_1=2; "
        "terminals at None: terminal set is empty"
    )


def test_random_instances_equal_a_build_of_their_fields():
    # random_instance checks its drawn graph once and skips build's sort
    # and re-check; what it returns must still be build's instance.
    corpus = mixed_corpus(40, seed0=9100, max_n=12)
    corpus += [
        random_instance(n, levels, seed=seed, edge_prob=min(1.0, 6 / n), terminal_fraction=0.3)
        for n in (1, 2, 60, 90)
        for levels in (1, 3)
        for seed in (1, 2)
    ]
    for inst in corpus:
        built = Instance.build(
            inst.num_vertices, list(inst.edges), inst.grades, inst.required, inst.costs
        )
        assert type(inst.edges) is tuple and inst.edges == built.edges
        assert inst == built, inst
        assert inst._neighbor_masks == built._neighbor_masks
        assert inst.adjacency == built.adjacency


def test_validate_normalisation_rules():
    # Top grade never demanded, and a costly terminal ladder.
    inst = Instance.build(2, [(0, 1)], 2, {0: 1}, [[1, 2], [0, 0]])
    assert [v.rule for v in validate(inst)] == ["grade-span", "terminal-cost"]


# ---------------------------------------------------------------------------
# check_feasible


def test_feasible_worked_assignment(fig3):
    ok, witness = check_feasible(fig3, FIG3_FINAL)
    assert ok and witness is None


def test_infeasible_when_cut_vertex_dropped(fig3):
    y = list(FIG3_FINAL)
    y[1] = 0  # vertex 1 is vertex 0's only neighbor
    ok, witness = check_feasible(fig3, tuple(y))
    assert not ok
    # Vertex 0 is isolated at every level, so the first violating grade is 1
    # and the smallest separated pair there is (0, 2).
    assert witness.kind == "disconnected"
    assert witness.grade == 1
    assert witness.pair == (0, 2)
    # The grade-2 level set separates the two top-demand terminals (0, 5):
    # check by hand on the induced subgraph.
    level2 = {v for v in range(8) if y[v] >= 2}
    uf = _UnionFind(8)
    for u, v in fig3.edges:
        if u in level2 and v in level2:
            uf.union(u, v)
    assert uf.find(0) != uf.find(5)


def test_all_zero_assignment_fails_requirement(fig3):
    ok, witness = check_feasible(fig3, (0,) * 8)
    assert not ok
    assert witness.kind == "requirement"
    assert witness.vertex == 0


def test_tester_names_a_vertex_no_raise_beyond_which_repairs():
    # The lattice walk prunes every child raising a vertex beyond the one
    # the tester names; raising all of those to the top grade, the best
    # such descendant, must leave the point infeasible.
    for inst in mixed_corpus(30, seed0=7700, max_n=6, max_levels=3):
        violated = feasibility_tester(inst)
        top = inst.grades
        for y in product(range(top + 1), repeat=inst.num_vertices):
            last = violated(y)
            assert (last is None) == check_feasible(inst, y)[0], y
            if last is not None:
                raised = y[: last + 1] + (top,) * (len(y) - last - 1)
                assert not check_feasible(inst, raised)[0], (y, last)
    # A terminal below its floor names itself.
    assert feasibility_tester(fig3_instance())((2, 2, 2, 0, 2, 0, 2, 2)) == 5


def test_check_feasible_rejects_bad_shapes(fig3):
    with pytest.raises(InputError):
        check_feasible(fig3, (0,) * 7)
    with pytest.raises(InputError):
        check_feasible(fig3, (3,) + (0,) * 7)


# ---------------------------------------------------------------------------
# solution_cost


def test_worked_assignment_costs_30(fig3):
    assert solution_cost(fig3, FIG3_FINAL) == Cost.parse(30)


def test_all_zero_costs_nothing(fig3):
    assert solution_cost(fig3, (0,) * 8) == Cost.zero()


def test_cost_monotone_under_grade_raises():
    # Raising any single coordinate never lowers the total (ladders are
    # non-decreasing), checked over random assignments.
    import random

    rng = random.Random(77)
    for inst in mixed_corpus(10, seed0=950, max_n=7):
        for _ in range(20):
            y = [rng.randint(0, inst.grades) for _ in range(inst.num_vertices)]
            v = rng.randrange(inst.num_vertices)
            if y[v] == inst.grades:
                continue
            raised = list(y)
            raised[v] += 1
            assert solution_cost(inst, tuple(raised)).micros >= solution_cost(
                inst, tuple(y)
            ).micros


def test_everything_at_top_grade(fig3):
    # Independent route: sum the top-grade column directly.
    expected = Cost.zero()
    for ladder in fig3.costs:
        expected = expected + ladder[-1]
    assert expected == Cost.parse(44)
    assert solution_cost(fig3, (2,) * 8) == expected


@pytest.mark.parametrize("y", [(0,) * 7, (3,) + (0,) * 7, (-1,) + (2,) * 7])
def test_cost_rejects_bad_shapes(fig3, y):
    # The same length and range checks as check_feasible: a negative grade
    # is not free and a grade above the top is not an IndexError.
    with pytest.raises(InputError):
        solution_cost(fig3, y)


# ---------------------------------------------------------------------------
# extract_tree


def test_extract_tree_worked_assignment(fig3):
    edges = extract_tree(fig3, FIG3_FINAL)
    assert edges == ((0, 1), (1, 2), (2, 4), (4, 6), (4, 7), (5, 7))
    touched = {v for e in edges for v in e}
    assert touched == {v for v in range(8) if FIG3_FINAL[v] >= 1}
    assert 3 not in touched


def test_extract_tree_single_terminal():
    inst = Instance.build(3, [(0, 1), (1, 2)], 1, {0: 1}, [[0], [1], [1]])
    assert extract_tree(inst, (1, 0, 0)) == ()


def test_extract_tree_star_spans_everything():
    inst = Instance.build(
        5,
        [(0, 1), (0, 2), (0, 3), (0, 4)],
        1,
        {1: 1, 2: 1, 3: 1, 4: 1},
        [[2], [0], [0], [0], [0]],
    )
    edges = extract_tree(inst, (1, 1, 1, 1, 1))
    assert len(edges) == 4
    assert all(0 in e for e in edges)


def test_extract_tree_rejects_infeasible(fig3):
    with pytest.raises(InfeasibleAssignmentError):
        extract_tree(fig3, (0,) * 8)


def test_extract_tree_rejects_stray_support():
    # Path a-b-c-d, single terminal a, plus a disconnected bought vertex d:
    # feasible per terminal connectivity, but no single tree spans the buy.
    inst = Instance.build(4, [(0, 1), (1, 2), (2, 3)], 1, {0: 1}, [[0], [1], [1], [0]])
    ok, _ = check_feasible(inst, (1, 0, 0, 1))
    assert ok
    with pytest.raises(InfeasibleAssignmentError):
        extract_tree(inst, (1, 0, 0, 1))


def test_extract_tree_paths_respect_pair_demands():
    # Round trip on random feasible assignments: every terminal pair's tree
    # path stays at or above the lower demand (path found by walking the
    # extracted edges).
    for inst in mixed_corpus(25, seed0=900, max_n=8):
        report = brute_force_optimum(inst)
        edges = extract_tree(inst, report.assignment)
        adj = {}
        for u, v in edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)

        def tree_path(a, b):
            stack = [(a, [a])]
            seen = {a}
            while stack:
                node, path = stack.pop()
                if node == b:
                    return path
                for nxt in adj.get(node, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, path + [nxt]))
            raise AssertionError("terminals not connected in extracted tree")

        terms = inst.terminals
        for i, a in enumerate(terms):
            for b in terms[i + 1 :]:
                floor = min(inst.required[a], inst.required[b])
                assert all(
                    report.assignment[w] >= floor for w in tree_path(a, b)
                )


def _tree_by_level_passes(instance, y):
    """Reference: one pass over every edge per grade, from the top down."""
    uf = _UnionFind(instance.num_vertices)
    chosen = []
    for grade in range(instance.grades, 0, -1):
        for u, v in instance.edges:
            if y[u] >= grade and y[v] >= grade and uf.union(u, v):
                chosen.append((u, v))
    return chosen


def test_bucketed_levels_choose_what_one_pass_per_grade_chooses():
    # The chosen list, order included, on solver answers and on arbitrary
    # grade vectors (grades above the top one too), over small instances
    # and the benchmark's solvers family.
    small = mixed_corpus(40, seed0=9900)
    family = [
        random_instance(n, levels, seed=seed, edge_prob=6 / n, terminal_fraction=0.3)
        for n, levels in ((60, 2), (60, 3), (90, 2), (90, 3), (120, 2), (120, 3))
        for seed in (1, 2)
    ]
    rng = random.Random(9900)
    for inst in small + family:
        answers = [solve_greedy(inst).assignment]
        if inst.num_vertices <= 8:
            answers.append(brute_force_optimum(inst).assignment)
        answers += [
            [rng.randint(0, inst.grades + 1) for _ in range(inst.num_vertices)]
            for _ in range(6)
        ]
        for y in answers:
            assert spanning_tree_by_levels(inst, y) == _tree_by_level_passes(inst, y), y


# ---------------------------------------------------------------------------
# The solver exit


def test_solver_exit_rejects_a_total_off_the_assignment_cost(fig3):
    total = solution_cost(fig3, FIG3_FINAL) + Cost.parse(1)
    with pytest.raises(InternalInvariantError, match="differs from assignment cost"):
        _solver_report(fig3, FIG3_FINAL, total)


def test_solver_exit_rejects_a_disconnected_buy():
    # Feasible (one terminal), but bought vertices 0 and 3 are not joined.
    inst = Instance.build(4, [(0, 1), (1, 2), (2, 3)], 1, {0: 1}, [[0], [1], [1], [0]])
    with pytest.raises(InternalInvariantError, match="no single tree spans them"):
        _solver_report(inst, (1, 0, 0, 1))

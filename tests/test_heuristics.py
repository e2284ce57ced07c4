"""Layered heuristics: grade-factor bounds, tightness family, subroutines."""

import math
from fractions import Fraction

import pytest

import vgsst.instance
from vgsst import cli
from vgsst import (
    Cost,
    InputError,
    Instance,
    VstContractError,
    brute_force_optimum,
    check_feasible,
    exact_vst,
    extract_tree,
    fig2_instance,
    greedy_as_vst,
    normalize,
    random_instance,
    single_grade_view,
    solve_bottomup,
    solve_greedy,
    solve_topdown,
    validate,
)

from conftest import mixed_corpus


# ---------------------------------------------------------------------------
# Hub-and-chain tightness family


def test_family_shape():
    inst = fig2_instance(3)
    assert inst.num_vertices == 8
    assert inst.grades == 3
    assert inst.required == {0: 3, 1: 1, 2: 2, 3: 3}
    hub = 7
    assert all(c == Cost.parse("1.1") for c in inst.costs[hub])
    assert set(inst.adjacency[hub]) == {0, 1, 2, 3}


def test_topdown_pays_one_unit_per_grade():
    inst = fig2_instance(3)
    report = solve_topdown(inst, exact_vst)
    assert report.total_cost == Cost.parse(3)
    # Connectors bought, hub avoided.
    hub = 7
    assert report.assignment[hub] == 0
    assert report.grade_costs == (Cost.parse(1), Cost.parse(1), Cost.parse(1))


def test_exact_optimum_buys_the_hub():
    inst = fig2_instance(3)
    report = brute_force_optimum(inst, limit=8)
    assert report.total_cost == Cost.parse("1.1")
    assert report.assignment[7] == 3


@pytest.mark.parametrize("levels", [2, 3, 4, 5])
def test_family_ratio_scales_with_grades(levels):
    inst = fig2_instance(levels)
    top = solve_topdown(inst, exact_vst).total_cost
    opt = brute_force_optimum(inst, limit=inst.num_vertices).total_cost
    assert top == Cost.parse(levels)
    assert opt == Cost.parse("1.1")
    assert Fraction(top.micros, opt.micros) == Fraction(levels * 10, 11)


# ---------------------------------------------------------------------------
# Top-down general behavior


def test_topdown_single_grade_equals_subroutine(fig3):
    inst = Instance.build(
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
        1,
        {0: 1, 2: 1},
        [[0], [2], [0], [3], [4]],
    )
    report = solve_topdown(inst, exact_vst)
    direct = exact_vst(single_grade_view(inst, 1, inst.terminals))
    cost = Cost.zero()
    for v in direct:
        cost = cost + inst.costs[v][0]
    assert report.total_cost == cost


def test_topdown_never_demotes_and_stays_feasible():
    for inst in mixed_corpus(40, seed0=6100):
        report = solve_topdown(inst, greedy_as_vst)
        ok, _ = check_feasible(inst, report.assignment)
        assert ok
        for t, r in inst.required.items():
            assert report.assignment[t] >= r


def test_topdown_with_exact_subroutine_meets_grade_factor():
    for inst in mixed_corpus(40, seed0=6200):
        report = solve_topdown(inst, exact_vst)
        optimum = brute_force_optimum(inst).total_cost
        assert report.total_cost.micros <= inst.grades * optimum.micros
        # Per-grade spend never exceeds the optimum either.
        assert sum(c.micros for c in report.grade_costs) == report.total_cost.micros
        for spend in report.grade_costs:
            assert spend.micros <= optimum.micros


@pytest.mark.parametrize(
    "broken, message",
    [
        (lambda view: frozenset({min(view.terminals)}), "misses terminals"),
        # fig3's top-grade view has terminals 0 and 5, joined only through 1-2-3.
        (lambda view: frozenset({0, 5}), "does not induce a connected subgraph"),
        (lambda view: frozenset({0, 1, 2, 3, 5, 99}), r"holds ids \[99\] outside the view"),
    ],
    ids=["missing-terminal", "disconnected", "outside-the-view"],
)
def test_topdown_rejects_broken_subroutine(fig3, broken, message):
    with pytest.raises(VstContractError, match=message):
        solve_topdown(fig3, broken)


def test_greedy_subroutine_refuses_a_multi_grade_view(fig3):
    assert fig3.grades == 2
    with pytest.raises(InputError, match="subroutine views must have exactly one grade"):
        greedy_as_vst(fig3)

def test_single_grade_views_are_normalized():
    for inst in mixed_corpus(40, seed0=6600):
        for grade in range(1, inst.grades + 1):
            view = single_grade_view(inst, grade, inst.terminals)
            assert validate(view) == [], (inst, grade)
            assert all(view.costs[t] == (Cost.zero(),) for t in inst.terminals)


@pytest.mark.parametrize("grade", [0, 3])
def test_single_grade_view_refuses_a_grade_out_of_range(fig3, grade):
    with pytest.raises(InputError, match=rf"^view grade {grade} out of range 1\.\.2$"):
        single_grade_view(fig3, grade, [0, 5])



# ---------------------------------------------------------------------------
# Bottom-up


def test_bottomup_builtin_feasible(fig3):
    report = solve_bottomup(fig3, greedy_as_vst)
    ok, _ = check_feasible(fig3, report.assignment)
    assert ok
    assert report.total_cost >= brute_force_optimum(fig3).total_cost


def test_bottomup_rejects_ids_outside_the_view(fig3):
    def every_vertex_and_99(view):
        return frozenset(range(view.num_vertices)) | {99}

    with pytest.raises(VstContractError, match=r"holds ids \[99\] outside the view"):
        solve_bottomup(fig3, every_vertex_and_99)


def test_bottomup_single_grade_equals_topdown():
    for inst in mixed_corpus(15, seed0=6300, max_levels=1):
        bu = solve_bottomup(inst, exact_vst)
        td = solve_topdown(inst, exact_vst)
        assert bu.total_cost == td.total_cost


def test_bottomup_feasible_on_corpus():
    for inst in mixed_corpus(40, seed0=6400):
        report = solve_bottomup(inst, greedy_as_vst)
        ok, _ = check_feasible(inst, report.assignment)
        assert ok


def _sticky_hub_instance() -> Instance:
    """The top-grade tree routes through a vertex that is free at grade 1
    but expensive at grade 2 and sits between the two top-demand
    terminals, so demotion cannot rescue it."""
    return Instance.build(
        5,
        [(0, 3), (1, 3), (2, 3), (0, 4), (1, 4)],
        2,
        {0: 2, 1: 2, 2: 1},
        [[0, 0], [0, 0], [0, 40], [0, 50], [30, 30]],
    )


def test_bottomup_loses_on_sticky_hub():
    inst = _sticky_hub_instance()
    bu = solve_bottomup(inst, exact_vst)
    greedy = solve_greedy(inst)
    optimum = brute_force_optimum(inst)
    assert optimum.total_cost == Cost.parse(30)
    assert greedy.total_cost == Cost.parse(30)
    assert bu.total_cost == Cost.parse(50)
    assert bu.total_cost > greedy.total_cost
    assert Fraction(bu.total_cost.micros, optimum.total_cost.micros) > 1


# ---------------------------------------------------------------------------
# Subroutines


def test_greedy_subroutine_two_terminals_is_min_cost_path():
    inst = Instance.build(
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
        1,
        {0: 1, 2: 1},
        [[0], [2], [0], [3], [4]],
    )
    view = single_grade_view(inst, 1, inst.terminals)
    spanned = greedy_as_vst(view)
    exact = exact_vst(view)
    cost = lambda s: sum(inst.costs[v][0].micros for v in s)
    assert cost(spanned) == cost(exact) == 2_000_000


def test_greedy_subroutine_avoids_pricier_hub():
    inst = fig2_instance(3)
    view = single_grade_view(
        inst, 3, [t for t in inst.terminals if inst.required[t] == 3]
    )
    spanned = greedy_as_vst(view)
    assert 7 not in spanned  # hub
    assert spanned == {0, 3, 6}  # anchor, top chain terminal, their connector


def test_greedy_subroutine_handles_costly_terminals():
    # Terminals with positive cost in the single-grade view: the answer
    # must still contain and connect them.
    inst = Instance.build(
        4, [(0, 1), (1, 2), (2, 3)], 1, {0: 1, 3: 1}, [[2], [1], [1], [3]]
    )
    view = single_grade_view(inst, 1, [0, 3])
    spanned = greedy_as_vst(view)
    assert spanned == {0, 1, 2, 3}


def test_greedy_subroutine_near_optimal_on_corpus():
    for inst in mixed_corpus(30, seed0=6500, max_levels=1):
        view = single_grade_view(inst, 1, inst.terminals)
        spanned = greedy_as_vst(view)
        exact = exact_vst(view)
        spanned_cost = sum(inst.costs[v][0].micros for v in spanned)
        exact_cost = sum(inst.costs[v][0].micros for v in exact)
        t = len(inst.terminals)
        if exact_cost == 0:
            assert spanned_cost == 0
        else:
            assert spanned_cost <= 2 * math.log(t) * exact_cost


# ---------------------------------------------------------------------------
# One certified exit


def test_each_solver_exit_checks_feasibility_once(monkeypatch):
    real = vgsst.instance.check_feasible
    calls = []
    monkeypatch.setattr(
        vgsst.instance, "check_feasible", lambda inst, y: calls.append(y) or real(inst, y)
    )
    views = []

    def vst(view):
        views.append(view)
        return greedy_as_vst(view)

    inst = normalize(random_instance(9, 2, 3)).instance
    solvers = {
        "topdown": lambda: solve_topdown(inst, vst),
        "bottomup": lambda: solve_bottomup(inst, vst),
        "greedy": lambda: solve_greedy(inst),
        "exact": lambda: brute_force_optimum(inst),
    }
    counts = {}
    for name, solve in solvers.items():
        calls.clear()
        views.clear()
        solve()
        # Each subroutine view is one greedy exit; the solver's own exit is one more.
        assert len(calls) == len(views) + 1, name
        counts[name] = len(calls)
    assert counts == {"topdown": 3, "bottomup": 2, "greedy": 1, "exact": 1}


def _with_costly_terminals(inst: Instance) -> Instance:
    """``inst`` with every other terminal's ladder raised by 1 throughout."""
    ladders = [list(ladder) for ladder in inst.costs]
    for t in inst.terminals[::2]:
        ladders[t] = [c + Cost.parse(1) for c in ladders[t]]
    return Instance.build(inst.num_vertices, inst.edges, inst.grades, dict(inst.required), ladders)


def test_every_solver_tree_is_extract_tree_of_its_assignment():
    solvers = {
        "greedy": solve_greedy,
        "topdown-greedy": lambda inst: solve_topdown(inst, greedy_as_vst),
        "topdown-exact": lambda inst: solve_topdown(inst, exact_vst),
        "bottomup-greedy": lambda inst: solve_bottomup(inst, greedy_as_vst),
        "bottomup-exact": lambda inst: solve_bottomup(inst, exact_vst),
        "exact": brute_force_optimum,
    }
    cases = []
    for inst in mixed_corpus(24, seed0=7700):
        cases += [(name, inst, solve(inst)) for name, solve in solvers.items()]
        costly = _with_costly_terminals(inst)
        assert normalize(costly).instance is not costly  # the CLI goes through denormalize
        cases += [(f"cli-{a}", costly, cli._solve_instance(costly, a)) for a in cli._ALGORITHMS]
    assert len(cases) == 24 * 10
    for name, inst, report in cases:
        assert report.tree_edges == extract_tree(inst, report.assignment), name
        assert cli._tree_failures(inst, report, None) == [], name

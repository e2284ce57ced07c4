"""Layered heuristics: grade-factor bounds, tightness family, subroutines."""

import json
import math
import os
import random
from decimal import Decimal
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
# Views and normalized copies on the parent's graph


def _shares_graph(derived: Instance, parent: Instance) -> bool:
    return (
        derived.edges is parent.edges
        and derived.adjacency is parent.adjacency
        and derived._neighbor_masks is parent._neighbor_masks
    )


def test_views_equal_a_build_and_share_the_parent_graph(fig3):
    for inst in [fig3] + mixed_corpus(30, seed0=8100):
        for grade in range(1, inst.grades + 1):
            terminals = inst.terminals[1:] or inst.terminals
            for free in ((), range(0, inst.num_vertices, 3)):
                view = single_grade_view(inst, grade, terminals, free=free)
                zero = set(free) | set(terminals)
                column = [
                    [0] if v in zero else [inst.costs[v][grade - 1]]
                    for v in range(inst.num_vertices)
                ]
                built = Instance.build(
                    inst.num_vertices, list(inst.edges), 1, {t: 1 for t in terminals}, column
                )
                assert view == built, (inst, grade, free)
                assert view.adjacency == built.adjacency
                assert view._neighbor_masks == built._neighbor_masks
                assert validate(view) == [], (inst, grade, free)
                assert _shares_graph(view, inst), (inst, grade, free)


def test_normalize_rebuilds_equal_a_build_and_share_the_original_graph(fig3):
    for inst in [fig3] + mixed_corpus(30, seed0=8200):
        costly = _with_costly_terminals(inst)
        result = normalize(costly)
        assert result.instance is not costly
        top = max(costly.required.values())
        ladders = [list(ladder[:top]) for ladder in costly.costs]
        for t, r in costly.required.items():
            paid = ladders[t][r - 1].micros
            ladders[t] = [Cost.from_micros(max(c.micros - paid, 0)) for c in ladders[t]]
        built = Instance.build(
            costly.num_vertices, list(costly.edges), top, dict(costly.required), ladders
        )
        assert result.instance == built, inst
        assert validate(result.instance) == [], inst
        assert _shares_graph(result.instance, costly), inst


@pytest.mark.parametrize(
    "grades, required, costs, message",
    [
        (2, {0: 2, 99: 1}, None, r"terminal 99 out of vertex range"),
        (2, {}, None, r"terminals at None: terminal set is empty"),
        (2, {0: 3}, None, r"required grade 3 at vertex 0 out of range"),
        (2, {0: 2}, "short", r"cost table must have one ladder per vertex"),
        (2, {0: 2}, "one-entry", r"cost ladder at vertex 0 must have 2 entries"),
        (2, {0: 2}, "decreasing", r"cost-monotonicity at 1: c_2=1 < c_1=2"),
    ],
)
def test_derived_instances_raise_what_build_raises(fig3, grades, required, costs, message):
    ladders = [list(ladder) for ladder in fig3.costs]
    if costs == "short":
        ladders = ladders[:-1]
    elif costs == "one-entry":
        ladders[0] = ladders[0][:1]
    elif costs == "decreasing":
        ladders[1] = [2, 1]
    with pytest.raises(InputError, match=rf"^{message}$") as built:
        Instance.build(fig3.num_vertices, fig3.edges, grades, required, ladders)
    with pytest.raises(InputError, match=rf"^{message}$") as derived:
        fig3._regraded(grades, required, ladders)
    assert str(derived.value) == str(built.value)


@pytest.mark.parametrize(
    "terminals, message",
    [([0, 99], r"terminal 99 out of vertex range"),
     ([], r"terminals at None: terminal set is empty")],
)
def test_single_grade_view_refuses_bad_terminals(fig3, terminals, message):
    with pytest.raises(InputError, match=rf"^{message}$"):
        single_grade_view(fig3, 1, terminals)


def test_layered_solvers_check_no_graph_again(monkeypatch):
    # The instance's graph was checked when it was built; neither solver
    # re-runs the graph rules or walks the whole vertex set for them.
    inst = random_instance(90, 3, seed=1, edge_prob=6 / 90, terminal_fraction=0.3)
    full = (1 << inst.num_vertices) - 1
    calls = []
    real_graph, real_reach = vgsst.instance._graph_violations, vgsst.instance._reach
    monkeypatch.setattr(
        vgsst.instance, "_graph_violations",
        lambda *args: calls.append("graph") or real_graph(*args),
    )
    monkeypatch.setattr(
        vgsst.instance, "_reach",
        lambda masks, level, start: (level == full and calls.append("full walk"))
        or real_reach(masks, level, start),
    )
    views = []

    def vst(view):
        views.append(view)
        return greedy_as_vst(view)

    for solve, rounds in ((solve_topdown, 3), (solve_bottomup, 1)):
        views.clear()
        solve(inst, vst)
        assert len(views) == rounds, solve
        assert calls == [], solve
    # The counters see a fresh build.
    Instance.build(inst.num_vertices, inst.edges, inst.grades, inst.required, inst.costs)
    assert calls == ["graph", "full walk"]


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


# ---------------------------------------------------------------------------
# Pinned layered answers

GOLDEN_LAYERED = os.path.join(os.path.dirname(__file__), "golden", "layered_answers.json")


def _relabelled(inst: Instance, rng: random.Random) -> Instance:
    """``inst`` with its vertex ids shuffled by ``rng``, as the benchmark's corpus is."""
    n = inst.num_vertices
    perm = list(range(n))
    rng.shuffle(perm)
    costs = [None] * n
    for v, ladder in enumerate(inst.costs):
        costs[perm[v]] = ladder
    return Instance.build(
        n,
        [(perm[u], perm[v]) for u, v in inst.edges],
        inst.grades,
        {perm[t]: r for t, r in inst.required.items()},
        costs,
    )


def _layered_cases():
    """(key, instance) for the benchmark's three-grade family at n = 90 and
    120: generation seeds 1-4, each relabelled from seeds 1 and 2."""
    for n in (90, 120):
        for gen_seed in (1, 2, 3, 4):
            base = random_instance(n, 3, seed=gen_seed, edge_prob=6 / n, terminal_fraction=0.3)
            for relabel in (1, 2):
                rng = random.Random(f"{relabel}:{n}:3:{gen_seed}")
                yield f"n={n} L=3 seed={gen_seed} relabel={relabel}", _relabelled(base, rng)


def _layered_answer(report) -> dict:
    answer = {
        "assignment": list(report.assignment),
        "tree_edges": [list(e) for e in report.tree_edges],
        "total": report.total_cost,
    }
    if report.grade_costs is not None:  # top-down only
        answer["grade_costs"] = list(report.grade_costs)
    return answer


def _layered_answers() -> dict:
    """Every pinned (solver, instance) answer, keyed as in the golden file."""
    out = {}
    for key, inst in _layered_cases():
        for name, solve in (("topdown", solve_topdown), ("bottomup", solve_bottomup)):
            out[f"{name} {key}"] = _layered_answer(solve(inst, greedy_as_vst))
    return out


def test_layered_solvers_match_pinned_answers():
    # Assignment, tree and total of solve_topdown and solve_bottomup with
    # greedy_as_vst, and top-down's per-grade spend, compared exactly.
    with open(GOLDEN_LAYERED, encoding="utf-8") as fh:
        golden = json.loads(fh.read(), parse_float=Decimal)
    answers = _layered_answers()
    assert list(answers) == list(golden)
    for key, answer in answers.items():
        expected = golden[key]
        assert answer["assignment"] == expected["assignment"], key
        assert answer["tree_edges"] == expected["tree_edges"], key
        assert answer["total"] == Cost.parse(expected["total"]), key
        assert answer.keys() == expected.keys(), key
        if key.startswith("topdown"):
            assert answer["grade_costs"] == [Cost.parse(c) for c in expected["grade_costs"]], key

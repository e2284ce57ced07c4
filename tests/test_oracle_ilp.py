"""Exhaustive oracle and the cut-based 0/1 model."""

import hashlib
import json
import os
from itertools import product

import pytest

import vgsst.oracle
from vgsst import (
    Cost,
    InputError,
    Instance,
    SizeCapError,
    brute_force_optimum,
    build_ilp,
    check_feasible,
    export_lp,
    fig2_instance,
    fig3_instance,
    model_point_feasible,
    random_instance,
    solution_cost,
    solve_greedy,
    solve_ilp_by_enumeration,
    solve_topdown,
    solve_bottomup,
    greedy_as_vst,
)

from vgsst.oracle import (
    _assignment_ranges,
    _boundaries,
    _cost_tables,
    _minimal_rows,
    _objective_tables,
    _row_subsets,
    _scan_lattice,
)

from conftest import MODEL_RUNGS, mixed_corpus


def _path_instance() -> Instance:
    # Three vertices in a row; both ends demand grade 1, the middle costs 5.
    return Instance.build(3, [(0, 1), (1, 2)], 1, {0: 1, 2: 1}, [[0], [5], [0]])


# ---------------------------------------------------------------------------
# Assignment oracle


def test_oracle_builtin(fig3):
    report = brute_force_optimum(fig3)
    assert report.total_cost == Cost.parse(30)
    ok, _ = check_feasible(fig3, report.assignment)
    assert ok


def test_oracle_hub_chain():
    report = brute_force_optimum(fig2_instance(3), limit=8)
    assert report.total_cost == Cost.parse("1.1")


def test_oracle_zero_when_terminals_touch():
    inst = Instance.build(3, [(0, 1), (1, 2)], 1, {0: 1, 1: 1}, [[0], [0], [9]])
    assert brute_force_optimum(inst).total_cost == Cost.zero()


def test_oracle_respects_caps(fig3):
    with pytest.raises(SizeCapError):
        brute_force_optimum(fig3, limit=4)


def test_oracle_prefers_lexicographically_smallest():
    # Two equal-cost optima: buying vertex 1 or vertex 2. The smaller
    # assignment vector leaves the earlier coordinate at zero, so the
    # tie-break buys vertex 2.
    inst = Instance.build(
        4, [(0, 1), (1, 3), (0, 2), (2, 3)], 1, {0: 1, 3: 1}, [[0], [2], [2], [0]]
    )
    report = brute_force_optimum(inst)
    assert report.assignment == (1, 0, 1, 1)


def test_oracle_handles_unnormalized_instances():
    inst = Instance.build(2, [(0, 1)], 2, {0: 1}, [[3, 7], [1, 2]])
    report = brute_force_optimum(inst)
    assert report.total_cost == Cost.parse(3)
    assert report.assignment == (1, 0)


# ---------------------------------------------------------------------------
# Model construction


def test_path_model_rows():
    model = build_ilp(_path_instance())
    assert model.num_vertices == 3 and model.grades == 1
    # Subsets splitting the two demanding terminals: {0}, {2}, {0,1}, {1,2}.
    by_mask = {subset: nbhd for _, subset, nbhd in model.cuts}
    assert set(by_mask) == {0b001, 0b100, 0b011, 0b110}
    assert by_mask[0b001] == (1,)
    assert by_mask[0b100] == (1,)
    assert by_mask[0b011] == (2,)
    assert by_mask[0b110] == (0,)


def test_build_ilp_refuses_costly_terminal_floors():
    # The model has no floor rows: its optimum (1, 1, 1) at cost 5 leaves
    # terminal 0 below its demand, where the true optimum costs 6.
    inst = Instance.build(3, [(0, 1), (1, 2)], 2, {0: 2, 2: 1}, [[1, 2], [1, 2], [3, 3]])
    assert brute_force_optimum(inst).total_cost == Cost.parse(6)
    with pytest.raises(InputError, match="^terminal-cost at 0: .*; terminal-cost at 2: "):
        build_ilp(inst)


def test_single_demanding_terminal_produces_no_rows():
    inst = Instance.build(2, [(0, 1)], 2, {0: 2, 1: 1}, [[0, 0], [0, 1]])
    model = build_ilp(inst)
    assert all(grade == 1 for grade, _, _ in model.cuts)


def test_model_is_immutable_and_hashable(fig3):
    model = build_ilp(fig3)
    assert type(model.cuts) is tuple
    assert hash(model) == hash(build_ilp(fig3))


def test_models_of_equal_instances_are_equal_before_and_after_rows_are_built(fig3):
    model, twin = build_ilp(fig3), build_ilp(fig3_instance())
    assert model == twin and hash(model) == hash(twin)
    assert model.cuts and "cuts" in vars(model) and "cuts" not in vars(twin)
    assert model == twin and hash(model) == hash(twin)


def test_solve_builds_no_cut_rows():
    for n, levels in MODEL_RUNGS:
        model = build_ilp(
            random_instance(n, levels, seed=1, edge_prob=0.4, terminal_fraction=0.4)
        )
        solve_ilp_by_enumeration(model)
        assert "cuts" not in vars(model), (n, levels)


def test_model_caps():
    inst = _path_instance()
    with pytest.raises(SizeCapError):
        build_ilp(inst, limit=2)
    with pytest.raises(SizeCapError):
        solve_ilp_by_enumeration(build_ilp(inst), cap=2)


# ---------------------------------------------------------------------------
# LP export


def test_lp_contains_forced_cut_row():
    text = export_lp(build_ilp(_path_instance()))
    assert "x_1_1 >= 1" in text
    assert text.startswith("Minimize\n obj: 0 x_0_1 + 5 x_1_1 + 0 x_2_1\n")
    assert "Bounds" in text and "Binaries" in text and text.endswith("End\n")


def test_lp_single_terminal_has_no_cut_rows():
    inst = Instance.build(2, [(0, 1)], 1, {0: 1}, [[0], [2]])
    text = export_lp(build_ilp(inst))
    assert "cut_" not in text
    assert "Bounds" in text


def test_lp_bytes_stable(fig3):
    a = export_lp(build_ilp(fig3))
    b = export_lp(build_ilp(fig3))
    assert a == b
    assert " cut_1_" in a and " lad_0_1: x_0_1 - x_0_2 >= 0" in a


def test_lp_matches_golden_file(fig3):
    golden = os.path.join(os.path.dirname(__file__), "golden", "fig3.lp")
    with open(golden, encoding="utf-8") as fh:
        frozen = fh.read()
    text = export_lp(build_ilp(fig3))
    assert hashlib.sha256(text.encode()).hexdigest() == hashlib.sha256(
        frozen.encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# Model enumeration


def test_path_model_optimum():
    solution = solve_ilp_by_enumeration(build_ilp(_path_instance()))
    assert solution.objective == Cost.parse(5)
    assert solution.assignment[1] == 1


def test_builtin_model_matches_oracle(fig3):
    solution = solve_ilp_by_enumeration(build_ilp(fig3))
    assert solution.objective == Cost.parse(30)
    assert solution.objective == brute_force_optimum(fig3).total_cost


def test_two_terminal_edge_is_free():
    inst = Instance.build(2, [(0, 1)], 2, {0: 2, 1: 2}, [[0, 0], [0, 0]])
    solution = solve_ilp_by_enumeration(build_ilp(inst))
    assert solution.objective == Cost.zero()


def test_model_agrees_with_oracle_on_corpus():
    for inst in mixed_corpus(30, seed0=7200, max_n=8, max_levels=2):
        model = build_ilp(inst)
        solution = solve_ilp_by_enumeration(model)
        oracle = brute_force_optimum(inst)
        assert solution.objective == oracle.total_cost


def test_feasible_assignments_are_model_points_and_back():
    for inst in mixed_corpus(15, seed0=7300, max_n=6, max_levels=2):
        model = build_ilp(inst)
        ranges = [
            range(inst.required.get(v, 0), inst.grades + 1)
            for v in range(inst.num_vertices)
        ]
        for y in product(*ranges):
            ok, _ = check_feasible(inst, tuple(y))
            if ok:
                assert model_point_feasible(model, y)
        # Model points lift to feasible assignments of equal cost once
        # terminals are raised to their (free) demands.
        solution = solve_ilp_by_enumeration(model)
        lifted = list(solution.assignment)
        for t, r in inst.required.items():
            lifted[t] = max(lifted[t], r)
        ok, _ = check_feasible(inst, tuple(lifted))
        assert ok
        assert solution_cost(inst, tuple(lifted)) == solution.objective


def _row_masks(model):
    return {(grade, sum(1 << v for v in nbhd)) for grade, _, nbhd in model.cuts}


def _by_grade(rows):
    grouped = {}
    for grade, mask in rows:
        grouped.setdefault(grade, []).append(mask)
    return grouped


def _dominates(row, other):
    return row[0] >= other[0] and row[1] & other[1] == row[1]


def test_minimal_rows_keep_exactly_the_non_dominated():
    # (2, {0}) implies (1, {0, 1}) and (2, {1, 2}) implies (1, {1, 2}); a
    # lower-grade row never implies a higher one, so (1, {2}) and
    # (2, {1, 2}) both stay.
    rows = [(1, 0b011), (2, 0b001), (1, 0b100), (2, 0b110), (1, 0b110), (2, 0b001)]
    assert _minimal_rows(_by_grade(rows)) == [(2, 0b001), (2, 0b110), (1, 0b100)]
    for inst in mixed_corpus(36, seed0=7500, max_n=8, max_levels=3):
        rows = _row_masks(build_ilp(inst))
        kept = _minimal_rows(_by_grade(rows))
        assert len(kept) == len(set(kept)) and set(kept) <= rows
        for row in rows - set(kept):
            assert any(_dominates(k, row) for k in kept), row
        for a in kept:
            assert not any(_dominates(a, b) for b in kept if b != a), a


def _unpruned(ranges, tables, feasible):
    """The lattice walk with a callback that never prunes."""
    last = len(ranges) - 1
    return _scan_lattice(ranges, tables, lambda y: None if feasible(y) else last)


def test_filtered_scan_matches_every_row_reference():
    # Same assignment, not only the same objective, as a scan that checks
    # every cut row of the model and never prunes.
    for inst in mixed_corpus(36, seed0=7500, max_n=8, max_levels=3):
        model = build_ilp(inst)
        solution = solve_ilp_by_enumeration(model)
        reference = _unpruned(
            [(0, model.grades)] * model.num_vertices,
            _objective_tables(model),
            lambda y: model_point_feasible(model, y),
        )
        assert (solution.assignment, solution.objective.micros) == reference


def test_pruned_walks_match_an_unpruned_walk():
    # Both oracle routes prune the walk at a failed constraint; the walk
    # that generates every child must find the same point, tie-break
    # included.
    pinned = [
        random_instance(n, levels, seed=seed, edge_prob=0.4, terminal_fraction=0.4)
        for n, levels in MODEL_RUNGS
        for seed in (1, 2)
    ]
    for inst in mixed_corpus(40, seed0=7600, max_n=8) + pinned:
        ranges = _assignment_ranges(inst, inst.num_vertices)
        report = brute_force_optimum(inst, limit=inst.num_vertices)
        reference = _unpruned(
            ranges, _cost_tables(inst, ranges), lambda y: check_feasible(inst, y)[0]
        )
        assert (report.assignment, report.total_cost.micros) == reference

        model = build_ilp(inst)
        solution = solve_ilp_by_enumeration(model)
        rows = sorted(_row_masks(model), key=lambda row: row[1].bit_count())
        reference = _unpruned(
            [(0, model.grades)] * model.num_vertices,
            _objective_tables(model),
            lambda y: all(any(y[v] >= g for v in range(len(y)) if m >> v & 1) for g, m in rows),
        )
        assert (solution.assignment, solution.objective.micros) == reference


def test_objective_telescopes_to_assignment_cost(fig3):
    model = build_ilp(fig3)
    for y in [(2, 2, 2, 0, 2, 2, 1, 2), (2, 0, 1, 0, 0, 2, 1, 0), (2,) * 8]:
        total = Cost.zero()
        for v in range(8):
            for grade in range(1, 3):
                if y[v] >= grade:
                    total = total + model.objective[v][grade - 1]
        assert total == solution_cost(fig3, y)


def test_heuristic_outputs_are_model_feasible():
    for inst in mixed_corpus(12, seed0=7400, max_n=7, max_levels=2):
        model = build_ilp(inst)
        oracle = brute_force_optimum(inst)
        for report in (
            solve_greedy(inst),
            solve_topdown(inst, greedy_as_vst),
            solve_bottomup(inst, greedy_as_vst),
        ):
            assert report.total_cost >= oracle.total_cost
            assert model_point_feasible(model, report.assignment)


GOLDEN_MODELS = os.path.join(os.path.dirname(__file__), "golden", "ilp_models.json")


def test_models_match_pinned_rows_lp_and_optima():
    # Each entry pins, for random_instance(n, L, seed, edge_prob=0.4,
    # terminal_fraction=0.4): the cut row count, the sha256 of the LP
    # text, and the enumerated optimum's assignment and objective. The
    # closed-form constraint count must match the rows actually built.
    with open(GOLDEN_MODELS, encoding="utf-8") as fh:
        golden = json.load(fh)
    cases = [(n, levels, seed) for n, levels in MODEL_RUNGS for seed in (1, 2)]
    assert list(golden) == [f"n={n} levels={levels} seed={seed}" for n, levels, seed in cases]
    for (n, levels, seed), expected in zip(cases, golden.values()):
        inst = random_instance(n, levels, seed=seed, edge_prob=0.4, terminal_fraction=0.4)
        model = build_ilp(inst)
        solution = solve_ilp_by_enumeration(model)
        assert {
            "cut_rows": len(model.cuts),
            "lp_sha256": hashlib.sha256(export_lp(model).encode()).hexdigest(),
            "assignment": list(solution.assignment),
            "objective": solution.objective.as_decimal_str(),
        } == expected, (n, levels, seed)
        assert model.num_constraints == len(model.cuts) + n * (levels - 1)


def test_boundary_table_and_row_subsets_match_the_definitions(monkeypatch):
    # The table and the row lists against their definitions, computed
    # vertex by vertex from the instance; the solve's per-grade mask sets
    # against those folded from the model's built rows.
    folded = []
    monkeypatch.setattr(
        vgsst.oracle, "_minimal_rows", lambda masks: folded.append(masks) or _minimal_rows(masks)
    )
    pinned = [
        random_instance(n, levels, seed=seed, edge_prob=0.4, terminal_fraction=0.4)
        for n, levels in MODEL_RUNGS
        for seed in (1, 2)
    ]
    lone = Instance.build(3, [(0, 1), (1, 2)], 2, {0: 2, 2: 1}, [[0, 0], [1, 2], [0, 1]])
    lone_grades = 0
    for inst in pinned + mixed_corpus(36, seed0=7500, max_n=8, max_levels=3) + [lone]:
        model = build_ilp(inst)
        n = inst.num_vertices
        adjacent = [set() for _ in range(n)]
        for u, v in inst.edges:
            adjacent[u].add(v)
            adjacent[v].add(u)
        boundary = _boundaries(model.neighbor_masks)
        assert len(boundary) == 1 << n
        for s, mask in enumerate(boundary):
            members = {v for v in range(n) if s >> v & 1}
            outside = set().union(*(adjacent[v] for v in members)) - members
            assert mask == sum(1 << v for v in outside), (s, mask)

        rows = _row_subsets(model)
        assert list(rows) == sorted(rows)
        for grade in range(1, inst.grades + 1):
            demanders = {v for v, floor in inst.required.items() if floor >= grade}
            if len(demanders) < 2:
                lone_grades += 1
                assert grade not in rows, grade
                continue
            held = lambda s: sum(s >> v & 1 for v in demanders)
            assert rows[grade] == [s for s in range(1 << n) if 0 < held(s) < len(demanders)]

        folded.clear()
        solve_ilp_by_enumeration(model)
        by_grade = {}
        for grade, _, nbhd in model.cuts:
            by_grade.setdefault(grade, set()).add(sum(1 << v for v in nbhd))
        assert folded == [by_grade]
    assert lone_grades

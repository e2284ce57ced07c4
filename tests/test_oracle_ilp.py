"""Exhaustive oracle and the cut-based 0/1 model."""

import hashlib
import json
import os
from itertools import product

import pytest

from vgsst import (
    Cost,
    Instance,
    SizeCapError,
    brute_force_optimum,
    build_ilp,
    check_feasible,
    export_lp,
    fig2_instance,
    model_point_feasible,
    random_instance,
    solution_cost,
    solve_greedy,
    solve_ilp_by_enumeration,
    solve_topdown,
    solve_bottomup,
    greedy_as_vst,
)

from vgsst.oracle import _minimal_rows, _objective_tables, _scan_lattice

from conftest import mixed_corpus


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
    masks = {cut.subset_mask for cut in model.cuts}
    assert masks == {0b001, 0b100, 0b011, 0b110}
    by_mask = {cut.subset_mask: cut.neighborhood for cut in model.cuts}
    assert by_mask[0b001] == (1,)
    assert by_mask[0b100] == (1,)
    assert by_mask[0b011] == (2,)
    assert by_mask[0b110] == (0,)


def test_single_demanding_terminal_produces_no_rows():
    inst = Instance.build(2, [(0, 1)], 2, {0: 2, 1: 1}, [[0, 0], [0, 1]])
    model = build_ilp(inst)
    assert all(cut.grade == 1 for cut in model.cuts)


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
    return {(cut.grade, sum(1 << v for v in cut.neighborhood)) for cut in model.cuts}


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


def test_filtered_scan_matches_every_row_reference():
    # Same assignment, not only the same objective, as a scan that checks
    # every cut row of the model.
    for inst in mixed_corpus(36, seed0=7500, max_n=8, max_levels=3):
        model = build_ilp(inst)
        solution = solve_ilp_by_enumeration(model)
        reference = _scan_lattice(
            [(0, model.grades)] * model.num_vertices,
            _objective_tables(model),
            lambda y: model_point_feasible(model, y),
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
#: The benchmark's oracle rungs (n, grades), each at generation seeds 1-2.
MODEL_RUNGS = ((7, 3), (8, 3), (9, 2), (10, 2), (11, 2), (12, 1), (12, 2))


def test_models_match_pinned_rows_lp_and_optima():
    # Each entry pins, for random_instance(n, L, seed, edge_prob=0.4,
    # terminal_fraction=0.4): the cut row count, the sha256 of the LP
    # text, and the enumerated optimum's assignment and objective.
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

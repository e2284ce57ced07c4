"""Merge solver: worked-example trace, candidate search, invariants."""

import heapq
import json
import math
import os
from decimal import Decimal
from fractions import Fraction

import pytest

from vgsst import (
    COST_SCALE,
    Cost,
    InputError,
    Instance,
    InternalInvariantError,
    StaleCandidateError,
    apply_merge,
    best_candidate_for,
    brute_force_dst,
    brute_force_optimum,
    check_feasible,
    check_grt,
    graded_shortest_paths,
    init_forest,
    random_instance,
    reduce_to_dst,
    select_global_candidate,
    solution_cost,
    solve_greedy,
)
from vgsst import greedy
from vgsst.costs import parse_fraction
from vgsst.io import solution_to_json
from vgsst.instance import spanning_tree_by_levels

from conftest import mixed_corpus, set_cover_family


def _after_first_merge(fig3):
    forest = init_forest(fig3)
    apply_merge(forest, select_global_candidate(forest))
    return forest


# ---------------------------------------------------------------------------
# Initialization


def test_init_forest_singletons(fig3):
    forest = init_forest(fig3)
    assert forest.roots() == [0, 2, 5, 6]
    assert forest.trees == {0: {0}, 2: {2}, 5: {5}, 6: {6}}
    assert forest.assignment() == (2, 0, 1, 0, 0, 2, 1, 0)
    for v in range(8):
        for grade in (1, 2):
            assert forest.weight(v, grade) == fig3.costs[v][grade - 1]


def test_init_forest_two_terminals():
    inst = Instance.build(3, [(0, 1), (1, 2)], 1, {0: 1, 2: 1}, [[0], [4], [0]])
    assert len(init_forest(inst)) == 2


# ---------------------------------------------------------------------------
# Graded shortest paths


def test_distances_after_first_merge(fig3):
    forest = _after_first_merge(fig3)
    row = graded_shortest_paths(forest, 0, 2)
    # Interior of the 0..4 path at grade 2: vertices 1 (14) and 2 (8).
    assert row.distance_to(4) == Cost.parse(22)
    assert row.path_to(4) == (0, 1, 2, 4)
    row_e = graded_shortest_paths(forest, 4, 2)
    # 4..5 runs through vertex 7, whose grade-2 increment is now 1.
    assert row_e.distance_to(5) == Cost.parse(1)
    assert row_e.path_to(5) == (4, 7, 5)


def test_adjacent_distance_is_zero(fig3):
    forest = init_forest(fig3)
    for grade in (1, 2):
        row = graded_shortest_paths(forest, 0, grade)
        assert row.distance_to(1) == Cost.zero()
        assert row.distance_to(0) == Cost.zero()


# ---------------------------------------------------------------------------
# Candidate search


def test_best_candidate_first_round(fig3):
    forest = init_forest(fig3)
    cand = best_candidate_for(forest, center=4, grade=1)
    assert cand.root == 5
    assert cand.subset_roots == (2, 6)
    assert cand.gamma == Fraction(4, 3)
    assert cand.root_path == (5, 7, 4)
    assert cand.leg_paths == ((4, 2), (4, 6))


def test_best_candidate_second_round(fig3):
    forest = _after_first_merge(fig3)
    cand = best_candidate_for(forest, center=4, grade=2)
    assert cand.root == 0
    assert cand.subset_roots == (5,)
    assert cand.gamma == Fraction(13)


@pytest.mark.parametrize(
    "call",
    [
        lambda forest: best_candidate_for(forest, center=-1, grade=1),
        lambda forest: best_candidate_for(forest, center=8, grade=1),
        lambda forest: best_candidate_for(forest, center=4, grade=0),
        lambda forest: best_candidate_for(forest, center=4, grade=3),
        lambda forest: graded_shortest_paths(forest, -1, 1),
        lambda forest: graded_shortest_paths(forest, 8, 1),
        lambda forest: graded_shortest_paths(forest, 0, 3),
    ],
    ids=["center-1", "center8", "grade0", "grade3", "source-1", "source8", "row-grade3"],
)
def test_out_of_range_center_grade_or_source_rejected(fig3, call):
    with pytest.raises(InputError):
        call(init_forest(fig3))


def test_leg_paths_follow_subset_roots():
    # apply_merge lifts leg k to the demand of subset_roots[k], so leg k
    # must run from the center to that root. Seed 280 merges a subset
    # whose distance order differs from its id order.
    corpus = mixed_corpus(10, seed0=5100)
    corpus.append(random_instance(10, 2, seed=280, edge_prob=0.3, num_terminals=7))
    for inst in corpus:
        forest = init_forest(inst)
        while len(forest) > 1:
            cand = select_global_candidate(forest)
            assert cand.root_path[0] == cand.root and cand.root_path[-1] == cand.center
            assert [(p[0], p[-1]) for p in cand.leg_paths] == [
                (cand.center, r) for r in cand.subset_roots
            ]
            apply_merge(forest, cand)


def test_no_candidate_when_no_tree_fits_under_grade(fig3):
    forest = _after_first_merge(fig3)
    # Both remaining roots demand grade 2, so nothing is mergeable at 1.
    assert best_candidate_for(forest, center=4, grade=1) is None


def test_global_candidate_first_round(fig3):
    forest = init_forest(fig3)
    cand = select_global_candidate(forest)
    assert (cand.root, cand.center, cand.grade) == (5, 4, 1)
    assert cand.subset_roots == (2, 6)
    assert cand.gamma == Fraction(4, 3)


def test_global_candidate_second_round(fig3):
    forest = _after_first_merge(fig3)
    cand = select_global_candidate(forest)
    assert cand.gamma == Fraction(13)
    assert cand.grade == 2
    assert cand.merged_count == 2


def test_zero_ratio_candidate_selected():
    # Two terminals joined through a free vertex: the first merge is free.
    inst = Instance.build(
        3, [(0, 1), (1, 2)], 1, {0: 1, 2: 1}, [[0], [0], [0]]
    )
    forest = init_forest(inst)
    cand = select_global_candidate(forest)
    assert cand.gamma == Fraction(0)


# ---------------------------------------------------------------------------
# Merges


def test_first_merge_updates_state(fig3):
    forest = init_forest(fig3)
    record = apply_merge(forest, select_global_candidate(forest))
    assert record.incurred_cost == Cost.parse(4)
    assert record.merged_count == 3
    assert len(forest) == 2
    assert forest.weight(4, 1) == Cost.zero()
    assert forest.weight(4, 2) == Cost.parse(3)
    assert forest.trees[5] == {2, 4, 5, 6, 7}


def test_second_merge_finishes(fig3):
    forest = _after_first_merge(fig3)
    record = apply_merge(forest, select_global_candidate(forest))
    assert record.incurred_cost == Cost.parse(26)
    assert len(forest) == 1
    assert forest.assignment() == (2, 2, 2, 0, 2, 2, 1, 2)


def test_merge_along_paid_paths_costs_nothing():
    inst = Instance.build(
        3, [(0, 1), (1, 2)], 1, {0: 1, 2: 1}, [[0], [0], [0]]
    )
    forest = init_forest(inst)
    record = apply_merge(forest, select_global_candidate(forest))
    assert record.incurred_cost == Cost.zero()


def test_stale_candidate_rejected(fig3):
    forest = init_forest(fig3)
    cand = select_global_candidate(forest)
    apply_merge(forest, cand)
    with pytest.raises(StaleCandidateError):
        apply_merge(forest, cand)


# ---------------------------------------------------------------------------
# Full solve


def test_full_run_on_builtin(fig3):
    report = solve_greedy(fig3)
    assert report.total_cost == Cost.parse(30)
    assert [rec.gamma for rec in report.iterations] == [Fraction(4, 3), Fraction(13)]
    assert [rec.incurred_cost for rec in report.iterations] == [
        Cost.parse(4),
        Cost.parse(26),
    ]
    ok, _ = check_feasible(fig3, report.assignment)
    assert ok


def test_single_terminal_instance_is_free():
    inst = Instance.build(3, [(0, 1), (1, 2)], 2, {1: 2}, [[5, 9], [0, 0], [1, 1]])
    report = solve_greedy(inst)
    assert report.total_cost == Cost.zero()
    assert report.iterations == ()
    assert report.assignment == (0, 2, 0)


def test_free_instance_solves_free():
    # Every vertex already affordable at requirement: all ratios are zero.
    inst = Instance.build(
        4,
        [(0, 1), (1, 2), (2, 3)],
        2,
        {0: 2, 3: 2},
        [[0, 0], [0, 0], [0, 0], [0, 0]],
    )
    report = solve_greedy(inst)
    assert report.total_cost == Cost.zero()
    assert all(rec.gamma == 0 for rec in report.iterations)


def test_determinism(fig3):
    assert solve_greedy(fig3) == solve_greedy(fig3)
    corpus = mixed_corpus(10, seed0=4100)
    for inst in corpus:
        assert solve_greedy(inst) == solve_greedy(inst)


# ---------------------------------------------------------------------------
# Invariants over random instances


def test_iteration_structure_invariants():
    for inst in mixed_corpus(40, seed0=4200):
        report = solve_greedy(inst)
        assert len(report.iterations) <= len(inst.terminals) - 1
        for rec in report.iterations:
            assert rec.merged_count >= 2
            # The computed ratio may overcount shared vertices, never the
            # other way around.
            assert (
                rec.incurred_cost.as_fraction() <= rec.gamma * rec.merged_count
            )


def test_forest_shrinks_and_weights_stay_consistent():
    for inst in mixed_corpus(20, seed0=4300):
        forest = init_forest(inst)
        sizes = [len(forest)]
        while len(forest) > 1:
            apply_merge(forest, select_global_candidate(forest))
            sizes.append(len(forest))
            for v in range(inst.num_vertices):
                y_v = forest.y[v]
                paid = inst.cost_of(v, y_v)
                for grade in range(1, inst.grades + 1):
                    ladder = inst.cost_of(v, grade)
                    expected = (
                        ladder - paid if ladder > paid else Cost.zero()
                    )
                    assert forest.weight(v, grade) == expected
            for root, members in forest.trees.items():
                assert forest.y[root] == inst.required[root]
                assert max(forest.y[m] for m in members) == forest.y[root]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_every_intermediate_tree_is_grade_respecting():
    # Rebuild each tree's edges from its member set level-by-level and
    # check grades never increase away from the root.
    for inst in mixed_corpus(20, seed0=4400):
        forest = init_forest(inst)
        while len(forest) > 1:
            apply_merge(forest, select_global_candidate(forest))
            for root, members in forest.trees.items():
                edges = spanning_tree_by_levels(
                    inst, [y if v in members else 0 for v, y in enumerate(forest.y)]
                )
                assert len(edges) == len(members) - 1
                ok, path = check_grt(inst, edges, tuple(forest.y), root)
                assert ok, f"grade rose along {path}"


def test_matches_logarithmic_bound_against_oracle():
    for inst in mixed_corpus(60, seed0=4500):
        report = solve_greedy(inst)
        optimum = brute_force_optimum(inst)
        assert report.total_cost >= optimum.total_cost
        t = len(inst.terminals)
        if optimum.total_cost == Cost.zero():
            assert report.total_cost == Cost.zero()
        else:
            bound = 2 * math.log(t) * optimum.total_cost.micros
            assert report.total_cost.micros <= bound


def test_single_grade_matches_quotient_merge_bound():
    # At one grade with free terminals this is the classic node-weighted
    # merge algorithm; same logarithmic bound against the oracle.
    for inst in mixed_corpus(30, seed0=4600, max_levels=1):
        report = solve_greedy(inst)
        optimum = brute_force_optimum(inst)
        t = len(inst.terminals)
        if optimum.total_cost == Cost.zero():
            assert report.total_cost == Cost.zero()
        else:
            assert (
                report.total_cost.micros
                <= 2 * math.log(t) * optimum.total_cost.micros
            )


def test_reported_cost_matches_assignment_cost():
    for inst in mixed_corpus(30, seed0=4700):
        report = solve_greedy(inst)
        assert report.total_cost == solution_cost(inst, report.assignment)
        support = {v for v, g in enumerate(report.assignment) if g >= 1}
        touched = {v for e in report.tree_edges for v in e}
        if len(support) > 1:
            assert touched == support
            assert len(report.tree_edges) == len(support) - 1


def _exhaustive_best_gamma(forest):
    """Reference search: every legal (root, center, grade, subset) combo.

    Subsets are unrestricted (not just prefixes), so this certifies that
    the prefix-based scan really attains the global minimum ratio.
    """
    from itertools import combinations

    from vgsst import graded_shortest_paths

    inst = forest.instance
    roots = forest.roots()
    rows = {}
    for r in roots:
        for grade in range(1, inst.required[r] + 1):
            rows[(r, grade)] = graded_shortest_paths(forest, r, grade)
    best = None
    for center in range(inst.num_vertices):
        for grade in range(1, inst.grades + 1):
            for root in roots:
                if inst.required[root] < grade:
                    continue
                others = [
                    r for r in roots if r != root and inst.required[r] <= grade
                ]
                root_dist = rows[(root, grade)].interior_micros[center]
                for size in range(1, len(others) + 1):
                    for subset in combinations(others, size):
                        total = (
                            root_dist
                            + forest.w[grade - 1][center]
                            + sum(
                                rows[(r, inst.required[r])].interior_micros[center]
                                for r in subset
                            )
                        )
                        gamma = Fraction(total, (1 + size) * 1_000_000)
                        if best is None or gamma < best:
                            best = gamma
    return best


def test_selection_attains_exhaustive_minimum():
    from vgsst import random_instance

    corpus = mixed_corpus(25, seed0=4800, max_n=8)
    # Wider forests stress non-prefix subsets harder.
    corpus += [
        random_instance(
            n=9, levels=3, seed=4900 + k, edge_prob=0.4, num_terminals=6
        )
        for k in range(8)
    ]
    for inst in corpus:
        forest = init_forest(inst)
        while len(forest) > 1:
            cand = select_global_candidate(forest)
            reference = _exhaustive_best_gamma(forest)
            assert cand.gamma == reference, (
                f"scan found {cand.gamma}, exhaustive search {reference}"
            )
            apply_merge(forest, cand)


# ---------------------------------------------------------------------------
# Distance rows kept across rounds


def _with_free_vertices(inst):
    """The same instance with every third vertex free at every grade."""
    return Instance.build(
        inst.num_vertices,
        inst.edges,
        inst.grades,
        inst.required,
        [
            [0] * inst.grades if v % 3 == 0 else list(inst.costs[v])
            for v in range(inst.num_vertices)
        ],
    )


def test_cached_rows_stay_exact():
    corpus = mixed_corpus(40, seed0=5200)
    corpus += [
        _with_free_vertices(
            random_instance(
                n=12 + 4 * k, levels=1 + k % 3, seed=5300 + k, edge_prob=0.3,
                num_terminals=5 + k,
            )
        )
        for k in range(6)
    ]
    corpus.append(
        Instance.build(4, [(0, 1), (1, 2), (2, 3)], 2, {0: 2, 3: 2}, [[0, 0]] * 4)
    )
    for inst in corpus:
        forest = init_forest(inst)
        while len(forest) > 1:
            apply_merge(forest, select_global_candidate(forest))
            assert set(forest.rows) == {
                (r, g) for r in forest.trees for g in range(1, inst.required[r] + 1)
            }
            for (r, g), row in forest.rows.items():
                assert row == list(graded_shortest_paths(forest, r, g).interior_micros)


def test_corrupted_cached_row_is_caught(fig3):
    forest = init_forest(fig3)
    cand = select_global_candidate(forest)
    key = (cand.root, min(cand.grade, fig3.required[cand.root]))
    # Raising an entry away from the winning center cannot change the winner,
    # so the next scan rebuilds the same root path and compares its row.
    far = next(v for v in range(fig3.num_vertices) if v != cand.center)
    forest.rows[key][far] += 1
    with pytest.raises(InternalInvariantError, match="stale"):
        select_global_candidate(forest)


def test_winner_path_matches_the_full_dijkstra(fig3):
    # The Dijkstra stopped at the center must rebuild the full run's path,
    # tie-breaks included, from every filled row to every center (the
    # row's own root too): after the first scan and after each merge.
    for inst in mixed_corpus(40, seed0=5800) + [fig3]:
        forest = init_forest(inst)
        select_global_candidate(forest)  # fills every row
        while True:
            for source, g in forest.rows:
                full = graded_shortest_paths(forest, source, g)
                for center in range(inst.num_vertices):
                    assert greedy._winner_path(forest, source, g, center) == full.path_to(
                        center
                    ), (source, g, center)
            if len(forest) == 1:
                break
            apply_merge(forest, select_global_candidate(forest))


def test_row_check_needs_the_tight_reachability_clause():
    # Path 0-1-2-3 with terminals 0 and 3; only vertex 1 costs anything.
    # Root 0's row ends in the zero-weight pair 2, 3. Lowering both entries
    # by 1 keeps row[0] == 0 and every arc feasible, but leaves 2 and 3
    # unreached over tight arcs.
    inst = Instance.build(4, [(0, 1), (1, 2), (2, 3)], 1, {0: 1, 3: 1}, [[0], [5], [0], [0]])
    forest = init_forest(inst)
    assert select_global_candidate(forest).root == 0
    row = forest.rows[(0, 1)]
    assert row == [0, 0, 5 * COST_SCALE, 5 * COST_SCALE]
    row[2] -= 1
    row[3] -= 1
    w = forest.w[0][:]
    w[0] = 0
    adjacency = inst.adjacency
    assert row[0] == 0 and all(
        row[x] <= row[u] + w[u] for u in range(inst.num_vertices) for x in adjacency[u]
    )
    assert not greedy._row_is_exact(row, w, adjacency, 0)
    with pytest.raises(InternalInvariantError, match="stale"):
        select_global_candidate(forest)


def test_winner_paths_run_no_full_dijkstra(monkeypatch, fig3):
    # One fill per (root, grade) in the first scan; the winners' paths and
    # the repairs after each merge add none.
    calls = []
    full = greedy.graded_shortest_paths
    monkeypatch.setattr(
        greedy, "graded_shortest_paths", lambda *args: calls.append(1) or full(*args)
    )
    corpus = [fig3] + [
        random_instance(n, levels, seed=seed, edge_prob=6 / n, terminal_fraction=0.3)
        for n, levels, seed in ((30, 2, 1), (30, 3, 2), (60, 3, 1), (90, 2, 3))
    ]
    for inst in corpus:
        calls.clear()
        report = solve_greedy(inst)
        assert len(report.iterations) > 1
        assert len(calls) == sum(inst.required[t] for t in inst.terminals)


def _textbook_dijkstra(inst, weights, source):
    """Reference: path weights excluding the source and including the
    target, ``(dist, vertex)`` heap entries, strict improvement only.
    Returns (interior distances, predecessors)."""
    nbrs = [[] for _ in range(inst.num_vertices)]
    for u, v in inst.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    dist = [math.inf] * inst.num_vertices
    preds = [-1] * inst.num_vertices
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in nbrs[u]:
            if d + weights[v] < dist[v]:
                dist[v] = d + weights[v]
                preds[v] = u
                heapq.heappush(heap, (dist[v], v))
    interior = [0 if v == source else dist[v] - weights[v] for v in range(inst.num_vertices)]
    return interior, preds


def test_shortest_paths_match_a_textbook_dijkstra():
    # Distances and predecessor tie-breaks, from every root at every grade
    # and from a few non-terminals, before the first merge and after each.
    corpus = mixed_corpus(30, seed0=5700)
    corpus += [
        _uniform_ladders(random_instance(n, levels, seed=1, edge_prob=6 / n, terminal_fraction=0.3))
        for n in (30, 60, 90, 120)
        for levels in (2, 3)
    ]
    for inst in corpus:
        others = [v for v in range(inst.num_vertices) if v not in inst.required]
        forest = init_forest(inst)
        while True:
            for source in forest.roots() + others[:2] + others[-1:]:
                for grade in range(1, inst.grades + 1):
                    weights = forest.w[grade - 1]
                    row = graded_shortest_paths(forest, source, grade)
                    interior, preds = _textbook_dijkstra(inst, weights, source)
                    assert list(row.interior_micros) == interior, (source, grade)
                    assert list(row.preds) == preds, (source, grade)
            if len(forest) < 2:
                break
            apply_merge(forest, select_global_candidate(forest))


# ---------------------------------------------------------------------------
# Pinned merge sequences

GOLDEN_RECORDS = os.path.join(os.path.dirname(__file__), "golden", "greedy_records.json")


def _exact(text):
    return json.loads(text, parse_float=Decimal)


def _uniform_ladders(inst):
    """The same graph and demands with every ladder 1, 2, ..., L, and each
    terminal free up to its demand: ratios tie all over the scan."""
    return Instance.build(
        inst.num_vertices,
        inst.edges,
        inst.grades,
        inst.required,
        [
            [0 if g <= inst.required.get(v, 0) else g for g in range(1, inst.grades + 1)]
            for v in range(inst.num_vertices)
        ],
    )


def test_greedy_matches_pinned_records():
    # Each entry is solution_to_json(solve_greedy(inst)) for the instance its
    # key names: assignment, tree, cost and every IterationRecord (ratio,
    # incurred cost, root, center, grade, subset), compared exactly. The
    # "uniform" entries put _uniform_ladders on the same graphs, so the
    # tie-breaks are pinned too.
    with open(GOLDEN_RECORDS, encoding="utf-8") as fh:
        golden = _exact(fh.read())
    cases = [
        (n, levels, seed, False) for n in (30, 60, 90, 120) for levels in (2, 3) for seed in (1, 2)
    ]
    cases += [(200, levels, 1, False) for levels in (2, 3)]
    cases += [(n, levels, 1, True) for n in (30, 60, 90, 120) for levels in (2, 3)]
    cases += [(500, levels, 1, False) for levels in (2, 3)]
    cases += [(200, levels, 1, True) for levels in (2, 3)]
    assert list(golden) == [
        f"n={n} levels={levels} seed={seed}" + (" uniform" if uniform else "")
        for n, levels, seed, uniform in cases
    ]
    for (n, levels, seed, uniform), expected in zip(cases, golden.values()):
        inst = random_instance(n, levels, seed=seed, edge_prob=6 / n, terminal_fraction=0.3)
        if uniform:
            inst = _uniform_ladders(inst)
        assert _exact(solution_to_json(solve_greedy(inst))) == expected, (n, levels, seed, uniform)


def _greedy_lower_bound(num_terminals, iterations):
    """LB_g = max over rounds i of k_i * gamma_i, k_i the trees before
    round i, and the harmonic number H_{|T|} - 1, both exact."""
    trees, bound = num_terminals, Fraction(0)
    for gamma, merged in iterations:
        bound = max(bound, trees * gamma)
        trees -= merged - 1
    assert trees == 1
    return bound, sum(Fraction(1, j) for j in range(2, num_terminals + 1))


def test_pinned_costs_within_the_per_round_bound():
    # cost <= 2 * (H_|T| - 1) * LB_g, from the pinned records alone.
    with open(GOLDEN_RECORDS, encoding="utf-8") as fh:
        golden = _exact(fh.read())
    for key, entry in golden.items():
        iterations = [(parse_fraction(r["gamma"]), r["merged_count"]) for r in entry["iterations"]]
        terminals = 1 + sum(merged - 1 for _, merged in iterations)
        bound, harmonic = _greedy_lower_bound(terminals, iterations)
        assert Cost.parse(entry["cost"]).as_fraction() <= 2 * harmonic * bound, key


def test_per_round_bound_is_below_the_optimum(fig2, fig3, ratio_corpus, ratio_corpus_optima):
    cases = list(zip(ratio_corpus, ratio_corpus_optima))
    cases += [(inst, brute_force_optimum(inst)) for inst in [fig3] + [fig2(L) for L in (2, 3, 4)]]
    for inst, optimum in cases:
        report = solve_greedy(inst)
        bound, harmonic = _greedy_lower_bound(
            len(inst.terminals), [(r.gamma, r.merged_count) for r in report.iterations]
        )
        assert bound <= optimum.total_cost.as_fraction(), inst
        assert report.total_cost.as_fraction() <= 2 * harmonic * bound, inst


@pytest.mark.parametrize("levels, top_k", [(1, 8), (2, 7)])
def test_set_cover_family_costs_the_greedy_k_over_2_times_the_optimum(levels, top_k):
    # OPT = 2L is the family's covering argument; buying A and B reaches
    # it, and the greedy pays kL, so greedy/OPT = k/2 exactly.
    for k in range(2, top_k + 1):
        inst, (a, b) = set_cover_family(k, levels, seed=100 * levels + k)
        best = [levels if v in inst.required or v in (a, b) else 0
                for v in range(inst.num_vertices)]
        assert check_feasible(inst, best)[0], k
        assert solution_cost(inst, best) == Cost.parse(2 * levels), k
        report = solve_greedy(inst)
        assert report.total_cost == Cost.parse(k * levels), k
        bound, _ = _greedy_lower_bound(
            len(inst.terminals), [(r.gamma, r.merged_count) for r in report.iterations]
        )
        assert bound <= 2 * levels, k


@pytest.mark.parametrize("k, levels", [(2, 1), (2, 2), (3, 1)])
def test_set_cover_family_optimum_matches_the_dst_oracle(k, levels):
    inst, _ = set_cover_family(k, levels, seed=7)
    dst = reduce_to_dst(inst)
    assert brute_force_dst(dst, cap=dst.num_nodes) == Cost.parse(2 * levels)


# ---------------------------------------------------------------------------
# The early-stopped scan against a scan of every prefix


def _every_prefix_best(forest, center, grade, rows):
    """Reference scan for one (center, grade) pair: score every prefix.

    Eligible roots (demand at most ``grade``) are sorted by (native
    distance, id). Every prefix is scored twice: joined to the nearest
    root demanding more, and with its smallest-id root of demand exactly
    ``grade`` promoted. Returns (gamma, root, merged count, subset roots)
    of the best under (ratio, root, larger subset), or None.
    """
    required = forest.instance.required
    roots = sorted(forest.trees)
    eligible = sorted(
        (rows[(r, required[r])].interior_micros[center], r) for r in roots if required[r] <= grade
    )
    outside = [r for r in roots if required[r] > grade]
    w_center = forest.w[grade - 1][center]
    scored = []
    if outside and eligible:
        root_dist, root = min((rows[(r, grade)].interior_micros[center], r) for r in outside)
        numerator = root_dist + w_center
        for m, (native, _) in enumerate(eligible, start=1):
            numerator += native
            scored.append((Fraction(numerator, (m + 1) * COST_SCALE), root, -(m + 1), m))
    numerator, promoted = w_center, None
    for m, (native, r) in enumerate(eligible, start=1):
        numerator += native
        if required[r] == grade and (promoted is None or r < promoted):
            promoted = r
        if m >= 2 and promoted is not None:
            scored.append((Fraction(numerator, m * COST_SCALE), promoted, -m, m))
    if not scored:
        return None
    gamma, root, neg_merged, m = min(scored)
    return gamma, root, -neg_merged, tuple(sorted(r for _, r in eligible[:m] if r != root))


def test_scan_matches_every_prefix_reference():
    corpus = mixed_corpus(30, seed0=5400)
    corpus += [_uniform_ladders(inst) for inst in mixed_corpus(30, seed0=5500)]
    corpus += [
        _uniform_ladders(
            random_instance(n=9, levels=3, seed=5600 + k, edge_prob=0.4, num_terminals=6)
        )
        for k in range(6)
    ]
    corpus += [
        _uniform_ladders(random_instance(n, levels, seed=1, edge_prob=6 / n, terminal_fraction=0.3))
        for n in (30, 60)
        for levels in (2, 3)
    ]
    for inst in corpus:
        forest = init_forest(inst)
        while len(forest) > 1:
            required = inst.required
            rows = {
                (r, g): graded_shortest_paths(forest, r, g)
                for r in forest.trees
                for g in range(1, required[r] + 1)
            }
            overall = None
            for center in range(inst.num_vertices):
                for grade in range(1, inst.grades + 1):
                    cand = best_candidate_for(forest, center, grade)
                    expected = _every_prefix_best(forest, center, grade, rows)
                    if expected is None:
                        assert cand is None, (center, grade)
                        continue
                    gamma, root, merged, subset = expected
                    assert (cand.gamma, cand.root, cand.merged_count, cand.subset_roots) == (
                        gamma, root, merged, subset
                    ), (center, grade)
                    assert (cand.center, cand.grade, cand.forest_version) == (
                        center, grade, forest.version
                    )
                    assert cand.root_path == rows[(root, min(grade, required[root]))].path_to(center)
                    assert cand.leg_paths == tuple(
                        tuple(reversed(rows[(r, required[r])].path_to(center))) for r in subset
                    )
                    key = (gamma, grade, center, root, -merged)
                    overall = key if overall is None else min(overall, key)
            winner = select_global_candidate(forest)
            assert (
                winner.gamma, winner.grade, winner.center, winner.root, -winner.merged_count
            ) == overall
            if len(inst.terminals) <= 6:
                assert winner.gamma == _exhaustive_best_gamma(forest)
            apply_merge(forest, winner)

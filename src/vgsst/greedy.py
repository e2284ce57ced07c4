"""Greedy merge solver.

Maintains a collection of rooted trees, one per terminal to begin with,
plus per-vertex incremental upgrade weights. Each round picks the merge
with the best exact cost-to-connectivity ratio

    (dist(root, center) + weight(center) + sum of center-to-root dists)
    -----------------------------------------------------------------
                        number of trees merged

and joins a root tree to a subset of others through a chosen center
vertex, upgrading grades along the connecting paths. Terminates when a
single tree remains; the cost is within 2*ln(#terminals) of optimal.

The distances come from per-(root, grade) rows of plain integers that
live on the forest across rounds: the first scan fills them by Dijkstra,
and each merge, which only ever lowers weights, repairs them in place.
Only the winner's paths are rebuilt by a fresh Dijkstra, which also
checks the rows it reads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .costs import Cost, ratio
from .instance import (
    GradeAssignment,
    InfeasibleAssignmentError,
    InputError,
    Instance,
    InternalInvariantError,
    IterationRecord,
    SolutionReport,
    assert_valid,
    extract_tree,
    solution_cost,
)


class StaleCandidateError(InternalInvariantError):
    """A merge candidate was applied after the forest had already changed."""


@dataclass(frozen=True)
class GradedDistanceRow:
    """Single-source shortest paths under one grade's upgrade weights.

    Distances exclude the weights of both endpoints; ``preds`` allows path
    reconstruction. Entries are exact micro counts.
    """

    source: int
    grade: int
    interior_micros: tuple[int, ...]
    preds: tuple[int, ...]

    def distance_to(self, v: int) -> Cost:
        return Cost.from_micros(self.interior_micros[v])

    def path_to(self, v: int) -> tuple[int, ...]:
        """Vertices from source to v, inclusive."""
        path = [v]
        while path[-1] != self.source:
            prev = self.preds[path[-1]]
            if prev < 0:
                raise InternalInvariantError(f"no path recorded to {v}")
            path.append(prev)
        return tuple(reversed(path))


@dataclass(frozen=True)
class MergeCandidate:
    """One legal merge with its exact ratio and reconstructed paths.

    ``leg_paths[k]`` runs from the center to ``subset_roots[k]``.
    """

    root: int
    center: int
    grade: int
    subset_roots: tuple[int, ...]
    gamma: Fraction
    root_path: tuple[int, ...]
    leg_paths: tuple[tuple[int, ...], ...]
    forest_version: int

    @property
    def merged_count(self) -> int:
        return 1 + len(self.subset_roots)


class GrtForest:
    """Mutable working state of the greedy solver.

    Trees are keyed by their root vertex; member sets may overlap. ``y``
    holds current grades, ``w[v][i-1]`` the exact incremental cost of
    lifting v to grade i from its current grade. ``rows[(root, grade)]``
    lists, per vertex, the interior distance in micros from ``root`` under
    that grade's weights (as ``GradedDistanceRow.interior_micros``), for
    each grade up to the root's requirement; the first scan fills it and
    ``apply_merge`` keeps it current.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.y: list[int] = [0] * instance.num_vertices
        for v, r in instance.required.items():
            self.y[v] = r
        self.w: list[list[int]] = [
            [c.micros for c in ladder] for ladder in instance.costs
        ]
        self.trees: dict[int, set[int]] = {
            v: {v} for v in instance.terminals
        }
        self.version = 0
        self.rows: dict[tuple[int, int], list[int]] = {}

    def __len__(self) -> int:
        return len(self.trees)

    def roots(self) -> list[int]:
        return sorted(self.trees)

    def weight(self, v: int, grade: int) -> Cost:
        return Cost.from_micros(self.w[v][grade - 1])

    def assignment(self) -> GradeAssignment:
        return tuple(self.y)


def init_forest(instance: Instance) -> GrtForest:
    """Singleton tree per terminal; grades at requirements, weights at costs."""
    assert_valid(instance)
    return GrtForest(instance)


def graded_shortest_paths(
    forest: GrtForest, source: int, grade: int
) -> GradedDistanceRow:
    """Dijkstra over vertex weights for one grade, endpoint costs excluded.

    Ties settle by vertex id, so predecessor chains are reproducible.
    """
    n = forest.instance.num_vertices
    if not 0 <= source < n:
        raise InputError(f"source {source} out of range")
    if not 1 <= grade <= forest.instance.grades:
        raise InputError(f"grade {grade} out of range")
    w = [forest.w[v][grade - 1] for v in range(n)]
    adjacency = forest.instance.adjacency
    INF = float("inf")
    dist: list = [INF] * n  # path weight excluding source, including target
    preds = [-1] * n
    dist[source] = 0
    heap: list[tuple[int, int]] = [(0, source)]
    done = [False] * n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v in adjacency[u]:
            if done[v]:
                continue
            cand = d + w[v]
            if cand < dist[v]:
                dist[v] = cand
                preds[v] = u
                heapq.heappush(heap, (cand, v))
    interior = tuple(
        0 if v == source else (dist[v] - w[v] if dist[v] != INF else -1)
        for v in range(n)
    )
    if any(d == -1 for d in interior):
        raise InternalInvariantError("graph must be connected")
    return GradedDistanceRow(
        source=source, grade=grade, interior_micros=interior, preds=tuple(preds)
    )


def _repair_row(row: list[int], source: int, w: list[int], adjacency, changed) -> None:
    """Lower ``row`` in place after the weights ``w`` of ``changed`` fell.

    A Dijkstra over labels ``row[v] + w[v]`` seeded at the changed
    vertices that only ever decreases entries. It is exact because weights
    never rise: the first vertex on a new shortest path whose entry is
    still too high has a correct predecessor, whose label either fell
    (its weight changed, so it was seeded, or its entry fell, so it was
    pushed) or did not (then the old entry was already right).
    """
    heap = [(row[v] + w[v], v) for v in changed if v != source]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d != row[u] + w[u]:
            continue
        for x in adjacency[u]:
            # row[source] is 0, so the source is never lowered.
            if d < row[x]:
                row[x] = d
                heapq.heappush(heap, (d + w[x], x))


def _candidates_for(forest: GrtForest, center: int, grade: int, roots: list[int]):
    """Yield the scores of the ratio-minimal merges for one (center, grade) pair.

    Each score is ``(numerator micros, merged count, root, eligible, m)``:
    the merge joins ``root`` to the roots of ``eligible[:m]`` other than
    ``root``, at ratio numerator / (merged count * COST_SCALE).

    ``roots`` is the sorted list of tree roots, and distances are read from
    the integer lists in ``forest.rows``. Trees whose root demands at most
    ``grade`` are sorted by their distance to the center under their own
    grade into ``eligible`` (pairs of native distance and root id); the
    best subset of each size is a prefix of that order. Two root choices
    exist: the nearest tree with a strictly higher demand (connected at
    ``grade``), or promoting the smallest-id tree demanding exactly
    ``grade`` out of the prefix itself. Prefixes whose top demand is lower
    are scored by the scan at that lower grade instead.
    """
    required = forest.instance.required
    rows = forest.rows
    eligible = []
    outside = []  # roots with demand above `grade`
    for root in roots:
        r = required[root]
        if r <= grade:
            eligible.append((rows[(root, r)][center], root))
        else:
            outside.append(root)
    eligible.sort()
    w_center = forest.w[center][grade - 1]

    if outside and eligible:
        root_dist, best_root = min(
            (rows[(r, grade)][center], r) for r in outside
        )
        numerator = root_dist + w_center
        for m, (native, _) in enumerate(eligible, start=1):
            numerator += native
            yield numerator, m + 1, best_root, eligible, m

    numerator = w_center
    promoted = None
    for m, (native, root) in enumerate(eligible, start=1):
        numerator += native
        if required[root] == grade and (promoted is None or root < promoted):
            promoted = root
        if m >= 2 and promoted is not None:
            yield numerator, m, promoted, eligible, m


def _winner_path(forest: GrtForest, source: int, grade: int, center: int):
    """Path from ``source`` to ``center`` by a fresh Dijkstra, whose
    distances must equal the cached row's."""
    fresh = graded_shortest_paths(forest, source, grade)
    if list(fresh.interior_micros) != forest.rows[(source, grade)]:
        raise InternalInvariantError(
            f"cached distance row of root {source} at grade {grade} is stale"
        )
    return fresh.path_to(center)


def _best(forest: GrtForest, pairs) -> MergeCandidate | None:
    """The ratio-minimal merge over the given (center, grade) pairs.

    Fills any missing distance row first. Ratios are compared by
    cross-multiplying integers; ties go to the lower grade, then center,
    then root, then the larger subset. Only the winner gets its paths
    reconstructed.
    """
    required = forest.instance.required
    roots = forest.roots()
    for root in roots:
        for g in range(1, required[root] + 1):
            if (root, g) not in forest.rows:
                row = graded_shortest_paths(forest, root, g).interior_micros
                forest.rows[(root, g)] = list(row)
    best = None
    for center, grade in pairs:
        for numerator, merged, root, eligible, m in _candidates_for(
            forest, center, grade, roots
        ):
            if best is not None:
                lhs, rhs = numerator * best[1], best[0] * merged
                if lhs > rhs or (lhs == rhs and (grade, center, root, -merged) >= best[2:6]):
                    continue
            best = (numerator, merged, grade, center, root, -merged, eligible, m)
    if best is None:
        return None
    numerator, merged, grade, center, root, _, eligible, m = best
    subset = sorted(r for _, r in eligible[:m] if r != root)
    return MergeCandidate(
        root=root,
        center=center,
        grade=grade,
        subset_roots=tuple(subset),
        gamma=ratio(Cost.from_micros(numerator), merged),
        # External roots connect at the candidate grade; promoted roots
        # have required == grade, so this row is always present.
        root_path=_winner_path(forest, root, min(grade, required[root]), center),
        leg_paths=tuple(
            tuple(reversed(_winner_path(forest, r, required[r], center))) for r in subset
        ),
        forest_version=forest.version,
    )


def best_candidate_for(
    forest: GrtForest, center: int, grade: int
) -> MergeCandidate | None:
    """Ratio-minimal legal merge for a fixed center and grade, if any."""
    if len(forest) < 2:
        raise InputError("need at least two trees to merge")
    if not 0 <= center < forest.instance.num_vertices:
        raise InputError(f"center {center} out of range")
    if not 1 <= grade <= forest.instance.grades:
        raise InputError(f"grade {grade} out of range")
    return _best(forest, [(center, grade)])


def select_global_candidate(forest: GrtForest) -> MergeCandidate:
    """Scan every (center, grade) pair and return the overall best merge."""
    if len(forest) < 2:
        raise InputError("need at least two trees to merge")
    instance = forest.instance
    pairs = (
        (center, grade)
        for center in range(instance.num_vertices)
        for grade in range(1, instance.grades + 1)
    )
    best = _best(forest, pairs)
    if best is None:
        raise InternalInvariantError("no legal merge found with two or more trees")
    return best


def apply_merge(forest: GrtForest, candidate: MergeCandidate) -> IterationRecord:
    """Execute a merge: lift grades along its paths, refresh weights,
    replace the participating trees by one tree rooted at the candidate root,
    and repair the distance rows of the remaining roots.
    """
    if candidate.forest_version != forest.version:
        raise StaleCandidateError(
            "candidate was computed against an older forest state"
        )
    instance = forest.instance
    required = instance.required

    targets: dict[int, int] = {}
    for v in candidate.root_path:
        targets[v] = max(targets.get(v, 0), candidate.grade)
    for path, r in zip(candidate.leg_paths, candidate.subset_roots):
        for v in path:
            targets[v] = max(targets.get(v, 0), required[r])

    incurred = 0
    for v, target in targets.items():
        if target > forest.y[v]:
            incurred += (
                instance.cost_of(v, target).micros
                - instance.cost_of(v, forest.y[v]).micros
            )
            forest.y[v] = target

    members = set(targets)
    members |= forest.trees[candidate.root]
    for r in candidate.subset_roots:
        members |= forest.trees[r]

    # Incremental weights: everything at or below the new grade is paid
    # for; higher grades cost only the remaining increment.
    changed: dict[int, list[int]] = {}  # grade -> vertices whose weight fell
    for v in members:
        y_v = forest.y[v]
        paid = forest.w[v][y_v - 1] if y_v >= 1 else 0
        row = forest.w[v]
        for j in range(instance.grades):
            new = 0 if j + 1 <= y_v else row[j] - paid
            if new != row[j]:
                if new > row[j]:
                    raise InternalInvariantError(
                        f"weight of vertex {v} at grade {j + 1} rose in a merge"
                    )
                row[j] = new
                changed.setdefault(j + 1, []).append(v)

    del forest.trees[candidate.root]
    for r in candidate.subset_roots:
        del forest.trees[r]
        for g in range(1, required[r] + 1):
            del forest.rows[(r, g)]
    forest.trees[candidate.root] = members
    forest.version += 1

    columns = {g: [ladder[g - 1] for ladder in forest.w] for g in changed}
    for (source, g), row in forest.rows.items():
        if g in changed:
            _repair_row(row, source, columns[g], instance.adjacency, changed[g])

    record = IterationRecord(
        gamma=candidate.gamma,
        merged_count=candidate.merged_count,
        incurred_cost=Cost.from_micros(incurred),
        root=candidate.root,
        center=candidate.center,
        grade=candidate.grade,
        subset_roots=candidate.subset_roots,
    )
    if record.incurred_cost.as_fraction() > candidate.gamma * record.merged_count:
        raise InternalInvariantError(
            "incurred cost exceeded the candidate's computed cost"
        )
    return record


def solve_greedy(instance: Instance) -> SolutionReport:
    """Run the merge loop to a single tree and report the solution.

    Requires a normalized instance (zero terminal ladders up to each
    requirement, top grade demanded by some terminal).
    """
    forest = init_forest(instance)
    records: list[IterationRecord] = []
    while len(forest) > 1:
        candidate = select_global_candidate(forest)
        records.append(apply_merge(forest, candidate))
    y = forest.assignment()
    try:
        edges = extract_tree(instance, y)
    except InfeasibleAssignmentError as exc:
        raise InternalInvariantError(f"greedy produced an infeasible result: {exc}")
    total = Cost.from_micros(sum(r.incurred_cost.micros for r in records))
    if total != solution_cost(instance, y):
        raise InternalInvariantError(
            "iteration costs do not add up to the assignment cost"
        )
    return SolutionReport(
        assignment=y,
        tree_edges=edges,
        total_cost=total,
        iterations=tuple(records),
    )

"""Greedy merge solver.

Maintains a collection of rooted trees, one per terminal to begin with,
plus incremental upgrade weights, one column per grade. Each round picks the merge
with the best exact cost-to-connectivity ratio

    (dist(root, center) + weight(center) + sum of center-to-root dists)
    -----------------------------------------------------------------
                        number of trees merged

and joins a root tree to a subset of others through a chosen center
vertex, upgrading grades along the connecting paths. Terminates when a
single tree remains; the cost is within 2*ln(#terminals) of optimal.

The distances come from per-(root, grade) rows of plain integers that
live on the forest across rounds. One Dijkstra loop, ``_settle``, both
fills them in the first scan and repairs them in place after each merge,
which only ever lowers weights. The winner's paths come from the same loop
run from each path's root and stopped once it pops the center, after a
check in one O(m) pass that every row the winner reads is exact. Its heap
holds single ints ``label * n + vertex``: with 0 <= vertex < n they pop in
the (label, vertex) order that pairs would, so every tie-break is kept.

Each round's scan reads the rows as columns, one per center, plans the
grades once, and sorts the roots by distance once per center for every
grade. The best subset
of each size is a prefix of that order, and each prefix walk stops at
the first strict rise of its ratio: adding a distance x to a prefix of
k trees with numerator N lowers or keeps the ratio iff x*k <= N, and
once the ratio rises it stays below the next, larger x, so it keeps
rising.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .costs import Cost, _Record, ratio
from .instance import (
    GradeAssignment,
    InputError,
    Instance,
    InternalInvariantError,
    IterationRecord,
    SolutionReport,
    _solver_report,
    assert_valid,
)


class StaleCandidateError(InternalInvariantError):
    """A merge candidate was applied after the forest had already changed."""


class GradedDistanceRow(_Record):
    """Single-source shortest paths under one grade's upgrade weights.

    Distances exclude the weights of both endpoints; ``preds`` allows path
    reconstruction. Entries are exact micro counts.
    """

    def __init__(
        self, source: int, grade: int, interior_micros: tuple[int, ...], preds: tuple[int, ...]
    ):
        self.__dict__.update(
            source=source, grade=grade, interior_micros=interior_micros, preds=preds
        )

    def distance_to(self, v: int) -> Cost:
        return Cost.from_micros(self.interior_micros[v])

    def path_to(self, v: int) -> tuple[int, ...]:
        """Vertices from source to v, inclusive."""
        return _path(self.preds, self.source, v)


def _path(preds, source: int, v: int) -> tuple[int, ...]:
    path = [v]
    while path[-1] != source:
        prev = preds[path[-1]]
        if prev < 0:
            raise InternalInvariantError(f"no path recorded to {v}")
        path.append(prev)
    return tuple(reversed(path))


class MergeCandidate(_Record):
    """One legal merge with its exact ratio and reconstructed paths.

    ``leg_paths[k]`` runs from the center to ``subset_roots[k]``.
    """

    def __init__(
        self, root: int, center: int, grade: int, subset_roots: tuple[int, ...],
        gamma: Fraction, root_path: tuple[int, ...], leg_paths: tuple[tuple[int, ...], ...],
        forest_version: int,
    ):
        self.__dict__.update(
            root=root, center=center, grade=grade, subset_roots=subset_roots, gamma=gamma,
            root_path=root_path, leg_paths=leg_paths, forest_version=forest_version,
        )

    @property
    def merged_count(self) -> int:
        return 1 + len(self.subset_roots)


class GrtForest:
    """Mutable working state of the greedy solver.

    Trees are keyed by their root vertex; member sets may overlap. ``y``
    holds current grades, ``w[i-1][v]`` the exact incremental cost of
    lifting v to grade i from its current grade, one column per grade.
    ``rows[(root, grade)]``
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
            [ladder[i].micros for ladder in instance.costs] for i in range(instance.grades)
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
        return Cost.from_micros(self.w[grade - 1][v])

    def assignment(self) -> GradeAssignment:
        return tuple(self.y)


def init_forest(instance: Instance) -> GrtForest:
    """Singleton tree per terminal; grades at requirements, weights at costs."""
    assert_valid(instance)
    return GrtForest(instance)


def graded_shortest_paths(forest: GrtForest, source: int, grade: int) -> GradedDistanceRow:
    """Dijkstra over vertex weights for one grade, endpoint costs excluded.

    Ties settle by vertex id, so predecessor chains are reproducible.
    """
    n = forest.instance.num_vertices
    if not 0 <= source < n:
        raise InputError(f"source {source} out of range")
    if not 1 <= grade <= forest.instance.grades:
        raise InputError(f"grade {grade} out of range")
    _, row, preds = _dijkstra(forest, source, grade)
    if float("inf") in row:
        raise InternalInvariantError("graph must be connected")
    return GradedDistanceRow(source, grade, tuple(row), tuple(preds))


def _dijkstra(forest: GrtForest, source: int, grade: int, stop: int = -1):
    """``_settle`` from ``source`` under the grade's weights with the
    source's set to 0: those weights, the row and the predecessors."""
    w = forest.w[grade - 1][:]
    w[source] = 0
    row: list = [float("inf")] * len(w)
    row[source] = 0
    preds = [-1] * len(w)
    _settle(row, w, forest.instance.adjacency, [source], preds, stop)
    return w, row, preds


def _settle(
    row: list, w: list[int], adjacency, heap: list, preds: list | None = None, stop: int = -1
) -> None:
    """The greedy's one Dijkstra: lower the interior distances ``row`` in place
    from the labels ``row[u] + w[u]`` (path weight, source excluded) in ``heap``.

    A heap entry is the single int ``label * n + u``, n = ``len(row)``, and
    decodes as ``key // n`` and ``key % n``. Since 0 <= u < n, two keys
    compare as their (label, u) pairs do, so ints pop in the order the
    pairs would, and cost less to compare and build.

    Improvements are strict and equal labels pop by vertex id, so ``preds``
    is reproducible. The fill seeds the source, on an all-infinite row with
    the source's entry and weight at 0. A merge only lowers weights, and the
    repair seeds the vertices whose weight fell: the first vertex on a new
    shortest path whose entry is still too high has a correct predecessor,
    whose label either fell, so it was seeded or pushed, or did not, so the
    old entry was already right.

    The loop returns as soon as it pops ``stop`` with a current label; the
    fill and the repair pass no vertex. A stopped fill pops exactly what the
    full fill pops up to that point, and every vertex on a popped vertex's
    predecessor chain was popped before it, so the chain to ``stop`` is the
    full fill's, tie-breaks included.
    """
    n = len(row)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        key = pop(heap)
        u = key % n
        d = key // n
        if d != row[u] + w[u]:
            continue
        if u == stop:
            return
        for x in adjacency[u]:
            # row[source] is 0, so the source is never lowered.
            if d < row[x]:
                row[x] = d
                if preds is not None:
                    preds[x] = u
                push(heap, (d + w[x]) * n + x)


def _row_is_exact(row: list[int], w: list[int], adjacency, source: int) -> bool:
    """Are ``row``'s entries the interior distances from ``source`` under
    the weights ``w``, whose ``w[source]`` is 0?

    With d the true distances, this holds iff (1) ``row[source] == 0``,
    (2) no arc (u, x) has ``row[x] > row[u] + w[u]``, and (3) every vertex
    is reached from the source over tight arcs, those with
    ``row[x] == row[u] + w[u]``.

    If: along a shortest path to x, (1) and (2) give row[x] <= d[x] by
    induction from the source. Along a tight path to x, the entries add up
    the path's weights from row[source] = 0, so row[x] is the weight of
    some path and row[x] >= d[x]. Only if: d[source] = 0; d obeys every
    triangle inequality; and on a connected graph the last arc of a
    shortest path with fewest arcs is tight, its prefix being such a path
    too, so each vertex is reached from the source over tight arcs.
    Without (3), lowering the entries of adjacent zero-weight vertices
    equally can keep (1) and (2).

    One breadth-first walk from the source checks (2) on every arc it
    scans and follows the tight ones; if it reaches every vertex, it has
    scanned every arc.
    """
    if row[source] != 0:
        return False
    seen = [False] * len(row)
    seen[source] = True
    order = [source]
    reach = order.append
    for u in order:
        d = row[u] + w[u]
        for x in adjacency[u]:
            r = row[x]
            if r >= d:
                if r > d:
                    return False
                if not seen[x]:
                    seen[x] = True
                    reach(x)
    return len(order) == len(row)


def _winner_path(forest: GrtForest, source: int, grade: int, center: int):
    """Path from ``source`` to ``center`` by a Dijkstra stopped at the
    center; raises if the cached row from ``source`` is not exact."""
    w, _, preds = _dijkstra(forest, source, grade, center)
    if not _row_is_exact(forest.rows[(source, grade)], w, forest.instance.adjacency, source):
        raise InternalInvariantError(
            f"cached distance row of root {source} at grade {grade} is stale"
        )
    return _path(preds, source, center)


def _best(forest: GrtForest, centers, grades) -> MergeCandidate | None:
    """The ratio-minimal merge over every (center, grade) pair given.

    Fills any missing distance row first, then reads the rows as columns:
    per center, each root's native distance (under its own demand), and
    per grade, the distances of the roots demanding more. Roots are sorted
    by native distance once per center; at a grade the eligible roots
    (demand at most the grade) keep that order, and the best subset of
    each size is a prefix of it. Two root choices exist: the nearest root
    demanding more (connected at the grade), or promoting the smallest-id
    root demanding exactly the grade out of the prefix itself.

    Each prefix walk stops early. With ascending natives x, the ratio
    N/k of a prefix moves to (N + x)/(k + 1), which is not higher iff
    x*k <= N; once it rises it is a mean of the last ratio and x, so below
    the next x, and keeps rising. So the walk extends while x*k <= N and
    stops at the first strict rise, which leaves one candidate per root
    choice. Taking ties keeps the larger subset, which wins them; for the
    promoted choice the test starts once a promoted root exists and the
    prefix holds two trees, and the promoted id can only fall as the
    prefix grows, so a later tie wins there too.

    The grades are planned once per round: each grade with an eligible
    root gets its weight column, the roots demanding more with their
    columns, and whether a root demands exactly it. Each candidate is then
    compared at once against the best ratio so far, held as the integer
    pair bn/bm (1/0 before the first, which every candidate beats), by
    cross-multiplying; ties go to the lower grade, then center, then root,
    then the larger subset. Only the winner gets its paths reconstructed.
    """
    required = forest.instance.required
    rows = forest.rows
    roots = forest.roots()
    for root in roots:
        for g in range(1, required[root] + 1):
            if (root, g) not in rows:
                rows[(root, g)] = list(graded_shortest_paths(forest, root, g).interior_micros)
    req = [required[r] for r in roots]
    native = list(zip(*[rows[(r, q)] for r, q in zip(roots, req)]))
    demanded = set(req)
    lowest = min(req)  # no root is eligible below
    plan = []
    for g in grades:
        if g >= lowest:
            ids = [r for r, q in zip(roots, req) if q > g]
            columns = list(zip(*[rows[(r, g)] for r in ids]))
            plan.append((g, forest.w[g - 1], ids, columns, g in demanded))
    bn, bm = 1, 0  # the best ratio so far; 1/0 until the first candidate
    best = None  # (grade, center, root, -merged, order, prefix length)
    for center in centers:
        col = native[center]
        order = sorted(range(len(roots)), key=col.__getitem__)
        for grade, wg, ids, columns, promotes in plan:
            if ids:
                column = columns[center]
                root_dist = min(column)
                numerator = root_dist + wg[center]
                merged = 1
                for i in order:
                    if req[i] <= grade:
                        x = col[i]
                        if merged > 1 and x * merged > numerator:
                            break
                        numerator += x
                        merged += 1
                lhs, rhs = numerator * bm, bn * merged
                if lhs <= rhs:
                    root = ids[column.index(root_dist)]
                    if lhs < rhs or (grade, center, root, -merged) < best[:4]:
                        bn, bm = numerator, merged
                        best = (grade, center, root, -merged, order, merged - 1)
            if promotes:
                numerator = wg[center]
                m = 0
                promoted = None  # index into roots, so the smallest id
                for i in order:
                    q = req[i]
                    if q <= grade:
                        x = col[i]
                        if promoted is not None and m > 1 and x * m > numerator:
                            break
                        numerator += x
                        m += 1
                        if q == grade and (promoted is None or i < promoted):
                            promoted = i
                if m > 1:  # the walk passed a root demanding `grade`
                    lhs, rhs = numerator * bm, bn * m
                    if lhs < rhs or (
                        lhs == rhs and (grade, center, roots[promoted], -m) < best[:4]
                    ):
                        bn, bm = numerator, m
                        best = (grade, center, roots[promoted], -m, order, m)
    if best is None:
        return None
    grade, center, root, _, order, m = best
    prefix = [i for i in order if req[i] <= grade][:m]
    subset = sorted(roots[i] for i in prefix if roots[i] != root)
    return MergeCandidate(
        root=root,
        center=center,
        grade=grade,
        subset_roots=tuple(subset),
        gamma=ratio(Cost.from_micros(bn), bm),
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
    return _best(forest, [center], [grade])


def select_global_candidate(forest: GrtForest) -> MergeCandidate:
    """Scan every (center, grade) pair and return the overall best merge."""
    if len(forest) < 2:
        raise InputError("need at least two trees to merge")
    instance = forest.instance
    best = _best(forest, range(instance.num_vertices), range(1, instance.grades + 1))
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
    n = instance.num_vertices

    targets: dict[int, int] = {}
    for v in candidate.root_path:
        targets[v] = max(targets.get(v, 0), candidate.grade)
    for path, r in zip(candidate.leg_paths, candidate.subset_roots):
        for v in path:
            targets[v] = max(targets.get(v, 0), required[r])

    # Raising v to grade t pays its weight w[t-1][v] = c_t(v) - c_y(v):
    # every grade up to t is then paid for, and higher grades cost only
    # the remaining increment. Vertices not raised keep their weights.
    incurred = 0
    changed: dict[int, list[int]] = {}  # grade -> vertices whose weight fell
    for v, target in targets.items():
        if target > forest.y[v]:
            paid = forest.w[target - 1][v]
            incurred += paid
            forest.y[v] = target
            for j, column in enumerate(forest.w):
                new = 0 if j < target else column[v] - paid
                if new != column[v]:
                    if new > column[v]:
                        raise InternalInvariantError(
                            f"weight of vertex {v} at grade {j + 1} rose in a merge"
                        )
                    column[v] = new
                    changed.setdefault(j + 1, []).append(v)

    members = set(targets)
    members |= forest.trees[candidate.root]
    for r in candidate.subset_roots:
        members |= forest.trees[r]

    del forest.trees[candidate.root]
    for r in candidate.subset_roots:
        del forest.trees[r]
        for g in range(1, required[r] + 1):
            del forest.rows[(r, g)]
    forest.trees[candidate.root] = members
    forest.version += 1

    for (source, g), row in forest.rows.items():
        if g in changed:
            w = forest.w[g - 1]
            heap = [(row[v] + w[v]) * n + v for v in changed[g] if v != source]
            heapq.heapify(heap)
            _settle(row, w, instance.adjacency, heap)

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

    With k_i trees before round i and LB = max_i k_i * gamma_i, the cost is
    at most 2 * (H_|T| - 1) * LB, and LB <= OPT. Proof sketch. Round i
    merges m_i >= 2 trees and pays at most m_i * gamma_i <= m_i * LB / k_i
    <= 2 * LB * (m_i - 1) / k_i, which is at most 2 * LB times the sum of
    1/j over k_i - m_i + 2 <= j <= k_i; since k_{i+1} = k_i - m_i + 1 these
    sums telescope to H_|T| - 1. For the bound on OPT, root an optimal
    tree at a current root of top demand, mark the k_i roots, demote it
    and cut it into vertex-disjoint spiders (``spider_decompose``), each
    holding s >= 2 roots. Round i's weights are at most the costs, and a
    vertex at grade t pays at least its grade-t weight. A spider's legs
    keep at least their roots' demands and its root path at least its
    center's grade, so it pays at least the numerator of one merge of its
    s roots through its center that the scan scores: at the highest demand
    among them, or, when its root path leads to a root demanding more than
    its center's grade, at the highest demand of the others with that root
    outside. So each spider pays at least s * gamma_i, and OPT >= k_i * gamma_i.
    """
    forest = init_forest(instance)
    records: list[IterationRecord] = []
    while len(forest) > 1:
        candidate = select_global_candidate(forest)
        records.append(apply_merge(forest, candidate))
    total = Cost.from_micros(sum(r.incurred_cost.micros for r in records))
    return _solver_report(instance, forest.assignment(), total, iterations=tuple(records))

"""Record semantics: repr, equality, hashing, immutability, pickling and copying.

Every record class of the package is built here from literal field
values, so the expected strings and comparisons do not depend on any
solver.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from vgsst import (
    Cost,
    DstInstance,
    FeasibilityWitness,
    GradedDistanceRow,
    IlpModel,
    IlpSolution,
    Instance,
    IterationRecord,
    MergeCandidate,
    NormalizeResult,
    RootedSpiderDecomposition,
    SolutionReport,
    Spider,
    Violation,
    build_ilp,
    fig3_instance,
)


def _instance():
    return Instance.build(2, [(0, 1)], 1, {0: 1, 1: 1}, [["0"], ["0"]])


def _spider():
    return Spider(
        root=0, center=1, root_path=(1, 0), legs=((1, 2),), members=frozenset({0, 1, 2}),
        feet=(2,),
    )


# (record, its repr). Each record is built afresh by every call, so two
# calls give equal but distinct objects.
SAMPLES = {
    "Cost": (lambda: Cost(1500000), "Cost('1.5')"),
    "Instance": (
        _instance,
        "Instance(num_vertices=2, edges=((0, 1),), grades=1, required={0: 1, 1: 1}, "
        "costs=((Cost('0'),), (Cost('0'),)))",
    ),
    "Violation": (
        lambda: Violation("self-loop", (1, 1), "self-loops are rejected"),
        "Violation(rule='self-loop', subject=(1, 1), detail='self-loops are rejected')",
    ),
    "NormalizeResult": (
        lambda: NormalizeResult(instance=_instance(), offset=Cost(0)),
        "NormalizeResult(instance=Instance(num_vertices=2, edges=((0, 1),), grades=1, "
        "required={0: 1, 1: 1}, costs=((Cost('0'),), (Cost('0'),))), offset=Cost('0'))",
    ),
    "FeasibilityWitness": (
        lambda: FeasibilityWitness("disconnected", grade=2, pair=(0, 3)),
        "FeasibilityWitness(kind='disconnected', vertex=None, grade=2, pair=(0, 3))",
    ),
    "IterationRecord": (
        lambda: IterationRecord(Fraction(3, 2), 2, Cost(3000000), 0, 4, 1, (5,)),
        "IterationRecord(gamma=Fraction(3, 2), merged_count=2, incurred_cost=Cost('3'), "
        "root=0, center=4, grade=1, subset_roots=(5,))",
    ),
    "SolutionReport": (
        lambda: SolutionReport((1, 1), ((0, 1),), Cost(0), grade_costs=(Cost(0),)),
        "SolutionReport(assignment=(1, 1), tree_edges=((0, 1),), total_cost=Cost('0'), "
        "iterations=(), grade_costs=(Cost('0'),))",
    ),
    "GradedDistanceRow": (
        lambda: GradedDistanceRow(0, 1, (0, 5), (-1, 0)),
        "GradedDistanceRow(source=0, grade=1, interior_micros=(0, 5), preds=(-1, 0))",
    ),
    "MergeCandidate": (
        lambda: MergeCandidate(0, 1, 2, (3,), Fraction(1, 4), (1, 0), ((1, 3),), 7),
        "MergeCandidate(root=0, center=1, grade=2, subset_roots=(3,), gamma=Fraction(1, 4), "
        "root_path=(1, 0), leg_paths=((1, 3),), forest_version=7)",
    ),
    "IlpModel": (
        lambda: IlpModel(2, 1, ((Cost(0),), (Cost(0),)), (2, 1), (3,)),
        "IlpModel(num_vertices=2, grades=1, objective=((Cost('0'),), (Cost('0'),)), "
        "neighbor_masks=(2, 1), demand_masks=(3,))",
    ),
    "IlpSolution": (
        lambda: IlpSolution(assignment=(1, 1), objective=Cost(0)),
        "IlpSolution(assignment=(1, 1), objective=Cost('0'))",
    ),
    "DstInstance": (
        lambda: DstInstance(2, 1, 2, ((0, 1, 0), (1, 0, 0)), 0, (1,)),
        "DstInstance(num_graph_vertices=2, grades=1, num_nodes=2, "
        "arcs=((0, 1, 0), (1, 0, 0)), root=0, terminals=(1,))",
    ),
    "Spider": (
        _spider,
        "Spider(root=0, center=1, root_path=(1, 0), legs=((1, 2),), "
        "members=frozenset({0, 1, 2}), feet=(2,))",
    ),
    "RootedSpiderDecomposition": (
        lambda: RootedSpiderDecomposition(spiders=(_spider(),), grades=(1, 1, 1)),
        "RootedSpiderDecomposition(spiders=(Spider(root=0, center=1, root_path=(1, 0), "
        "legs=((1, 2),), members=frozenset({0, 1, 2}), feet=(2,)),), grades=(1, 1, 1))",
    ),
}

# Records holding a dict cannot be hashed.
UNHASHABLE = {"Instance", "NormalizeResult"}

# (record, field, a copy of the sample with that field changed): an unequal pair.
CHANGED = {
    "Cost": ("micros", lambda: Cost(1500001)),
    "Instance": ("grades", lambda: Instance.build(2, [(0, 1)], 2, {0: 1, 1: 1},
                                                  [["0", "0"], ["0", "0"]])),
    "Violation": ("detail", lambda: Violation("self-loop", (1, 1), "other")),
    "NormalizeResult": ("offset", lambda: NormalizeResult(_instance(), Cost(1))),
    "FeasibilityWitness": ("vertex", lambda: FeasibilityWitness("disconnected", 0, 2, (0, 3))),
    "IterationRecord": ("gamma", lambda: IterationRecord(
        Fraction(3, 4), 2, Cost(3000000), 0, 4, 1, (5,))),
    "SolutionReport": ("iterations", lambda: SolutionReport(
        (1, 1), ((0, 1),), Cost(0), (IterationRecord(Fraction(0), 2, Cost(0), 0, 0, 1, (1,)),),
        (Cost(0),))),
    "GradedDistanceRow": ("preds", lambda: GradedDistanceRow(0, 1, (0, 5), (-1, 1))),
    "MergeCandidate": ("forest_version", lambda: MergeCandidate(
        0, 1, 2, (3,), Fraction(1, 4), (1, 0), ((1, 3),), 8)),
    "IlpModel": ("demand_masks", lambda: IlpModel(2, 1, ((Cost(0),), (Cost(0),)), (2, 1), (1,))),
    "IlpSolution": ("assignment", lambda: IlpSolution((1, 0), Cost(0))),
    "DstInstance": ("root", lambda: DstInstance(2, 1, 2, ((0, 1, 0), (1, 0, 0)), 1, (1,))),
    "Spider": ("feet", lambda: Spider(0, 1, (1, 0), ((1, 2),), frozenset({0, 1, 2}), ())),
    "RootedSpiderDecomposition": ("grades", lambda: RootedSpiderDecomposition(
        (_spider(),), (1, 1, 0))),
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_repr(name):
    make, text = SAMPLES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equality_and_hash(name):
    make, _ = SAMPLES[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a.__eq__(object()) is NotImplemented
    assert a != (a,) and a != repr(a)
    field, make_changed = CHANGED[name]
    c = make_changed()
    assert type(c) is type(a) and getattr(c, field) != getattr(a, field)
    assert a != c and not a == c
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2


def test_records_of_other_classes_are_unequal():
    # Same field values, different classes.
    assert IlpSolution((1, 1), Cost(0)) != NormalizeResult((1, 1), Cost(0))
    assert Cost(0) != 0


def test_grade_costs_take_no_part_in_equality():
    plain = SolutionReport((1,), (), Cost(0))
    graded = SolutionReport((1,), (), Cost(0), (), (Cost(5),))
    assert plain.grade_costs is None and graded.grade_costs == (Cost(5),)
    assert plain == graded and hash(plain) == hash(graded)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_are_read_only(name):
    record = SAMPLES[name][0]()
    field, make_changed = CHANGED[name]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(make_changed(), field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == before


@pytest.mark.parametrize("name", sorted(SAMPLES))
@pytest.mark.parametrize("clone", [copy.copy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "pickle"])
def test_copy_and_pickle_round_trip(name, clone):
    record = SAMPLES[name][0]()
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record and repr(twin) == repr(record)
    with pytest.raises(AttributeError):
        delattr(twin, CHANGED[name][0])


def test_cost_ordering():
    low, high = Cost(1), Cost(2)
    assert low < high and low <= high and high > low and high >= low
    assert low <= Cost(1) and low >= Cost(1) and not low < Cost(1)
    assert sorted([high, low, Cost(0)]) == [Cost(0), low, high]
    assert max(low, high) is high
    for method in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        assert getattr(low, method)(1) is NotImplemented
    with pytest.raises(TypeError):
        low < 1
    with pytest.raises(TypeError):
        low >= Fraction(1)


def test_cost_rejects_bad_micros():
    with pytest.raises(TypeError):
        Cost(1.0)
    with pytest.raises(ValueError):
        Cost(-1)
    assert not hasattr(Cost(0), "__dict__")


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_no_new_attributes(name):
    record = SAMPLES[name][0]()
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert not hasattr(record, "not_a_field")


def test_cached_values_stay_outside_equality():
    a, b = fig3_instance(), fig3_instance()
    assert len(a.adjacency) == a.num_vertices and "adjacency" in vars(a)
    assert "adjacency" not in vars(b) and a == b
    assert pickle.loads(pickle.dumps(a)) == b
    model, other = build_ilp(a), build_ilp(b)
    assert len(model.cuts) > 0 and "cuts" not in vars(other)
    assert model == other and hash(model) == hash(other)


def test_keyword_and_positional_construction_agree():
    assert FeasibilityWitness("requirement", 3) == FeasibilityWitness(kind="requirement", vertex=3)
    assert SolutionReport((1,), (), Cost(0)) == SolutionReport(
        assignment=(1,), tree_edges=(), total_cost=Cost(0), iterations=()
    )
    with pytest.raises(TypeError):
        Violation("rule", "subject")
    with pytest.raises(TypeError):
        IlpSolution((1,), Cost(0), 4)

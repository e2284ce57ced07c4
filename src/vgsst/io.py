"""Instance and solution files.

Both formats are UTF-8 JSON with fixed field names; unknown fields are
rejected so typos fail loudly. Costs are decimal numbers with at most six
fractional digits, parsed exactly (never through float) and written back
as exact decimal literals, so emitted files are byte-stable.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from decimal import Decimal
from typing import Any

from .costs import Cost, format_fraction, parse_fraction
from .instance import (
    GradeAssignment,
    InputError,
    Instance,
    IterationRecord,
    SolutionReport,
)

_INSTANCE_FIELDS = {"num_vertices", "grades", "edges", "terminals", "costs"}
_TERMINAL_FIELDS = {"vertex", "required"}
_SOLUTION_FIELDS = {"assignment", "tree_edges", "cost", "iterations"}
_ITERATION_FIELDS = {
    "gamma",
    "merged_count",
    "incurred_cost",
    "root",
    "center",
    "grade",
    "subset_roots",
}


# ---------------------------------------------------------------------------
# Deterministic emitter (json.dumps cannot print exact decimal literals)


@dataclass(frozen=True)
class _Num:
    """A number to emit verbatim."""

    text: str


def _emit(obj, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, _Num):
        return obj.text
    if isinstance(obj, bool):
        raise TypeError("no booleans in these documents")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(x, (int, _Num)) for x in obj):
            return "[" + ", ".join(_emit(x, 0) for x in obj) + "]"
        body = ",\n".join(inner + _emit(x, indent + 2) for x in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        body = ",\n".join(
            f"{inner}{json.dumps(k)}: {_emit(v, indent + 2)}" for k, v in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot emit {type(obj).__name__}")


def _cost_num(c: Cost) -> _Num:
    return _Num(c.as_decimal_str())


# ---------------------------------------------------------------------------
# Parsing helpers


def _loads(text: str) -> Any:
    try:
        return json.loads(text, parse_float=Decimal)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def _require_fields(obj: dict, allowed: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise InputError(f"unknown fields in {what}: {sorted(unknown)}")
    missing = allowed - set(obj)
    if missing:
        raise InputError(f"missing fields in {what}: {sorted(missing)}")


def _int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON list, got {value!r}")
    return value


def _edge(value, what: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise InputError(f"{what} entries must be [u, v] pairs, got {value!r}")
    return _int(value[0], f"{what} endpoint"), _int(value[1], f"{what} endpoint")


# ---------------------------------------------------------------------------
# Instances


def instance_from_json(text: str) -> Instance:
    data = _loads(text)
    _require_fields(data, _INSTANCE_FIELDS, "instance")
    n = _int(data["num_vertices"], "num_vertices")
    grades = _int(data["grades"], "grades")
    edges = [_edge(e, "edge") for e in _list(data["edges"], "edges")]
    required = {}
    for t in _list(data["terminals"], "terminals"):
        _require_fields(t, _TERMINAL_FIELDS, "terminal entry")
        v = _int(t["vertex"], "terminal vertex")
        if v in required:
            raise InputError(f"terminal {v} listed twice")
        required[v] = _int(t["required"], "required grade")
    try:
        costs = [_list(ladder, "cost ladder") for ladder in _list(data["costs"], "costs")]
        return Instance.build(n, edges, grades, required, costs)
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from exc


def instance_to_json(instance: Instance) -> str:
    doc = {
        "num_vertices": instance.num_vertices,
        "grades": instance.grades,
        "edges": [list(e) for e in instance.edges],
        "terminals": [
            {"vertex": v, "required": instance.required[v]}
            for v in instance.terminals
        ],
        "costs": [[_cost_num(c) for c in ladder] for ladder in instance.costs],
    }
    return _emit(doc, 0) + "\n"


# ---------------------------------------------------------------------------
# Solutions


def solution_to_json(report: SolutionReport) -> str:
    doc = {
        "assignment": list(report.assignment),
        "tree_edges": [list(e) for e in report.tree_edges],
        "cost": _cost_num(report.total_cost),
        "iterations": [
            {
                "gamma": format_fraction(rec.gamma),
                "merged_count": rec.merged_count,
                "incurred_cost": _cost_num(rec.incurred_cost),
                "root": rec.root,
                "center": rec.center,
                "grade": rec.grade,
                "subset_roots": list(rec.subset_roots),
            }
            for rec in report.iterations
        ],
    }
    return _emit(doc, 0) + "\n"


def solution_from_json(text: str) -> SolutionReport:
    data = _loads(text)
    _require_fields(data, _SOLUTION_FIELDS, "solution")
    assignment: GradeAssignment = tuple(
        _int(v, "assignment entry") for v in _list(data["assignment"], "assignment")
    )
    edges = tuple(_edge(e, "tree edge") for e in _list(data["tree_edges"], "tree_edges"))
    iterations = []
    try:
        for rec in _list(data["iterations"], "iterations"):
            _require_fields(rec, _ITERATION_FIELDS, "iteration entry")
            iterations.append(
                IterationRecord(
                    gamma=parse_fraction(str(rec["gamma"])),
                    merged_count=_int(rec["merged_count"], "merged_count"),
                    incurred_cost=Cost.parse(rec["incurred_cost"]),
                    root=_int(rec["root"], "root"),
                    center=_int(rec["center"], "center"),
                    grade=_int(rec["grade"], "grade"),
                    subset_roots=tuple(
                        _int(r, "subset root")
                        for r in _list(rec["subset_roots"], "subset_roots")
                    ),
                )
            )
        total = Cost.parse(data["cost"])
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(str(exc)) from exc
    return SolutionReport(
        assignment=assignment,
        tree_edges=edges,
        total_cost=total,
        iterations=tuple(iterations),
    )


# ---------------------------------------------------------------------------
# Files


def read_instance(path: str) -> Instance:
    with open(path, encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def read_solution(path: str) -> SolutionReport:
    with open(path, encoding="utf-8") as fh:
        return solution_from_json(fh.read())


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

"""Multi-grade node-weighted Steiner tree toolkit.

Exact-arithmetic solvers for the problem of buying graded facilities on
graph vertices so that every terminal reaches every other through
facilities at or above the lower of their two demands:

- a greedy tree-merging solver with a logarithmic quality guarantee,
- layered top-down and bottom-up heuristics over a pluggable
  single-grade subroutine,
- exhaustive oracles (assignment search, layered-digraph arborescence)
  and a cut-based 0/1 model with LP export, used as ground truth,
- structural checkers: feasibility, grade-respecting trees, subtree
  demotion and rooted spider decompositions.

The exports are lazy (PEP 562): ``import vgsst`` loads no submodule, and
the first access to a name imports the module that defines it, so a
caller pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

#: Submodule -> the names the package exports from it.
_EXPORTS = {
    "costs": ("COST_SCALE", "Cost", "CostPrecisionError", "format_fraction", "ratio"),
    "generators": ("fig2_instance", "fig3_instance", "random_instance"),
    "greedy": (
        "GradedDistanceRow",
        "GrtForest",
        "MergeCandidate",
        "StaleCandidateError",
        "apply_merge",
        "graded_shortest_paths",
        "init_forest",
        "select_global_candidate",
        "solve_greedy",
    ),
    "heuristics": (
        "VstSubroutine",
        "greedy_as_vst",
        "single_grade_view",
        "solve_bottomup",
        "solve_topdown",
    ),
    "instance": (
        "FeasibilityWitness",
        "GradeAssignment",
        "InfeasibleAssignmentError",
        "InputError",
        "Instance",
        "InternalInvariantError",
        "IterationRecord",
        "NormalizeResult",
        "SizeCapError",
        "SolutionReport",
        "VgsstError",
        "Violation",
        "VstContractError",
        "check_feasible",
        "denormalize_solution",
        "edge_costs_to_vertex_costs",
        "extract_tree",
        "normalize",
        "solution_cost",
        "validate",
    ),
    "io": (
        "instance_from_json",
        "instance_to_json",
        "read_instance",
        "read_solution",
        "solution_from_json",
        "solution_to_json",
    ),
    "oracle": (
        "IlpModel",
        "IlpSolution",
        "build_ilp",
        "brute_force_optimum",
        "exact_vst",
        "export_lp",
        "model_point_feasible",
        "solve_ilp_by_enumeration",
    ),
    "reductions": (
        "DstInstance",
        "RootedSpiderDecomposition",
        "Spider",
        "brute_force_dst",
        "check_grt",
        "m_optimize",
        "reduce_to_dst",
        "spider_decompose",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))

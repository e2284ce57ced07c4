"""Mutation check of the certifying code: does Tier-1 catch small faults?

Makes every single-operator mutant of the trust base (the functions in
``TRUST_BASE``): each ``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
``in``/``not in`` and ``is``/``is not`` comparison swapped, each
``and``/``or`` swapped, and each ``not`` dropped, one at a time. Each
mutant is written into a scratch copy of the repository (a fresh
temporary directory, or ``--workdir``), never into this tree, and the
Tier-1 suite runs against the copy with ``-x``. A mutant the suite
passes survives.

Run it from anywhere, outside Tier-1 and CI (55 mutants took about four
minutes on a 2-vCPU Xeon, Python 3.11; each survivor costs a full suite
run):

    python3 tools/mutants.py [--workdir DIR]

Prints one line per mutant and a summary. Exits 1 when a mutant that
``ACCEPTED`` does not list survives, and 2 when the unmutated suite
fails. Uses only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Module (under src/vgsst) -> the functions whose operators are mutated.
TRUST_BASE = {
    "instance.py": (
        "_reach", "_grade_reach", "_graph_violations", "_on_graph", "validate",
        "_check_assignment", "check_feasible", "feasibility_tester", "solution_cost",
        "spanning_tree_by_levels", "extract_tree", "_solver_report",
    ),
    "cli.py": ("_tree_failures", "cmd_verify"),
    "greedy.py": ("_row_is_exact",),
}

#: Survivors known not to be missing tests, keyed by (function, the
#: mutated source line stripped, operator change), with the reason.
ACCEPTED = {
    ("spanning_tree_by_levels", "if y[v] < low:", "< -> <="): (
        "equivalent: on a tie both sides hold the same grade"
    ),
    ("spanning_tree_by_levels", "buckets[low if low < top else top].append(edge)", "< -> <="): (
        "equivalent: on a tie both sides are the top grade"
    ),
    ("_tree_failures", "if root is None and not need:", "is -> is not"): (
        "strength only: skips a merge-rooted file's walk at grades no terminal "
        "demands, and feasibility asks only that the demanders connect"
    ),
    ("_tree_failures", "apart = (need if root is None else level) & ~reached", "is -> is not"): (
        "strength only: weaker for rooted files (demanders only), stronger for "
        "record-free ones (the whole level set); both still certify feasibility"
    ),
}

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And,
}
_TEXT = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
    ast.And: "and", ast.Or: "or",
}


class Mutant:
    """One edit: replace the source bytes ``spans`` (start, end offsets)
    of ``module`` by ``new``."""

    def __init__(self, module, function, line, text, change, spans, new):
        self.module, self.function, self.line = module, function, line
        self.text, self.change, self.spans, self.new = text, change, spans, new

    @property
    def key(self):
        return (self.function, self.text, self.change)

    def apply(self, source: bytes) -> bytes:
        for start, end in sorted(self.spans, reverse=True):
            source = source[:start] + self.new + source[end:]
        return source

    def __str__(self):
        return f"{self.module}:{self.line} {self.function}: `{self.change}` in `{self.text}`"


def _operator_span(source: bytes, start: int, end: int) -> tuple[int, int]:
    """The operator between two operands: the bytes ``start:end`` bar the
    parentheses and whitespace around it."""
    while source[start] in b"() \t\r\n\\":
        start += 1
    while source[end - 1] in b"() \t\r\n\\":
        end -= 1
    return start, end


def mutants_of(module: str, source: bytes) -> list[Mutant]:
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(lineno, col):
        return starts[lineno - 1] + col

    def between(a, b):
        return _operator_span(source, offset(a.end_lineno, a.end_col_offset),
                              offset(b.lineno, b.col_offset))

    found = []
    wanted = TRUST_BASE[module]
    for function in ast.parse(source).body:
        if not isinstance(function, ast.FunctionDef) or function.name not in wanted:
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                edits = [
                    ([between(a, b)], op) for a, b, op in zip(operands, operands[1:], node.ops)
                ]
            elif isinstance(node, ast.BoolOp):
                values = node.values
                edits = [([between(a, b) for a, b in zip(values, values[1:])], node.op)]
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                start = offset(node.lineno, node.col_offset)
                edits = [([(start, offset(node.operand.lineno, node.operand.col_offset))], None)]
            else:
                continue
            text = lines[node.lineno - 1].decode().strip()
            for spans, op in edits:
                if op is None:
                    change, new = "not -> (dropped)", b""
                else:
                    old, swapped = _TEXT[type(op)], _TEXT[_SWAPS[type(op)]]
                    change, new = f"{old} -> {swapped}", swapped.encode()
                found.append(Mutant(module, function.name, node.lineno, text, change, spans, new))
    return sorted(found, key=lambda m: (m.module, m.line, min(m.spans)))


def _limit_memory():
    limit = 2 << 30  # 2 GiB of address space per suite run
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_suite(workdir: str, timeout: float) -> str:
    """Tier-1 with ``-x`` in the copy: "passed", "failed" or "timeout"."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
    try:
        proc = subprocess.run(command, cwd=workdir, env=env, capture_output=True,
                              timeout=timeout, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", help="directory for the scratch copy (default: a temp dir)")
    args = parser.parse_args(argv)

    sources = {}
    mutants = []
    for module in TRUST_BASE:
        with open(os.path.join(ROOT, "src", "vgsst", module), "rb") as fh:
            sources[module] = fh.read()
        mutants += mutants_of(module, sources[module])
    workdir = args.workdir or tempfile.mkdtemp(prefix="vgsst-mutants-")
    copy = os.path.join(workdir, "repo")
    shutil.rmtree(copy, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".git", "*.pyc")
    os.makedirs(copy)
    for name in ("src", "tests", "demos"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(copy, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)

    began = time.perf_counter()
    if run_suite(copy, timeout=1800) != "passed":
        print("the unmutated suite fails in the copy; no mutant was run")
        return 2
    baseline = time.perf_counter() - began
    print(f"unmutated suite: passed in {baseline:.1f} s")

    survivors = []
    killed = 0
    for m in mutants:
        target = os.path.join(copy, "src", "vgsst", m.module)
        with open(target, "wb") as fh:
            fh.write(m.apply(sources[m.module]))
        began = time.perf_counter()
        try:
            outcome = run_suite(copy, timeout=3 * baseline + 60)
        finally:
            with open(target, "wb") as fh:
                fh.write(sources[m.module])
        took = time.perf_counter() - began
        if outcome == "passed":
            survivors.append(m)
            verdict = "SURVIVED" + (" (accepted)" if m.key in ACCEPTED else "")
        else:
            killed += 1
            verdict = "killed" + (" (timeout)" if outcome == "timeout" else "")
        print(f"{verdict:20} {took:6.1f} s  {m}", flush=True)

    unlisted = [m for m in survivors if m.key not in ACCEPTED]
    print(f"\n{len(mutants)} mutants: {killed} killed, {len(survivors)} survived")
    for m in survivors:
        if m.key in ACCEPTED:
            print(f"accepted: {m}\n    {ACCEPTED[m.key]}")
    for m in unlisted:
        print(f"UNLISTED SURVIVOR: {m}")
    shutil.rmtree(copy, ignore_errors=True)
    if not args.workdir:
        os.rmdir(workdir)
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())

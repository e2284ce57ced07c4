"""Command-line surface: subcommands, determinism, exit codes."""

import concurrent.futures
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vgsst
import vgsst.cli
import vgsst.instance
import vgsst.oracle
from vgsst import (
    Cost,
    Instance,
    check_feasible,
    check_grt,
    fig3_instance,
    instance_to_json,
    normalize,
    random_instance,
    read_solution,
    solution_cost,
)
from vgsst.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def fig3_file(tmp_path):
    path = tmp_path / "fig3.json"
    path.write_text(instance_to_json(fig3_instance()))
    return str(path)


def test_solve_greedy_prints_cost(capsys, fig3_file, tmp_path):
    out_path = str(tmp_path / "sol.json")
    code, out, _ = run(capsys, "solve", "--algorithm", "greedy", fig3_file, "-o", out_path)
    assert code == 0
    assert "cost 30" in out and "iterations 2" in out
    report = read_solution(out_path)
    assert report.total_cost == Cost.parse(30)


@pytest.mark.parametrize("algorithm", ["greedy", "topdown", "bottomup", "exact"])
def test_solver_exit_failure_exits_3(capsys, fig3_file, tmp_path, monkeypatch, algorithm):
    # A result that fails its own exit check is a solver bug, whichever
    # solver made it: exit 3, one line, and no solution file.
    witness = vgsst.instance.FeasibilityWitness(kind="requirement", vertex=0)
    monkeypatch.setattr(vgsst.instance, "check_feasible", lambda instance, y: (False, witness))
    out_path = tmp_path / "sol.json"
    code, out, err = run(capsys, "solve", "--algorithm", algorithm, fig3_file, "-o", str(out_path))
    assert code == 3
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert out == ""
    assert not out_path.exists()


def test_solve_exact_hub_chain(capsys, tmp_path):
    inst_path = str(tmp_path / "f2.json")
    code, _, _ = run(capsys, "gen", "--builtin", "fig2", "--levels", "3", "-o", inst_path)
    assert code == 0
    code, out, _ = run(
        capsys, "solve", "--algorithm", "exact", inst_path, "-o", str(tmp_path / "s.json")
    )
    assert code == 0
    assert "cost 1.1" in out


def test_solve_single_terminal_is_free(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(
        json.dumps(
            {
                "num_vertices": 2,
                "grades": 1,
                "edges": [[0, 1]],
                "terminals": [{"vertex": 0, "required": 1}],
                "costs": [[0], [3]],
            }
        )
    )
    code, out, _ = run(
        capsys, "solve", "--algorithm", "greedy", str(path), "-o", str(tmp_path / "s.json")
    )
    assert code == 0
    assert "cost 0 " in out


def test_solve_ratio_flag(capsys, fig3_file, tmp_path):
    code, out, _ = run(
        capsys,
        "solve", "--algorithm", "greedy", fig3_file,
        "-o", str(tmp_path / "s.json"), "--ratio",
    )
    assert code == 0
    assert "ratio 1.0" in out


def test_solve_exact_ratio_runs_the_oracle_once(capsys, fig3_file, tmp_path, monkeypatch):
    calls = []
    oracle = vgsst.oracle.brute_force_optimum

    def counting(*args, **kwargs):
        calls.append(args)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(vgsst.oracle, "brute_force_optimum", counting)
    code, out, _ = run(
        capsys,
        "solve", "--algorithm", "exact", fig3_file,
        "-o", str(tmp_path / "s.json"), "--ratio",
    )
    assert code == 0
    assert "ratio 1.0" in out
    assert len(calls) == 1


def test_solve_ratio_parses_each_input_once(capsys, fig3_file, tmp_path, monkeypatch):
    calls = {"read_instance": 0, "read_solution": 0}

    def counting(name):
        original = getattr(vgsst.cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(vgsst.cli, name, wrapper)

    counting("read_instance")
    counting("read_solution")
    code, out, _ = run(
        capsys,
        "solve", "--algorithm", "topdown", fig3_file,
        "-o", str(tmp_path / "s.json"), "--ratio",
    )
    assert code == 0
    assert out == f"{fig3_file}: cost 33 iterations 0\n{fig3_file}: ratio 1.1\n"
    assert calls == {"read_instance": 1, "read_solution": 0}


@pytest.mark.parametrize("flags", [["--ratio"], ["--algorithm", "exact"]])
def test_solve_refuses_oracle_sized_inputs_before_solving(capsys, fig3_file, tmp_path, flags):
    # fig3 fits the oracle; the second file does not, so nothing may be solved.
    big = tmp_path / "big.json"
    big.write_text(instance_to_json(random_instance(14, 2, seed=1)))
    code, out, err = run(capsys, "solve", fig3_file, str(big), *flags)
    assert code == 4
    assert "oracle limited to 10 vertices" in err
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json", "fig3.json"]


def test_solve_refuses_output_with_several_inputs(capsys, fig3_file, tmp_path):
    other = tmp_path / "other.json"
    other.write_text(instance_to_json(random_instance(7, 2, seed=1)))
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run(capsys, "solve", fig3_file, str(other), "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_solve_validates_every_input_before_writing(capsys, fig3_file, tmp_path):
    # The second graph is disconnected, so not even fig3's solution is written.
    broken = tmp_path / "broken.json"
    broken.write_text(
        json.dumps(
            {
                "num_vertices": 2,
                "grades": 1,
                "edges": [],
                "terminals": [{"vertex": 0, "required": 1}, {"vertex": 1, "required": 1}],
                "costs": [[0], [0]],
            }
        )
    )
    code, out, err = run(capsys, "solve", fig3_file, str(broken))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["broken.json", "fig3.json"]


def test_solve_checks_the_instance_once(capsys, fig3_file, tmp_path, monkeypatch):
    # Reading the file checked its structure; the greedy's entry checks
    # its normalized form, and nothing checks either again.
    real = vgsst.instance.validate
    calls = []
    monkeypatch.setattr(
        vgsst.instance, "validate", lambda *args, **kw: calls.append(args[0]) or real(*args, **kw)
    )
    code, _, _ = run(capsys, "solve", fig3_file, "-o", str(tmp_path / "sol.json"))
    assert code == 0
    assert calls == [fig3_instance()]


def test_solve_normalizes_costly_terminals(capsys, tmp_path):
    # Terminal 0 must pay 5; the solver normalizes internally and maps back.
    path = tmp_path / "paid.json"
    path.write_text(
        json.dumps(
            {
                "num_vertices": 2,
                "grades": 1,
                "edges": [[0, 1]],
                "terminals": [{"vertex": 0, "required": 1}, {"vertex": 1, "required": 1}],
                "costs": [[5], [0]],
            }
        )
    )
    out_path = str(tmp_path / "s.json")
    code, out, _ = run(capsys, "solve", "--algorithm", "greedy", str(path), "-o", out_path)
    assert code == 0
    assert "cost 5" in out
    report = read_solution(out_path)
    assert report.assignment == (1, 1)


def test_gen_builtin_matches_golden(capsys):
    golden = os.path.join(os.path.dirname(__file__), "golden", "fig3.json")
    code, out, _ = run(capsys, "gen", "--builtin", "fig3")
    assert code == 0
    with open(golden, encoding="utf-8") as fh:
        assert out == fh.read()


def test_gen_random_deterministic(capsys, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(capsys, "gen", "--random", "--n", "9", "--levels", "2", "--seed", "7", "-o", a)[0] == 0
    assert run(capsys, "gen", "--random", "--n", "9", "--levels", "2", "--seed", "7", "-o", b)[0] == 0
    assert Path(a).read_text() == Path(b).read_text()


def test_gen_seed_env_override(capsys, tmp_path, monkeypatch):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(capsys, "gen", "--random", "--n", "8", "--seed", "1", "-o", a)
    monkeypatch.setenv("VGSST_SEED", "1")
    run(capsys, "gen", "--random", "--n", "8", "--seed", "999", "-o", b)
    assert Path(a).read_text() == Path(b).read_text()


def test_export_lp(capsys, tmp_path):
    path = tmp_path / "path3.json"
    path.write_text(
        json.dumps(
            {
                "num_vertices": 3,
                "grades": 1,
                "edges": [[0, 1], [1, 2]],
                "terminals": [{"vertex": 0, "required": 1}, {"vertex": 2, "required": 1}],
                "costs": [[0], [5], [0]],
            }
        )
    )
    code, out, _ = run(capsys, "export", "--lp", str(path))
    assert code == 0
    assert "x_1_1 >= 1" in out


def test_export_lp_refuses_costly_terminals(capsys, tmp_path):
    # The cut model has no rows for terminal floors; solve and verify
    # handle the same file.
    path = tmp_path / "costly.json"
    path.write_text(
        json.dumps(
            {
                "num_vertices": 3,
                "grades": 2,
                "edges": [[0, 1], [1, 2]],
                "terminals": [{"vertex": 0, "required": 2}, {"vertex": 2, "required": 1}],
                "costs": [[1, 2], [1, 2], [3, 3]],
            }
        )
    )
    code, out, err = run(capsys, "export", "--lp", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: terminal-cost at 0: ") and err.count("\n") == 1
    sol = str(tmp_path / "s.json")
    assert run(capsys, "solve", str(path), "-o", sol)[:2] == (0, f"{path}: cost 6 iterations 0\n")
    assert run(capsys, "verify", str(path), sol)[:2] == (0, "PASS: cost 6, ratio 1.0\n")


def test_export_dot_with_solution(capsys, fig3_file, tmp_path):
    sol = str(tmp_path / "sol.json")
    run(capsys, "solve", "--algorithm", "greedy", fig3_file, "-o", sol)
    code, out, _ = run(capsys, "export", "--dot", fig3_file, "--solution", sol)
    assert code == 0
    assert out.count("peripheries=2") == 4  # terminals double-circled
    assert out.count(" -- ") == 8
    assert 'label="0/(0,0)\\nR=2\\ny=2"' in out
    assert out == run(capsys, "export", "--dot", fig3_file, "--solution", sol)[1]


def test_export_dot_single_vertex(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(
        json.dumps(
            {
                "num_vertices": 1,
                "grades": 1,
                "edges": [],
                "terminals": [{"vertex": 0, "required": 1}],
                "costs": [[0]],
            }
        )
    )
    code, out, _ = run(capsys, "export", "--dot", str(path))
    assert code == 0
    assert out.count("[label=") == 1


def test_verify_accepts_solver_output(capsys, fig3_file, tmp_path):
    sol = str(tmp_path / "sol.json")
    run(capsys, "solve", "--algorithm", "greedy", fig3_file, "-o", sol)
    code, out, _ = run(capsys, "verify", fig3_file, sol)
    assert code == 0
    assert out.startswith("PASS") and "ratio 1.0" in out


def test_verify_flags_tampering(capsys, fig3_file, tmp_path):
    sol_path = tmp_path / "sol.json"
    run(capsys, "solve", "--algorithm", "greedy", fig3_file, "-o", str(sol_path))
    doc = json.loads(sol_path.read_text())
    doc["assignment"][1] = 0  # disconnects the top-demand terminals
    sol_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", fig3_file, str(sol_path))
    assert code == 1
    assert out.startswith("FAIL: cost mismatch") and out.count("FAIL:") == 2


def test_verify_rejects_forged_tree(capsys, fig3_file, tmp_path):
    # A star of non-edges touching exactly the bought vertices, with the
    # solver's own assignment and cost.
    sol_path = tmp_path / "sol.json"
    run(capsys, "solve", "--algorithm", "greedy", fig3_file, "-o", str(sol_path))
    doc = json.loads(sol_path.read_text())
    bought = [v for v, g in enumerate(doc["assignment"]) if g >= 1]
    doc["tree_edges"] = [[bought[0], v] for v in bought[1:]]
    sol_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", fig3_file, str(sol_path))
    assert code == 1
    assert out.startswith("FAIL:") and "PASS" not in out


def test_verify_checks_the_last_merge_root(capsys, fig3_file, tmp_path):
    # fig3's greedy buys every vertex but 3: a last record rooted there is a
    # verification failure, and one rooted off the instance is malformed.
    sol_path = tmp_path / "sol.json"
    run(capsys, "solve", fig3_file, "-o", str(sol_path))
    _corrupt(sol_path, _set(["iterations", -1, "root"], 3))
    assert run(capsys, "verify", fig3_file, str(sol_path)) == (
        1, "FAIL: merge root 3 is not a bought vertex\n", ""
    )
    _corrupt(sol_path, _set(["iterations", -1, "root"], 999))
    assert run(capsys, "verify", fig3_file, str(sol_path)) == (
        2, "", "error: merge root 999 is not a vertex of the instance\n"
    )


def test_verify_checks_the_demand_floors_first(capsys, fig3_file, tmp_path):
    # Terminal 0 demands grade 2 and costs nothing at either grade, so
    # only its floor fails; the tree still certifies every other rule.
    sol_path = tmp_path / "sol.json"
    run(capsys, "solve", fig3_file, "-o", str(sol_path))
    _corrupt(sol_path, _set(["assignment", 0], 1))
    assert run(capsys, "verify", fig3_file, str(sol_path)) == (
        1, "FAIL: terminal 0 below its demand\n", ""
    )


def test_verify_names_the_vertex_the_merge_root_does_not_reach(capsys, fig3_file, tmp_path):
    # fig3's greedy tree joins terminal 5 to root 0 through vertex 7 only:
    # dropping 7 to grade 1, with the cost lowered to match, cuts the tree
    # at grade 2 and nothing else.
    sol_path = tmp_path / "sol.json"
    run(capsys, "solve", fig3_file, "-o", str(sol_path))
    doc = json.loads(sol_path.read_text())
    assert doc["iterations"][-1]["root"] == 0 and doc["cost"] == 30
    _corrupt(sol_path, _set(["assignment", 7], 1))
    _corrupt(sol_path, _set(["cost"], 29))
    assert run(capsys, "verify", fig3_file, str(sol_path)) == (
        1, "FAIL: grade-2 tree edges do not reach vertex 5 from vertex 0\n", ""
    )


def test_verify_walks_the_tree_of_a_record_free_file(capsys, tmp_path):
    # A top-down file has no merge records. Its tree (1,5), (1,7), (1,8)
    # forged into the triangle (1,5), (1,7), (5,7): instance edges, one
    # fewer than the bought vertices, but vertex 8 is off the tree.
    inst = normalize(random_instance(9, 2, 1, edge_prob=0.5, terminal_fraction=0.4)).instance
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(inst))
    sol_path = tmp_path / "sol.json"
    code, _, _ = run(capsys, "solve", "--algorithm", "topdown", str(inst_path), "-o", str(sol_path))
    assert code == 0
    assert json.loads(sol_path.read_text())["iterations"] == []
    _corrupt(sol_path, _set(["tree_edges"], [[1, 5], [1, 7], [5, 7]]))
    assert run(capsys, "verify", str(inst_path), str(sol_path)) == (
        1, "FAIL: grade-1 tree edges do not reach vertex 8 from vertex 1\n", ""
    )


def test_verify_refuses_a_merge_root_equal_to_the_vertex_count(capsys, fig3_file, tmp_path):
    # fig3 has vertices 0..7: root 8 is the first id past the end.
    sol_path = tmp_path / "sol.json"
    run(capsys, "solve", fig3_file, "-o", str(sol_path))
    _corrupt(sol_path, _set(["iterations", -1, "root"], 8))
    assert run(capsys, "verify", fig3_file, str(sol_path)) == (
        2, "", "error: merge root 8 is not a vertex of the instance\n"
    )


def test_solve_refuses_a_terminal_equal_to_the_vertex_count(capsys, fig3_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(Path(fig3_file).read_text())
    _corrupt(bad, lambda doc: doc["terminals"].append({"vertex": 8, "required": 1}))
    assert run(capsys, "solve", str(bad), "-o", str(tmp_path / "out.json")) == (
        2, "", "error: terminal 8 out of vertex range\n"
    )
    assert not (tmp_path / "out.json").exists()


def _reference_verdict(instance, report):
    """``verify``'s exit code rebuilt from the public checkers alone: 0 when
    the cost is right, the assignment is feasible, the tree edges are
    instance edges forming a spanning tree of the bought vertices and the
    last merge root, if any, is bought with the tree grade-respecting from
    it; else 1."""
    y = report.assignment
    if solution_cost(instance, y) != report.total_cost or not check_feasible(instance, y)[0]:
        return 1
    bought = {v for v, g in enumerate(y) if g >= 1}
    edges = [tuple(sorted(e)) for e in report.tree_edges]
    if not set(edges) <= set(instance.edges) or len(edges) != len(bought) - 1:
        return 1
    reached = {min(bought)}
    grown = True
    while grown:
        grown = False
        for u, v in edges:
            if (u in reached) != (v in reached):
                reached.update((u, v))
                grown = True
    if reached != bought:
        return 1
    if report.iterations:
        root = report.iterations[-1].root
        if root not in bought or not check_grt(instance, report.tree_edges, y, root)[0]:
            return 1
    return 0


def _one_edit_mutations(instance, doc):
    """Every grade changed, every tree edge replaced by each other vertex
    pair, and the last merge root set to each vertex."""
    n = instance.num_vertices
    for v, grade in enumerate(doc["assignment"]):
        for g in range(instance.grades + 1):
            if g != grade:
                yield _set(["assignment", v], g)
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    for k, edge in enumerate(doc["tree_edges"]):
        for pair in pairs:
            if pair != sorted(edge):
                yield _set(["tree_edges", k], pair)
    for v in range(n):
        yield _set(["iterations", -1, "root"], v)


@pytest.mark.parametrize("shape", [None, (9, 2, 3), (10, 2, 5), (10, 3, 8)])
def test_verify_matches_public_checkers_on_one_edit_mutations(capsys, tmp_path, shape):
    # fig3 (shape None) and seeded random instances (n, grades, seed), each
    # with its greedy solution.
    instance = fig3_instance() if shape is None else random_instance(*shape)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(instance))
    sol_path = tmp_path / "sol.json"
    assert run(capsys, "solve", str(inst_path), "-o", str(sol_path))[0] == 0
    original = sol_path.read_text()
    doc = json.loads(original)
    assert doc["iterations"]
    verdicts = []
    for edit in _one_edit_mutations(instance, doc):
        sol_path.write_text(original)
        _corrupt(sol_path, edit)
        code, out, _ = run(capsys, "verify", str(inst_path), str(sol_path))
        expected = _reference_verdict(instance, read_solution(str(sol_path)))
        assert code == expected, sol_path.read_text()
        # At most the cost line and the tree's first failure.
        assert out.count("FAIL:") <= 2, out
        verdicts.append(code)
    assert 0 in verdicts and 1 in verdicts


def test_failed_write_names_the_target(capsys, fig3_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "solve", fig3_file, "-o", "missing/out.json")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'missing/out.json'" in err and ".tmp" not in err


def test_verify_skips_ratio_beyond_candidate_cap(capsys, tmp_path):
    # Ten vertices, but 8^8 candidate assignments: over the oracle's
    # product cap, so verify certifies the file and skips the ratio.
    n, levels = 10, 7
    path = tmp_path / "path.json"
    path.write_text(
        instance_to_json(
            Instance.build(
                n,
                [(v, v + 1) for v in range(n - 1)],
                levels,
                {0: levels, n - 1: levels},
                [[0] * levels] + [list(range(1, levels + 1))] * (n - 2) + [[0] * levels],
            )
        )
    )
    sol = str(tmp_path / "path.sol.json")
    assert run(capsys, "solve", str(path), "-o", sol)[0] == 0
    code, out, err = run(capsys, "verify", str(path), sol)
    assert (code, out, err) == (0, "PASS: cost 56, ratio skipped (beyond oracle caps)\n", "")


def test_verify_zero_cost_ratio(capsys, tmp_path):
    inst = tmp_path / "free.json"
    inst.write_text(
        json.dumps(
            {
                "num_vertices": 2,
                "grades": 1,
                "edges": [[0, 1]],
                "terminals": [{"vertex": 0, "required": 1}, {"vertex": 1, "required": 1}],
                "costs": [[0], [0]],
            }
        )
    )
    sol = str(tmp_path / "s.json")
    run(capsys, "solve", "--algorithm", "greedy", str(inst), "-o", sol)
    code, out, _ = run(capsys, "verify", str(inst), sol)
    assert code == 0
    assert "ratio 1.0" in out


def test_verify_prints_a_ratio_beyond_float_range(capsys, tmp_path):
    # The path 0-1-2 plus a pendant vertex 3 off 1 that costs 1e400; buying
    # it too makes the ratio 10^400 + 1, which no float holds.
    inst = tmp_path / "huge.json"
    inst.write_text(
        '{"num_vertices": 4, "grades": 1, "edges": [[0, 1], [1, 2], [1, 3]],'
        ' "terminals": [{"vertex": 0, "required": 1}, {"vertex": 2, "required": 1}],'
        ' "costs": [[0], [1], [0], [1e400]]}'
    )
    sol = tmp_path / "s.json"
    sol.write_text(
        '{"assignment": [1, 1, 1, 1], "tree_edges": [[0, 1], [1, 2], [1, 3]],'
        f' "cost": 1{"0" * 399}1, "iterations": []}}'
    )
    code, out, err = run(capsys, "verify", str(inst), str(sol))
    assert (code, err) == (0, "")
    assert out == f"PASS: cost 1{'0' * 399}1, ratio 1e+400\n"


def test_verify_prints_a_float_range_ratio_beyond_2_to_the_53(capsys, tmp_path):
    # As above, but the pendant costs 10^300 - 1: the ratio is exactly
    # 10^300, which a float holds only rounded.
    inst = tmp_path / "huge.json"
    inst.write_text(
        '{"num_vertices": 4, "grades": 1, "edges": [[0, 1], [1, 2], [1, 3]],'
        ' "terminals": [{"vertex": 0, "required": 1}, {"vertex": 2, "required": 1}],'
        f' "costs": [[0], [1], [0], [{"9" * 300}]]}}'
    )
    sol = tmp_path / "s.json"
    sol.write_text(
        '{"assignment": [1, 1, 1, 1], "tree_edges": [[0, 1], [1, 2], [1, 3]],'
        f' "cost": 1{"0" * 300}, "iterations": []}}'
    )
    code, out, err = run(capsys, "verify", str(inst), str(sol))
    assert (code, err) == (0, "")
    assert out == f"PASS: cost 1{'0' * 300}, ratio 1e+300\n"


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "error" in err


def test_size_cap_exit_code(capsys, tmp_path):
    inst = tmp_path / "big.json"
    n = 12
    inst.write_text(
        json.dumps(
            {
                "num_vertices": n,
                "grades": 1,
                "edges": [[i, i + 1] for i in range(n - 1)],
                "terminals": [
                    {"vertex": 0, "required": 1},
                    {"vertex": n - 1, "required": 1},
                ],
                "costs": [[0]] + [[1]] * (n - 2) + [[0]],
            }
        )
    )
    code, _, err = run(
        capsys, "solve", "--algorithm", "exact", str(inst), "-o", str(tmp_path / "s.json")
    )
    assert code == 4
    assert "error" in err


def test_batch_solve_with_jobs(capsys, tmp_path):
    paths = []
    for k in range(3):
        p = str(tmp_path / f"r{k}.json")
        run(capsys, "gen", "--random", "--n", "7", "--levels", "2", "--seed", str(40 + k), "-o", p)
        paths.append(p)
    code, out, _ = run(capsys, "solve", "--jobs", "2", *paths)
    assert code == 0
    lines = [l for l in out.splitlines() if "cost" in l]
    assert len(lines) == 3
    assert [l.split(":")[0] for l in lines] == paths  # input order preserved
    for p in paths:
        assert os.path.exists(p.replace(".json", ".sol.json"))


def test_bench_deterministic(capsys):
    code, out1, _ = run(capsys, "bench", "--n", "6", "--levels", "2", "--count", "2", "--seed", "3")
    code2, out2, _ = run(capsys, "bench", "--n", "6", "--levels", "2", "--count", "2", "--seed", "3")
    assert code == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "instance greedy topdown bottomup"


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["--algorithms", "greedy,foo"], 2),
        (["--algorithms", "greedy,exact", "--n", "30"], 4),
    ],
    ids=["unknown-algorithm", "beyond-oracle-cap"],
)
def test_bench_refuses_before_printing(capsys, argv, exit_code):
    code, out, err = run(capsys, "bench", "--count", "2", *argv)
    assert code == exit_code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_export_dot_matches_golden(capsys, fig3_file, tmp_path):
    golden = os.path.join(os.path.dirname(__file__), "golden", "fig3.dot")
    sol = str(tmp_path / "sol.json")
    run(capsys, "solve", "--algorithm", "greedy", fig3_file, "-o", sol)
    _, out, _ = run(capsys, "export", "--dot", fig3_file, "--solution", sol)
    with open(golden, encoding="utf-8") as fh:
        assert out == fh.read()


def _set(path, value):
    """Document edit: store ``value`` at ``path`` (a key/index sequence)."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


#: Edit that puts a directory where the file was.
DIRECTORY = "directory"


def _fig3_with_cost(literal):
    """fig3's instance file with vertex 1's top cost written as ``literal``."""
    text = instance_to_json(fig3_instance())
    return text.replace("[7, 14]", f"[7, {literal}]").encode()


def _corrupt(path, edit):
    """Apply a MALFORMED edit to the JSON file at ``path``: bytes replace
    the file, DIRECTORY replaces it by a directory, and anything else
    edits the parsed document."""
    if edit == DIRECTORY:
        path.unlink()
        path.mkdir()
    elif isinstance(edit, bytes):
        path.write_bytes(edit)
    else:
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))


# (file to corrupt, edit, extra argv, environment). A corrupted instance is
# read by ``solve``, or by ``verify`` when argv is ["verify"]. A corrupted
# solution is checked by ``verify`` unless argv names another subcommand
# and its flags.
MALFORMED = {
    "instance-edges-not-a-list": ("instance", _set(["edges"], 5), [], {}),
    "instance-terminals-not-a-list": ("instance", _set(["terminals"], {"vertex": 0}), [], {}),
    "instance-ladder-not-a-list": ("instance", _set(["costs", 1], "12"), [], {}),
    "instance-infinite-cost-string": ("instance", _set(["costs", 1, 0], "Infinity"), [], {}),
    "instance-infinite-cost-literal": ("instance", _set(["costs", 1, 0], float("inf")), [], {}),
    "instance-nan-cost": ("instance", _set(["costs", 1, 0], "NaN"), [], {}),
    "instance-snan-cost": ("instance", _set(["costs", 1, 0], "sNaN"), [], {}),
    "instance-cost-beyond-decimal-range": ("instance", _fig3_with_cost("1e1000000"), [], {}),
    "instance-cost-beyond-printable-ints": ("instance", _fig3_with_cost("1e5000"), [], {}),
    "instance-integer-beyond-4300-digits": ("instance", _fig3_with_cost("1" * 5000), [], {}),
    "instance-cost-with-3000-zeros": ("instance", _fig3_with_cost(f'"1.{"0" * 3000}1"'), [], {}),
    "instance-cost-not-a-number": ("instance", _fig3_with_cost(f'"{"x" * 5000}"'), [], {}),
    "instance-directory": ("instance", DIRECTORY, [], {}),
    "instance-directory-verify": ("instance", DIRECTORY, ["verify"], {}),
    "instance-not-utf8": ("instance", b'{"num_vertices": "\xff"}', [], {}),
    "instance-nested-too-deeply": ("instance", b"[" * 100000 + b"]" * 100000, [], {}),
    "instance-infinite-vertex-count": ("instance", _set(["num_vertices"], float("inf")), [], {}),
    "instance-null-grades": ("instance", _set(["grades"], None), [], {}),
    "solution-short-tree-edge": ("solution", _set(["tree_edges"], [[1]]), [], {}),
    "solution-tree-edges-not-a-list": ("solution", _set(["tree_edges"], 3), [], {}),
    "solution-infinite-cost": ("solution", _set(["cost"], "Infinity"), [], {}),
    "solution-negative-cost": ("solution", _set(["cost"], -1), [], {}),
    "solution-zero-denominator": ("solution", _set(["iterations", 0, "gamma"], "1/0"), [], {}),
    "solution-grade-above-top": (
        "solution", _set(["assignment", 0], fig3_instance().grades + 1), [], {}
    ),
    "solution-short-assignment": ("solution", _set(["assignment"], [0]), [], {}),
    "solution-directory": ("solution", DIRECTORY, [], {}),
    "solution-not-utf8": ("solution", b"\xff\xfe", [], {}),
    "export-short-assignment": (
        "solution", _set(["assignment"], [0]), ["export", "--dot", "--solution"], {}
    ),
    "gen-seed-env": (None, None, ["gen", "--random"], {"VGSST_SEED": "abc"}),
    "bench-seed-env": (None, None, ["bench", "--count", "1"], {"VGSST_SEED": "abc"}),
    "solve-zero-jobs": (None, None, ["solve", "--jobs", "0"], {}),
    "solution-merge-root-out-of-range": ("solution", _set(["iterations", -1, "root"], 999), [], {}),
    "bench-negative-count": (None, None, ["bench", "--count", "-1"], {}),
    "gen-negative-eps": (None, None, ["gen", "--builtin", "fig2", "--eps", "-2"], {}),
    "gen-nan-terminal-fraction": (
        None, None, ["gen", "--random", "--terminal-fraction", "nan"], {}
    ),
    "gen-huge-terminal-fraction": (
        None, None, ["gen", "--random", "--terminal-fraction", "1e308"], {}
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(capsys, fig3_file, tmp_path, monkeypatch, case):
    target, edit, argv, env = MALFORMED[case]
    sol_path = tmp_path / "sol.json"
    run(capsys, "solve", "--algorithm", "greedy", fig3_file, "-o", str(sol_path))
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    if target == "instance":
        bad = tmp_path / "bad.json"
        bad.write_text(Path(fig3_file).read_text())
        _corrupt(bad, edit)
        if argv == ["verify"]:
            argv = ["verify", str(bad), str(sol_path)]
        else:
            argv = ["solve", str(bad), "-o", str(tmp_path / "out.json")]
    elif target == "solution":
        _corrupt(sol_path, edit)
        argv = argv or ["verify"]
        argv = argv[:1] + [fig3_file] + argv[1:] + [str(sol_path)]
    elif argv[0] == "solve":
        argv = argv + [fig3_file]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["instance-cost-with-3000-zeros", "instance-cost-not-a-number"])
def test_long_cost_gives_a_short_error_line(capsys, tmp_path, case):
    bad = tmp_path / "bad.json"
    _corrupt(bad, MALFORMED[case][1])
    code, _, err = run(capsys, "solve", str(bad), "-o", str(tmp_path / "out.json"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 120


def test_nested_value_gives_a_short_error_line(capsys, fig3_file, tmp_path):
    sol = tmp_path / "sol.json"
    run(capsys, "solve", fig3_file, "-o", str(sol))
    nested = 0
    for _ in range(800):
        nested = [nested]
    _corrupt(sol, _set(["assignment", 0], nested))
    code, _, err = run(capsys, "verify", fig3_file, str(sol))
    assert code == 2
    assert err == "error: assignment entry must be an integer, got a JSON list of length 1\n"


def test_jobs_are_clamped(capsys, tmp_path, monkeypatch):
    class Recorder:
        """Stands in for the process pool; runs the tasks in this process."""

        workers = []

        def __init__(self, max_workers):
            Recorder.workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(vgsst.cli.os, "cpu_count", lambda: 8)
    paths = []
    for k in range(3):
        p = str(tmp_path / f"r{k}.json")
        run(capsys, "gen", "--random", "--n", "7", "--seed", str(40 + k), "-o", p)
        paths.append(p)
    assert run(capsys, "solve", "--jobs", "64", *paths)[0] == 0
    assert run(capsys, "solve", "--jobs", "2", *paths)[0] == 0
    assert run(capsys, "solve", "--jobs", "64", paths[0])[0] == 0
    monkeypatch.setattr(vgsst.cli.os, "cpu_count", lambda: None)
    assert run(capsys, "solve", "--jobs", "64", *paths)[0] == 0
    # Bounded by the task count, then by --jobs; one worker runs in-process.
    assert Recorder.workers == [3, 2]


def _fresh_python(*argv):
    """Run ``python *argv`` in a fresh interpreter that imports this checkout's vgsst."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, check=True
    )


# Imports every module of the package, then every export; prints whether
# numpy came along, then the vgsst modules that loaded, one per line.
_LOAD_EVERYTHING = """
import importlib, pkgutil, sys, vgsst
for info in pkgutil.iter_modules(vgsst.__path__):
    importlib.import_module(f"vgsst.{info.name}")
from vgsst import *
print("numpy" in sys.modules)
for name in sorted(sys.modules):
    if name.startswith("vgsst."):
        print(name)
"""


def test_import_pulls_in_no_numpy():
    numpy, *loaded = _fresh_python("-c", _LOAD_EVERYTHING).stdout.split()
    assert {f"vgsst.{m}" for m in (*vgsst._EXPORTS, "cli")} <= set(loaded)
    assert numpy == "False"


# Runs the CLI as ``python -m vgsst.cli`` does, then prints the vgsst
# submodules and concurrent.futures modules it loaded, one per line.
_LOADED_BY_CLI = """
import runpy, sys
sys.argv = ["vgsst", *sys.argv[1:]]
try:
    runpy.run_module("vgsst.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
for name in sorted(sys.modules):
    if name.startswith(("vgsst.", "concurrent")):
        print(name)
"""


def test_import_loads_no_submodule():
    code = "import sys, vgsst; print([m for m in sys.modules if m.startswith('vgsst.')])"
    assert _fresh_python("-c", code).stdout.strip() == "[]"


def test_subcommands_load_only_what_they_run(fig3_file, tmp_path):
    sol = str(tmp_path / "s.json")
    solve = _fresh_python("-c", _LOADED_BY_CLI, "solve", fig3_file, "-o", sol).stdout.split()
    assert "vgsst.greedy" in solve
    for name in ("vgsst.oracle", "vgsst.reductions", "vgsst.heuristics", "vgsst.generators",
                 "concurrent.futures"):
        assert name not in solve
    verify = _fresh_python("-c", _LOADED_BY_CLI, "verify", fig3_file, sol).stdout.split()
    assert "vgsst.oracle" in verify
    for name in ("vgsst.reductions", "vgsst.greedy", "vgsst.heuristics", "vgsst.generators",
                 "concurrent.futures"):
        assert name not in verify


# Prints a line naming which of dataclasses and inspect are loaded.
_HEAVY_LOADED = """
import sys
print("loaded:", *sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""

# Runs the CLI as ``python -m vgsst.cli`` does, then prints that line last.
_HEAVY_BY_CLI = """
import runpy, sys
sys.argv = ["vgsst", *sys.argv[1:]]
try:
    runpy.run_module("vgsst.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
""" + _HEAVY_LOADED


def test_cli_calls_load_no_dataclasses_or_inspect(fig3_file, tmp_path):
    # Some interpreters import inspect at start-up, so a CLI call is
    # compared with a bare ``python -c`` run with the same flags and
    # environment, and may add neither module to what that loads.
    bare = set(_fresh_python("-c", _HEAVY_LOADED).stdout.split()[1:])
    sol = str(tmp_path / "s.json")
    for argv in (["solve", fig3_file, "-o", sol], ["verify", fig3_file, sol]):
        last = _fresh_python("-c", _HEAVY_BY_CLI, *argv).stdout.splitlines()[-1].split()
        assert last[0] == "loaded:", argv
        assert set(last[1:]) - bare == set(), argv


def test_lazy_exports_resolve_to_their_modules():
    for name in vgsst.__all__:
        owner = importlib.import_module(f"vgsst.{vgsst._MODULE_OF[name]}")
        assert getattr(vgsst, name) is getattr(owner, name), name
    assert set(vgsst.__all__) <= set(dir(vgsst))
    star = {}
    exec("from vgsst import *", star)
    assert set(vgsst.__all__) <= set(star)
    assert vgsst.heuristics.VstContractError is vgsst.VstContractError
    with pytest.raises(AttributeError):
        vgsst.no_such_name


def test_lazy_exports_keep_no_patched_object(monkeypatch):
    def patched(*args, **kwargs):
        raise AssertionError("not called")

    with monkeypatch.context() as m:
        m.setattr(vgsst.oracle, "brute_force_optimum", patched)
        assert vgsst.brute_force_optimum is patched
    # The package reads through to the module, so undoing the patch there
    # undoes it in the package too.
    assert vgsst.brute_force_optimum is vgsst.oracle.brute_force_optimum is not patched

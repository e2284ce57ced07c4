"""Command-line surface: subcommands, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import vgsst.cli
from vgsst import Cost, Instance, fig3_instance, instance_to_json, random_instance, read_solution
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
    oracle = vgsst.cli.brute_force_optimum

    def counting(*args, **kwargs):
        calls.append(args)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(vgsst.cli, "brute_force_optimum", counting)
    code, out, _ = run(
        capsys,
        "solve", "--algorithm", "exact", fig3_file,
        "-o", str(tmp_path / "s.json"), "--ratio",
    )
    assert code == 0
    assert "ratio 1.0" in out
    assert len(calls) == 1


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
    assert open(a).read() == open(b).read()


def test_gen_seed_env_override(capsys, tmp_path, monkeypatch):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(capsys, "gen", "--random", "--n", "8", "--seed", "1", "-o", a)
    monkeypatch.setenv("VGSST_SEED", "1")
    run(capsys, "gen", "--random", "--n", "8", "--seed", "999", "-o", b)
    assert open(a).read() == open(b).read()


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
    assert "FAIL" in out
    assert "witness pair" in out or "cost mismatch" in out


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


# (file to corrupt, edit, extra argv, environment). A corrupted solution is
# checked by ``verify`` unless argv names another subcommand and its flags.
MALFORMED = {
    "instance-edges-not-a-list": ("instance", _set(["edges"], 5), [], {}),
    "instance-terminals-not-a-list": ("instance", _set(["terminals"], {"vertex": 0}), [], {}),
    "instance-ladder-not-a-list": ("instance", _set(["costs", 1], "12"), [], {}),
    "instance-infinite-cost-string": ("instance", _set(["costs", 1, 0], "Infinity"), [], {}),
    "instance-infinite-cost-literal": ("instance", _set(["costs", 1, 0], float("inf")), [], {}),
    "instance-nan-cost": ("instance", _set(["costs", 1, 0], "NaN"), [], {}),
    "instance-snan-cost": ("instance", _set(["costs", 1, 0], "sNaN"), [], {}),
    "solution-short-tree-edge": ("solution", _set(["tree_edges"], [[1]]), [], {}),
    "solution-tree-edges-not-a-list": ("solution", _set(["tree_edges"], 3), [], {}),
    "solution-infinite-cost": ("solution", _set(["cost"], "Infinity"), [], {}),
    "solution-negative-cost": ("solution", _set(["cost"], -1), [], {}),
    "solution-zero-denominator": ("solution", _set(["iterations", 0, "gamma"], "1/0"), [], {}),
    "solution-grade-above-top": (
        "solution", _set(["assignment", 0], fig3_instance().grades + 1), [], {}
    ),
    "solution-short-assignment": ("solution", _set(["assignment"], [0]), [], {}),
    "export-short-assignment": (
        "solution", _set(["assignment"], [0]), ["export", "--dot", "--solution"], {}
    ),
    "gen-seed-env": (None, None, ["gen", "--random"], {"VGSST_SEED": "abc"}),
    "bench-seed-env": (None, None, ["bench", "--count", "1"], {"VGSST_SEED": "abc"}),
    "solve-zero-jobs": (None, None, ["solve", "--jobs", "0"], {}),
    "gen-negative-eps": (None, None, ["gen", "--builtin", "fig2", "--eps", "-2"], {}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(capsys, fig3_file, tmp_path, monkeypatch, case):
    target, edit, argv, env = MALFORMED[case]
    sol_path = tmp_path / "sol.json"
    run(capsys, "solve", "--algorithm", "greedy", fig3_file, "-o", str(sol_path))
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    if target == "instance":
        doc = json.loads(open(fig3_file).read())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        argv = ["solve", str(bad), "-o", str(tmp_path / "out.json")]
    elif target == "solution":
        doc = json.loads(sol_path.read_text())
        edit(doc)
        sol_path.write_text(json.dumps(doc))
        argv = argv or ["verify"]
        argv = argv[:1] + [fig3_file] + argv[1:] + [str(sol_path)]
    elif argv[0] == "solve":
        argv = argv + [fig3_file]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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

    monkeypatch.setattr(vgsst.cli, "ProcessPoolExecutor", Recorder)
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


def test_import_pulls_in_no_numpy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, vgsst; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "False"

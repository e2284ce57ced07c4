"""Round-trip the file formats and drive the command-line interface.

Instance and solution files are strict JSON (unknown fields rejected,
costs parsed exactly on a 10^-6 grid). The CLI wraps the library:
generate, solve, verify, export. Everything here runs in a temp
directory, removed at the end, and is deterministic.

Run: python demos/05_files_and_cli.py
"""

import os
import tempfile

from vgsst import instance_from_json, read_solution
from vgsst.cli import main


def cli(*argv):
    print("\n$ vgsst " + " ".join(argv))
    code = main(list(argv))
    print(f"(exit {code})")


def demo():
    cli("gen", "--builtin", "fig3", "-o", "fig3.json")
    with open("fig3.json", encoding="utf-8") as fh:
        instance = instance_from_json(fh.read())
    print("parsed instance:", instance.num_vertices, "vertices,", instance.grades, "grades")

    cli("solve", "--algorithm", "greedy", "fig3.json", "-o", "fig3.sol.json", "--ratio")
    report = read_solution("fig3.sol.json")
    print("solution file cost:", report.total_cost)
    print("merge telemetry:", [(str(r.gamma), str(r.incurred_cost)) for r in report.iterations])

    cli("verify", "fig3.json", "fig3.sol.json")

    cli("gen", "--random", "--n", "8", "--levels", "2", "--seed", "11", "-o", "rand.json")
    cli("solve", "--algorithm", "topdown", "rand.json")
    cli("verify", "rand.json", "rand.sol.json")

    cli("export", "--lp", "fig3.json", "-o", "fig3.lp")
    with open("fig3.lp", encoding="utf-8") as fh:
        print("LP header:", fh.readline().strip())

    cli("export", "--dot", "fig3.json", "--solution", "fig3.sol.json", "-o", "fig3.dot")
    print("DOT preview:")
    with open("fig3.dot", encoding="utf-8") as fh:
        for line in fh.read().splitlines()[:4]:
            print(" ", line)


home = os.getcwd()
with tempfile.TemporaryDirectory(prefix="gsst-demo-") as workdir:
    os.chdir(workdir)
    print("working in", workdir)
    try:
        demo()
    finally:
        os.chdir(home)

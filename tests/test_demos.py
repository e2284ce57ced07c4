"""Every demo script runs cleanly, warning-free, and leaves no files behind."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs_and_cleans_up(demo, tmp_path):
    # Run from an empty directory that is also the temp dir, so any file the
    # demo leaves in either place shows up. Warnings are errors and stderr
    # must stay empty, so an unclosed file's ResourceWarning fails the test.
    src = os.path.join(ROOT, "src")
    env = dict(
        os.environ,
        TMPDIR=str(tmp_path),
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", demo], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert os.listdir(tmp_path) == []

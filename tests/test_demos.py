"""The demo scripts run as a reader runs them: from a checkout, with `src` on
the import path, each as its own process."""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, line", [
    ("permutation_significance.py", "exact p over 252 partitions: 0.888889"),
    ("style_analysis.py", "ingested 50 songs (0 rejects)"),
    ("train_and_weat.py", "trained 40 vectors of dim 32"),
])
def test_demo_runs(script, line):
    src = os.path.join(REPO_ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join([src, path])}
    done = subprocess.run(
        [sys.executable, os.path.join("demos", script)], cwd=REPO_ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.splitlines()

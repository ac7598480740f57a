"""The demo scripts, the README's quick start and the throughput tools run as
a reader runs them: from a checkout, with `src` on the import path, each as
its own process."""

import os
import re
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(*args):
    src = os.path.join(REPO_ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join([src, path])}
    done = subprocess.run([sys.executable, *args], cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("script, line", [
    ("permutation_significance.py", "exact p over 252 partitions: 0.888889"),
    ("style_analysis.py", "ingested 50 songs (0 rejects)"),
    ("train_and_weat.py", "trained 40 vectors of dim 32"),
])
def test_demo_runs(script, line):
    assert line in run_script(os.path.join("demos", script))


def test_readme_quick_start_runs():
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        block = re.search(r"## Library quick start\n\n```python\n(.*?)```", fh.read(), re.S).group(1)
    assert run_script("-c", block + "print(len(means.year), table.dim)\n") == ["12 32"]


# each result line says how BLAS was threaded: the OPENBLAS_NUM_THREADS its process saw
BLAS_THREADS = re.escape(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))


def test_sgns_throughput_tool_runs_at_a_tiny_size():
    lines = run_script(os.path.join("tools", "sgns_throughput.py"), "--songs", "12", "--dims", "4,8")
    pattern = rf"(\w+) songs=12 tokens=\d+ dim=(\d+) seconds=[\d.]+ tokens_per_s=\d+ blas_threads={BLAS_THREADS}"
    runs = [re.fullmatch(pattern, line) for line in lines]
    assert [m and m.groups() for m in runs] == [("criterion7", "4"), ("criterion7", "8"), ("zipf", "4"), ("zipf", "8")]


def test_weat_throughput_tool_runs_at_a_tiny_size():
    lines = run_script(os.path.join("tools", "weat_throughput.py"), "--dims", "3,5", "--repeats", "1",
                       "--mc-samples", "20")
    pattern = rf"dim=(\d+) words=\d+ tests=8 samples=20 seconds=[\d.]+ minflt=\d+ blas_threads={BLAS_THREADS}"
    runs = [re.fullmatch(pattern, line) for line in lines]
    assert [m and m.group(1) for m in runs] == ["3", "5"]

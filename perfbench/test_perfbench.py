"""Tests of the benchmark itself: its inputs, its checks and its trace arithmetic.

    python3 -m pytest perfbench -q
"""

import csv
import json
import os
import subprocess
import sys
import time

import pytest

import checks
import gen
import run
import tracing


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize(
    "make",
    [
        lambda seed, out: gen.generate_style(seed, out, n_songs=150),
        lambda seed, out: gen.generate_train(seed, out, run.BATTERY, n_songs=40),
        lambda seed, out: gen.generate_vectors(seed, out, run.BATTERY, rows=500, dim=16),
    ],
    ids=["style", "train", "vectors"],
)
def test_generator_is_a_function_of_the_seed(tmp_path, make):
    first = make(7, str(tmp_path / "a"))
    again = make(7, str(tmp_path / "b"))
    other = make(8, str(tmp_path / "c"))
    assert first == again
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert first != other


def test_corrupt_per_song_cell_is_a_failed_operation(tmp_path):
    input_dir = str(tmp_path / "input")
    manifest = gen.generate_style(3, input_dir, n_songs=60)
    run_dir = str(tmp_path / "run")
    os.makedirs(run_dir)
    workload = run.Workload("style", 3, input_dir, manifest, run_dir)
    tally = checks.Tally()
    run.run_pipeline(workload, 0, False, tally, deadline=time.monotonic() + 120)
    assert tally.failures == []

    per_song = workload.outputs(os.path.join(run_dir, "rep0"))["per_song"]
    rows = checks.read_csv(per_song)
    rows[5][7] = f"{float(rows[5][7]) + 1e-6:.9f}"  # fk_grade of one song
    with open(per_song, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    tally = checks.Tally()
    workload.check(tally, os.path.join(run_dir, "rep0"))
    assert tally.failures == ["per_song"]
    assert tally.failed / tally.attempted > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 4.0, 0],  # overlaps a: the union [1, 4] counts once
        ["c", 6.0, 7.0, 0],
        ["d", 6.5, 6.8, 3],
        ["c", 8.0, 12.0, 0],  # runs past its parent: only [8, 10] is covered
    ]
    summary = tracing.summarize(spans)
    assert summary["root"]["calls"] == 1
    assert summary["root"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0 - 2.0)
    assert summary["c"]["calls"] == 2
    assert summary["c"]["s"] == pytest.approx(5.0)
    assert summary["c"]["self_s"] == pytest.approx(5.0 - 0.3)
    assert summary["d"]["self_s"] == pytest.approx(0.3)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tracing.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert tracing.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
    assert tracing.tail([1.0] * 19) == (0.0, 0.0)


def test_traced_launch_records_cli_spans(tmp_path):
    trace = tmp_path / "trace.json"
    subprocess.run([sys.executable, run.LAUNCH, "--trace", str(trace), "cli", "version"],
                   check=True, capture_output=True, cwd=run.ROOT)
    data = json.loads(trace.read_text())
    names = [span[0] for span in data["spans"]]
    assert names[0] == "cli.main" and "cli.build_parser" in names
    assert data["import_s"] > 0


def test_recorder_sums_measured_results():
    recorder = tracing.Recorder(measure={"m.rows": len, "m.odd": len})
    rows = recorder.wrap("m.rows", lambda n: list(range(n)))
    odd = recorder.wrap("m.odd", lambda: 7)  # len(7) fails: the call still returns
    assert rows(3) == [0, 1, 2] and rows(4) == [0, 1, 2, 3]
    assert odd() == 7
    assert recorder.sizes == {"m.rows": 7}

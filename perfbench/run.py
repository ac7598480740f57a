"""The lyricstats benchmark: run the CLI the way a user does and time each command.

    python3 perfbench/run.py --workload {style,train,vectors} --seed N --seconds S --trace {0,1}

Each step runs as a fresh process, one at a time, through perfbench/launch.py,
which imports the package from ./src. A run generates the seeded inputs (once
per workload and seed), then repeats the workload's pipeline until S seconds
have passed, checking every output of every repetition. Before each step it
times one `lyricstats version` process, so the setup_s samples spread over the
whole run as the steps do. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The metric names and units are those BENCHMARK.json lists. With --trace 0 the
metrics are its end-to-end ones (medians over the repetitions). With --trace 1
repetitions alternate between untraced and traced runs, and the metrics are its
per-layer ones from the traced runs (medians), plus trace_overhead_frac, the
traced pipeline time over the untraced one, less 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import gen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SRC_PACKAGE = os.path.join(ROOT, "src", "lyricstats")
BATTERY = os.path.join(SRC_PACKAGE, "data", "weat_tests.json")
STOPWORDS = os.path.join(SRC_PACKAGE, "data", "stopwords.txt")
ORACLE = os.path.join(ROOT, "tools", "recompute_style.py")
LAUNCH = os.path.join(HERE, "launch.py")
sys.path.insert(0, os.path.dirname(SRC_PACKAGE))  # the checks read the stopword list with the library's loader

MIN_REPS = 3  # per mode: untraced, and traced when --trace 1
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
STEP_TIMEOUT_S = 120
TOP_K = 100  # the style command's default --top-k
EPOCHS = 1
LEARNING_RATE = 0.1  # with one epoch, the planted effects read d > 1.8

class StepTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise StepTimeout


class Workload:
    """The steps of one workload, the files they write, and the checks on them."""

    def __init__(self, name: str, seed: int, input_dir: str, manifest: dict, run_dir: str):
        self.name, self.seed, self.input_dir, self.manifest, self.run_dir = name, seed, input_dir, manifest, run_dir
        with open(BATTERY, encoding="utf-8") as fh:
            self.battery = json.load(fh)
        self.expected: dict = {}
        if name == "style":
            oracle_dir = os.path.join(run_dir, "oracle")
            subprocess.run([sys.executable, ORACLE, os.path.join(input_dir, "oracle.csv"), oracle_dir],
                           check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
            from lyricstats.style import load_wordlist

            top_rows, rank_rows = checks.expected_style_tables(
                input_dir, manifest, load_wordlist(STOPWORDS), TOP_K)
            self.expected = {"per_song": os.path.join(oracle_dir, "per_song.csv"),
                             "aggregate": os.path.join(oracle_dir, "aggregate.csv"),
                             "top_words": top_rows, "rank_series": rank_rows}
        elif name == "vectors":
            with open(os.path.join(input_dir, "words.json"), encoding="utf-8") as fh:
                self.table = (json.load(fh), np.load(os.path.join(input_dir, "vectors.npy")))

    def steps(self, out: str) -> list[tuple[str, list[str]]]:
        songs = os.path.join(self.input_dir, "songs.jsonl")
        cache = os.path.join(out, "build", "corpus.cache")
        vectors = os.path.join(out, "vectors", "vectors.txt")
        weat = ["cli", "weat", "--vectors", vectors, "--out", os.path.join(out, "weat"), "--seed", str(self.seed)]
        if self.name == "style":
            return [
                ("ingest", ["cli", "ingest", "--input", songs, "--out", os.path.join(out, "build")]),
                ("style", ["cli", "style", "--cache", cache, "--out", os.path.join(out, "style"),
                           "--words", ",".join(self.manifest["rank_words"])]),
            ]
        if self.name == "train":
            return [
                ("ingest", ["cli", "ingest", "--input", songs, "--out", os.path.join(out, "build")]),
                ("train", ["cli", "train", "--cache", cache, "--out", vectors, "--seed", str(self.seed),
                           "--deterministic", "--epochs", str(EPOCHS), "--dim", str(self.manifest["dim"]),
                           "--learning-rate", str(LEARNING_RATE)]),
                ("weat", weat),
            ]
        os.makedirs(os.path.dirname(vectors), exist_ok=True)
        return [
            ("save_vectors", ["save-vectors", os.path.join(self.input_dir, "words.json"),
                              os.path.join(self.input_dir, "vectors.npy"), vectors]),
            ("weat", weat),
        ]

    def outputs(self, out: str) -> dict[str, str]:
        return {
            "rejects": os.path.join(out, "build", "rejects.jsonl"),
            "cache": os.path.join(out, "build", "corpus.cache"),
            "per_song": os.path.join(out, "style", "per_song.csv"),
            "aggregate": os.path.join(out, "style", "aggregate.csv"),
            "top_words": os.path.join(out, "style", "top_words.csv"),
            "rank_series": os.path.join(out, "style", "rank_series.csv"),
            "vectors": os.path.join(out, "vectors", "vectors.txt"),
            "weat": os.path.join(out, "weat", "weat_results.csv"),
        }

    def check(self, tally: checks.Tally, out: str) -> None:
        files = self.outputs(out)
        if self.name == "style":
            checks.check_style(tally, files, self.manifest, self.expected)
        elif self.name == "train":
            checks.check_train(tally, files, self.manifest, self.battery)
        else:
            checks.check_vectors(tally, files, self.table, self.battery)

    def items(self) -> dict[str, tuple[float, str]]:
        """Per step: the amount of work it does, and its unit, for the throughput lines."""
        m = self.manifest
        if self.name == "style":
            return {"ingest": (m["songs"], "songs"), "style": (m["songs"], "songs")}
        if self.name == "train":
            return {"ingest": (m["songs"], "songs"), "train": (EPOCHS * m["in_vocab_tokens"], "tokens")}
        return {"save_vectors": (m["rows"], "rows")}


def run_step(args: list[str], log_path: str, deadline: float, trace_path: str | None = None) -> dict:
    """One fresh process; its wall time, exit code and peak RSS (from wait4)."""
    cmd = [sys.executable, LAUNCH, *(["--trace", trace_path] if trace_path else []), *args]
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(max(1, min(int(deadline - time.monotonic()), STEP_TIMEOUT_S)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except StepTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rc": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def run_pipeline(workload: Workload, rep: int, traced: bool, tally: checks.Tally, deadline: float) -> dict:
    out = os.path.join(workload.run_dir, f"rep{rep}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    steps, setup = {}, []
    for name, args in workload.steps(out):
        version = run_step(["cli", "version"], os.path.join(out, f"{name}.version.log"), deadline)
        tally.record("command:version", version["rc"] == 0)
        setup.append(version["wall_s"])
        trace = os.path.join(out, f"{name}.trace.json") if traced else None
        result = run_step(args, os.path.join(out, f"{name}.log"), deadline, trace)
        result["trace"] = trace
        steps[name] = result
        if not tally.record(f"command:{name}", result["rc"] == 0):
            with open(os.path.join(out, f"{name}.log"), encoding="utf-8", errors="replace") as fh:
                print(f"step {name} exited {result['rc']}:\n{fh.read()[-2000:]}", file=sys.stderr)
    workload.check(tally, out)
    files = workload.outputs(out)
    sizes = {k: os.path.getsize(p) if os.path.exists(p) else 0 for k, p in files.items()}
    return {"steps": steps, "setup": setup, "sizes": sizes, "traced": traced}


def layer_metrics(rep: dict, workload: Workload, names) -> tuple[dict[str, float], dict[str, tuple[float, int]]]:
    """The per-layer metrics among `names` from the traces of one traced
    repetition, and per span the tail percentile used and its sample count."""
    spans: dict[str, dict] = {}
    hits = misses = 0
    imports, sizes = {}, {}
    for name, step in rep["steps"].items():
        try:
            with open(step["trace"], encoding="utf-8") as fh:
                trace = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        imports[name] = trace["import_s"]
        hits += trace["syllable_cache"]["hits"]
        misses += trace["syllable_cache"]["misses"]
        for span, n in trace["sizes"].items():
            sizes[span] = sizes.get(span, 0) + n
        for span, entry in tracing.summarize(trace["spans"]).items():
            merged = spans.setdefault(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            for key in ("calls", "s", "self_s", "durations"):
                merged[key] += entry[key]

    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
    train_s = spans.get("embeddings.train_sgns", empty)["s"]
    values = {
        "corpus.save_cache.bytes": float(rep["sizes"]["cache"]) if "ingest" in rep["steps"] else 0.0,
        "style.count_syllables.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "embeddings.train_sgns.tokens_per_s":
            EPOCHS * workload.manifest["in_vocab_tokens"] / train_s if train_s else 0.0,
        "embeddings.save_vectors.bytes": float(rep["sizes"]["vectors"]),
        "embeddings.load_vectors.rows": float(sizes.get("embeddings.load_vectors", 0)),
        **{f"cli.cmd_{c}.import_s": imports.get(c, 0.0) for c in ("ingest", "style", "train", "weat")},
    }
    tails = {}
    for metric in names:
        if metric in values:
            continue
        span, _, field = metric.rpartition(".")
        entry = spans.get(span, empty)
        if field in ("calls", "s", "self_s"):
            values[metric] = float(entry[field])
        elif field == "p50_us":
            values[metric] = 1e6 * tracing.percentile(sorted(entry["durations"]), 50) if entry["durations"] else 0.0
        elif field == "tail_us":
            pct, value = tracing.tail(entry["durations"])
            values[metric] = 1e6 * value
            tails[span] = (pct, entry["calls"])
    return values, tails


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["style", "train", "vectors"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    for path in (os.path.join(SRC_PACKAGE, "cli.py"), BATTERY, STOPWORDS, ORACLE, BENCHMARK):
        if not os.path.isfile(path):
            print(f"error: {path} not found; run from a checkout of the lyricstats repository", file=sys.stderr)
            return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}

    input_dir, manifest = gen.ensure_inputs(args.workload, args.seed, os.path.join(WORK, "inputs"), BATTERY)
    run_dir = os.path.join(WORK, "run")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    workload = Workload(args.workload, args.seed, input_dir, manifest, run_dir)
    tally = checks.Tally()

    reps: list[dict] = []
    started = time.monotonic()
    modes = [False, True] if args.trace else [False]
    while True:
        done = {m: sum(1 for r in reps if r["traced"] == m) for m in modes}
        if min(done.values()) >= MIN_REPS and time.monotonic() - started >= args.seconds:
            break
        if reps and time.monotonic() + 2 * (time.monotonic() - started) / len(reps) > deadline:
            break
        traced = modes[len(reps) % len(modes)]
        reps.append(run_pipeline(workload, len(reps), traced, tally, deadline))

    plain = [r for r in reps if not r["traced"]]
    pipeline = [sum(s["wall_s"] for s in r["steps"].values()) for r in plain]
    setup = [s for r in plain for s in r["setup"]]
    print(f"env cores={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
          f"workload={args.workload} seed={args.seed} reps={len(plain)} traced_reps={len(reps) - len(plain)}")
    print("reps pipeline_s " + " ".join(f"{p:.4f}" for p in pipeline))
    print(f"setup_s samples={len(setup)} min={min(setup):.4f} max={max(setup):.4f}")
    items = workload.items()
    for name in plain[0]["steps"]:
        walls = [r["steps"][name]["wall_s"] for r in plain]
        rss = max(r["steps"][name]["maxrss_kb"] for r in plain) / 1024
        line = f"command {name} wall_s={median(walls):.4f} peak_rss_mb={rss:.1f}"
        if name in items:
            amount, unit = items[name]
            line += f" {name}_{unit}_per_s={amount / median(walls):.1f}"
        print(line)
    for failure in tally.failures:
        print(f"failed {failure}", file=sys.stderr)
    print(f"failed_frac {tally.failed / tally.attempted:.6f} ({tally.failed}/{tally.attempted})")

    if args.trace:
        per_rep = [layer_metrics(r, workload, units) for r in reps if r["traced"]]
        traced_pipeline = [sum(s["wall_s"] for s in r["steps"].values()) for r in reps if r["traced"]]
        values = {m: median([rep[m] for rep, _ in per_rep]) for m in per_rep[0][0] if m in units}
        values["trace_overhead_frac"] = median(traced_pipeline) / median(pipeline) - 1.0
        for span, (pct, calls) in per_rep[0][1].items():
            if pct:
                print(f"tail {span}.tail_us is p{pct:g} of {calls} samples")
    else:
        values = {
            "setup_s": median(setup),
            "pipeline_s": median(pipeline),
            "peak_rss_mb": median([max(s["maxrss_kb"] for s in r["steps"].values()) / 1024 for r in plain]),
        }
    missing = [name for name in units if name not in values]
    if missing:
        print(f"error: run.py does not compute {', '.join(missing)}, named in BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

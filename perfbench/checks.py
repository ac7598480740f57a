"""Output checks for each workload, and the expected tables they compare against.

Every check is one operation in the result's `attempted` count; a check that
does not hold is one `failed` operation.
"""

from __future__ import annotations

import csv
import json
import os
from collections import Counter

import numpy as np

STYLE_TOL = 1e-9  # the style oracle's tolerance, as in the acceptance suite
WEAT_TOL = 1e-6
SAVE_TOL = 5e-7 + 1e-12  # values are written with six decimals
TRAIN_MIN_EFFECT = 1.0  # the planted effects read d > 1.8 at seeds 1 and 2


class Tally:
    """Counts operations and names the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def read_csv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def csv_matches(got_path: str, want_path: str, tol: float) -> bool:
    """Same shape; numeric cells within `tol`, all other cells equal."""
    try:
        got = read_csv(got_path)
    except OSError:
        return False
    want = read_csv(want_path)
    if len(got) != len(want):
        return False
    for grow, wrow in zip(got, want):
        if len(grow) != len(wrow):
            return False
        for g, w in zip(grow, wrow):
            try:
                if abs(float(g) - float(w)) > tol:
                    return False
            except ValueError:
                if g != w:
                    return False
    return True


def count_lines(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())
    except OSError:
        return -1


def expected_style_tables(input_dir: str, manifest: dict, stopwords: frozenset[str], top_k: int):
    """top_words.csv and rank_series.csv rows, from the generator's own token counts
    (all cohorts, every year)."""
    cell, word, count = np.load(os.path.join(input_dir, "counts.npy"))
    with open(os.path.join(input_dir, "counts_index.json"), encoding="utf-8") as fh:
        index = json.load(fh)
    vocab, cells = index["vocab"], index["cells"]
    per_year: dict[int, Counter] = {}
    for c, w, n in zip(cell.tolist(), word.tolist(), count.tolist()):
        per_year.setdefault(cells[c][0], Counter())[vocab[w]] += n
    top_rows = [["year", "rank", "word"]]
    ranks_by_year = {}
    for year in sorted(per_year):
        ordered = sorted(per_year[year].items(), key=lambda kv: (-kv[1], kv[0]))
        kept = [w for w, _ in ordered if w not in stopwords][:top_k]
        top_rows += [[str(year), str(r), w] for r, w in enumerate(kept, start=1)]
        ranks_by_year[year] = {w: r for r, (w, _) in enumerate(ordered, start=1)}
    rank_rows = [["word", "year", "rank"]]
    for w in manifest["rank_words"]:
        rank_rows += [[w, str(y), str(ranks[w])] for y, ranks in sorted(ranks_by_year.items()) if w in ranks]
    return top_rows, rank_rows


def check_style(tally: Tally, out: dict, manifest: dict, expected: dict) -> None:
    tally.record("rejects", count_lines(out["rejects"]) == len(manifest["dirty_rows"]))
    tally.record("per_song", csv_matches(out["per_song"], expected["per_song"], STYLE_TOL))
    tally.record("aggregate", csv_matches(out["aggregate"], expected["aggregate"], STYLE_TOL))
    for name in ("top_words", "rank_series"):
        try:
            ok = read_csv(out[name]) == expected[name]
        except OSError:
            ok = False
        tally.record(name, ok)


def read_vectors(path: str) -> tuple[list[str], np.ndarray]:
    """Words and values of a text vector file written with a "V D" header."""
    with open(path, encoding="utf-8") as fh:
        rows, dim = (int(x) for x in fh.readline().split())
        lines = fh.read().splitlines()
    words = [line.split(" ", 1)[0] for line in lines]
    values = np.array(" ".join(line.split(" ", 1)[1] for line in lines).split(), dtype=float)
    if len(words) != rows or values.size != rows * dim:
        raise ValueError(f"{path}: header says {rows} x {dim}")
    return words, values.reshape(rows, dim)


def _balanced(test: dict) -> tuple[list, list, list, list]:
    n = min(len(test["targets_x"]), len(test["targets_y"]))
    return test["targets_x"][:n], test["targets_y"][:n], test["attributes_a"], test["attributes_b"]


def weat_reference(test: dict, rows: dict[str, np.ndarray]) -> tuple[float, float]:
    """(effect size, test statistic) of one battery test, every word in vocabulary."""

    def unit(words):
        mat = np.vstack([rows[w] for w in words])
        return mat / np.linalg.norm(mat, axis=1, keepdims=True)

    x, y, a, b = (unit(ws) for ws in _balanced(test))
    sx = (x @ a.T).mean(axis=1) - (x @ b.T).mean(axis=1)
    sy = (y @ a.T).mean(axis=1) - (y @ b.T).mean(axis=1)
    return float((sx.mean() - sy.mean()) / np.concatenate([sx, sy]).std()), float(sx.sum() - sy.sum())


def weat_rows(tally: Tally, path: str, battery: list[dict]) -> list[dict]:
    """The results CSV as dicts; each test's row is one operation that fails when
    it is missing or carries an error."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = {r["test_name"]: r for r in csv.DictReader(fh)}
    except OSError:
        rows = {}
    out = []
    for test in battery:
        row = rows.get(test["name"])
        if tally.record(f"weat:{test['name']}", row is not None and not row["error"]):
            out.append(row)
        else:
            out.append(None)
    return out


def _full_coverage(row: dict, test: dict) -> bool:
    x, y, a, b = _balanced(test)
    want = [f"{len(x)}/{len(test['targets_x'])}", f"{len(y)}/{len(test['targets_y'])}",
            f"{len(a)}/{len(a)}", f"{len(b)}/{len(b)}"]
    return [row["coverage_x"], row["coverage_y"], row["coverage_a"], row["coverage_b"]] == want


def check_train(tally: Tally, out: dict, manifest: dict, battery: list[dict]) -> None:
    tally.record("rejects", count_lines(out["rejects"]) == 0)
    try:
        with open(out["vectors"], encoding="utf-8") as fh:
            header = fh.readline().split()
        ok = header == [str(manifest["vocab_size"]), str(manifest["dim"])]
    except OSError:
        ok = False
    tally.record("vocabulary", ok)
    for test, row in zip(battery, weat_rows(tally, out["weat"], battery)):
        tally.record(
            f"planted:{test['name']}",
            row is not None and _full_coverage(row, test) and float(row["effect_size"]) > TRAIN_MIN_EFFECT,
        )


def check_vectors(tally: Tally, out: dict, table: tuple[list[str], np.ndarray], battery: list[dict]) -> None:
    words, vectors = table
    try:
        got_words, got = read_vectors(out["vectors"])
        order = {w: i for i, w in enumerate(got_words)}
        ok = sorted(got_words) == sorted(words)
        if ok:
            got_rows = got[[order[w] for w in words]]
            ok = bool(np.max(np.abs(got_rows - vectors)) <= SAVE_TOL)
    except (OSError, ValueError):
        got_words, got, order, ok = [], None, {}, False
    tally.record("round_trip", ok)
    rows = {w: got[i] for w, i in order.items()}
    for test, row in zip(battery, weat_rows(tally, out["weat"], battery)):
        good = row is not None and bool(rows) and _full_coverage(row, test)
        if good:
            d, stat = weat_reference(test, rows)
            p = float(row["p_value"])
            good = (abs(float(row["effect_size"]) - d) <= WEAT_TOL
                    and abs(float(row["test_statistic"]) - stat) <= WEAT_TOL
                    and 0.0 <= p <= 1.0)
        tally.record(f"recomputed:{test['name']}", good)

"""Command-line front end: ingest -> style reports -> train/load vectors -> WEAT.

Exit codes: 0 success, 1 environment/I/O or usage failure, 2 data-quality failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import errno
import hashlib
import json
import os
import sys
import warnings

import numpy as np

from lyricstats import __version__
from lyricstats.corpus import COHORTS, CorpusError, atomic_write, ingest, load_cache, save_cache, write_reject_report
from lyricstats.embeddings import EmbeddingError, SgnsConfig, load_vectors, save_vectors, train_sgns
from lyricstats.resources import default_battery_path, default_stopwords_path, default_swear_lexicon_path
from lyricstats.style import (
    StyleError,
    aggregate,
    check_tokens,
    corpus_style_metrics,
    load_swear_lexicon,
    load_wordlist,
    rank_series,
    top_words,
    year_rankings,
)
from lyricstats.weat import DEFAULT_MC_SAMPLES, WeatError, load_battery, run_battery

EXIT_OK = 0
EXIT_IO = 1
EXIT_QUALITY = 2


class _Failure(Exception):
    """A command's failure: `main` prints `error: <message>` and returns `code`."""

    def __init__(self, message: str, code: int = EXIT_IO):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _io(verb: str, path: str):
    """Turns an OSError raised in the block into a _Failure, `cannot <verb>
    <path>: <reason>`."""
    try:
        yield
    except OSError as exc:
        raise _Failure(f"cannot {verb} {path}: {exc.strerror or exc}") from exc


def _read(load, path: str):
    with _io("read", path):
        return load(path)


def _input_path(value: str | None, flag: str, bundled) -> str:
    """The file an optional input flag names, or the bundled one when the
    flag is not given. Raises _Failure for an empty value, which names none."""
    if value == "":
        raise _Failure(f"{flag} is empty; it names an input file")
    return bundled() if value is None else value


def _fmt(value) -> str:
    if isinstance(value, float):
        return "" if value != value else f"{value:.9f}"  # NaN: no value
    return str(value)


def _write_csv(path: str, header, rows) -> None:
    with _io("write", path), atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def _write_table(path: str, table) -> None:
    """One CSV row per entry of a column table such as `StyleMetrics`, under
    a header of its field names."""
    names = [field.name for field in dataclasses.fields(table)]
    columns = (getattr(table, name) for name in names)
    _write_csv(path, names, zip(*(c if isinstance(c, tuple) else c.tolist() for c in columns)))


# parsed values that do not change what a command computes
_NOT_DIGESTED = {"config", "command", "func", "out", "deterministic"}


def _write_config_digest(out_dir: str, args: argparse.Namespace) -> None:
    """`<command>.config.json`: every option of the command as parsed (config
    file values and flags resolved), and their sha256 digest, written
    atomically."""
    options = {key: value for key, value in vars(args).items() if key not in _NOT_DIGESTED}
    resolved = json.dumps({"command": args.command, **options}, sort_keys=True)
    digest = hashlib.sha256(resolved.encode()).hexdigest()
    path = os.path.join(out_dir, f"{args.command}.config.json")
    with _io("write", path), atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"digest": digest, "options": json.loads(resolved)}, indent=2, sort_keys=True) + "\n")


def _config_defaults(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """The --config file's options for `args.command`, keyed by argparse
    destination. Raises ValueError for a file that is not a JSON object, a key
    the command does not take, a value outside the option's choices, a flag
    that is not true or false, a path or word list that is not a string, or a
    non-string that the option's `type` rejects or would change, such as 2.5
    or true for an int. argparse checks none of these for defaults; it passes
    only string defaults through `type`."""
    with open(args.config, "r", encoding="utf-8-sig") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    config = {key.replace("-", "_"): value for key, value in config.items()}
    unknown = sorted(set(config) - (set(vars(args)) - {"config", "command", "func"}))
    if unknown:
        raise ValueError(f"unknown option(s) for {args.command}: {', '.join(unknown)}")
    # null keeps the option's built-in default
    config = {key: value for key, value in config.items() if value is not None}
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for action in subparsers.choices[args.command]._actions:
        value = config.get(action.dest)
        if value is None:
            continue
        if action.nargs == 0 and not isinstance(value, bool):
            raise ValueError(f"{action.dest}: {value!r} is not true or false")
        if action.nargs != 0 and action.type is None and action.choices is None and not isinstance(value, str):
            raise ValueError(f"{action.dest}: {value!r} is not a string")
        if action.type is not None and not isinstance(value, str):
            try:
                converted = action.type(value)
            except (TypeError, ValueError):
                converted = None
            # NaN equals nothing, so a JSON NaN that converts to NaN counts as
            # unchanged and goes on to the option's own check, as "nan" does
            unchanged = converted == value or (value != value and converted != converted)
            if isinstance(value, bool) or not unchanged:
                raise ValueError(f"{action.dest}: {value!r} is not a valid {action.type.__name__}")
            config[action.dest] = value = converted
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"{action.dest}: {value!r} is not one of {', '.join(map(str, action.choices))}")
    return config


def _check_out_dir(path: str) -> None:
    """Raises _Failure unless `path` is, or can be made, a directory to write
    outputs in: a non-empty path that, or whose nearest existing ancestor, is
    a writable directory, and whose missing components' names the file
    system can hold. Commands check this before any work, and make the
    directory only when they write to it."""
    if not path:
        raise _Failure("--out is empty; it names the output directory")
    existing, missing = os.path.abspath(path), []
    while not os.path.lexists(existing):
        existing, name = os.path.split(existing)
        missing.append(name)
    if not (os.path.isdir(existing) and os.access(existing, os.W_OK | os.X_OK)):
        raise _Failure(f"cannot use {path} as the output directory: {existing} is not a writable directory")
    if any(len(os.fsencode(name)) > os.pathconf(existing, "PC_NAME_MAX") > 0 for name in missing):
        raise _Failure(f"cannot write {path}: {os.strerror(errno.ENAMETOOLONG)}")


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit with EXIT_IO: exit code 2 is
    reserved for data-quality failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def cmd_ingest(args) -> int:
    args.format = args.format or ("csv" if args.input.lower().endswith(".csv") else "jsonl")
    _check_out_dir(args.out)
    result = ingest(
        args.input,
        format=args.format,
        max_reject_fraction=args.max_reject_fraction,
        drop_annotations=not args.keep_annotations,
    )
    with _io("write", args.out):
        os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "corpus.cache")
    with _io("write", path):
        save_cache(result.corpus, path)
    path = os.path.join(args.out, "rejects.jsonl")
    with _io("write", path):
        write_reject_report(result.rejects, path)
    _write_config_digest(args.out, args)
    print(f"ingested {len(result.corpus)} songs, {len(result.rejects)} rejects")
    if not result.quality_ok:
        raise _Failure("reject fraction over threshold", EXIT_QUALITY)
    return EXIT_OK


def cmd_style(args) -> int:
    if args.top_k < 1:
        raise _Failure("--top-k must be >= 1")
    # lowercase as the word lists are read, each word once, in order
    words = list(dict.fromkeys(w.strip().lower() for w in (args.words or "").split(",") if w.strip()))
    if args.words and not words:
        raise _Failure(f"--words {args.words!r} names no word")
    check_tokens(words, "--words:")
    lexicon_path = _input_path(args.lexicon, "--lexicon", default_swear_lexicon_path)
    stopwords_path = _input_path(args.stopwords, "--stopwords", default_stopwords_path)
    _check_out_dir(args.out)
    corpus = _read(load_cache, args.cache)
    lexicon = _read(load_swear_lexicon, lexicon_path)
    stopwords = _read(load_wordlist, stopwords_path)
    with _io("write", args.out):
        os.makedirs(args.out, exist_ok=True)
    metrics = corpus_style_metrics(corpus, lexicon)
    # rank_series.csv needs every year; top_words.csv alone needs only --year
    rankings = year_rankings(corpus, args.cohort, None if words else args.year)
    _write_table(os.path.join(args.out, "per_song.csv"), metrics)
    _write_table(os.path.join(args.out, "aggregate.csv"), aggregate(metrics))
    _write_csv(
        os.path.join(args.out, "top_words.csv"),
        ["year", "rank", "word"],
        (
            (year, rank, word)
            for year in (rankings if args.year is None else [args.year])
            for rank, word in enumerate(top_words(rankings.get(year, []), args.top_k, stopwords), start=1)
        ),
    )
    series = rank_series(rankings, words) if words else {}
    rows = ((word, year, rank) for word, ranks in series.items() for year, rank in ranks.items())
    _write_csv(os.path.join(args.out, "rank_series.csv"), ["word", "year", "rank"], rows)
    _write_config_digest(args.out, args)
    return EXIT_OK


def cmd_train(args) -> int:
    if args.seed is None:
        raise _Failure("--seed is mandatory for training (stochastic step)")
    config = SgnsConfig(
        dim=args.dim,
        window=args.window,
        negatives=args.negatives,
        epochs=args.epochs,
        initial_learning_rate=args.learning_rate,
        min_count=args.min_count,
        subsample_threshold=args.subsample,
        seed=args.seed,
    )
    if not args.out or os.path.isdir(args.out):
        what = f"{args.out} is a directory" if args.out else "is empty"
        raise _Failure(f"--out {what}; it names the vector file")
    out_dir = os.path.dirname(os.path.abspath(args.out))
    _check_out_dir(out_dir)
    corpus = _read(load_cache, args.cache)
    try:
        # a diverging run overflows on its way to NaN; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            table = train_sgns(corpus, config)
    except EmbeddingError as exc:
        raise _Failure(str(exc), EXIT_QUALITY) from exc
    diverged = int(np.count_nonzero(~np.isfinite(table.vectors).all(axis=1)))
    if diverged:
        raise _Failure(f"training diverged: {diverged} of {len(table)} words have NaN or infinite vectors; "
                       f"no vector file written; try a lower --learning-rate than {args.learning_rate:g}",
                       EXIT_QUALITY)
    with _io("write", out_dir):
        os.makedirs(out_dir, exist_ok=True)
    with _io("write", args.out):
        save_vectors(table, args.out)
    _write_config_digest(out_dir, args)
    print(f"trained {len(table)} vectors of dim {table.dim} -> {args.out}")
    return EXIT_OK


def _print_summary(results, n_samples: int) -> None:
    print(f"{'test':<55} {'effect':>8} {'p':>10}  method")
    for r in results:
        effect = "-" if r.effect_size is None else f"{r.effect_size:.3f}"
        if r.error:
            print(f"{r.test_name:<55} {effect:>8} {'-':>10}  error: {r.error}")
            continue
        p = f"{r.p_value:.4g}"
        if r.p_value == 0 and r.p_method != "exact":
            # no sampled subset beat the observed statistic: p is below one sample's share
            p = f"< {1 / n_samples:.4g}"
        print(f"{r.test_name:<55} {effect:>8} {p:>10}  {r.p_method}")


def _weat_row(r) -> list[str]:
    """One result's row of weat_results.csv, each value already a string:
    `""` stands for a missing score, and each coverage reads `found/requested`."""
    scores = ((r.effect_size, ".6f"), (r.test_statistic, ".6f"), (r.p_value, ".6g"))
    return [
        r.test_name,
        *("" if value is None else format(value, spec) for value, spec in scores),
        r.p_method,
        *(f"{found}/{requested}" for requested, found in r.coverage.values()),
        " ".join(r.dropped_words),
        r.error or "",
    ]


def cmd_weat(args) -> int:
    if args.mc_samples < 1:
        raise _Failure("--mc-samples must be >= 1")
    if args.seed < 0:
        raise _Failure("--seed must be >= 0")
    battery_path = _input_path(args.tests, "--tests", default_battery_path)
    _check_out_dir(args.out)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = _read(load_vectors, args.vectors)
    for warning in caught:  # one line each, as an error is
        print(f"warning: {warning.message}", file=sys.stderr)
    tests = _read(load_battery, battery_path)
    results = run_battery(tests, table, n_samples=args.mc_samples, seed=args.seed, inclusive=args.inclusive)
    with _io("write", args.out):
        os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "weat_results.csv"),
        ["test_name", "effect_size", "test_statistic", "p_value", "p_method",
         "coverage_x", "coverage_y", "coverage_a", "coverage_b", "dropped_words", "error"],
        map(_weat_row, results),
    )
    _write_config_digest(args.out, args)
    _print_summary(results, args.mc_samples)
    return EXIT_OK


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The `lyricstats` parser. `defaults` (argparse destination -> value, as
    read from a --config file) replace the subcommands' built-in defaults."""
    parser = _Parser(prog="lyricstats", description=__doc__)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="read a song dataset and write the tokenized corpus cache")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["jsonl", "csv"])
    p.add_argument("--out", required=True)
    p.add_argument("--max-reject-fraction", type=float, default=0.5)
    p.add_argument("--keep-annotations", action="store_true")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("style", help="write per-song, aggregate, top-words, and rank-series CSVs")
    p.add_argument("--cache", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--stopwords")
    p.add_argument("--words", help="comma-separated words for the rank series")
    p.add_argument("--top-k", type=int, default=100)
    p.add_argument("--year", type=int)
    p.add_argument("--cohort", choices=COHORTS)
    p.set_defaults(func=cmd_style)

    p = sub.add_parser("train", help="train skip-gram negative-sampling vectors on the cache")
    p.add_argument("--cache", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--learning-rate", type=float, default=0.025)
    p.add_argument("--min-count", type=int, default=5)
    p.add_argument("--subsample", type=float, default=1e-3)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="accepted for compatibility and ignored: training is always reproducible at a fixed seed",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("weat", help="run the WEAT battery against a vector file")
    p.add_argument("--vectors", required=True)
    p.add_argument("--tests")
    p.add_argument("--out", required=True)
    p.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inclusive", action="store_true")
    p.set_defaults(func=cmd_weat)

    p = sub.add_parser("version", help="print the package version")
    p.set_defaults(func=lambda args: print(__version__) or EXIT_OK)
    for command in sub.choices.values():
        command.set_defaults(**(defaults or {}))
    return parser


def main(argv=None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(raw_argv)
    if args.config:
        # the config's values become the command's defaults and the command
        # line is parsed again, so every flag given there wins, abbreviated or not
        try:
            config = _config_defaults(parser, args)
        except (OSError, ValueError, RecursionError) as exc:
            print(f"error: {args.config}: {exc}", file=sys.stderr)
            return EXIT_IO
        args = build_parser(config).parse_args(raw_argv)
    try:
        return args.func(args)
    except (_Failure, CorpusError, StyleError, EmbeddingError, WeatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, _Failure) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

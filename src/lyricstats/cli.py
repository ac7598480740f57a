"""Command-line front end: ingest -> style reports -> train/load vectors -> WEAT.

Exit codes: 0 success, 1 environment/I/O or usage failure, 2 data-quality failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys

from lyricstats import __version__
from lyricstats.corpus import (
    IngestConfig,
    IngestError,
    TokenizeConfig,
    ingest,
    load_cache,
    save_cache,
    write_reject_report,
)
from lyricstats.embeddings import EmbeddingError, SgnsConfig, load_vectors, save_vectors, train_sgns
from lyricstats.resources import default_battery_path, default_stopwords_path, default_swear_lexicon_path
from lyricstats.style import (
    StyleError,
    aggregate,
    corpus_style_metrics,
    load_swear_lexicon,
    load_wordlist,
    rank_series,
    top_words,
    year_rankings,
)
from lyricstats.weat import OovPolicy, WeatError, load_battery, run_battery, write_results_csv

EXIT_OK = 0
EXIT_IO = 1
EXIT_QUALITY = 2


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9f}"
    return str(value)


def _write_config_digest(out_dir: str, command: str, options: dict) -> None:
    resolved = json.dumps({"command": command, **options}, sort_keys=True)
    digest = hashlib.sha256(resolved.encode()).hexdigest()
    with open(os.path.join(out_dir, f"{command}.config.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"digest": digest, "options": json.loads(resolved)}, indent=2, sort_keys=True) + "\n")


def _config_defaults(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """The --config file's options for `args.command`, keyed by argparse
    destination. Raises ValueError for a file that is not a JSON object, a key
    the command does not take, a value outside the option's choices, a flag
    that is not true or false, or a value that is not a string and that the
    option's `type` rejects or would change, such as 2.5 or true for an int.
    argparse checks none of these for defaults; it passes only string
    defaults through `type`."""
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    config = {key.replace("-", "_"): value for key, value in config.items()}
    unknown = sorted(set(config) - (set(vars(args)) - {"config", "command", "func"}))
    if unknown:
        raise ValueError(f"unknown option(s) for {args.command}: {', '.join(unknown)}")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for action in subparsers.choices[args.command]._actions:
        value = config.get(action.dest)
        if value is None:
            continue
        if action.nargs == 0 and not isinstance(value, bool):
            raise ValueError(f"{action.dest}: {value!r} is not true or false")
        if action.type is not None and not isinstance(value, str):
            try:
                converted = action.type(value)
            except (TypeError, ValueError):
                converted = None
            if isinstance(value, bool) or converted != value:
                raise ValueError(f"{action.dest}: {value!r} is not a valid {action.type.__name__}")
            config[action.dest] = value = converted
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"{action.dest}: {value!r} is not one of {', '.join(map(str, action.choices))}")
    return config


def _out_dir_usable(path: str) -> bool:
    """Whether `path` is, or can be made, a directory to write outputs in: the
    path or its nearest existing ancestor is a writable directory. Commands
    check this before any work, and make the directory only when they write
    to it; otherwise this prints a one-line error."""
    existing = os.path.abspath(path)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if os.path.isdir(existing) and os.access(existing, os.W_OK | os.X_OK):
        return True
    print(f"error: cannot use {path} as the output directory: {existing} is not a writable directory",
          file=sys.stderr)
    return False


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit with EXIT_IO: exit code 2 is
    reserved for data-quality failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def cmd_ingest(args) -> int:
    fmt = args.format or ("csv" if args.input.endswith(".csv") else "jsonl")
    config = IngestConfig(max_reject_fraction=args.max_reject_fraction)
    tok_config = TokenizeConfig(drop_annotations=not args.keep_annotations)
    if not _out_dir_usable(args.out):
        return EXIT_IO
    try:
        result = ingest(args.input, format=fmt, config=config, tokenize_config=tok_config)
    except (IngestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    os.makedirs(args.out, exist_ok=True)
    save_cache(result, os.path.join(args.out, "corpus.cache"))
    write_reject_report(result.rejects, os.path.join(args.out, "rejects.jsonl"))
    _write_config_digest(
        args.out,
        "ingest",
        {
            "input": args.input,
            "format": fmt,
            "max_reject_fraction": args.max_reject_fraction,
            "keep_annotations": args.keep_annotations,
        },
    )
    print(f"ingested {len(result.corpus)} songs, {len(result.rejects)} rejects")
    if not result.quality_ok:
        print("error: reject fraction over threshold", file=sys.stderr)
        return EXIT_QUALITY
    return EXIT_OK


def cmd_style(args) -> int:
    if args.top_k < 1:
        print("error: --top-k must be >= 1", file=sys.stderr)
        return EXIT_IO
    words = [w.strip() for w in (args.words or "").split(",") if w.strip()]
    if args.words and not words:
        print(f"error: --words {args.words!r} names no word", file=sys.stderr)
        return EXIT_IO
    if not _out_dir_usable(args.out):
        return EXIT_IO
    try:
        corpus = load_cache(args.cache)
        lexicon = load_swear_lexicon(args.lexicon or default_swear_lexicon_path())
        stopwords = load_wordlist(args.stopwords or default_stopwords_path())
    except (IngestError, StyleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    os.makedirs(args.out, exist_ok=True)
    metrics = corpus_style_metrics(corpus, lexicon)

    with open(os.path.join(args.out, "per_song.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "song_id",
                "year",
                "cohort",
                "length_words",
                "duration_seconds",
                "speed_wps",
                "repetitiveness_pct",
                "fk_grade",
                "swear_count",
                "swear_rate",
            ]
        )
        for rec, m in zip(corpus.records, metrics):
            writer.writerow(
                [
                    m.song_id,
                    rec.year,
                    rec.cohort,
                    m.length_words,
                    _fmt(m.duration_seconds),
                    _fmt(m.speed_wps),
                    _fmt(m.repetitiveness_pct),
                    _fmt(m.fk_grade),
                    m.swear_count,
                    _fmt(m.swear_rate),
                ]
            )

    with open(os.path.join(args.out, "aggregate.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "year",
                "cohort",
                "song_count",
                "mean_length_words",
                "mean_duration_seconds",
                "duration_coverage",
                "mean_speed_wps",
                "mean_repetitiveness_pct",
                "mean_fk_grade",
                "mean_swear_count",
                "mean_swear_rate",
            ]
        )
        for agg in aggregate(corpus, metrics):
            writer.writerow(
                [
                    agg.year,
                    agg.cohort,
                    agg.song_count,
                    _fmt(agg.mean_length_words),
                    _fmt(agg.mean_duration_seconds),
                    agg.duration_coverage,
                    _fmt(agg.mean_speed_wps),
                    _fmt(agg.mean_repetitiveness_pct),
                    _fmt(agg.mean_fk_grade),
                    _fmt(agg.mean_swear_count),
                    _fmt(agg.mean_swear_rate),
                ]
            )

    # rank_series.csv needs every year; top_words.csv alone needs only --year
    rankings = year_rankings(corpus, args.cohort, None if words else args.year)
    with open(os.path.join(args.out, "top_words.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "rank", "word"])
        for year in rankings if args.year is None else [args.year]:
            tops = top_words(rankings.get(year, []), args.top_k, stopwords)
            for rank, word in enumerate(tops, start=1):
                writer.writerow([year, rank, word])

    with open(os.path.join(args.out, "rank_series.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word", "year", "rank"])
        if words:
            for series in rank_series(rankings, words):
                for year in sorted(series.entries):
                    writer.writerow([series.word, year, series.entries[year]])

    _write_config_digest(
        args.out,
        "style",
        {
            "cache": args.cache,
            "lexicon": args.lexicon,
            "stopwords": args.stopwords,
            "words": args.words,
            "top_k": args.top_k,
            "year": args.year,
            "cohort": args.cohort,
        },
    )
    return EXIT_OK


def cmd_train(args) -> int:
    if args.seed is None:
        print("error: --seed is mandatory for training (stochastic step)", file=sys.stderr)
        return EXIT_IO
    try:
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
    except EmbeddingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if os.path.isdir(args.out):
        print(f"error: --out {args.out} is a directory; it names the vector file", file=sys.stderr)
        return EXIT_IO
    if not _out_dir_usable(out_dir):
        return EXIT_IO
    try:
        corpus = load_cache(args.cache)
    except (IngestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        table = train_sgns(corpus, config)
    except EmbeddingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUALITY
    os.makedirs(out_dir, exist_ok=True)
    save_vectors(table, args.out)
    _write_config_digest(
        out_dir,
        "train",
        {
            "cache": args.cache,
            "out": args.out,
            "dim": args.dim,
            "window": args.window,
            "negatives": args.negatives,
            "epochs": args.epochs,
            "learning_rate": args.learning_rate,
            "min_count": args.min_count,
            "subsample": args.subsample,
            "seed": args.seed,
        },
    )
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


def cmd_weat(args) -> int:
    if args.mc_samples < 1:
        print("error: --mc-samples must be >= 1", file=sys.stderr)
        return EXIT_IO
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return EXIT_IO
    if not _out_dir_usable(args.out):
        return EXIT_IO
    try:
        table = load_vectors(args.vectors)
        tests = load_battery(args.tests or default_battery_path())
    except (EmbeddingError, WeatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    results = run_battery(
        tests,
        table,
        policy=OovPolicy(),
        p_mode="exact" if args.exact else "monte_carlo",
        n_samples=args.mc_samples,
        seed=args.seed,
        inclusive=args.inclusive,
    )
    os.makedirs(args.out, exist_ok=True)
    write_results_csv(results, os.path.join(args.out, "weat_results.csv"))
    _write_config_digest(
        args.out,
        "weat",
        {
            "vectors": args.vectors,
            "tests": args.tests,
            "exact": args.exact,
            "mc_samples": args.mc_samples,
            "seed": args.seed,
            "inclusive": args.inclusive,
        },
    )
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
    p.add_argument("--cohort", choices=["popular", "other"])
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
    p.add_argument("--exact", action="store_true")
    p.add_argument("--mc-samples", type=int, default=100_000)
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
        except (OSError, ValueError) as exc:
            print(f"error: {args.config}: {exc}", file=sys.stderr)
            return EXIT_IO
        args = build_parser(config).parse_args(raw_argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

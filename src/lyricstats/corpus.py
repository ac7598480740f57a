"""Song data model, file ingestion, and deterministic lyric tokenization."""

from __future__ import annotations

import csv
import hashlib
import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

COHORTS = ("popular", "other")

# strips any run of non-word characters (plus underscore) at a token edge;
# interior apostrophes and hyphens survive
_EDGE = re.compile(r"^[\W_]+|[\W_]+$")


class CorpusError(Exception):
    pass


class IngestError(CorpusError):
    """File-level ingestion failure (unreadable file, malformed header)."""


class RecordError(CorpusError):
    """Record-level validation failure; collected into the reject report."""


@dataclass(frozen=True)
class SongRecord:
    """One song as the pipeline keeps it after ingest: the raw lyrics, title
    and artist are dropped once the lyrics are tokenized."""

    id: str
    year: int
    cohort: str
    duration_seconds: Optional[float]
    lines: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class IngestConfig:
    year_min: int = 1900
    year_max: int = 2100
    max_reject_fraction: float = 0.5


@dataclass(frozen=True)
class TokenizeConfig:
    drop_annotations: bool = True
    annotation_pattern: str = r"^\[[^\[\]]*\]$"

    def digest_fields(self) -> dict:
        return {"drop_annotations": self.drop_annotations, "annotation_pattern": self.annotation_pattern}


@dataclass(frozen=True)
class Reject:
    where: str  # record id if known, else "line:<n>"
    reason: str


@dataclass(frozen=True)
class Corpus:
    records: tuple[SongRecord, ...]
    provenance: dict = field(default_factory=dict, compare=False)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[SongRecord]:
        return iter(self.records)


@dataclass(frozen=True)
class IngestResult:
    corpus: Corpus
    rejects: tuple[Reject, ...]
    total_rows: int

    @property
    def quality_ok(self) -> bool:
        """False when the reject fraction exceeded the configured threshold."""
        if self.total_rows == 0:
            return False
        frac = len(self.rejects) / self.total_rows
        return frac <= self.corpus.provenance.get("max_reject_fraction", 0.5)


def tokenize(lyrics: str, config: TokenizeConfig = TokenizeConfig()) -> tuple[tuple[str, ...], ...]:
    """Normalize and split lyrics into lines of lowercase word tokens.

    NFC-normalizes, lowercases, splits on newlines then whitespace, strips
    edge punctuation (interior apostrophes and hyphens kept), drops empty
    lines and, by default, section-annotation lines like "[Chorus]". Lyrics
    without a token give no lines.
    """
    text = unicodedata.normalize("NFC", lyrics).lower()
    annotation = re.compile(config.annotation_pattern) if config.drop_annotations else None
    lines: list[tuple[str, ...]] = []
    for raw_line in text.split("\n"):
        stripped = raw_line.strip()
        if not stripped:
            continue
        if annotation is not None and annotation.match(stripped):
            continue
        # a word that starts and ends with an alphanumeric character has no edge
        # for _EDGE to strip (\w is isalnum() plus "_"), so it skips the regex
        toks = tuple(
            t
            for t in (w if w[0].isalnum() and w[-1].isalnum() else _EDGE.sub("", w) for w in stripped.split())
            if t
        )
        if toks:
            lines.append(toks)
    return tuple(lines)


def _validate_record(
    raw: dict, config: IngestConfig, tokenize_config: TokenizeConfig, seen_ids: set[str], where: str
) -> SongRecord:
    for key in ("id", "title", "artist", "year", "cohort", "lyrics"):
        if key not in raw or raw[key] is None:
            raise RecordError(f"{where}: missing required field {key!r}")
    rid = str(raw["id"])
    try:
        year = int(raw["year"])
    except (TypeError, ValueError):
        raise RecordError(f"{where}: year {raw['year']!r} is not an integer")
    if not (config.year_min <= year <= config.year_max):
        raise RecordError(f"{where}: year {year} outside [{config.year_min}, {config.year_max}]")
    duration = raw.get("duration_seconds")
    if duration is not None and duration != "":
        try:
            duration = float(duration)
        except (TypeError, ValueError):
            raise RecordError(f"{where}: duration_seconds {raw['duration_seconds']!r} is not a number")
        if duration <= 0:
            raise RecordError(f"{where}: duration_seconds must be > 0")
    else:
        duration = None
    cohort = str(raw["cohort"])
    if cohort not in COHORTS:
        raise RecordError(f"{where}: cohort {cohort!r} not in {COHORTS}")
    lyrics = str(raw["lyrics"])
    if not lyrics.strip():
        raise RecordError(f"{where}: lyrics empty after trimming")
    if rid in seen_ids:
        raise RecordError(f"{where}: duplicate id {rid!r}")
    lines = tokenize(lyrics, tokenize_config)
    if not lines:
        raise RecordError(f"record {rid!r}: lyrics tokenize to zero tokens")
    return SongRecord(id=rid, year=year, cohort=cohort, duration_seconds=duration, lines=lines)


def _iter_jsonl(path: str) -> Iterator[tuple[str, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                yield f"line:{line_no}", {"__parse_error__": str(exc)}
                continue
            if not isinstance(raw, dict):
                yield f"line:{line_no}", {"__parse_error__": "row is not a JSON object"}
                continue
            yield f"line:{line_no}", raw


_CSV_COLUMNS = {"id", "title", "artist", "year", "duration_seconds", "cohort", "lyrics"}


def _iter_csv(path: str) -> Iterator[tuple[str, dict]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not _CSV_COLUMNS.issubset(set(reader.fieldnames)):
            raise IngestError(f"{path}: malformed CSV header, need columns {sorted(_CSV_COLUMNS)}")
        for line_no, raw in enumerate(reader, start=2):
            if raw.get("lyrics"):
                # CSV carries newlines escaped as the two-character sequence \n
                raw = dict(raw, lyrics=raw["lyrics"].replace("\\n", "\n"))
            yield f"line:{line_no}", raw


def ingest(
    path: str,
    format: str = "jsonl",
    config: IngestConfig = IngestConfig(),
    tokenize_config: TokenizeConfig = TokenizeConfig(),
) -> IngestResult:
    """Read a song dataset from disk, validate, and tokenize every record.

    Invalid records are collected into the reject report, never silently
    dropped. Ingestion order is preserved.
    """
    if format == "jsonl":
        rows = _iter_jsonl(path)
    elif format == "csv":
        rows = _iter_csv(path)
    else:
        raise IngestError(f"unknown format {format!r}")

    records: list[SongRecord] = []
    rejects: list[Reject] = []
    seen_ids: set[str] = set()
    total = 0
    try:
        for where, raw in rows:
            total += 1
            if "__parse_error__" in raw:
                rejects.append(Reject(where, raw["__parse_error__"]))
                continue
            try:
                rec = _validate_record(raw, config, tokenize_config, seen_ids, where)
            except RecordError as exc:
                rejects.append(Reject(str(raw.get("id", where)), str(exc)))
                continue
            seen_ids.add(rec.id)
            records.append(rec)
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from exc

    digest_src = json.dumps(
        {
            "year_min": config.year_min,
            "year_max": config.year_max,
            "max_reject_fraction": config.max_reject_fraction,
            **tokenize_config.digest_fields(),
        },
        sort_keys=True,
    )
    provenance = {
        "source": path,
        "format": format,
        "config_digest": hashlib.sha256(digest_src.encode()).hexdigest()[:16],
        "max_reject_fraction": config.max_reject_fraction,
    }
    corpus = Corpus(records=tuple(records), provenance=provenance)
    return IngestResult(corpus=corpus, rejects=tuple(rejects), total_rows=total)


def token_counts(songs: Iterable[SongRecord]) -> Counter:
    """Exact token multiset counts over the songs (a corpus, or any selection
    of its records); empty for no songs."""
    counts: Counter = Counter()
    for song in songs:
        for line in song.lines:
            counts.update(line)
    return counts


# ---------------------------------------------------------------------------
# cache serialization (versioned JSONL: one header line, then one song per line)

CACHE_VERSION = 3  # 2: the header stores the song count; 3: rows hold only the fields below


def save_cache(result_or_corpus, path: str) -> None:
    corpus = result_or_corpus.corpus if isinstance(result_or_corpus, IngestResult) else result_or_corpus
    with open(path, "w", encoding="utf-8") as fh:
        header = {"cache_version": CACHE_VERSION, "provenance": corpus.provenance, "songs": len(corpus)}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for song in corpus:
            row = {
                "id": song.id,
                "year": song.year,
                "cohort": song.cohort,
                "duration_seconds": song.duration_seconds,
                "lines": song.lines,
            }
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")


def _cache_song(row: dict) -> SongRecord:
    """The record of one cache row. Raises KeyError or TypeError for a row
    that is not an object holding the record's fields, ValueError for a field
    of the wrong type, and TypeError for a token that is not a string."""
    rid, year, cohort, duration, raw_lines = (
        row["id"], row["year"], row["cohort"], row["duration_seconds"], row["lines"]
    )
    if type(rid) is not str:
        raise ValueError(f"id {rid!r} is not a string")
    if type(year) is not int:
        raise ValueError(f"year {year!r} is not an integer")
    if cohort not in COHORTS:
        raise ValueError(f"cohort {cohort!r} not in {COHORTS}")
    if duration is not None:
        if type(duration) not in (int, float) or not duration > 0:
            raise ValueError(f"duration_seconds {duration!r} is not a positive number")
        duration = float(duration)
    if type(raw_lines) is not list or not raw_lines:
        raise ValueError("lines is not a non-empty list")
    lines = []
    for line in raw_lines:
        if type(line) is not list or not line:
            raise ValueError(f"line {line!r} is not a non-empty list of tokens")
        "".join(line)  # a token that is not a string raises TypeError, at C speed
        lines.append(tuple(line))
    return SongRecord(id=rid, year=year, cohort=cohort, duration_seconds=duration, lines=tuple(lines))


def load_cache(path: str) -> Corpus:
    records: list[SongRecord] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header_line = fh.readline()
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"{path}: not a corpus cache: {exc}") from exc
            version = header.get("cache_version") if isinstance(header, dict) else None
            if version != CACHE_VERSION:
                raise IngestError(
                    f"{path}: unsupported cache version {version!r} (this version reads {CACHE_VERSION}); "
                    "re-run `lyricstats ingest` to rebuild it"
                )
            for line_no, line in enumerate(fh, start=2):
                try:
                    records.append(_cache_song(json.loads(line)))
                except (ValueError, KeyError, TypeError) as exc:
                    # a truncated or hand-edited cache: a bad row, one missing a
                    # key, or a field of the wrong type
                    reason = f"{type(exc).__name__}: {exc}"
                    raise IngestError(f"{path}:{line_no}: malformed cache row ({reason})") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    # a cache cut, or padded, exactly at a row boundary parses cleanly row by row
    expected = header.get("songs")
    if expected != len(records):
        raise IngestError(f"{path}: header says {expected!r} songs but the cache holds {len(records)}")
    return Corpus(records=tuple(records), provenance=header.get("provenance", {}))


def write_reject_report(rejects: Iterable[Reject], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rej in rejects:
            key = "line_no" if rej.where.startswith("line:") else "id"
            value = rej.where.split(":", 1)[1] if key == "line_no" else rej.where
            fh.write(json.dumps({key: value, "reason": rej.reason}, sort_keys=True) + "\n")

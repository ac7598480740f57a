"""Song data model, file ingestion, deterministic lyric tokenization, and the
corpus cache."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import unicodedata
import zipfile
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional

import numpy as np

COHORTS = ("popular", "other")  # a corpus stores each song's cohort as its index here

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
    """One song: what `ingest` keeps of a valid input row once its lyrics are
    tokenized, and what iterating a `Corpus` yields."""

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


# the arrays of a Corpus and their dtypes; a cache stores each as one member
_ARRAYS = {
    "tokens": np.int32,
    "line_offsets": np.int64,
    "song_offsets": np.int64,
    "years": np.int64,
    "cohorts": np.int8,
    "durations": np.float64,
}


@dataclass(frozen=True, eq=False)
class Corpus:
    """A tokenized corpus, stored compactly.

    `vocab` holds each distinct token once, in ascending string (code point)
    order, so ids order as their words do. `tokens` holds every song's tokens
    as vocabulary ids (int32), song after song and line after line.
    `line_offsets` (int64) gives where each line starts in `tokens`, then
    len(tokens); `song_offsets` (int64) gives the index in `line_offsets` of
    each song's first line, then the number of lines. No line and no song is
    empty. Per song there is an id, a year (int64), a cohort (int8, an index
    into COHORTS) and a duration in seconds (float64, NaN when missing).
    Iterating a corpus yields its songs as `SongRecord`s."""

    vocab: tuple[str, ...]
    tokens: np.ndarray
    line_offsets: np.ndarray
    song_offsets: np.ndarray
    ids: tuple[str, ...]
    years: np.ndarray
    cohorts: np.ndarray
    durations: np.ndarray
    provenance: dict = field(default_factory=dict)

    @classmethod
    def from_records(cls, records: Iterable[SongRecord], provenance: Optional[dict] = None) -> Corpus:
        """The corpus of the given songs, in order. Raises CorpusError for
        songs that break an invariant, such as a repeated id or an empty line."""
        builder = _CorpusBuilder()
        for record in records:
            builder.add(record)
        corpus = builder.corpus(provenance or {})
        problem = _invariant_error(corpus)
        if problem:
            raise CorpusError(problem)
        return corpus

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def song_bounds(self) -> np.ndarray:
        """Where each song starts in `tokens`, then len(tokens)."""
        return self.line_offsets[self.song_offsets]

    def __iter__(self) -> Iterator[SongRecord]:
        vocab, line_at, song_at = self.vocab, self.line_offsets.tolist(), self.song_offsets.tolist()
        durations = [None if d != d else d for d in self.durations.tolist()]
        for s, (rid, year, cohort, duration) in enumerate(
            zip(self.ids, self.years.tolist(), self.cohorts.tolist(), durations)
        ):
            first, last = song_at[s], song_at[s + 1]
            base = line_at[first]
            words = [vocab[i] for i in self.tokens[base : line_at[last]].tolist()]
            lines = tuple(
                tuple(words[a - base : b - base]) for a, b in zip(line_at[first:last], line_at[first + 1 : last + 1])
            )
            yield SongRecord(id=rid, year=year, cohort=COHORTS[cohort], duration_seconds=duration, lines=lines)

    @property
    def records(self) -> tuple[SongRecord, ...]:
        """Every song as a `SongRecord`, built anew on each access."""
        return tuple(self)


# tokens renumbered per step when a corpus is built: bounds the temporary copy
_RENUMBER_CHUNK = 1 << 20


class _CorpusBuilder:
    """Collects songs as they come, each token as a provisional id (the order
    of first appearance); `corpus` renumbers the ids into sorted word order."""

    def __init__(self) -> None:
        self.index: defaultdict = defaultdict()
        self.index.default_factory = self.index.__len__  # a new word gets the next id
        self.tokens = array("i")  # int32: 4 bytes a token, no Python object each
        self.line_offsets = array("q", [0])
        self.song_offsets = array("q", [0])
        self.ids: list[str] = []
        self.years: list[int] = []
        self.cohorts: list[int] = []
        self.durations: list[float] = []

    def add(self, record: SongRecord) -> None:
        provisional_id = self.index.__getitem__
        for line in record.lines:
            self.tokens.extend(map(provisional_id, line))
            self.line_offsets.append(len(self.tokens))
        self.song_offsets.append(len(self.line_offsets) - 1)
        self.ids.append(record.id)
        self.years.append(record.year)
        self.cohorts.append(COHORTS.index(record.cohort) if record.cohort in COHORTS else -1)
        self.durations.append(np.nan if record.duration_seconds is None else record.duration_seconds)

    def corpus(self, provenance: dict) -> Corpus:
        words = list(self.index)
        order = sorted(range(len(words)), key=words.__getitem__)
        renumber = np.empty(len(words), dtype=np.int32)
        renumber[order] = np.arange(len(words), dtype=np.int32)
        tokens = np.frombuffer(self.tokens, dtype=np.int32)  # a view, renumbered in place
        for lo in range(0, len(tokens), _RENUMBER_CHUNK):
            tokens[lo : lo + _RENUMBER_CHUNK] = renumber[tokens[lo : lo + _RENUMBER_CHUNK]]
        return Corpus(
            vocab=tuple(words[i] for i in order),
            tokens=tokens,
            line_offsets=np.frombuffer(self.line_offsets, dtype=np.int64),
            song_offsets=np.frombuffer(self.song_offsets, dtype=np.int64),
            ids=tuple(self.ids),
            years=np.array(self.years, dtype=np.int64),
            cohorts=np.array(self.cohorts, dtype=np.int8),
            durations=np.array(self.durations, dtype=np.float64),
            provenance=provenance,
        )


def _first(items, predicate) -> int:
    """The index of the first item for which predicate holds."""
    return next(i for i, item in enumerate(items) if predicate(item))


def _invariant_error(corpus: Corpus) -> Optional[str]:
    """What is wrong with the corpus's arrays, or None: every check of
    `Corpus`'s description, vectorized."""
    for name, dtype in _ARRAYS.items():
        values = getattr(corpus, name)
        if values.dtype != dtype or values.ndim != 1:
            return f"{name} is not a 1-d {np.dtype(dtype).name} array"
    n, vocab = len(corpus.years), corpus.vocab
    for name in ("ids", "cohorts", "durations", "song_offsets"):
        held, needed = len(getattr(corpus, name)), n + (name == "song_offsets")
        if held != needed:
            return f"{name} holds {held} entries where {n} songs need {needed}"
    try:
        words = " ".join(vocab).split()
    except TypeError:
        return f"vocabulary entry {vocab[_first(vocab, lambda w: type(w) is not str)]!r} is not a string"
    if words != list(vocab):
        bad = vocab[_first(vocab, lambda w: w.split() != [w])]
        return f"vocabulary entry {bad!r} is empty or holds whitespace"
    if not all(map(str.__lt__, vocab[:-1], vocab[1:])):
        i = _first(range(len(vocab) - 1), lambda i: not vocab[i] < vocab[i + 1])
        return f"vocabulary is not strictly ascending at {vocab[i]!r}, {vocab[i + 1]!r}"
    tokens, line_at, song_at = corpus.tokens, corpus.line_offsets, corpus.song_offsets
    if len(tokens) and not (0 <= tokens.min() and tokens.max() < len(vocab)):
        bad = tokens[(tokens < 0) | (tokens >= len(vocab))][0]
        return f"token id {bad} outside [0, {len(vocab)})"
    for name, offsets, end in (("line", line_at, len(tokens)), ("song", song_at, len(line_at) - 1)):
        if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != end or np.any(offsets[1:] <= offsets[:-1]):
            return f"{name} offsets do not rise strictly from 0 to {end}"
    cohorts = corpus.cohorts
    if np.any((cohorts != 0) & (cohorts != 1)):
        return f"cohort code {cohorts[(cohorts != 0) & (cohorts != 1)][0]} is not 0 (popular) or 1 (other)"
    durations = corpus.durations
    bad = ~(np.isnan(durations) | (np.isfinite(durations) & (durations > 0)))
    if np.any(bad):
        return f"duration {float(durations[bad][0])!r} is neither missing (NaN) nor a positive finite number"
    if not all(type(rid) is str for rid in corpus.ids):
        return f"song id {corpus.ids[_first(corpus.ids, lambda r: type(r) is not str)]!r} is not a string"
    if len(set(corpus.ids)) != n:
        seen: set = set()
        return f"song id {corpus.ids[_first(corpus.ids, lambda r: r in seen or seen.add(r))]!r} is repeated"
    return None


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

    builder = _CorpusBuilder()
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
            builder.add(rec)
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
    corpus = builder.corpus(provenance)
    return IngestResult(corpus=corpus, rejects=tuple(rejects), total_rows=total)


def ranked_ids(counts: np.ndarray) -> np.ndarray:
    """The ids with a non-zero count in `counts` (as `token_counts` gives
    them), most frequent first, ties in id order: the words' string order."""
    ids = np.flatnonzero(counts)
    return ids[np.argsort(-counts[ids], kind="stable")]


def token_counts(corpus: Corpus, songs: Optional[np.ndarray] = None) -> np.ndarray:
    """How often each vocabulary id occurs in the songs at the positions
    `songs` (an integer array; every song when None): an int64 array with one
    count per entry of `corpus.vocab`, all zero for no songs."""
    tokens = corpus.tokens
    if songs is not None:
        bounds = corpus.song_bounds
        songs = np.asarray(songs, dtype=np.int64)
        starts = bounds[songs]
        lengths = bounds[songs + 1] - starts
        # the songs' runs of token positions: a running count, shifted at each
        # song to that song's first token
        runs = np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        tokens = tokens[runs]
    return np.bincount(tokens, minlength=len(corpus.vocab))


# ---------------------------------------------------------------------------
# cache serialization (version 4: a zip of .npy members, as np.load reads it)

CACHE_VERSION = 4  # 2: the header stores the song count; 3: rows hold only the record's fields; 4: binary
# one UTF-8 JSON object: cache_version, provenance, songs, vocab and ids
_META = "meta"
_ZIP_MAGIC = b"PK\x03\x04"


def save_cache(result_or_corpus, path: str) -> None:
    """Write the corpus to `path`, atomically: the cache is written to a
    temporary file beside it and moved into place, so a failed write leaves
    any previous cache as it was."""
    corpus = result_or_corpus.corpus if isinstance(result_or_corpus, IngestResult) else result_or_corpus
    meta = {
        "cache_version": CACHE_VERSION,
        "provenance": corpus.provenance,
        "songs": len(corpus),
        "vocab": corpus.vocab,
        "ids": corpus.ids,
    }
    members = {name: getattr(corpus, name) for name in _ARRAYS}
    members[_META] = np.frombuffer(json.dumps(meta, sort_keys=True, ensure_ascii=False).encode("utf-8"), np.uint8)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        # np.savez would stamp each member with the time of writing; a fixed
        # stamp makes the cache's bytes a function of the corpus alone
        with open(tmp, "wb") as fh, zipfile.ZipFile(fh, "w") as archive:
            for name, values in members.items():
                info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
                with archive.open(info, "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, values, allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _version_error(path: str, version) -> IngestError:
    return IngestError(
        f"{path}: unsupported cache version {version!r} (this version reads {CACHE_VERSION}); "
        "re-run `lyricstats ingest` to rebuild it"
    )


def _not_version_4(path: str, first_line: bytes) -> IngestError:
    """The error for a file that is not a zip archive: an older cache, whose
    first line is a JSON header, gets the re-run hint."""
    try:
        header = json.loads(first_line)
    except ValueError:
        header = None
    if not isinstance(header, dict) or "cache_version" not in header:
        return IngestError(f"{path}: not a corpus cache")
    return _version_error(path, header["cache_version"])


def load_cache(path: str) -> Corpus:
    """Read a cache that `save_cache` wrote. Any other file, and a cache that
    is cut, damaged or breaks an invariant of `Corpus`, raises IngestError
    naming the path."""
    with open(path, "rb") as fh:
        if fh.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
            fh.seek(0)
            raise _not_version_4(path, fh.readline())
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                names, expected = sorted(archive.files), sorted([*_ARRAYS, _META])
                if names != expected:
                    raise ValueError(f"members {names}, expected {expected}")
                arrays = {name: archive[name] for name in names}
        except Exception as exc:
            # a cut or damaged archive fails in zipfile, zlib or numpy, each
            # with its own error types
            raise IngestError(f"{path}: malformed cache ({type(exc).__name__}: {exc})") from exc
    meta = arrays.pop(_META)
    try:
        if meta.dtype != np.uint8 or meta.ndim != 1:
            raise ValueError(f"{_META} is not a 1-d uint8 array")
        meta = json.loads(meta.tobytes().decode("utf-8"))
        if not isinstance(meta, dict):
            raise ValueError(f"{_META} is not a JSON object")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except ValueError as exc:
        raise IngestError(f"{path}: malformed cache ({exc})") from exc
    if meta.get("cache_version") != CACHE_VERSION:
        raise _version_error(path, meta.get("cache_version"))
    for key, kind in (("songs", int), ("vocab", list), ("ids", list), ("provenance", dict)):
        if type(meta.get(key)) is not kind:
            raise IngestError(f"{path}: malformed cache ({_META} {key!r} is not a {kind.__name__})")
    corpus = Corpus(vocab=tuple(meta["vocab"]), ids=tuple(meta["ids"]), provenance=meta["provenance"], **arrays)
    problem = _invariant_error(corpus)
    if problem:
        raise IngestError(f"{path}: malformed cache ({problem})")
    if meta["songs"] != len(corpus):
        raise IngestError(f"{path}: header says {meta['songs']} songs but the cache holds {len(corpus)}")
    return corpus


def write_reject_report(rejects: Iterable[Reject], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rej in rejects:
            key = "line_no" if rej.where.startswith("line:") else "id"
            value = rej.where.split(":", 1)[1] if key == "line_no" else rej.where
            fh.write(json.dumps({key: value, "reason": rej.reason}, sort_keys=True) + "\n")

"""Song data model, file ingestion, deterministic lyric tokenization, and the
corpus cache."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import unicodedata
import zipfile
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional

import numpy as np

COHORTS = ("popular", "other")  # a corpus stores each song's cohort as its index here

# a token: a whitespace-free run from its first to its last alphanumeric
# character ([^\W_] is str.isalnum(), \S is what str.split() keeps), so edge
# punctuation goes and interior apostrophes and hyphens stay
_TOKEN = re.compile(r"[^\W_](?:\S*[^\W_])?")
# a section-annotation line such as "[Chorus]", dropped by default
_ANNOTATION = re.compile(r"^\[[^\[\]]*\]$")
YEAR_MIN, YEAR_MAX = 1900, 2100  # the years a song may carry


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
class Reject:
    line_no: int  # the row's line in the input file
    id: Optional[str]  # the row's id, None when it has none
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
    def from_records(cls, records: Iterable[SongRecord]) -> Corpus:
        """The corpus of the given songs, in order. Raises CorpusError for
        songs that break an invariant, such as a repeated id or an empty line."""
        builder = _CorpusBuilder()
        for record in records:
            builder.add(record)
        corpus = builder.corpus({})
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


# tokens per step of any pass over the token stream or its songs: bounds any per-token temporary
_TOKEN_CHUNK = 1 << 20


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
        for lo in range(0, len(tokens), _TOKEN_CHUNK):
            tokens[lo : lo + _TOKEN_CHUNK] = renumber[tokens[lo : lo + _TOKEN_CHUNK]]
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
    quality_ok: bool  # False for no rows, or a reject fraction over the threshold


def tokenize(lyrics: str, *, drop_annotations: bool = True) -> tuple[tuple[str, ...], ...]:
    """Normalize and split lyrics into lines of lowercase word tokens.

    NFC-normalizes, lowercases and splits on newlines; each line's tokens
    are its whitespace-free runs from a first to a last alphanumeric
    character, so edge punctuation goes (interior apostrophes and hyphens
    stay). Drops lines without a token and, by default, section-annotation
    lines like "[Chorus]". Lyrics without a token give no lines.
    """
    text = unicodedata.normalize("NFC", lyrics).lower()
    lines: list[tuple[str, ...]] = []
    for raw_line in text.split("\n"):
        if drop_annotations and _ANNOTATION.match(raw_line.strip()):
            continue
        toks = tuple(_TOKEN.findall(raw_line))
        if toks:
            lines.append(toks)
    return tuple(lines)


def _encodable(text: str) -> bool:
    """False for text holding a lone surrogate, as a JSON escape such as
    \\ud800 can give: UTF-8, and so the cache, cannot store it."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _row_id(raw: dict) -> Optional[str]:
    """The row's id as a string, or None when it is missing, null, empty, only
    whitespace, or neither a string nor an integer: such an id names no song."""
    rid = raw.get("id")
    if isinstance(rid, bool) or not isinstance(rid, (str, int)) or not str(rid).strip():
        return None
    return str(rid)


def _validate_record(raw: dict, drop_annotations: bool, seen_ids: set[str], where: str) -> SongRecord:
    rid = _row_id(raw)
    # a JSON value of another type would be read as its Python repr
    if isinstance(raw.get("id"), bool) or not isinstance(raw.get("id"), (str, int, type(None))):
        raise RecordError(f"{where}: id is not a string or an integer")
    if not isinstance(raw.get("lyrics"), (str, type(None))):
        raise RecordError(f"{where}: lyrics is not a string")
    for key in ("id", "title", "artist", "year", "cohort", "lyrics"):
        if (rid if key == "id" else raw.get(key)) is None:
            raise RecordError(f"{where}: missing required field {key!r}")
    if not _encodable(rid):
        raise RecordError(f"{where}: id {rid!r} holds a lone surrogate")
    year = raw["year"]
    # a JSON number such as 1965.0 names a year; 1965.7, true and infinity do not
    if isinstance(year, float) and year.is_integer():
        year = int(year)
    try:
        if isinstance(year, (bool, float)):
            raise TypeError
        year = int(year)
    except (TypeError, ValueError):
        raise RecordError(f"{where}: year {raw['year']!r} is not an integer")
    if not (YEAR_MIN <= year <= YEAR_MAX):
        raise RecordError(f"{where}: year {year} outside [{YEAR_MIN}, {YEAR_MAX}]")
    duration = raw.get("duration_seconds")
    if duration is not None and duration != "":
        try:
            if isinstance(duration, bool):
                raise TypeError
            duration = float(duration)
        except (TypeError, ValueError):
            raise RecordError(f"{where}: duration_seconds {raw['duration_seconds']!r} is not a number")
        # a cache stores a missing duration as NaN, so "nan" cannot be a duration
        if not math.isfinite(duration):
            raise RecordError(f"{where}: duration_seconds {raw['duration_seconds']!r} is not a finite number")
        if duration <= 0:
            raise RecordError(f"{where}: duration_seconds must be > 0")
    else:
        duration = None
    cohort = str(raw["cohort"])
    if cohort not in COHORTS:
        raise RecordError(f"{where}: cohort {cohort!r} not in {COHORTS}")
    lyrics = raw["lyrics"]
    if not lyrics.strip():
        raise RecordError(f"{where}: lyrics empty after trimming")
    if rid in seen_ids:
        raise RecordError(f"{where}: duplicate id {rid!r}")
    lines = tokenize(lyrics, drop_annotations=drop_annotations)
    if not lines:
        raise RecordError(f"record {rid!r}: lyrics tokenize to zero tokens")
    if not _encodable(lyrics) and not _encodable(" ".join(t for line in lines for t in line)):
        raise RecordError(f"record {rid!r}: lyrics hold a lone surrogate inside a word")
    return SongRecord(id=rid, year=year, cohort=cohort, duration_seconds=duration, lines=lines)


def _iter_jsonl(path: str) -> Iterator[tuple[int, dict | RecordError]]:
    """Each non-blank line's row, or the RecordError that rejects it: a line
    that is not JSON, or whose JSON is not an object."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                if not isinstance(raw, dict):
                    raw = RecordError("row is not a JSON object")
            except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: JSON nested too deep
                raw = RecordError(str(exc))
            yield line_no, raw


_CSV_COLUMNS = {"id", "title", "artist", "year", "duration_seconds", "cohort", "lyrics"}


def _iter_csv(path: str) -> Iterator[tuple[int, dict | RecordError]]:
    """Each non-blank row after the header, numbered by the line it starts
    on, as a dict of the header's columns, or the RecordError that rejects
    it: a row that the csv module refuses, such as one with a field over its
    size limit, or one with more or fewer fields than the header. The reader
    goes on with the next row."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            columns = next(reader, None)
        except csv.Error as exc:
            raise IngestError(f"{path}: malformed CSV header ({exc})") from exc
        if columns is None or not _CSV_COLUMNS.issubset(set(columns)):
            raise IngestError(f"{path}: malformed CSV header, need columns {sorted(_CSV_COLUMNS)}")
        read = [c for c in columns if c in _CSV_COLUMNS]
        if len(read) > len(_CSV_COLUMNS):  # a later column would silently win
            repeated = next(c for i, c in enumerate(read) if c in read[:i])
            raise IngestError(f"{path}: malformed CSV header, column {repeated!r} named twice")
        while True:
            # a quoted field can span lines: the row starts after the last one read
            line_no = reader.line_num + 1
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                yield line_no, RecordError(str(exc))
                continue
            if not row:  # a blank line
                continue
            if len(row) != len(columns):  # zip would drop or shift fields
                yield line_no, RecordError(f"line:{line_no}: {len(row)} fields where the header has {len(columns)}")
                continue
            raw = dict(zip(columns, row))
            if raw.get("lyrics"):
                # CSV carries newlines escaped as the two-character sequence \n
                raw = dict(raw, lyrics=raw["lyrics"].replace("\\n", "\n"))
            yield line_no, raw


def ingest(
    path: str, format: str = "jsonl", *, max_reject_fraction: float = 0.5, drop_annotations: bool = True
) -> IngestResult:
    """Read a song dataset from disk, validate, and tokenize every record.

    Invalid records are collected into the reject report, never silently
    dropped. Ingestion order is preserved. The result's quality is not ok when
    more than `max_reject_fraction` of the rows are rejects; `drop_annotations`
    is passed to `tokenize`.
    """
    if not 0.0 <= max_reject_fraction <= 1.0:  # NaN fails too
        raise IngestError(f"max_reject_fraction must be in [0, 1], got {max_reject_fraction}")
    if format == "jsonl":
        rows = _iter_jsonl(path)
    elif format == "csv":
        rows = _iter_csv(path)
    else:
        raise IngestError(f"unknown format {format!r}")

    builder = _CorpusBuilder()
    rejects: list[Reject] = []
    seen_ids: set[str] = set()
    try:
        for line_no, raw in rows:
            if isinstance(raw, RecordError):
                rejects.append(Reject(line_no, None, str(raw)))
                continue
            try:
                rec = _validate_record(raw, drop_annotations, seen_ids, f"line:{line_no}")
            except RecordError as exc:
                rejects.append(Reject(line_no, _row_id(raw), str(exc)))
                continue
            seen_ids.add(rec.id)
            builder.add(rec)
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from exc

    digest_src = json.dumps(
        {
            "year_min": YEAR_MIN,
            "year_max": YEAR_MAX,
            "max_reject_fraction": max_reject_fraction,
            "drop_annotations": drop_annotations,
            "annotation_pattern": _ANNOTATION.pattern,
        },
        sort_keys=True,
    )
    provenance = {
        "source": path,
        "format": format,
        "config_digest": hashlib.sha256(digest_src.encode()).hexdigest()[:16],
        "max_reject_fraction": max_reject_fraction,
    }
    total = len(seen_ids) + len(rejects)  # each row is a song or a reject
    quality_ok = total > 0 and len(rejects) / total <= max_reject_fraction
    return IngestResult(builder.corpus(provenance), tuple(rejects), quality_ok)


def select_songs(corpus: Corpus, cohort: Optional[str] = None, year: Optional[int] = None) -> np.ndarray:
    """The positions of the songs of `cohort` (every cohort when None) in
    `year` (every year when None), ascending. Raises CorpusError for a cohort
    not in COHORTS."""
    if cohort is not None and cohort not in COHORTS:
        raise CorpusError(f"unknown cohort {cohort!r}, not one of {COHORTS}")
    keep = np.ones(len(corpus), dtype=bool) if cohort is None else corpus.cohorts == COHORTS.index(cohort)
    if year is not None:
        keep &= corpus.years == year
    return np.flatnonzero(keep)


def ranked_ids(counts: np.ndarray) -> np.ndarray:
    """The ids with a non-zero count in `counts` (as `token_counts` gives
    them), most frequent first, ties in id order: the words' string order."""
    ids = np.flatnonzero(counts)
    return ids[np.argsort(-counts[ids], kind="stable")]


def song_chunks(corpus: Corpus, songs: Optional[np.ndarray] = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The songs at the positions `songs` (every song when None), a chunk of at
    most `_TOKEN_CHUNK` tokens, or one longer song, at a time: the chunk's
    slice of `songs` (of 0, 1, ... when None) and its songs' token ids. A
    repeated position gives its song again. Anything but a 1-d integer array of
    positions in [0, len(corpus)) raises CorpusError; an empty one selects none."""
    bounds = offsets = corpus.song_bounds  # offsets: each song's start in the chunks' stream, then its end
    if songs is not None:
        songs, n = np.asarray(songs), len(corpus)
        if songs.ndim != 1 or songs.size and not (songs.dtype.kind in "iu" and 0 <= songs.min() <= songs.max() < n):
            raise CorpusError(f"song positions must be a 1-d integer array of values in [0, {n})")
        songs = songs.astype(np.int64)
        offsets = np.concatenate(([0], np.cumsum(bounds[songs + 1] - bounds[songs])))
    lo = 0
    while lo < len(offsets) - 1:
        hi = max(int(np.searchsorted(offsets, offsets[lo] + _TOKEN_CHUNK, side="right")) - 1, lo + 1)
        if songs is None:  # consecutive songs: a view
            yield np.arange(lo, hi), corpus.tokens[bounds[lo] : bounds[hi]]
        else:  # a running count of token positions, shifted at each song to its first token
            positions = np.repeat(bounds[songs[lo:hi]] - offsets[lo:hi] + offsets[lo], np.diff(offsets[lo : hi + 1]))
            positions += np.arange(len(positions))
            yield songs[lo:hi], corpus.tokens[positions]
        lo = hi


def token_counts(corpus: Corpus, songs: Optional[np.ndarray] = None) -> np.ndarray:
    """How often each vocabulary id occurs in the songs that `song_chunks`
    gives, a repeated one again: one int64 count per entry of `corpus.vocab`."""
    # bincount copies int32 input to int64, so it counts a chunk at a time
    counts = np.zeros(len(corpus.vocab), dtype=np.int64)
    for _, ids in song_chunks(corpus, songs):
        counts += np.bincount(ids, minlength=len(corpus.vocab))
    return counts


# ---------------------------------------------------------------------------
# cache serialization (version 4: a zip of .npy members, as np.load reads it)

CACHE_VERSION = 4  # 2: the header stores the song count; 3: rows hold only the record's fields; 4: binary
# one UTF-8 JSON object: cache_version, provenance, songs, vocab and ids
_META = "meta"
_ZIP_MAGIC = b"PK\x03\x04"


@contextmanager
def atomic_write(path: str, mode: str = "w", **open_kwargs):
    """A file object for writing `path`: it writes a temporary file beside
    `path` and moves it into place with os.replace when the block ends. On any
    exception the temporary file is removed, and `path` keeps what it held."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_cache(corpus: Corpus, path: str) -> None:
    """Write the corpus to `path`, atomically: the cache is written to a
    temporary file beside it and moved into place, so a failed write leaves
    any previous cache as it was."""
    meta = {
        "cache_version": CACHE_VERSION,
        "provenance": corpus.provenance,
        "songs": len(corpus),
        "vocab": corpus.vocab,
        "ids": corpus.ids,
    }
    members = {name: getattr(corpus, name) for name in _ARRAYS}
    members[_META] = np.frombuffer(json.dumps(meta, sort_keys=True, ensure_ascii=False).encode("utf-8"), np.uint8)
    # np.savez would stamp each member with the time of writing; a fixed
    # stamp makes the cache's bytes a function of the corpus alone
    with atomic_write(path, "wb") as fh, zipfile.ZipFile(fh, "w") as archive:
        for name, values in members.items():
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with archive.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(member, values, allow_pickle=False)


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
    except (ValueError, RecursionError):
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
    except (ValueError, RecursionError) as exc:
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
    """One JSON line per reject, naming the row by its id, or by its line
    number (a string) when it has none; written atomically as `save_cache` is."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for rej in rejects:
            where = {"line_no": str(rej.line_no)} if rej.id is None else {"id": rej.id}
            fh.write(json.dumps({**where, "reason": rej.reason}, sort_keys=True) + "\n")

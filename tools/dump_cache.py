"""Print a corpus cache as readable JSON lines.

The cache that `lyricstats ingest` writes is binary (version 4, see the
README). This prints it as the text cache of version 3 was laid out: one
header line with the cache version, the provenance and the song count, then
one JSON object per song with its id, year, cohort, duration_seconds (null
when missing) and lines (lists of tokens). A cache that `load_cache` refuses
ends the script with its one-line error and exit 1.

Usage: python tools/dump_cache.py CACHE
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from lyricstats.corpus import CACHE_VERSION, CorpusError, load_cache  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 1
    try:
        corpus = load_cache(argv[0])
    except (CorpusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    header = {"cache_version": CACHE_VERSION, "provenance": corpus.provenance, "songs": len(corpus)}
    print(json.dumps(header, sort_keys=True))
    for song in corpus:
        row = {"id": song.id, "year": song.year, "cohort": song.cohort,
               "duration_seconds": song.duration_seconds, "lines": song.lines}
        print(json.dumps(row, sort_keys=True, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

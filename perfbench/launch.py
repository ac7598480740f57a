"""Run one lyricstats step in this process, optionally traced.

    python3 perfbench/launch.py [--trace OUT.json] cli ARG...
    python3 perfbench/launch.py [--trace OUT.json] save-vectors WORDS.json VECTORS.npy OUT.txt

`cli` runs `lyricstats.cli.main(ARG...)` and exits with its code. `save-vectors`
builds an EmbeddingTable from the arrays and calls the library's
`save_vectors`. The package is imported from the `src` directory next to this
file's directory. With --trace, the public functions of the layer modules are
wrapped before the step runs, and the spans, the import time, the syllable
cache counters and the number of vector rows `load_vectors` returned are
written to OUT.json when the step ends.
"""

import json
import os
import sys
import time

START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import lyricstats.cli  # noqa: E402
import lyricstats.embeddings  # noqa: E402
import lyricstats.style  # noqa: E402

IMPORT_S = time.perf_counter() - START


def run_step(step: str, args: list[str]) -> int:
    if step == "cli":
        return lyricstats.cli.main(args)
    if step == "save-vectors":
        import numpy as np

        words_path, vectors_path, out_path = args
        with open(words_path, encoding="utf-8") as fh:
            words = json.load(fh)
        vectors = np.load(vectors_path)
        table = lyricstats.embeddings.EmbeddingTable(
            dim=vectors.shape[1], vocab={w: i for i, w in enumerate(words)}, vectors=vectors
        )
        lyricstats.embeddings.save_vectors(table, out_path)
        return 0
    print(f"launch: unknown step {step!r}", file=sys.stderr)
    return 2


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if not trace_path:
        return run_step(argv[0], argv[1:])

    from tracing import Recorder, instrument

    recorder = Recorder(measure={"embeddings.load_vectors": len})
    instrument(recorder)
    try:
        return run_step(argv[0], argv[1:])
    finally:
        info = lyricstats.style.count_syllables.cache_info()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "import_s": IMPORT_S,
                    "spans": recorder.spans,
                    "sizes": recorder.sizes,
                    "syllable_cache": {"hits": info.hits, "misses": info.misses},
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Time posting-list opening on a built index.

    python3 tools/list_open_probe.py INDEX_DIR STREAM_JSON [--repeat 5]

``STREAM_JSON`` is a JSON list of query records with a ``q`` field (and
optionally ``neg``), the format of perfbench's query streams; ``;`` CNF
group separators are ignored.  Every query term, in stream order, is one
lookup.  Each pass times all lookups in a row; the best of ``--repeat``
passes is printed as one JSON line, in microseconds per call:

* ``reader_open_list_us``: ``IndexReader.open_list`` (lexicon lookup and
  cursor creation), over every lookup, missing terms included;
* ``compress_open_list_us``: ``compress.open_list`` alone, over the byte
  slice of every list the found terms name (each heavy-hitter segment
  counts once);
* ``lexicon_get_us``: the lexicon dict lookup alone.

The index is opened once and is neither built nor written.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np  # noqa: E402

from invertedindexbuilder_ray.oracle import tokenize  # noqa: E402
from invertedindexbuilder_ray.stages import compress  # noqa: E402
from invertedindexbuilder_ray.state.reader import IndexReader  # noqa: E402


def stream_terms(path: str) -> list[str]:
    with open(path) as f:
        stream = json.load(f)
    return [
        t
        for q in stream
        for text in (q["q"].replace(";", " "), q.get("neg") or "")
        for t in tokenize(text + " ", drop_trailing=True)
    ]


def best_us(fn, items: list, repeat: int) -> float:
    """Best-of-``repeat`` time of ``fn`` over all ``items``, per item."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeat):
            t0 = time.perf_counter_ns()
            for x in items:
                fn(x)
            best = min(best, time.perf_counter_ns() - t0)
    finally:
        gc.enable()
    return best / 1e3 / max(len(items), 1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("index_dir")
    ap.add_argument("stream")
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    r = IndexReader(args.index_dir)
    terms = stream_terms(args.stream)
    bufs = [
        np.asarray(r._blob(pid)[off : off + nbytes])
        for t in terms
        if t in r.lexicon
        for _seg, pid, off, nbytes in r.lexicon[t][1]
    ]
    out = {
        "lookups": len(terms),
        "lists": len(bufs),
        "lexicon_terms": len(r.lexicon),
        "reader_open_list_us": best_us(r.open_list, terms, args.repeat),
        "compress_open_list_us": best_us(compress.open_list, bufs, args.repeat),
        "lexicon_get_us": best_us(r.lexicon.get, terms, args.repeat),
    }
    print(json.dumps({k: round(v, 3) if isinstance(v, float) else v
                      for k, v in out.items()}))


if __name__ == "__main__":
    main()

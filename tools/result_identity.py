#!/usr/bin/env python3
"""Print every result list of a query stream, for a before/after identity diff.

    python3 tools/result_identity.py INDEX_DIR SHARD0 SHARD1 STREAM_JSON > out.txt

``STREAM_JSON`` is a JSON list of query records ``{"mode", "q", "neg",
"msm"}`` (mode one of and, or, andnot, cnf, msm), the format of
perfbench's query streams (``python3 -m perfbench.inputs``).  ``INDEX_DIR``
is one index over a corpus, ``SHARD0``/``SHARD1`` two indexes over
consecutive slices of it (local dense ids, served with
``offset_doc_ids=True``).

Each query is asked at k = 1, 10 and 37 of five engines, and each answer
is one output line ``engine<TAB>k<TAB>query#<TAB>repr(result)``:

* ``QueryEngine.search`` under conformance/correct AND × reference heap /
  total-order selection (the full result dicts, urls included);
* ``ShardedEngine.search`` over the shard pair, conformance and correct,
  asked with the same ``neg_query`` and ``msm`` operands.

Run it on two checkouts and ``diff`` the outputs: any line that differs is
a changed result.  The last line (to stderr) counts the lists printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

MODE_IDS = {"and": 0, "or": 1, "andnot": 2, "cnf": 3, "msm": 4}
KS = (1, 10, 37)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("index")
    ap.add_argument("shards", nargs=2)
    ap.add_argument("stream")
    args = ap.parse_args()
    with open(args.stream) as f:
        stream = json.load(f)

    import ray

    ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR")
    from invertedindexbuilder_ray.pipelines.query import QueryEngine
    from invertedindexbuilder_ray.pipelines.shards import ShardedEngine

    engines = {
        f"mono/{'conf' if conf else 'correct'}/{'total' if total else 'heap'}":
            QueryEngine(args.index, conformance=conf, total_order_topk=total)
        for conf in (True, False)
        for total in (False, True)
    }
    engines.update({
        f"sharded/{'conf' if conf else 'correct'}":
            ShardedEngine(args.shards, conformance=conf, offset_doc_ids=True)
        for conf in (True, False)
    })
    n = 0
    try:
        for i, q in enumerate(stream):
            mode = MODE_IDS[q["mode"]]
            for k in KS:
                for name, eng in engines.items():
                    got = eng.search(q["q"], k, mode, neg_query=q["neg"], msm=q["msm"])
                    print(f"{name}\t{k}\t{i}\t{got!r}")
                    n += 1
    finally:
        ray.shutdown()
    print(f"{n} result lists", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

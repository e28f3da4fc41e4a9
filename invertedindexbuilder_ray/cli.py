"""CLI driver — the engine's equivalent of the reference's ``./main -b / -q``
(/root/reference/src/main.c:310-502), runnable under ``ray job submit``:

    python -m invertedindexbuilder_ray build --input DIR --out IDX \
        [--format webpages|documents] [--partitions P] [--prefix-fraction 0.3]
    python -m invertedindexbuilder_ray query --index IDX --terms "a b c" \
        [--k 10] [--mode and|or|cnf] [--correct]
    python -m invertedindexbuilder_ray repl --index IDX
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = {}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(
            address="local", include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR", **kwargs,
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_build(args) -> int:
    _init_ray(args.num_cpus)
    from .pipelines.build import _fingerprint, build_index
    from .sources.documents import load_documents
    from .sources.webpages import load_webpages, resolve_paths

    # content fingerprint (path+size+mtime per file), NOT the raw path — a
    # changed input at the same path must invalidate the resume checkpoint.
    # Each format fingerprints ITS OWN discovered file list: the parquet glob
    # is empty for a TREC dir, and an empty fingerprint would silently skip
    # the stale-resume guard (ADVICE r2).
    if args.format == "webpages":
        ds = load_webpages(args.input, prefix_fraction=args.prefix_fraction)
        input_paths = resolve_paths(args.input)
    elif args.format == "trec":
        from .sources.trec import load_trec, resolve_trec_paths

        ds = load_trec(args.input)
        input_paths = resolve_trec_paths(args.input)
    elif args.format == "jsonl":
        import glob as _glob

        from .sources.documents import load_documents_jsonl

        ds = load_documents_jsonl(args.input)
        input_paths = (
            sorted(_glob.glob(os.path.join(args.input, "*.jsonl")))
            if os.path.isdir(args.input)
            else [args.input]
        )
    else:
        ds = load_documents(args.input)
        input_paths = resolve_paths(args.input)
    if not input_paths:
        raise SystemExit(f"no input files found under {args.input!r}")
    man = build_index(
        ds,
        args.out,
        num_partitions=args.partitions,
        input_fingerprint=_fingerprint(input_paths),
        resume=not args.no_resume,
    )
    print(json.dumps({"n_docs": man.n_docs, **man.stats}))
    return 0


def cmd_merge(args) -> int:
    _init_ray(args.num_cpus)
    from .pipelines.merge import merge_indexes

    man = merge_indexes(
        args.inputs, args.out,
        offset_doc_ids=not args.global_ids, resume=not args.no_resume,
    )
    print(json.dumps({"n_docs": man.n_docs, **man.stats}))
    return 0


def cmd_delete(args) -> int:
    """Tombstone deletion: --mark-only records query-time tombstones in
    the index itself (merge.mark_deleted, no re-encode); the default
    compacts into --out (merge.delete_docs).  Doc ids from --ids
    (comma-separated) and/or --ids-file (one id per line)."""
    ids: list[int] = []
    if args.ids:
        ids.extend(int(x) for x in args.ids.split(",") if x.strip())
    if args.ids_file:
        with open(args.ids_file) as f:
            ids.extend(int(line) for line in f if line.strip())
    if not ids:
        raise SystemExit("delete: no tombstones given (--ids / --ids-file)")
    if args.mark_only:
        from .pipelines.merge import mark_deleted

        n = mark_deleted(args.index, ids)  # pure file op: no Ray session
        print(json.dumps({"index": args.index, "n_tombstones": n}))
        return 0
    if not args.out:
        raise SystemExit("delete: --out is required unless --mark-only")
    _init_ray(args.num_cpus)
    from .pipelines.merge import delete_docs

    man = delete_docs(args.index, ids, args.out, resume=not args.no_resume)
    print(json.dumps({"n_docs": man.n_docs, **man.stats}))
    return 0


def cmd_update(args) -> int:
    """Document UPDATE (merge.update_docs): mark the old versions deleted,
    delta-index the new ones under the same doc_ids, compact to --out."""
    _init_ray(args.num_cpus)
    from .pipelines.merge import update_docs
    from .sources.documents import load_documents

    man = update_docs(
        args.index, load_documents(args.docs), args.out,
        resume=not args.no_resume,
    )
    print(json.dumps({"n_docs": man.n_docs, **man.stats}))
    return 0


def cmd_ingest(args) -> int:
    """Rolling ingest (pipelines/ingest.py): delta-vs-corpus near-dedup
    through the durable signature checkpoint, extend_index with the
    survivors, roll the checkpoint forward; prints the JSON report
    (carry its corpus_fingerprint into the next chained ingest)."""
    _init_ray(args.num_cpus)
    from .pipelines.ingest import ingest_delta
    from .sources.documents import load_documents

    rep = ingest_delta(
        args.index,
        args.corpus,
        load_documents(args.delta),
        args.out,
        threshold=args.threshold,
        dedup=not args.no_dedup,
        resume=not args.no_resume,
        corpus_fingerprint=args.fingerprint,
    )
    man = rep.pop("manifest")
    print(json.dumps({"n_docs": man.n_docs, **rep}))
    return 0


def cmd_gc(args) -> int:
    """Prune stale signature / ANN checkpoint cache entries (state/gc.py);
    pure filesystem work — no Ray session needed."""
    from .state.gc import default_roots, gc_ckpt_root

    roots = args.roots or default_roots()
    out = {}
    for root in roots:
        out[root] = gc_ckpt_root(
            root, max_age_days=args.max_age_days, dry_run=args.dry_run
        )
    print(json.dumps({"dry_run": args.dry_run, "removed": out}))
    return 0


def cmd_run(args) -> int:
    """Run any catalog pipeline over an sf-style table dir; write parquet
    or print.  `--list` enumerates the available pipelines."""
    from .pipelines.catalog import QUERIES

    if args.list:
        for name in sorted(QUERIES):
            print(name)
        return 0
    if not args.pipeline or not args.input:
        raise SystemExit(
            "usage: run --pipeline NAME --input DIR [--out PATH] "
            "(or `run --list` to enumerate pipelines)"
        )
    if args.pipeline not in QUERIES:
        raise SystemExit(
            f"unknown pipeline {args.pipeline!r}; `run --list` shows the catalog"
        )
    _init_ray(args.num_cpus)
    fn, _sql = QUERIES[args.pipeline]
    res = fn(args.input)
    if args.out:
        import pandas as pd
        import ray.data as rd

        if isinstance(res, pd.DataFrame):
            res = rd.from_pandas(res)
        res.write_parquet(args.out)
        print(json.dumps({"pipeline": args.pipeline, "out": args.out}))
    else:
        df = res if hasattr(res, "to_string") else res.to_pandas()
        print(df.to_string(index=False, max_rows=50))
    if getattr(args, "stats", False) and hasattr(res, "stats"):
        # per-operator wall/cpu/rows breakdown of the executed pipeline —
        # the "why is this stage slow" introspection hook
        print(res.stats(), file=sys.stderr)
    return 0


def _modes() -> dict[str, int]:
    """The mode words of ``query --mode`` and the REPL."""
    from .pipelines.query import CNF, CONJUNCTIVE, DISJUNCTIVE

    return {"and": CONJUNCTIVE, "or": DISJUNCTIVE, "cnf": CNF}


def cmd_query(args) -> int:
    _init_ray(args.num_cpus)
    from .pipelines.query import QueryEngine

    if not args.shards and not args.index:
        raise SystemExit("query needs --index or --shards")
    mode = _modes()[args.mode]
    if args.shards:
        from .pipelines.shards import ShardedEngine

        eng = ShardedEngine(
            args.shards,
            conformance=args.conformance,
            offset_doc_ids=not args.global_ids,
        )
        ranked = eng.search(args.terms, args.k, mode)
        for rank, (doc, score) in enumerate(ranked, 1):
            print(f"[{rank}]\tdoc:{doc}\nBM25: \t{score:.6f}\n")
        if not ranked:
            print("No result found.")
        return 0
    eng = QueryEngine(args.index, conformance=args.conformance)
    hits = eng.search(args.terms, args.k, mode)
    for h in hits:
        print(f"[{h['rank']}]\t{h['url']}\nBM25: \t{h['score']:.6f}\n")
    if not hits:
        print("No result found.")
    return 0


def cmd_repl(args) -> int:
    """Interactive loop mirroring the reference's ``q()`` REPL."""
    _init_ray(args.num_cpus)
    from .pipelines.query import QueryEngine

    eng = QueryEngine(args.index)
    modes = _modes()
    print("Ready. Lines:  <k> <and|or|cnf> <terms...>   (Ctrl-D to exit)")
    for line in sys.stdin:
        parts = line.split(None, 2)
        if len(parts) < 3 or not parts[0].isdecimal() or parts[1] not in modes:
            print("usage: <k> <and|or|cnf> <terms...>")
            continue
        for h in eng.search(parts[2], int(parts[0]), modes[parts[1]]):
            print(f"[{h['rank']}]\t{h['url']}\nBM25: \t{h['score']:.6f}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="invertedindexbuilder_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("--input", required=True)
    b.add_argument("--out", required=True)
    b.add_argument(
        "--format", choices=["webpages", "documents", "trec", "jsonl"],
        default="webpages"
    )
    b.add_argument("--partitions", type=int, default=16)
    b.add_argument(
        "--prefix-fraction", type=float, default=None,
        help="index only the first fraction of input bytes (reference -p)",
    )
    b.add_argument("--no-resume", action="store_true")
    b.set_defaults(fn=cmd_build)

    mg = sub.add_parser("merge", help="compact N indexes into one (byte-identical to a full rebuild)")
    mg.add_argument("--inputs", nargs="+", required=True)
    mg.add_argument("--out", required=True)
    mg.add_argument(
        "--global-ids", action="store_true",
        help="inputs already carry globally unique doc_ids (no offsetting)",
    )
    mg.add_argument("--no-resume", action="store_true")
    mg.set_defaults(fn=cmd_merge)

    up = sub.add_parser(
        "update",
        help="replace docs in place: mark old versions deleted + delta-index "
        "the new versions (same doc_ids) + compact into --out",
    )
    up.add_argument("--index", required=True)
    up.add_argument("--docs", required=True,
                    help="dir with a documents.parquet of the NEW versions")
    up.add_argument("--out", required=True)
    up.add_argument("--no-resume", action="store_true")
    up.set_defaults(fn=cmd_update)

    ig = sub.add_parser(
        "ingest",
        help="rolling ingest: near-dedup the delta against the corpus "
        "(durable signature checkpoint — the corpus is never re-sketched), "
        "extend the index with the survivors, roll the checkpoint forward",
    )
    ig.add_argument("--index", required=True)
    ig.add_argument("--corpus", required=True,
                    help="dir with the EXISTING corpus documents.parquet")
    ig.add_argument("--delta", required=True,
                    help="dir with a documents.parquet of NEW docs "
                    "(globally-unique ids after the corpus range)")
    ig.add_argument("--out", required=True)
    ig.add_argument("--threshold", type=float, default=0.5)
    ig.add_argument("--no-dedup", action="store_true",
                    help="skip the dedup pass (plain extend_index)")
    ig.add_argument("--fingerprint", default="",
                    help="corpus_fingerprint from a previous ingest report "
                    "(chained ingest against the rolled checkpoint)")
    ig.add_argument("--no-resume", action="store_true")
    ig.set_defaults(fn=cmd_ingest)

    dl = sub.add_parser(
        "delete",
        help="tombstone doc ids out of an index (compaction without re-tokenizing)",
    )
    dl.add_argument("--index", required=True)
    dl.add_argument("--out", default=None, help="output dir (required unless --mark-only)")
    dl.add_argument("--ids", default="", help="comma-separated doc ids")
    dl.add_argument("--ids-file", default=None, help="file with one doc id per line")
    dl.add_argument("--no-resume", action="store_true")
    dl.add_argument(
        "--mark-only", action="store_true",
        help="query-time tombstones only (O(|ids|), no re-encode; stats keep "
        "counting marked docs until a compaction — Lucene live-docs contract)",
    )
    dl.set_defaults(fn=cmd_delete)

    gc = sub.add_parser(
        "gc",
        help="prune stale signature/ANN checkpoint caches (LRU-by-creation "
        "via the _SUCCESS marker mtime; caches are re-created on demand)",
    )
    gc.add_argument("--max-age-days", type=float, default=7.0)
    gc.add_argument("--dry-run", action="store_true")
    gc.add_argument("roots", nargs="*", help="checkpoint roots (default: "
                    "IIB_SIG_CKPT_DIR and IIB_ANN_CKPT_DIR)")
    gc.set_defaults(fn=cmd_gc)

    rn = sub.add_parser(
        "run", help="run a catalog pipeline (dedup/similarity/text/clean/...) over a table dir"
    )
    rn.add_argument("--pipeline", default="")
    rn.add_argument("--input", default="", help="dir holding the sf-style parquet tables")
    rn.add_argument("--out", default=None, help="write result parquet here (else print)")
    rn.add_argument(
        "--stats", action="store_true",
        help="print ds.stats() execution breakdown for Dataset results",
    )
    rn.add_argument("--list", action="store_true")
    rn.set_defaults(fn=cmd_run)

    q = sub.add_parser("query")
    q.add_argument("--index", default=None)
    q.add_argument(
        "--shards", nargs="+", default=None,
        help="query N shard indexes scatter-gather (document-partitioned tier)",
    )
    q.add_argument(
        "--global-ids", action="store_true",
        help="shards already carry globally unique doc_ids (no offsetting)",
    )
    q.add_argument("--terms", required=True)
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--mode", choices=["and", "or", "cnf"], default="and",
                   help="cnf: ';'-separated OR groups, e.g. 'data join; merge'")
    q.add_argument("--correct", dest="conformance", action="store_false",
                   help="correct-mode AND instead of the reference's quirks")
    q.set_defaults(fn=cmd_query)

    r = sub.add_parser("repl")
    r.add_argument("--index", required=True)
    r.set_defaults(fn=cmd_repl)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

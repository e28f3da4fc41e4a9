"""Index merge / compaction: N indexes over disjoint corpora -> ONE index,
byte-identical to a full rebuild over the concatenated corpus.

The reference performs a k-way merge once, inside its build
(/root/reference/src/merge.c); here it is a standalone operator — the
production "compact many incremental indexes" path a training-data
pipeline needs for rolling ingestion.  Shape:

  for each (input index i, partition p): ONE task decodes partition p of
  index i back to posting rows (term, doc_id + offset_i, tf, dl,
  partition=p) and writes them straight into the hive-partitioned
  checkpoint layout build_index uses            # embarrassingly parallel,
                                                # ZERO shuffles — partition
                                                # p rows land in partition=p
  docs tables are offset + unioned -> merged docs dir
  phase 3 of the normal build (BuildPartition) re-encodes each partition
  with the UNION's (n_docs, d_avr) BM25 stats

doc_id contract: inputs were built from consecutive corpus slices in
list order (webpages-source ids are dense per build), so index i's ids
shift by sum(max_doc_id of earlier inputs).  Pass
``offset_doc_ids=False`` when inputs already carry globally unique ids
(documents-table source).

Byte-identity with a full rebuild holds because phase 3 is deterministic
given (partition rows, n_docs, d_avr) and both paths aggregate the same
merged docs table — asserted by ``tests/test_merge.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd
from ray.data.aggregate import Count, Max, Sum

from ..state import manifest as mf
from ..state.manifest import IndexManifest
from ..state.reader import PostingCursor
from ..state.reader_docs import DocTable
from .build import (
    CKPT_DIR,
    DOCS_DIR,
    LEXICON_DIR,
    PARTS_META_DIR,
    POSTINGS_DIR,
    BuildPartition,
)


def _partition_posting_rows(
    index_dir: str, pid: int, doc_offset: int, dl: np.ndarray, man: dict
) -> pa.Table:
    """Decode one partition of one index back to posting rows."""
    lex_path = os.path.join(index_dir, LEXICON_DIR, f"part-{pid:05d}.parquet")
    blob_path = os.path.join(index_dir, POSTINGS_DIR, f"part-{pid:05d}.bin")
    lex = pq.read_table(lex_path)
    if lex.num_rows == 0:
        return pa.table(
            {
                "term": pa.array([], pa.string()),
                "doc_id": pa.array([], pa.int64()),
                "tf": pa.array([], pa.int32()),
                "dl": pa.array([], pa.int64()),
                "partition": pa.array([], pa.int32()),
            }
        )
    blob = np.memmap(blob_path, dtype=np.uint8, mode="r")
    terms = lex["term"].to_pylist()
    segs = lex["seg"].to_numpy()
    offs = lex["offset"].to_numpy()
    nbs = lex["nbytes"].to_numpy()
    # lexicon rows are written in (term, seg) build order; decode in order
    out_terms: list[str] = []
    out_docs: list[np.ndarray] = []
    out_tfs: list[np.ndarray] = []
    counts: list[int] = []
    order = np.lexsort((segs, np.asarray(terms, dtype=object)))
    for i in order:
        cur = PostingCursor(
            np.asarray(blob[offs[i] : offs[i] + nbs[i]]),
            block_max=man["block_max"],
            max_doc_id=man["max_doc_id"],
            term=terms[i],
        )
        docs, tfs = cur.decode_all_remaining()
        out_terms.append(terms[i])
        out_docs.append(docs)
        out_tfs.append(tfs)
        counts.append(len(docs))
    docs_all = np.concatenate(out_docs) if out_docs else np.empty(0, np.int64)
    tfs_all = np.concatenate(out_tfs) if out_tfs else np.empty(0, np.int64)
    term_col = pa.DictionaryArray.from_arrays(
        pa.array(np.repeat(np.arange(len(out_terms)), counts), pa.int32()),
        pa.array(out_terms, pa.string()),
    ).cast(pa.string())
    return pa.table(
        {
            "term": term_col,
            "doc_id": pa.array(docs_all + doc_offset, pa.int64()),
            "tf": pa.array(tfs_all.astype(np.int32), pa.int32()),
            "dl": pa.array(dl[docs_all], pa.int64()),
            "partition": pa.array(np.full(len(docs_all), pid, np.int32)),
        }
    )


class _DecodePartition:
    """Task: (index_i, pid) descriptor -> posting rows for the checkpoint.

    The per-index doc-length arrays ride the object store once
    (``ray.put``), read by every task — at 10^9+ docs per input these
    become per-index parquet side files instead of one array."""

    def __init__(self, index_dirs, offsets, dl_refs, manifests, tomb_refs=None):
        self.index_dirs = index_dirs
        self.offsets = offsets
        self.dl_refs = dl_refs
        self.manifests = manifests
        self.tomb_refs = tomb_refs

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        out = []
        for j in range(batch.num_rows):
            i = batch["index_i"][j].as_py()
            pid = batch["pid"][j].as_py()
            dl = ray.get(self.dl_refs[i])
            t = _partition_posting_rows(
                self.index_dirs[i], pid, self.offsets[i], dl, self.manifests[i]
            )
            if self.tomb_refs is not None:
                # Lucene merge semantics: query-time tombstones
                # (merge.mark_deleted) are compacted away here — tomb is
                # the input's sorted LOCAL set shifted by its doc offset,
                # matching the rows' already-offset ids
                tomb = ray.get(self.tomb_refs[i])
                if len(tomb):
                    ids = t["doc_id"].to_numpy(zero_copy_only=False)
                    pos = np.minimum(
                        np.searchsorted(tomb, ids), len(tomb) - 1
                    )
                    t = t.filter(pa.array(~(tomb[pos] == ids)))
            out.append(t)
        return pa.concat_tables(out)


def extend_index(
    index_dir: str,
    new_source: "rd.Dataset",
    out_dir: str,
    *,
    delta_dir: str | None = None,
    offset_doc_ids: bool = True,
    resume: bool = True,
) -> IndexManifest:
    """Rolling ingestion: index ``new_source`` as a delta (doc_ids local,
    i.e. the corpus slice AFTER the existing index's docs), then compact
    ``index_dir`` + delta into ``out_dir``.  The result is byte-identical
    to rebuilding over the concatenated corpus (merge_indexes contract).
    Pass ``offset_doc_ids=False`` when ``new_source`` already carries
    globally unique ids (documents-table source)."""
    from .build import build_index

    base = IndexManifest.load(index_dir)
    if delta_dir is None:
        delta_dir = os.path.join(out_dir + ".delta")
    build_index(
        new_source,
        delta_dir,
        num_partitions=base.num_partitions,
        block_max=base.block_max,
        resume=resume,
    )
    return merge_indexes(
        [index_dir, delta_dir], out_dir,
        offset_doc_ids=offset_doc_ids, resume=resume,
    )


def update_docs(
    index_dir: str,
    new_versions: "rd.Dataset",
    out_dir: str,
    *,
    doc_ids=None,
    resume: bool = True,
) -> IndexManifest:
    """Document UPDATE = delete + re-add, completing the index CRUD
    lifecycle (build / extend / mark_deleted / delete_docs / merge):
    mark the old versions deleted in ``index_dir`` (query-time, O(|ids|)
    — readers opened from here on already serve the delete), then index
    ``new_versions`` (which carry the SAME doc_ids) as a delta and
    compact; the merge drops the tombstoned old rows, so the output is
    byte-identical to a rebuild over the corpus with those docs'
    content replaced.  ``doc_ids`` defaults to the ids present in
    ``new_versions`` (one bounded column scan)."""
    if doc_ids is None:
        doc_ids = [
            int(r["doc_id"])
            for b in new_versions.select_columns(["doc_id"]).iter_batches(
                batch_format="pyarrow"
            )
            for r in b.to_pylist()
        ]
    mark_deleted(index_dir, doc_ids)
    return extend_index(
        index_dir, new_versions, out_dir,
        offset_doc_ids=False, resume=resume,
    )


def merge_indexes(
    index_dirs: list[str],
    out_dir: str,
    *,
    offset_doc_ids: bool = True,
    resume: bool = True,
) -> IndexManifest:
    """Merge indexes built over disjoint corpus slices into one index."""
    import ray
    import shutil

    mans = [IndexManifest.load(d) for d in index_dirs]
    p = mans[0].num_partitions
    bm = mans[0].block_max
    for m in mans[1:]:
        if m.num_partitions != p or m.block_max != bm:
            raise ValueError(
                "merge_indexes requires identical num_partitions and block_max "
                f"across inputs (got {[(m.num_partitions, m.block_max) for m in mans]})"
            )
    offsets = []
    acc = 0
    for m in mans:
        offsets.append(acc if offset_doc_ids else 0)
        acc += m.max_doc_id

    # query-time tombstones (mark_deleted) are COMPACTED AWAY by a merge —
    # the Lucene merge contract: the output contains no marked doc and its
    # stats count only survivors.  Local sorted sets, one per input.
    tombs = []
    for d in index_dirs:
        tp = os.path.join(d, "tombstones.bin")
        tombs.append(
            np.fromfile(tp, dtype=np.int64)
            if os.path.exists(tp)
            else np.empty(0, np.int64)
        )

    os.makedirs(out_dir, exist_ok=True)
    ckpt = os.path.join(out_dir, CKPT_DIR)
    docs_dir = os.path.join(out_dir, DOCS_DIR)
    if not resume:
        for sub in (CKPT_DIR, DOCS_DIR, POSTINGS_DIR, LEXICON_DIR, PARTS_META_DIR):
            pth = os.path.join(out_dir, sub)
            if os.path.isdir(pth):
                shutil.rmtree(pth)
    fingerprint = ";".join(
        f"{d}:{m.input_fingerprint}:{m.n_docs}"
        + (
            ":t" + hashlib.md5(t.tobytes()).hexdigest()[:12]
            if len(t)
            else ""
        )
        for d, m, t in zip(index_dirs, mans, tombs)
    )

    # Stale-resume guard (mirrors build_index): resuming into an out_dir whose
    # docs/ckpt were produced from DIFFERENT input indexes must fail loudly,
    # not silently re-encode stale rows under a manifest claiming the new
    # inputs.  The fingerprint is stored in each stage's _SUCCESS meta.
    def _check_stale(stage_dir: str, stage: str) -> None:
        if not (resume and mf.is_complete(stage_dir)):
            return
        try:
            prev = json.load(open(mf.marker_path(stage_dir))).get("fingerprint", "")
        except (OSError, ValueError):
            prev = ""
        if prev and prev != fingerprint:
            raise ValueError(
                f"resume requested at {out_dir} but its {stage} was merged from "
                f"different inputs (fingerprint {prev!r} != {fingerprint!r}); "
                "use a fresh out_dir or resume=False"
            )

    _check_stale(docs_dir, "docs table")
    _check_stale(ckpt, "checkpoint")

    # ---- merged docs table (offset ids, one union write)
    if not (resume and mf.is_complete(docs_dir)):
        if os.path.isdir(docs_dir):
            shutil.rmtree(docs_dir)
        parts = []
        for d, off, tomb in zip(index_dirs, offsets, tombs):

            def shift(t: pa.Table, off=off, tomb=tomb) -> pa.Table:
                ids = t["doc_id"].to_numpy(zero_copy_only=False)
                if len(tomb) and len(ids):
                    # compact tombstoned docs out of the union (local ids)
                    pos = np.minimum(np.searchsorted(tomb, ids), len(tomb) - 1)
                    keep = ~(tomb[pos] == ids)
                    t = t.filter(pa.array(keep))
                    ids = ids[keep]
                return t.set_column(
                    t.schema.get_field_index("doc_id"),
                    "doc_id",
                    pa.array(ids + off, pa.int64()),
                )

            src = rd.read_parquet(
                os.path.join(d, DOCS_DIR), columns=["doc_id", "dl", "url"]
            )
            parts.append(src.map_batches(shift, batch_format="pyarrow"))
        ds = parts[0]
        for extra in parts[1:]:
            ds = ds.union(extra)
        ds.write_parquet(docs_dir)
        mf.mark_complete(docs_dir, {"fingerprint": fingerprint})

    stats = (
        rd.read_parquet(docs_dir, columns=["doc_id", "dl"])
        .aggregate(Count(), Sum("dl"), Max("doc_id"))
    ) or {}
    n_docs = int(stats.get("count()") or 0)
    sum_dl = int(stats.get("sum(dl)") or 0)
    max_doc_id = int(stats["max(doc_id)"]) + 1 if n_docs else 0
    d_avr = (sum_dl / (n_docs - 1)) if n_docs > 1 else float(sum_dl)  # quirk Q6

    # ---- checkpoint: decode every (index, partition) in parallel, write
    # hive-partitioned (rows already carry partition=p -> zero shuffle)
    if not (resume and mf.is_complete(ckpt)):
        if os.path.isdir(ckpt):
            shutil.rmtree(ckpt)
        dl_refs = [
            ray.put(DocTable.load(os.path.join(d, DOCS_DIR), m.max_doc_id).dl)
            for d, m in zip(index_dirs, mans)
        ]
        items = [
            {"index_i": i, "pid": pid}
            for i in range(len(index_dirs))
            for pid in range(p)
        ]
        tomb_refs = (
            [ray.put(t + o) for t, o in zip(tombs, offsets)]
            if any(len(t) for t in tombs)
            else None
        )
        rd.from_items(items).map_batches(
            _DecodePartition(
                index_dirs, offsets, dl_refs,
                [{"block_max": m.block_max, "max_doc_id": m.max_doc_id} for m in mans],
                tomb_refs,
            ),
            batch_format="pyarrow",
            batch_size=1,
        ).write_parquet(ckpt, partition_cols=["partition"])
        mf.mark_complete(ckpt, {"fingerprint": fingerprint})

    # ---- re-encode each partition with the UNION stats (normal phase 3)
    t0 = time.perf_counter()
    builder = BuildPartition(
        out_dir, ckpt, n_docs, d_avr, bm,
        resume=resume, ckpt_token=fingerprint,
    )
    metrics_rows = (
        rd.from_items([{"pid": q} for q in range(p)])
        .map_batches(builder, batch_format="pyarrow", batch_size=1)
        .take_all()
    )
    partitions = {
        str(r["partition"]): json.loads(r["metrics"]) for r in metrics_rows
    }

    man = IndexManifest(
        n_docs=n_docs,
        sum_dl=sum_dl,
        d_avr=d_avr,
        max_doc_id=max_doc_id,
        num_partitions=p,
        block_max=bm,
        input_fingerprint=fingerprint,
        partitions=partitions,
        stats={
            "total_postings": sum(q.get("rows", 0) for q in partitions.values()),
            "distinct_terms": sum(q.get("n_terms", 0) for q in partitions.values()),
            "index_bytes": sum(q.get("blob_bytes", 0) for q in partitions.values()),
            "merged_from": index_dirs,
            "merge_encode_s": round(time.perf_counter() - t0, 3),
        },
    )
    man.save(out_dir)
    return man


class _DeletePartition:
    """Task: partition id -> FILTERED posting rows for the checkpoint.

    Tombstoned doc_ids ride the object store once as a sorted array
    (``ray.put``); each task decodes its partition and drops their
    postings with one vectorized membership probe.  Kept docs keep their
    ORIGINAL ids (stable external references; doc-id density is not
    assumed anywhere — dl lookups stay index-by-id)."""

    def __init__(self, index_dir, dl_ref, tomb_ref, man):
        self.index_dir = index_dir
        self.dl_ref = dl_ref
        self.tomb_ref = tomb_ref
        self.man = man

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        dl = ray.get(self.dl_ref)
        tomb = ray.get(self.tomb_ref)
        out = []
        for j in range(batch.num_rows):
            pid = batch["pid"][j].as_py()
            t = _partition_posting_rows(self.index_dir, pid, 0, dl, self.man)
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(tomb, ids)
            pos = np.minimum(pos, max(len(tomb) - 1, 0))
            dead = (tomb[pos] == ids) if len(tomb) else np.zeros(len(ids), bool)
            out.append(t.filter(pa.array(~dead)))
        return pa.concat_tables(out)


def delete_docs(
    index_dir: str,
    tombstones,
    out_dir: str,
    *,
    resume: bool = True,
) -> IndexManifest:
    """Tombstone deletion + compaction: remove ``tombstones`` (iterable of
    doc_ids) from ``index_dir`` WITHOUT re-tokenizing the corpus, into
    ``out_dir`` — byte-identical to ``build_index`` over the filtered
    corpus (asserted by ``tests/test_merge.py``), because phase 3 is
    deterministic given (partition rows, n_docs, d_avr) and both paths
    see the same filtered rows and recomputed stats.

    Shape: one decode+filter task per partition (embarrassingly
    parallel, zero shuffles — filtered rows keep their partition), docs
    table filtered in one streaming pass, then the normal phase-3
    re-encode with the post-delete BM25 stats.  Cost is proportional to
    the INDEX size, not the corpus text."""
    import ray
    import shutil

    man = IndexManifest.load(index_dir)
    p = man.num_partitions
    tomb = np.unique(np.asarray(sorted(set(int(t) for t in tombstones)),
                                dtype=np.int64))

    os.makedirs(out_dir, exist_ok=True)
    ckpt = os.path.join(out_dir, CKPT_DIR)
    docs_dir = os.path.join(out_dir, DOCS_DIR)
    if not resume:
        for sub in (CKPT_DIR, DOCS_DIR, POSTINGS_DIR, LEXICON_DIR, PARTS_META_DIR):
            pth = os.path.join(out_dir, sub)
            if os.path.isdir(pth):
                shutil.rmtree(pth)
    import hashlib

    # md5, not hash(): Python's bytes hash is salted per process, which
    # would break resume fingerprints across runs
    tomb_digest = hashlib.md5(tomb.tobytes()).hexdigest()[:16]
    fingerprint = (
        f"delete:{index_dir}:{man.input_fingerprint}:{man.n_docs}"
        f":{tomb_digest}"
    )

    def _check_stale(stage_dir: str, stage: str) -> None:
        if not (resume and mf.is_complete(stage_dir)):
            return
        try:
            prev = json.load(open(mf.marker_path(stage_dir))).get("fingerprint", "")
        except (OSError, ValueError):
            prev = ""
        if prev and prev != fingerprint:
            raise ValueError(
                f"resume requested at {out_dir} but its {stage} came from a "
                f"different delete (fingerprint {prev!r} != {fingerprint!r}); "
                "use a fresh out_dir or resume=False"
            )

    _check_stale(docs_dir, "docs table")
    _check_stale(ckpt, "checkpoint")

    # ---- filtered docs table (original ids kept)
    if not (resume and mf.is_complete(docs_dir)):
        if os.path.isdir(docs_dir):
            shutil.rmtree(docs_dir)
        tomb_ref = ray.put(tomb)

        def drop(t: pa.Table) -> pa.Table:
            tb = ray.get(tomb_ref)
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(tb, ids), max(len(tb) - 1, 0))
            dead = (tb[pos] == ids) if len(tb) else np.zeros(len(ids), bool)
            return t.filter(pa.array(~dead))

        rd.read_parquet(
            os.path.join(index_dir, DOCS_DIR), columns=["doc_id", "dl", "url"]
        ).map_batches(drop, batch_format="pyarrow").write_parquet(docs_dir)
        mf.mark_complete(docs_dir, {"fingerprint": fingerprint})

    stats = (
        rd.read_parquet(docs_dir, columns=["doc_id", "dl"])
        .aggregate(Count(), Sum("dl"), Max("doc_id"))
    ) or {}
    n_docs = int(stats.get("count()") or 0)
    sum_dl = int(stats.get("sum(dl)") or 0)
    max_doc_id = int(stats["max(doc_id)"]) + 1 if n_docs else 0
    d_avr = (sum_dl / (n_docs - 1)) if n_docs > 1 else float(sum_dl)  # quirk Q6

    # ---- checkpoint: decode + filter each partition in parallel
    if not (resume and mf.is_complete(ckpt)):
        if os.path.isdir(ckpt):
            shutil.rmtree(ckpt)
        dl_ref = ray.put(
            DocTable.load(os.path.join(index_dir, DOCS_DIR), man.max_doc_id).dl
        )
        tomb_ref = ray.put(tomb)
        rd.from_items([{"pid": pid} for pid in range(p)]).map_batches(
            _DeletePartition(
                index_dir, dl_ref, tomb_ref,
                {"block_max": man.block_max, "max_doc_id": man.max_doc_id},
            ),
            batch_format="pyarrow",
            batch_size=1,
        ).write_parquet(ckpt, partition_cols=["partition"])
        mf.mark_complete(ckpt, {"fingerprint": fingerprint})

    # ---- re-encode with the post-delete stats (normal phase 3)
    t0 = time.perf_counter()
    builder = BuildPartition(
        out_dir, ckpt, n_docs, d_avr, man.block_max,
        resume=resume, ckpt_token=fingerprint,
    )
    metrics_rows = (
        rd.from_items([{"pid": q} for q in range(p)])
        .map_batches(builder, batch_format="pyarrow", batch_size=1)
        .take_all()
    )
    partitions = {
        str(r["partition"]): json.loads(r["metrics"]) for r in metrics_rows
    }
    out_man = IndexManifest(
        n_docs=n_docs,
        sum_dl=sum_dl,
        d_avr=d_avr,
        max_doc_id=max_doc_id,
        num_partitions=p,
        block_max=man.block_max,
        input_fingerprint=fingerprint,
        partitions=partitions,
        stats={
            "total_postings": sum(q.get("rows", 0) for q in partitions.values()),
            "distinct_terms": sum(q.get("n_terms", 0) for q in partitions.values()),
            "index_bytes": sum(q.get("blob_bytes", 0) for q in partitions.values()),
            "deleted_from": index_dir,
            "n_tombstones": int(len(tomb)),
            "delete_encode_s": round(time.perf_counter() - t0, 3),
        },
    )
    out_man.save(out_dir)
    return out_man


def mark_deleted(index_dir: str, doc_ids) -> int:
    """Query-time tombstones: record ``doc_ids`` as deleted in
    ``tombstones.bin`` (sorted int64, merged with any existing set,
    atomic write) — O(|tombstones|), NO index re-encode.  Every
    ``IndexReader`` opened afterwards excludes them from all query
    modes; global BM25 stats (N, d_avr, df) intentionally still count
    tombstoned docs until a ``delete_docs`` compaction rewrites the
    index — the Lucene live-docs contract, documented on the reader.
    Returns the total tombstone count after the merge.

    Ids outside ``[0, manifest.max_doc_id)`` are rejected loudly: they
    could never match a posting, yet would inflate ``n_tombstones``,
    perturb the merge resume fingerprint, and persist in
    ``tombstones.bin`` with no effect (round-4 ADVICE item 4)."""
    new = np.unique(np.asarray(
        sorted(set(int(d) for d in doc_ids)), dtype=np.int64))
    if len(new):
        max_doc = mf.IndexManifest.load(index_dir).max_doc_id
        bad = new[(new < 0) | (new >= max_doc)]
        if len(bad):
            raise ValueError(
                f"mark_deleted: doc_ids outside [0, {max_doc}): "
                f"{bad[:10].tolist()}{'...' if len(bad) > 10 else ''}"
            )
    path = os.path.join(index_dir, "tombstones.bin")
    if os.path.exists(path):
        new = np.union1d(new, np.fromfile(path, dtype=np.int64))
    mf.atomic_write_bytes(path, new.astype(np.int64).tobytes())
    return int(len(new))

"""Index merge / compaction: N indexes over disjoint corpora -> ONE index,
byte-identical to a full rebuild over the concatenated corpus.

The reference performs a k-way merge once, inside its build
(/root/reference/src/merge.c); here it is a standalone operator — the
production "compact many incremental indexes" path a training-data
pipeline needs for rolling ingestion.  Shape:

  for each (input index i, partition p): ONE task decodes partition p of
  index i back to posting rows (term, doc_id + offset_i, tf,
  partition=p) — one vectorized compress.decode_partition over the
  whole partition blob, tombstoned rows dropped — and writes them
  straight into the hive-partitioned checkpoint layout build_index uses
                                                # embarrassingly parallel,
                                                # ZERO shuffles — partition
                                                # p rows land in partition=p
  build_index's encode job (build.encode_index) re-encodes each
  partition — posting bytes are the reference format, independent of
  corpus stats — and its docs task writes the inputs' docs tables minus
  tombstones, ids offset, returning the union's (n_docs, sum_dl,
  max_doc_id)

The manifest's ``phase_seconds`` times the three steps
(``decode_ckpt``, ``docs_and_stats``, ``encode``).  ``delete_docs`` is
the same compaction over one input with an explicit tombstone set.

doc_id contract: inputs were built from consecutive corpus slices in
list order (webpages-source ids are dense per build), so index i's ids
shift by sum(max_doc_id of earlier inputs).  Pass
``offset_doc_ids=False`` when inputs already carry globally unique ids
(documents-table source).

Byte-identity with a full rebuild holds because the encode is
deterministic given a partition's (term, doc_id, tf) rows and both paths
write the same rows — asserted by ``tests/test_merge.py``.
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

from ..stages import compress
from ..state import manifest as mf
from ..state.manifest import IndexManifest
from .build import (
    CKPT_DIR,
    DOCS_DIR,
    LEXICON_DIR,
    PARTS_META_DIR,
    POSTINGS_DIR,
    drop_ids,
    elapsed_s,
    encode_index,
)


def _partition_posting_rows(index_dir: str, pid: int, doc_offset: int) -> pa.Table:
    """Decode one partition of one index back to posting rows, in
    lexicon (term, seg) order, with one ``compress.decode_partition``."""
    lex_path = os.path.join(index_dir, LEXICON_DIR, f"part-{pid:05d}.parquet")
    blob_path = os.path.join(index_dir, POSTINGS_DIR, f"part-{pid:05d}.bin")
    lex = pq.read_table(lex_path, columns=["term", "seg_df", "offset", "nbytes"])
    if lex.num_rows:
        list_of, docs, tfs = compress.decode_partition(
            np.memmap(blob_path, dtype=np.uint8, mode="r"),
            lex["offset"].to_numpy(), lex["nbytes"].to_numpy(),
            lex["seg_df"].to_numpy(),
        )
    else:
        list_of = docs = tfs = np.empty(0, np.int64)
    return pa.table(
        {
            "term": lex["term"].take(pa.array(list_of)),
            "doc_id": pa.array(docs + doc_offset, pa.int64()),
            "tf": pa.array(tfs.astype(np.int32), pa.int32()),
            "partition": pa.array(np.full(len(docs), pid, np.int32)),
        }
    )


class _DecodePartition:
    """Task: (index_i, pid) descriptor -> posting rows for the checkpoint.

    Tombstoned docs (``tomb_refs``: each input's sorted set, already
    shifted by its doc offset like the rows) are compacted away here —
    the Lucene merge contract, shared by ``merge_indexes`` and
    ``delete_docs``."""

    def __init__(self, index_dirs, offsets, tomb_refs):
        self.index_dirs = index_dirs
        self.offsets = offsets
        self.tomb_refs = tomb_refs

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        out = []
        for i, pid in zip(batch["index_i"].to_pylist(), batch["pid"].to_pylist()):
            t = _partition_posting_rows(self.index_dirs[i], pid, self.offsets[i])
            out.append(drop_ids(t, ray.get(self.tomb_refs[i])))
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
    build_index(new_source, delta_dir, num_partitions=base.num_partitions, resume=resume)
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
    mans = [IndexManifest.load(d) for d in index_dirs]
    p = mans[0].num_partitions
    if any(m.num_partitions != p for m in mans):
        raise ValueError(
            "merge_indexes requires identical num_partitions across inputs "
            f"(got {[m.num_partitions for m in mans]})"
        )
    offsets = []
    acc = 0
    for m in mans:
        offsets.append(acc if offset_doc_ids else 0)
        acc += m.max_doc_id

    # query-time tombstones (mark_deleted) are COMPACTED AWAY by a merge —
    # the Lucene merge contract: the output contains no marked doc and its
    # stats count only survivors.  Local sorted sets, one per input.
    tombs = [_read_tombstones(d) for d in index_dirs]
    fingerprint = ";".join(
        f"{d}:{m.input_fingerprint}:{m.n_docs}"
        + (
            ":t" + hashlib.md5(t.tobytes()).hexdigest()[:12]
            if len(t)
            else ""
        )
        for d, m, t in zip(index_dirs, mans, tombs)
    )
    return _compact(index_dirs, mans, offsets, tombs, out_dir, fingerprint,
                    resume=resume, stats={"merged_from": index_dirs})


def delete_docs(
    index_dir: str,
    tombstones,
    out_dir: str,
    *,
    resume: bool = True,
) -> IndexManifest:
    """Tombstone deletion + compaction: remove ``tombstones`` (iterable of
    doc_ids in ``[0, max_doc_id)``), and any docs ``mark_deleted`` already
    recorded, from ``index_dir`` WITHOUT re-tokenizing the corpus, into
    ``out_dir`` — byte-identical to ``build_index`` over the filtered
    corpus (asserted by ``tests/test_merge.py``), because the encode is
    deterministic given a partition's rows and both paths see the same
    filtered rows and recomputed stats.

    It is the one-input merge: kept docs keep their ORIGINAL ids (offset
    0; stable external references), and the same decode + filter task
    drops the tombstoned postings.  Cost is proportional to the INDEX
    size, not the corpus text."""
    man = IndexManifest.load(index_dir)
    # docs already marked with mark_deleted go too, as in a merge
    tomb = np.union1d(
        _checked_doc_ids(tombstones, man.max_doc_id, "delete_docs"),
        _read_tombstones(index_dir),
    )
    # md5, not hash(): Python's bytes hash is salted per process, which
    # would break resume fingerprints across runs
    tomb_digest = hashlib.md5(tomb.tobytes()).hexdigest()[:16]
    fingerprint = (
        f"delete:{index_dir}:{man.input_fingerprint}:{man.n_docs}"
        f":{tomb_digest}"
    )
    return _compact(
        [index_dir], [man], [0], [tomb], out_dir, fingerprint, resume=resume,
        stats={"deleted_from": index_dir, "n_tombstones": int(len(tomb))},
    )


def _compact(
    index_dirs: list[str],
    mans: list[IndexManifest],
    offsets: list[int],
    tombs: list[np.ndarray],
    out_dir: str,
    fingerprint: str,
    *,
    resume: bool,
    stats: dict,
) -> IndexManifest:
    """Write ``index_dirs`` minus their tombstones (sorted local ids), doc
    ids shifted by ``offsets``, as one index at ``out_dir``: one decode
    task per (input, partition) into the hive checkpoint, then build's
    encode job, whose docs task unions the inputs' docs tables.
    ``stats`` joins the manifest's stats with ``phase_seconds``."""
    import ray
    import shutil

    p = mans[0].num_partitions
    t0 = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    ckpt = os.path.join(out_dir, CKPT_DIR)
    docs_dir = os.path.join(out_dir, DOCS_DIR)
    if not resume:
        for sub in (CKPT_DIR, DOCS_DIR, POSTINGS_DIR, LEXICON_DIR, PARTS_META_DIR):
            pth = os.path.join(out_dir, sub)
            if os.path.isdir(pth):
                shutil.rmtree(pth)

    # Stale-resume guard (mirrors build_index): resuming into an out_dir whose
    # docs/ckpt were produced from DIFFERENT inputs must fail loudly, not
    # silently re-encode stale rows under a manifest claiming the new
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
                f"resume requested at {out_dir} but its {stage} came from "
                f"different inputs (fingerprint {prev!r} != {fingerprint!r}); "
                "use a fresh out_dir or resume=False"
            )

    _check_stale(docs_dir, "docs table")
    _check_stale(ckpt, "checkpoint")

    # ---- checkpoint: decode every (input, partition) in parallel, write
    # hive-partitioned (rows already carry partition=p -> zero shuffle)
    if not (resume and mf.is_complete(ckpt)):
        if os.path.isdir(ckpt):
            shutil.rmtree(ckpt)
        tomb_refs = [ray.put(t + o) for t, o in zip(tombs, offsets)]
        items = [
            {"index_i": i, "pid": pid}
            for i in range(len(index_dirs))
            for pid in range(p)
        ]
        rd.from_items(items).map_batches(
            _DecodePartition(index_dirs, offsets, tomb_refs),
            batch_format="pyarrow",
            batch_size=1,
        ).write_parquet(ckpt, partition_cols=["partition"])
        mf.mark_complete(ckpt, {"fingerprint": fingerprint})
    phase_s = {"decode_ckpt": elapsed_s(t0)}

    # ---- encode each partition and write the docs union (one job)
    return encode_index(
        out_dir, p,
        [(os.path.join(d, DOCS_DIR), off, tomb)
         for d, off, tomb in zip(index_dirs, offsets, tombs)],
        fingerprint, phase_s, "encode", stats, resume=resume,
    )


def _read_tombstones(index_dir: str) -> np.ndarray:
    """The sorted ids ``mark_deleted`` recorded for ``index_dir``."""
    path = os.path.join(index_dir, "tombstones.bin")
    if os.path.exists(path):
        return np.fromfile(path, dtype=np.int64)
    return np.empty(0, np.int64)


def _checked_doc_ids(doc_ids, max_doc_id: int, who: str) -> np.ndarray:
    """``doc_ids`` as a sorted unique int64 array; raises ``ValueError``
    if any lies outside ``[0, max_doc_id)``.  Such an id could never match
    a posting, yet it would inflate ``n_tombstones``, perturb the resume
    fingerprint and persist in ``tombstones.bin`` with no effect."""
    ids = np.unique(np.fromiter((int(d) for d in doc_ids), dtype=np.int64))
    bad = ids[(ids < 0) | (ids >= max_doc_id)]
    if len(bad):
        raise ValueError(
            f"{who}: doc_ids outside [0, {max_doc_id}): "
            f"{bad[:10].tolist()}{'...' if len(bad) > 10 else ''}"
        )
    return ids


def mark_deleted(index_dir: str, doc_ids) -> int:
    """Query-time tombstones: record ``doc_ids`` as deleted in
    ``tombstones.bin`` (sorted int64, merged with any existing set,
    atomic write) — O(|tombstones|), NO index re-encode.  Every
    ``IndexReader`` opened afterwards excludes them from all query
    modes; global BM25 stats (N, d_avr, df) intentionally still count
    tombstoned docs until a ``delete_docs`` compaction rewrites the
    index — the Lucene live-docs contract, documented on the reader.
    Returns the total tombstone count after the merge.  Ids outside
    ``[0, manifest.max_doc_id)`` are rejected (``_checked_doc_ids``)."""
    new = _checked_doc_ids(
        doc_ids, IndexManifest.load(index_dir).max_doc_id, "mark_deleted")
    new = np.union1d(new, _read_tombstones(index_dir))
    mf.atomic_write_bytes(os.path.join(index_dir, "tombstones.bin"), new.tobytes())
    return int(len(new))

"""Index merge / compaction: N indexes over disjoint corpora -> ONE index,
byte-identical to a full rebuild over the concatenated corpus.

The reference performs a k-way merge once, inside its build
(/root/reference/src/merge.c); here it is a standalone operator — the
production "compact many incremental indexes" path a training-data
pipeline needs for rolling ingestion.  Like the reference's merge it is
one pass straight into the final build: ONE Ray Data job, build's
encode job (build.encode_index) given the input indexes instead of a
checkpoint.

  partition p task: decode partition p of every input (one vectorized
                    compress.decode_partition per index), drop its
                    tombstoned docs, shift its ids by the input's
                    offset, then sort and encode like a build — posting
                    bytes are the reference format, independent of
                    corpus stats
  docs task:        the inputs' docs tables minus tombstones, ids
                    offset, returning the union's (n_docs, sum_dl,
                    max_doc_id); inputs whose ids meet are rejected

The manifest's ``phase_seconds`` times ``docs_and_stats`` and
``encode`` (the job minus the docs task).  ``delete_docs`` is the same
compaction over one input with an explicit tombstone set;
``extend_index`` is a build's tokenize pass plus this job, whose second
input is that checkpoint (no delta index), deleted after the commit.
A resume reuses committed partitions (their ``parts_meta`` token) and
``docs/`` (its ``_SUCCESS``), and re-reads the inputs for the rest.
Every compaction cuts heavy-hitter segments at the inputs' recorded
``segment_max_postings``.

doc_id contract: inputs were built from consecutive corpus slices in
list order (webpages-source ids are dense per build), so index i's ids
shift by sum(max_doc_id of earlier inputs).  Pass
``offset_doc_ids=False`` when inputs already carry globally unique ids
(documents-table source); surviving ids that meet across inputs raise
``ValueError`` before a manifest is written.

Byte-identity with a full rebuild holds because the encode is
deterministic given a partition's (term, doc_id, tf) rows and both paths
write the same rows — asserted by ``tests/test_merge.py``.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import ray.data as rd

from ..state import manifest as mf
from ..state.manifest import IndexManifest
from .build import CKPT_DIR, encode_index, tokenize_to_ckpt


def extend_index(
    index_dir: str,
    new_source: "rd.Dataset",
    out_dir: str,
    *,
    offset_doc_ids: bool = True,
    resume: bool = True,
) -> IndexManifest:
    """Rolling ingestion: tokenize ``new_source`` (doc_ids local, i.e.
    the corpus slice AFTER the existing index's docs) into ``out_dir``'s
    checkpoint, compact ``index_dir`` + it into ``out_dir`` in one encode
    job, then delete it; no delta index is written.  The result is
    byte-identical to rebuilding over the concatenated corpus
    (merge_indexes contract).  Pass ``offset_doc_ids=False`` when
    ``new_source`` already carries globally unique ids (documents-table
    source).  The fingerprint names the checkpoint's token, so a resume
    reuses only partitions encoded from this very checkpoint."""
    base = IndexManifest.load(index_dir)
    token = tokenize_to_ckpt(new_source, out_dir, base.num_partitions, resume=resume)
    ckpt = os.path.join(out_dir, CKPT_DIR)
    tomb = _read_tombstones(index_dir)
    inputs = [(index_dir, 0, tomb),
              (ckpt, base.max_doc_id if offset_doc_ids else 0, np.empty(0, np.int64))]
    fingerprint = _digest([_input_key(index_dir, base, tomb), f"ckpt:{token}"], offset_doc_ids)
    man = encode_index(out_dir, base.num_partitions, inputs, fingerprint, {}, "encode",
                       {"extended_from": index_dir}, resume=resume,
                       segment_max_postings=_segment_max([base]))
    shutil.rmtree(ckpt)
    return man


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
    — readers opened from here on already serve the delete), then
    ``extend_index`` with ``new_versions`` (which carry the SAME doc_ids):
    one tokenize pass and one encode job that drops the tombstoned old
    rows, so the output is byte-identical to a rebuild over the corpus
    with those docs' content replaced.  ``doc_ids`` defaults to the ids
    present in ``new_versions`` (one bounded column scan)."""
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
    smax = _segment_max(mans)
    offsets = []
    acc = 0
    for m in mans:
        offsets.append(acc if offset_doc_ids else 0)
        acc += m.max_doc_id

    # query-time tombstones (mark_deleted) are COMPACTED AWAY by a merge —
    # the Lucene merge contract: the output contains no marked doc and its
    # stats count only survivors.  Local sorted sets, one per input.
    tombs = [_read_tombstones(d) for d in index_dirs]
    fingerprint = _digest(
        [_input_key(d, m, t) for d, m, t in zip(index_dirs, mans, tombs)], offset_doc_ids)
    return encode_index(out_dir, p, list(zip(index_dirs, offsets, tombs)), fingerprint,
                        {}, "encode", {"merged_from": index_dirs}, resume=resume,
                        segment_max_postings=smax)


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
    return encode_index(
        out_dir, man.num_partitions, [(index_dir, 0, tomb)],
        _digest(["delete", _input_key(index_dir, man, tomb)], False), {}, "encode",
        {"deleted_from": index_dir, "n_tombstones": int(len(tomb))}, resume=resume,
        segment_max_postings=_segment_max([man]),
    )


def _segment_max(mans: list[IndexManifest]) -> int:
    """The inputs' recorded ``segment_max_postings`` (1M if unrecorded),
    which their compaction keeps; inputs that differ raise ``ValueError``."""
    vals = {m.stats.get("segment_max_postings", 1_000_000) for m in mans}
    if len(vals) > 1:
        raise ValueError(f"inputs differ in segment_max_postings: {sorted(vals)}")
    return vals.pop()


def _input_key(index_dir: str, man: IndexManifest, tomb: np.ndarray) -> str:
    """One input index in a compaction's fingerprint: path, fingerprint,
    doc count and tombstones (md5, not the per-process salted hash())."""
    return f"{index_dir}:{man.input_fingerprint}:{man.n_docs}" + (
        ":t" + hashlib.md5(tomb.tobytes()).hexdigest()[:12] if len(tomb) else "")


def _digest(keys: list[str], offset_doc_ids: bool) -> str:
    """The md5 of the inputs' keys and of whether ids shift (the same
    inputs, other ids): fixed-length, so it does not grow along a chain
    of compactions that each name the previous output's fingerprint."""
    text = ";".join(keys) + (";offset" if offset_doc_ids else "")
    return hashlib.md5(text.encode()).hexdigest()


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

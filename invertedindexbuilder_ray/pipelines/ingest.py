"""Composed rolling ingest: dedup the incoming delta against the corpus,
then extend the index with the survivors — one entry point tying the two
incremental tiers together (round-5; builds on round-4 verdict items 1-2).

A production crawl loop ingests batches of new pages forever.  Per batch
it needs exactly this sequence:

1. ``dedup.minhash_pairs_delta`` — near-dup pairs CREATED by the delta
   (delta-vs-corpus plus delta-vs-delta).  Only the delta is sketched and
   banded; its band keys probe the signature checkpoint's frozen, sorted
   band-key runs by binary search, so the corpus is never re-sketched,
   re-banded or shuffled;
2. drop the LATER side of every pair (keep-first — corpus docs always
   win over delta docs, earlier delta docs win over later ones);
3. ``merge.extend_index`` over the surviving delta: one tokenize pass
   and one encode job, no delta index — byte-identical to rebuilding
   over the concatenated deduped corpus (merge contract);
4. roll the signature checkpoint forward with the survivors' signatures
   so the NEXT delta probes the updated corpus.  The roll writes only the
   delta: the new checkpoint hard-links the old one's signature parts and
   band runs and adds one signature part and one band run (which absorbs
   the newest small runs, keeping O(log) runs; ``dedup._roll_sig_ckpt``).

Contract (the extend_index id discipline): delta doc_ids are globally
unique and numerically AFTER every corpus id — that makes "later side"
simply ``doc_b`` of each (doc_a < doc_b) pair.  Violations raise.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import ray.data as rd

from .dedup import (
    _EMPTY_SIGS,
    _collect_sigs,
    _roll_sig_ckpt,
    minhash_pairs_delta,
    minhash_signature_ckpt,
    minhash_signature_ds,
)
from .merge import extend_index


def ingest_delta(
    index_dir: str,
    corpus_source: str,
    delta_ds: rd.Dataset,
    out_dir: str,
    *,
    threshold: float = 0.5,
    num_perm: int = 64,
    bands: int = 16,
    k: int = 3,
    dedup: bool = True,
    resume: bool = True,
    ckpt_root: str | None = None,
    corpus_fingerprint: str = "",
) -> dict:
    """Dedup ``delta_ds`` against ``corpus_source`` (and itself), extend
    ``index_dir`` with the survivors into ``out_dir``, roll the signature
    checkpoint forward.  Returns a report dict:
    ``{"manifest", "n_delta", "n_dropped", "dropped_ids", "n_pairs",
    "corpus_fingerprint", "pairs_probe"}``; ``pairs_probe`` holds the
    band-run probe's work counts (see ``minhash_pairs_delta``), empty when
    no probe ran.

    ``dedup=False`` skips straight to ``extend_index`` (still returns the
    same report shape with zero drops).

    Chained ingest: pass the previous report's ``corpus_fingerprint`` so
    the delta bands against the ROLLED signature checkpoint (corpus +
    all prior survivors) instead of re-deriving from the original corpus
    file; the report returns the next fingerprint to chain with."""
    from ..state.manifest import IndexManifest

    base_max = IndexManifest.load(index_dir).max_doc_id
    # one execution of the delta pipeline for the whole ingest (it feeds
    # the id check, the sketch, the drop pass AND the index build); an
    # ingest batch is bounded by contract, and Ray spills if it is not
    delta_m = delta_ds.materialize()
    n_delta = delta_m.count()

    # id discipline, checked UNCONDITIONALLY (near-dup or not, dedup or
    # not): a delta id inside the corpus range would silently merge two
    # different docs under one id in extend_index (no validation there)
    if n_delta:
        min_id = min(
            int(b["doc_id"].to_numpy(zero_copy_only=False).min())
            for b in delta_m.select_columns(["doc_id"]).iter_batches(
                batch_format="pyarrow"
            )
            if b.num_rows
        )
        if min_id < base_max:
            raise ValueError(
                "ingest_delta id discipline violated: delta doc_ids must "
                f"all be >= the base index's max_doc_id ({base_max}); "
                f"smallest delta id is {min_id}"
            )

    dropped_ids = np.empty(0, np.int64)
    n_pairs = 0
    delta_sigs = None
    probe: dict = {}
    if dedup and n_delta:
        delta_sigs = minhash_signature_ds(
            delta_m, num_perm=num_perm, k=k
        ).materialize()  # sketched ONCE, reused for the checkpoint roll
        pairs = minhash_pairs_delta(
            corpus_source,
            delta_m,
            num_perm=num_perm,
            bands=bands,
            k=k,
            threshold=threshold,
            ckpt_root=ckpt_root,
            corpus_fingerprint=corpus_fingerprint,
            delta_sigs=delta_sigs,
            probe_stats=probe,
        ).materialize()  # tiny: near-dup pairs only
        n_pairs = pairs.count()
        if n_pairs:
            parts = [
                b["doc_b"].to_numpy(zero_copy_only=False)
                for b in pairs.iter_batches(batch_format="pyarrow")
                if b.num_rows
            ]
            dropped_ids = np.unique(np.concatenate(parts)).astype(np.int64)

    def drop_dead(b: pa.Table, *, dead: np.ndarray) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(dead, ids)
        hit = (pos < len(dead)) & (dead[np.minimum(pos, len(dead) - 1)] == ids)
        return b.filter(pa.array(~hit))

    survivors = delta_m
    survivor_sigs = (  # in-process: a delta's signatures are small
        _collect_sigs(delta_sigs) if delta_sigs is not None else _EMPTY_SIGS
    )
    if len(dropped_ids):
        import ray

        dref = ray.put(dropped_ids)  # broadcast once (tiny: near-dups only)

        def drop(b: pa.Table) -> pa.Table:
            return drop_dead(b, dead=ray.get(dref))

        survivors = delta_m.map_batches(drop, batch_format="pyarrow")
        survivor_sigs = drop_dead(survivor_sigs, dead=dropped_ids)

    man = extend_index(
        index_dir, survivors, out_dir, offset_doc_ids=False, resume=resume
    )

    next_fp = ""
    if dedup:
        # roll the signature checkpoint forward: corpus ckpt + survivor
        # signatures (filtered from the one sketch pass above, never
        # re-sketched) -> ckpt keyed by the UPDATED corpus fingerprint,
        # so the next delta reuses it
        next_fp = _extend_sig_ckpt(
            corpus_source, survivor_sigs, out_dir,
            num_perm=num_perm, k=k, bands=bands, ckpt_root=ckpt_root,
            corpus_fingerprint=corpus_fingerprint,
        )
    return {
        "manifest": man,
        "n_delta": int(n_delta),
        "n_dropped": int(len(dropped_ids)),
        "dropped_ids": [int(d) for d in dropped_ids],
        "n_pairs": int(n_pairs),
        "corpus_fingerprint": next_fp,
        "pairs_probe": probe,
    }


def _extend_sig_ckpt(
    corpus_source: str,
    survivor_sigs: pa.Table,
    out_dir: str,
    *,
    num_perm: int,
    k: int,
    bands: int,
    ckpt_root: str | None,
    corpus_fingerprint: str = "",
) -> str:
    """Roll the corpus signature checkpoint forward with the (already
    sketched) survivor signatures, under a new fingerprint: the md5 of
    (corpus fingerprint, new index manifest), fixed-length along a chain.
    Key derivation goes through dedup's shared ``_sig_ckpt_dir`` and the
    write through ``_roll_sig_ckpt``, which links the base's files and
    writes only the survivors.  Returns the NEW fingerprint (chain it into the next
    ingest_delta)."""
    from ..state.manifest import IndexManifest

    from .build import _fingerprint

    man = IndexManifest.load(out_dir)
    base_fp = corpus_fingerprint or _fingerprint(_corpus_path(corpus_source))
    new_fp = hashlib.md5(
        f"{base_fp}+ingest:{man.input_fingerprint}:{man.n_docs}".encode()).hexdigest()
    base_ckpt = minhash_signature_ckpt(
        corpus_source, num_perm=num_perm, k=k, ckpt_root=ckpt_root,
        input_fingerprint=corpus_fingerprint,
    )
    _roll_sig_ckpt(
        base_ckpt, new_fp, survivor_sigs,
        num_perm=num_perm, k=k, bands=bands, ckpt_root=ckpt_root,
    )
    return new_fp


def _corpus_path(source: str) -> str:
    return (
        os.path.join(source, "documents.parquet")
        if os.path.isdir(source)
        else source
    )

"""Persisted ANN index artifact (round-4 verdict item 5).

``ann_lsh`` / ``ann_ivf`` (similarity.py) re-derive the quantizer and
re-assign every vector per invocation — the right shape for the catalog
contract, the wrong shape for serving.  This module checkpoints the ANN
index once, under the same manifest/_SUCCESS + input-fingerprint
machinery as the inverted index (state/manifest.py) and the MinHash
signature checkpoint (dedup.py), and serves queries from the artifact:

* ``ann_build(sf_dir, kind=...)`` -> artifact dir containing

  - ``meta.json``      — kind, derived constants (bits / stride / ap),
                         n, dim, max_vec_id;
  - ``codebook.npz``   — IVF: cids, cents, sup_pos (members re-derived
                         by one O(sqrt N * N^(1/4)) matmul at open);
                         LSH planes are pure ``_planes(dim, bits)`` —
                         derived, not stored;
  - ``assign/``        — parquet of (vec_id, embedding, bucket), written
                         HIVE-PARTITIONED on ``bshard = bucket mod 32``
                         so a query scan reads only the shards its probe
                         buckets land in (partition pruning at the read,
                         never a full-corpus scan when probes are few);
  - ``_SUCCESS``       — completion marker with the fingerprint.

  A complete artifact with a matching fingerprint is reused as-is — the
  build-once / query-many serving contract.

* ``ann_serve(sf_dir, kind=...)`` — same query surface and BIT-IDENTICAL
  results to the inline ``ann_lsh``/``ann_ivf`` paths (asserted by
  tests/test_ann_store.py and the ann_*_served catalog entries, which
  reuse the inline entries' DuckDB oracles verbatim): the bucket per row
  comes from the stored ``bucket`` column (``_probe_topk(bucket_col=)``)
  and the probe sets from the persisted codebook.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..state import manifest as mf
from .similarity import (
    _bucket_of,
    _emb_matrix,
    _embeddings,
    _ivf_codebook,
    _ivf_query_probes,
    _lsh_probe_sets,
    _load_queries,
    _planes,
    _probe_topk,
    lsh_bits_for,
)

ANN_BUCKET_SHARDS = 32


def _ann_root() -> str:
    return os.environ.get("IIB_ANN_CKPT_DIR", f"/tmp/iib_ann_ckpt_{os.getuid()}")


def _fingerprint_embeddings(sf_dir: str) -> str:
    path = (
        os.path.join(sf_dir, "embeddings.parquet")
        if os.path.isdir(sf_dir)
        else sf_dir
    )
    try:
        st = os.stat(path)
        return f"{path}:{st.st_size}:{int(st.st_mtime)}"
    except OSError:
        return path


def ann_build(
    sf_dir: str,
    *,
    kind: str = "ivf",
    n_centroids: int | None = None,
    bits: int | None = None,
    ckpt_root: str | None = None,
    rebuild: bool = False,
) -> str:
    """Build (or reuse) the persisted ANN artifact; returns its dir.

    An artifact whose fingerprint was legitimately ADVANCED by
    ``ann_extend`` (``<fp>+extend:...``) is never silently destroyed:
    serving it requires ``ann_query_artifact``; rebuilding over the raw
    source (discarding extensions and tombstones) requires an explicit
    ``rebuild=True``."""
    if kind not in ("ivf", "lsh"):
        raise ValueError(f"unknown ANN kind {kind!r}")
    fp = _fingerprint_embeddings(sf_dir)
    key = hashlib.md5(
        f"{fp}|kind={kind}|nc={n_centroids}|bits={bits}".encode()
    ).hexdigest()[:20]
    d = os.path.join(ckpt_root or _ann_root(), key)
    if mf.is_complete(d):
        try:
            with open(mf.marker_path(d)) as f:
                meta = json.load(f)
        except (OSError, ValueError):
            meta = {}
        marker_fp = str(meta.get("fingerprint", ""))
        if marker_fp == fp:
            mf.mark_used(d)
            return d
        if marker_fp.startswith(f"{fp}+extend:") and not rebuild:
            raise RuntimeError(
                f"ANN artifact at {d} has been extended beyond the raw "
                "source (ann_extend); serve it via ann_query_artifact, or "
                "pass rebuild=True to DISCARD the extension and tombstones "
                "and rebuild from the source"
            )
    if os.path.isdir(d):
        shutil.rmtree(d)

    ds = _embeddings(sf_dir)
    n = ds.count()  # parquet metadata
    first = next(iter(ds.iter_batches(batch_format="pyarrow", batch_size=1)))
    dim = len(first["embedding"][0].as_py()) if first.num_rows else 0

    if kind == "lsh":
        if bits is None:
            bits = lsh_bits_for(n)
        planes = _planes(dim, bits)  # derived from seed — not stored

        def bucket_fn(mat_n: np.ndarray) -> np.ndarray:
            return _bucket_of(mat_n, planes)

        meta = {"kind": kind, "bits": bits, "n": n, "dim": dim}
    else:
        from .similarity import _ivf_bucket_fn

        cb = _ivf_codebook(ds, n, n_centroids=n_centroids)
        os.makedirs(d, exist_ok=True)
        np.savez(
            os.path.join(d, "codebook.npz"),
            cids=cb["cids"],
            cents=cb["cents"],
            sup_pos=cb["sup_pos"],
        )
        bucket_fn = _ivf_bucket_fn(cb)
        meta = {
            "kind": kind,
            "n": n,
            "dim": dim,
            "stride": int(cb["stride"]),
            "ap": int(cb["ap"]),
        }

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "embedding": batch["embedding"],
                    "bucket": pa.array([], pa.int64()),
                    "bshard": pa.array([], pa.int64()),
                }
            )
        mat_n = _emb_matrix(batch)
        b = bucket_fn(mat_n)
        return pa.table(
            {
                "vec_id": batch["vec_id"].cast(pa.int64()),
                "embedding": batch["embedding"],
                "bucket": pa.array(b, pa.int64()),
                # mod of a possibly-negative bucket (-1 = unassigned IVF
                # rows): Python/numpy % is non-negative for positive mod
                "bshard": pa.array(b % ANN_BUCKET_SHARDS, pa.int64()),
            }
        )

    ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        os.path.join(d, "assign"), partition_cols=["bshard"]
    )
    meta["max_vec_id"] = _stored_max_vec_id(d)
    mf.atomic_write_json(os.path.join(d, "meta.json"), meta)
    mf.mark_complete(d, {"fingerprint": fp, **meta})
    return d


def _stored_max_vec_id(d: str) -> int:
    """Largest vec_id under the artifact's ``assign/`` (-1 when empty)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    path = os.path.join(d, "assign")
    if not os.path.isdir(path):
        return -1
    ids = pads.dataset(path, format="parquet", partitioning="hive").to_table(
        columns=["vec_id"]
    )["vec_id"]
    top = pc.max(ids).as_py()
    return -1 if top is None else int(top)


def _open_codebook(d: str, meta: dict) -> dict:
    """Re-hydrate the IVF codebook: members come from one matmul over the
    stored O(sqrt N) centroids — no corpus scan."""
    z = np.load(os.path.join(d, "codebook.npz"))
    cids, cents, sup_pos = z["cids"], z["cents"], z["sup_pos"]
    supers = cents[sup_pos]
    cassign = np.argmax(cents @ supers.T, axis=1)
    members = [
        np.flatnonzero(cassign == s).astype(np.int64)
        for s in range(len(sup_pos))
    ]
    return {
        "cids": cids,
        "cents": cents,
        "sup_pos": sup_pos,
        "supers": supers,
        "members": members,
        "stride": meta["stride"],
        "ap": meta["ap"],
    }


def _artifact_bucket_fn(d: str, meta: dict):
    """The frozen quantizer's row->bucket function (for extending the
    artifact with new vectors — FAISS ``add`` semantics: the codebook /
    planes never change after build)."""
    if meta["kind"] == "lsh":
        planes = _planes(meta["dim"], meta["bits"])
        return lambda mat_n: _bucket_of(mat_n, planes)
    from .similarity import _ivf_bucket_fn

    return _ivf_bucket_fn(_open_codebook(d, meta))


def ann_extend(
    artifact_dir: str,
    new_vectors: rd.Dataset,
) -> dict:
    """Append ``new_vectors`` (vec_id, embedding) to a persisted ANN
    artifact under its FROZEN quantizer: one assignment pass with the
    stored codebook/planes, parquet files appended into the existing
    bucket shards (write_parquet appends into a directory), marker
    updated with the new count and a chained fingerprint.  Queries served
    afterwards see old + new vectors; the quantizer is never re-derived
    (the standard IVF "add" contract — rebuild via ann_build when list
    skew warrants it).  The report's ``bucket_max`` / ``bucket_mean``
    (vectors per non-empty bucket, after the extend) measure that skew.

    vec_ids are append-only: every new id must be distinct and greater
    than the artifact's ``max_vec_id`` (recorded in ``meta.json``;
    derived once from ``assign/`` for artifacts written without it).
    Anything else raises ``ValueError`` before the artifact is touched,
    since an overlapping id would be served twice."""
    with open(os.path.join(artifact_dir, "meta.json")) as f:
        meta = json.load(f)
    old_max = (
        int(meta["max_vec_id"]) if "max_vec_id" in meta
        else _stored_max_vec_id(artifact_dir)
    )
    ids = [
        np.asarray(b["vec_id"], dtype=np.int64)
        for b in new_vectors.select_columns(["vec_id"]).iter_batches(
            batch_format="numpy"
        )
    ]
    ids = np.concatenate(ids) if ids else np.empty(0, np.int64)
    n_new = len(ids)
    if n_new:
        if len(np.unique(ids)) != n_new:
            raise ValueError("ann_extend: the new vectors repeat a vec_id")
        if int(ids.min()) <= old_max:
            raise ValueError(
                f"ann_extend: new vec_id {int(ids.min())} overlaps the "
                f"artifact's ids (max_vec_id {old_max}); new ids must exceed it"
            )
    meta["max_vec_id"] = int(ids.max()) if n_new else old_max
    bucket_fn = _artifact_bucket_fn(artifact_dir, meta)

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "embedding": batch["embedding"],
                    "bucket": pa.array([], pa.int64()),
                    "bshard": pa.array([], pa.int64()),
                }
            )
        mat_n = _emb_matrix(batch)
        b = bucket_fn(mat_n)
        return pa.table(
            {
                "vec_id": batch["vec_id"].cast(pa.int64()),
                "embedding": batch["embedding"],
                "bucket": pa.array(b, pa.int64()),
                "bshard": pa.array(b % ANN_BUCKET_SHARDS, pa.int64()),
            }
        )

    with open(mf.marker_path(artifact_dir)) as f:
        marker = json.load(f)
    # invalidate the completion marker for the duration of the mutation: a
    # crash mid-append must leave an INCOMPLETE artifact (rebuilt on next
    # ann_build), never a complete-looking one whose fingerprint still
    # claims bit-identity with the pre-extend build
    os.remove(mf.marker_path(artifact_dir))
    new_vectors.map_batches(assign, batch_format="pyarrow").write_parquet(
        os.path.join(artifact_dir, "assign"), partition_cols=["bshard"]
    )
    meta["n"] = int(meta["n"]) + int(n_new)
    marker["n"] = meta["n"]
    marker["max_vec_id"] = meta["max_vec_id"]
    marker["fingerprint"] = f"{marker.get('fingerprint', '')}+extend:{n_new}"
    mf.atomic_write_json(os.path.join(artifact_dir, "meta.json"), meta)
    mf.atomic_write_json(mf.marker_path(artifact_dir), marker)
    occ = _bucket_occupancy(artifact_dir)
    return {
        "artifact": artifact_dir,
        "n_added": int(n_new),
        "n_total": meta["n"],
        "bucket_max": int(occ.max()) if len(occ) else 0,
        "bucket_mean": float(occ.mean()) if len(occ) else 0.0,
    }


def _bucket_occupancy(d: str) -> np.ndarray:
    """Vectors per non-empty bucket under the artifact's ``assign/``: the
    skew (max / mean) a frozen quantizer accumulates as extends land."""
    import pyarrow.dataset as pads

    b = pads.dataset(
        os.path.join(d, "assign"), format="parquet", partitioning="hive"
    ).to_table(columns=["bucket"])["bucket"].to_numpy()
    return np.unique(b, return_counts=True)[1]


def ann_mark_deleted(artifact_dir: str, vec_ids) -> int:
    """Query-time tombstones for the ANN artifact — the live-docs contract
    the index tier uses (merge.mark_deleted): ``vec_ids`` are recorded in
    ``tombstones.bin`` (sorted int64, unioned, atomic write) and every
    subsequent query excludes them; the stored assignments and quantizer
    are untouched (no rewrite).  Compaction = rebuild via ``ann_build``
    over the filtered corpus.  Returns the total tombstone count."""
    new = np.unique(np.asarray(sorted({int(v) for v in vec_ids}), np.int64))
    if len(new) and int(new[0]) < 0:
        raise ValueError(f"ann_mark_deleted: negative vec_id {int(new[0])}")
    path = os.path.join(artifact_dir, "tombstones.bin")
    if os.path.exists(path):
        new = np.union1d(new, np.fromfile(path, dtype=np.int64))
    mf.atomic_write_bytes(path, new.astype(np.int64).tobytes())
    return int(len(new))


def _load_tombstones(artifact_dir: str) -> np.ndarray:
    path = os.path.join(artifact_dir, "tombstones.bin")
    if os.path.exists(path):
        return np.fromfile(path, dtype=np.int64)
    return np.empty(0, np.int64)


def ann_query_artifact(
    artifact_dir: str,
    qids: np.ndarray,
    qmat_n: np.ndarray,
    *,
    top_k: int = 10,
    n_probe: int = 4,
    probe_radius: int = 2,
) -> rd.Dataset:
    """Answer normalized query vectors against a persisted (possibly
    extended) artifact — probe sets from the stored quantizer, buckets
    from the stored column, partition-pruned scan."""
    if not mf.is_complete(artifact_dir):
        raise RuntimeError(
            f"ANN artifact at {artifact_dir} is incomplete (interrupted "
            "build or extend); rebuild it with ann_build(..., rebuild=True)"
        )
    mf.mark_used(artifact_dir)
    with open(os.path.join(artifact_dir, "meta.json")) as f:
        meta = json.load(f)
    if meta["kind"] == "lsh":
        planes = _planes(meta["dim"], meta["bits"])
        probe_buckets = _lsh_probe_sets(
            _bucket_of(qmat_n, planes), meta["bits"], probe_radius
        )
    else:
        cb = _open_codebook(artifact_dir, meta)
        probe_buckets = _ivf_query_probes(cb, qmat_n, n_probe)
    return _scan_and_score(artifact_dir, qids, qmat_n, probe_buckets, top_k)


def ann_serve(
    sf_dir: str,
    *,
    kind: str = "ivf",
    n_queries: int = 5,
    top_k: int = 10,
    n_probe: int = 4,
    probe_radius: int = 2,
    ckpt_root: str | None = None,
) -> rd.Dataset:
    """Answer ANN queries from the persisted artifact (building it on
    first use).  Results are bit-identical to the inline
    ``ann_lsh``/``ann_ivf`` with the same parameters."""
    d = ann_build(sf_dir, kind=kind, ckpt_root=ckpt_root)
    with open(os.path.join(d, "meta.json")) as f:
        meta = json.load(f)

    qids, qmat_n = _load_queries(_embeddings(sf_dir), n_queries)
    if kind == "lsh":
        planes = _planes(meta["dim"], meta["bits"])
        probe_buckets = _lsh_probe_sets(
            _bucket_of(qmat_n, planes), meta["bits"], probe_radius
        )
    else:
        cb = _open_codebook(d, meta)
        probe_buckets = _ivf_query_probes(cb, qmat_n, n_probe)
    return _scan_and_score(d, qids, qmat_n, probe_buckets, top_k)


def _scan_and_score(
    d: str,
    qids: np.ndarray,
    qmat_n: np.ndarray,
    probe_buckets: list,
    top_k: int,
) -> rd.Dataset:

    # partition pruning: only read the bucket shards some query probes
    shards = sorted(
        {int(b) % ANN_BUCKET_SHARDS for pb in probe_buckets for b in pb}
    )
    import glob as _glob

    paths = [
        f
        for s in shards
        for f in sorted(
            _glob.glob(os.path.join(d, "assign", f"bshard={s}", "*.parquet"))
        )
    ]
    if not paths:
        empty = pa.schema(
            [
                ("qid", pa.int64()),
                ("vec_id", pa.int64()),
                ("sim", pa.float64()),
                ("rank", pa.int64()),
            ]
        )
        return rd.from_arrow(empty.empty_table())
    assign_ds = rd.read_parquet(paths, columns=["vec_id", "embedding", "bucket"])
    tombs = _load_tombstones(d)
    if len(tombs):
        import ray

        tref = ray.put(tombs)  # sorted; broadcast once

        def drop_dead(b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                return b
            dead = ray.get(tref)
            ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.searchsorted(dead, ids)
            hit = (pos < len(dead)) & (dead[np.minimum(pos, len(dead) - 1)] == ids)
            return b.filter(pa.array(~hit))

        assign_ds = assign_ds.map_batches(drop_dead, batch_format="pyarrow")
    return _probe_topk(
        assign_ds, None, qids, qmat_n, probe_buckets, top_k, bucket_col="bucket"
    )

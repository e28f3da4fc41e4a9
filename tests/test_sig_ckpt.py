"""Durable MinHash signature checkpoint + incremental delta-vs-corpus dedup
(round-4 verdict items 1 & 2).

The large-input path must never pin the full signature table in the object
store: signatures go through the same manifest/_SUCCESS machinery as the
index build, keyed by input fingerprint, and the delta entry point sketches
only the delta (corpus signatures come from the checkpoint).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def ckpt_root(tmp_path, monkeypatch):
    root = str(tmp_path / "sig_ckpt")
    monkeypatch.setenv("IIB_SIG_CKPT_DIR", root)
    return root


def _pairs_df(ds):
    return (
        ds.to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )


def _mk_delta(docs, offset: int, every: int):
    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids % every == 0))
        return pa.table(
            {
                "doc_id": pc.add(t["doc_id"], offset),
                "url": t["url"],
                "text": t["text"],
                "dl": t["dl"],
            }
        )

    return docs.map_batches(f, batch_format="pyarrow")


def test_ckpt_path_equals_pin_path(ray_session, ckpt_root):
    from invertedindexbuilder_ray.pipelines import dedup

    a = _pairs_df(dedup.minhash_dedup_pairs(SF, threshold=0.5, sig_ckpt=False))
    b = _pairs_df(dedup.minhash_dedup_pairs(SF, threshold=0.5, sig_ckpt=True))
    assert len(a) > 0
    assert a.equals(b)
    # the checkpoint is a completed manifest-marked parquet dir
    dirs = os.listdir(ckpt_root)
    assert len(dirs) == 1
    assert os.path.exists(os.path.join(ckpt_root, dirs[0], "_SUCCESS"))


def test_ckpt_reused_not_resketched(ray_session, ckpt_root, monkeypatch):
    from invertedindexbuilder_ray.pipelines import dedup

    calls = []
    real = dedup.minhash_signature_ds

    def counting(source, **kw):
        calls.append(source)
        return real(source, **kw)

    monkeypatch.setattr(dedup, "minhash_signature_ds", counting)
    d1 = dedup.minhash_signature_ckpt(SF)
    assert calls == [SF]
    d2 = dedup.minhash_signature_ckpt(SF)
    assert d2 == d1
    assert calls == [SF], "second call must reuse the checkpoint"


def test_large_input_auto_ckpt_no_materialize(ray_session, ckpt_root, monkeypatch):
    """Above SIG_PIN_MAX_ROWS a path source must take the checkpoint path —
    no full-signature .materialize() plasma pin (round-4 verdict item 1)."""
    from invertedindexbuilder_ray.pipelines import dedup

    monkeypatch.setattr(dedup, "SIG_PIN_MAX_ROWS", 0)
    real = dedup.minhash_signature_ds

    def no_pin(source, **kw):
        ds = real(source, **kw)

        def banned_materialize(*a, **k):  # pragma: no cover
            raise AssertionError(
                "full-signature materialize() on the large-input path"
            )

        ds.materialize = banned_materialize
        return ds

    monkeypatch.setattr(dedup, "minhash_signature_ds", no_pin)
    pairs, sigs = dedup.minhash_candidate_pairs(SF)
    assert pairs.count() > 0
    dirs = os.listdir(ckpt_root)
    assert len(dirs) == 1 and os.path.exists(
        os.path.join(ckpt_root, dirs[0], "_SUCCESS")
    )


def test_dataset_source_needs_fingerprint(ray_session, ckpt_root):
    from invertedindexbuilder_ray.pipelines import dedup
    from invertedindexbuilder_ray.sources.documents import load_documents

    with pytest.raises(ValueError, match="input_fingerprint"):
        dedup.minhash_signature_ckpt(load_documents(SF))


def test_delta_pairs_match_full_run(ray_session, ckpt_root):
    """Delta pairs == full corpus+delta run filtered to pairs touching the
    delta (delta-vs-corpus AND delta-vs-delta, never corpus-vs-corpus)."""
    from invertedindexbuilder_ray.pipelines import dedup
    from invertedindexbuilder_ray.sources.documents import load_documents

    OFF = 10_000_000
    docs = load_documents(SF)
    delta = _mk_delta(docs, OFF, 20)
    got = _pairs_df(dedup.minhash_pairs_delta(SF, delta, threshold=0.5))
    assert len(got) > 0
    full = dedup.minhash_dedup_pairs(docs.union(delta), threshold=0.5).to_pandas()
    want = (
        full[(full.doc_a >= OFF) | (full.doc_b >= OFF)]
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    assert got.equals(want)


def test_delta_sketches_only_the_delta(ray_session, ckpt_root, monkeypatch):
    """Sketch COMPUTE scales with |delta|: once the corpus checkpoint
    exists, minhash_pairs_delta never re-sketches the corpus."""
    from invertedindexbuilder_ray.pipelines import dedup
    from invertedindexbuilder_ray.sources.documents import load_documents

    dedup.minhash_signature_ckpt(SF)  # pre-build the corpus checkpoint

    real = dedup.minhash_signature_ds

    def corpus_banned(source, **kw):
        if isinstance(source, str):
            raise AssertionError("corpus was re-sketched on the delta path")
        return real(source, **kw)

    monkeypatch.setattr(dedup, "minhash_signature_ds", corpus_banned)
    delta = _mk_delta(load_documents(SF), 10_000_000, 20)
    out = dedup.minhash_pairs_delta(SF, delta, threshold=0.5)
    assert out.count() > 0


def test_embedding_pairs_delta_matches_full_run(ray_session):
    """Embedding twin of the minhash delta: SRP-banded delta pairs equal
    the full-union run filtered to delta-touching pairs (exact at the
    threshold by the recall guarantee)."""
    import pyarrow.compute as pc

    from invertedindexbuilder_ray.pipelines import dedup
    from invertedindexbuilder_ray.sources.util import read_parquet_sized

    OFF = 1_000_000
    ds = read_parquet_sized(
        SF + "/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def mk(b):
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        d = b.filter(pa.array(ids % 20 == 0))
        return d.set_column(
            d.schema.get_field_index("vec_id"), "vec_id",
            pc.add(d["vec_id"], OFF),
        )

    delta = ds.map_batches(mk, batch_format="pyarrow")
    got = (
        dedup.embedding_pairs_delta(SF, delta, threshold=0.92)
        .to_pandas().sort_values(["vec_a", "vec_b"]).reset_index(drop=True)
    )
    assert len(got) > 0
    full = dedup.embedding_dedup_pairs(
        ds.union(delta), threshold=0.92, method="lsh"
    ).to_pandas()
    want = (
        full[(full.vec_a >= OFF) | (full.vec_b >= OFF)]
        .sort_values(["vec_a", "vec_b"]).reset_index(drop=True)
    )
    assert got.equals(want)


def test_embedding_pairs_delta_rejects_low_threshold(ray_session):
    import ray.data as rd

    from invertedindexbuilder_ray.pipelines import dedup

    empty = rd.from_arrow(
        pa.table({"vec_id": pa.array([], pa.int64()),
                  "embedding": pa.array([], pa.list_(pa.float32()))})
    )
    with pytest.raises(ValueError, match="SRP"):
        dedup.embedding_pairs_delta(SF, empty, threshold=0.1)


def test_derived_fingerprint_never_rebuilds_mislabeled(ray_session, ckpt_root):
    """A chained (derived) fingerprint whose checkpoint is gone must RAISE,
    not silently re-sketch only the raw corpus under the derived label
    (review finding: prior ingest survivors would be forgotten forever)."""
    from invertedindexbuilder_ray.pipelines import dedup

    with pytest.raises(RuntimeError, match="derived fingerprint"):
        dedup.minhash_signature_ckpt(
            SF, input_fingerprint="somefile:1:2+ingest:abc:501"
        )


def test_reuse_keeps_ckpt_from_gc(ray_session, ckpt_root):
    """GC ages checkpoints by last use: reusing a signature checkpoint
    (minhash_signature_ckpt, _write_sig_ckpt, or the ingest roll's
    _roll_sig_ckpt) bumps its _SUCCESS marker, so a back-dated entry in
    use is not collected."""
    import json
    import time

    from invertedindexbuilder_ray.pipelines import dedup
    from invertedindexbuilder_ray.state import manifest as mf
    from invertedindexbuilder_ray.state.gc import gc_ckpt_root

    def backdate(d):
        stale = time.time() - 30 * 86400
        os.utime(mf.marker_path(d), (stale, stale))
        assert gc_ckpt_root(ckpt_root, max_age_days=7, dry_run=True) == [d]

    d = dedup.minhash_signature_ckpt(SF)
    backdate(d)
    assert dedup.minhash_signature_ckpt(SF) == d
    assert gc_ckpt_root(ckpt_root, max_age_days=7, dry_run=True) == []

    backdate(d)
    with open(mf.marker_path(d)) as f:
        fp = json.load(f)["fingerprint"]
    # a complete entry is reused by a write or a roll for its fingerprint
    assert dedup._write_sig_ckpt(
        None, fp, num_perm=64, k=3, ckpt_root=ckpt_root) == d
    assert gc_ckpt_root(ckpt_root, max_age_days=7, dry_run=True) == []
    backdate(d)
    assert dedup._roll_sig_ckpt(
        None, fp, None, num_perm=64, k=3, bands=16, ckpt_root=ckpt_root) == d
    assert gc_ckpt_root(ckpt_root, max_age_days=7, dry_run=True) == []


def test_ckpt_without_band_runs_derives_them(ray_session, ckpt_root):
    """A checkpoint written before band runs existed holds only its sig
    parts.  The first probe derives the runs in place and finds the same
    pairs; the Ray Data read of the checkpoint still lists only the sig
    parts once runs sit next to them."""
    import shutil

    from invertedindexbuilder_ray.pipelines import dedup
    from invertedindexbuilder_ray.sources.documents import load_documents

    delta = _mk_delta(load_documents(SF), 10_000_000, 20).materialize()
    first = _pairs_df(dedup.minhash_pairs_delta(SF, delta, threshold=0.5))
    d = dedup.minhash_signature_ckpt(SF)
    runs = os.path.join(d, "bands16")
    assert os.listdir(runs) == ["run-000000.npy"]
    shutil.rmtree(runs)  # the layout before band runs
    again = _pairs_df(dedup.minhash_pairs_delta(SF, delta, threshold=0.5))
    assert len(first) > 0 and again.equals(first)
    assert os.listdir(runs) == ["run-000000.npy"]
    assert not [f for f in os.listdir(d) if f.startswith(".")]  # no temp dir left
    assert dedup._read_sig_ckpt(d).count() == 500

"""Persisted ANN artifact (round-4 verdict item 5): build-once /
query-many serving that is bit-identical to the inline ann_lsh/ann_ivf
paths, with a fingerprinted resume that skips the build entirely."""

from __future__ import annotations

import os

import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def ann_root(tmp_path, monkeypatch):
    root = str(tmp_path / "ann_ckpt")
    monkeypatch.setenv("IIB_ANN_CKPT_DIR", root)
    return root


def _df(ds):
    return (
        ds.to_pandas().sort_values(["qid", "rank"]).reset_index(drop=True)
    )


@pytest.mark.parametrize("kind", ["lsh", "ivf"])
def test_served_identical_to_inline(ray_session, ann_root, kind):
    from invertedindexbuilder_ray.pipelines import ann_store, similarity

    inline = similarity.ann_lsh if kind == "lsh" else similarity.ann_ivf
    a = _df(inline(SF))
    b = _df(ann_store.ann_serve(SF, kind=kind))
    assert len(a) > 0
    assert a.equals(b)
    # artifact layout: marker + bucket-sharded assignment parquet
    dirs = os.listdir(ann_root)
    assert len(dirs) == 1
    d = os.path.join(ann_root, dirs[0])
    assert os.path.exists(os.path.join(d, "_SUCCESS"))
    assert any(f.startswith("bshard=") for f in os.listdir(os.path.join(d, "assign")))


def test_build_once_query_twice_skips_build(ray_session, ann_root, monkeypatch):
    from invertedindexbuilder_ray.pipelines import ann_store

    first = _df(ann_store.ann_serve(SF, kind="ivf"))

    # second query must reuse the artifact: ban the quantizer derivation
    def banned(*a, **k):  # pragma: no cover
        raise AssertionError("codebook was re-derived on a warm artifact")

    monkeypatch.setattr(ann_store, "_ivf_codebook", banned)
    second = _df(ann_store.ann_serve(SF, kind="ivf"))
    assert first.equals(second)


def test_stale_fingerprint_rebuilds(ray_session, ann_root, tmp_path):
    """A changed input (different fingerprint) must not satisfy the old
    artifact key — build keys on content stat, not just path."""
    import shutil

    from invertedindexbuilder_ray.pipelines import ann_store

    # copy the sf dir so we can touch the embeddings file
    d2 = tmp_path / "sfcopy"
    d2.mkdir()
    shutil.copy(os.path.join(SF, "embeddings.parquet"), d2 / "embeddings.parquet")
    p1 = ann_store.ann_build(str(d2), kind="lsh")
    os.utime(d2 / "embeddings.parquet", (0, 0))  # new mtime => new fingerprint
    p2 = ann_store.ann_build(str(d2), kind="lsh")
    assert p1 != p2


def test_ann_extend_frozen_quantizer(ray_session, ann_root):
    """FAISS-add semantics: extend appends vectors under the frozen
    quantizer; served results equal the inline probe over the union with
    the SAME codebook (never a rebuilt one)."""
    import pyarrow as pa

    from invertedindexbuilder_ray.pipelines import ann_store, similarity

    d = ann_store.ann_build(SF, kind="ivf")
    import json as _json
    import os as _os

    meta = _json.load(open(_os.path.join(d, "meta.json")))
    n0 = meta["n"]

    # delta: clones of every 10th vector at +OFF ids
    OFF = 1_000_000
    src = similarity._embeddings(SF)
    import pyarrow.compute as pc

    def mk(b):
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        sel = b.filter(pa.array(ids % 10 == 0))
        return sel.set_column(
            sel.schema.get_field_index("vec_id"), "vec_id",
            pc.add(sel["vec_id"], OFF),
        )

    delta = src.map_batches(mk, batch_format="pyarrow")
    rep = ann_store.ann_extend(d, delta)
    assert rep["n_added"] > 0 and rep["n_total"] == n0 + rep["n_added"]

    qids, qmat_n = similarity._load_queries(src, 5)
    got = (
        ann_store.ann_query_artifact(d, qids, qmat_n, top_k=10)
        .to_pandas().sort_values(["qid", "rank"]).reset_index(drop=True)
    )
    # expectation: inline probe over the UNION with the artifact's frozen
    # codebook (derived from the original corpus only)
    cb = ann_store._open_codebook(d, meta)
    probe = similarity._ivf_query_probes(cb, qmat_n, 4)
    union = src.union(delta)
    want = (
        similarity._probe_topk(
            union, similarity._ivf_bucket_fn(cb), qids, qmat_n, probe, 10
        )
        .to_pandas().sort_values(["qid", "rank"]).reset_index(drop=True)
    )
    assert len(got) > 0
    assert got.equals(want)
    # clones of the query vectors now dominate the neighbor lists
    assert (got["vec_id"] >= OFF).any()


def test_ann_tombstones_exclude_at_query_time(ray_session, ann_root):
    """ann_mark_deleted: marked vectors never surface; assignments and
    quantizer untouched (live-docs contract, no rewrite)."""
    import numpy as np

    from invertedindexbuilder_ray.pipelines import ann_store, similarity

    d = ann_store.ann_build(SF, kind="lsh")
    src = similarity._embeddings(SF)
    qids, qmat_n = similarity._load_queries(src, 3)
    before = (
        ann_store.ann_query_artifact(d, qids, qmat_n, top_k=5)
        .to_pandas().sort_values(["qid", "rank"]).reset_index(drop=True)
    )
    assert len(before) > 0
    victim = int(before.loc[0, "vec_id"])
    n1 = ann_store.ann_mark_deleted(d, [victim])
    n2 = ann_store.ann_mark_deleted(d, [victim, victim + 1])  # union, dedup
    assert (n1, n2) == (1, 2)
    after = (
        ann_store.ann_query_artifact(d, qids, qmat_n, top_k=5)
        .to_pandas()
    )
    assert victim not in set(after["vec_id"])
    assert (victim + 1) not in set(after["vec_id"])
    # expectation: same probe over the artifact scan minus the dead ids
    import pytest as _pt

    with _pt.raises(ValueError):
        ann_store.ann_mark_deleted(d, [-5])


def test_ann_build_refuses_to_destroy_extended_artifact(ray_session, ann_root):
    """ann_build must not silently rmtree an artifact whose fingerprint
    was advanced by ann_extend (review finding: extension + tombstones
    were destroyed with no error); rebuild=True is the explicit opt-in."""
    import pyarrow as pa
    import ray.data as rd

    from invertedindexbuilder_ray.pipelines import ann_store, similarity

    d = ann_store.ann_build(SF, kind="lsh")
    src = similarity._embeddings(SF)
    one = src.limit(1).to_pandas()
    delta = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([999_999], pa.int64()),
                "embedding": pa.array(
                    [list(one.loc[0, "embedding"])], pa.list_(pa.float32())
                ),
            }
        )
    )
    ann_store.ann_extend(d, delta)
    with pytest.raises(RuntimeError, match="extended"):
        ann_store.ann_build(SF, kind="lsh")
    d2 = ann_store.ann_build(SF, kind="lsh", rebuild=True)
    assert d2 == d
    assert not os.path.exists(os.path.join(d, "tombstones.bin"))


def test_incomplete_artifact_rejected(ray_session, ann_root):
    """Query against an artifact missing its completion marker (crash mid
    extend) must raise, never serve half-mutated data."""
    from invertedindexbuilder_ray.pipelines import ann_store, similarity

    d = ann_store.ann_build(SF, kind="lsh")
    src = similarity._embeddings(SF)
    qids, qmat_n = similarity._load_queries(src, 2)
    os.remove(os.path.join(d, "_SUCCESS"))
    with pytest.raises(RuntimeError, match="incomplete"):
        ann_store.ann_query_artifact(d, qids, qmat_n)


def test_ann_extend_rejects_overlapping_ids(ray_session, ann_root):
    """vec_ids are append-only: a new id at or below the artifact's
    max_vec_id, or one repeated within the delta, raises before the
    artifact is touched (such ids used to be served twice).  An artifact
    written without the recorded max derives it from ``assign/``."""
    import json

    import pyarrow as pa
    import ray.data as rd

    from invertedindexbuilder_ray.pipelines import ann_store, similarity

    d = ann_store.ann_build(SF, kind="lsh")
    src = similarity._embeddings(SF).to_pandas()
    top = int(src["vec_id"].max())
    meta_path = os.path.join(d, "meta.json")
    emb = list(src.loc[0, "embedding"])

    def delta(ids):
        return rd.from_arrow(pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([emb] * len(ids), pa.list_(pa.float32())),
        }))

    def tree():
        return sorted(
            (os.path.relpath(os.path.join(p, f), d), os.path.getsize(os.path.join(p, f)))
            for p, _, fs in os.walk(d) for f in fs
        )

    before = tree()
    for ids, msg in (([top], "overlaps"), ([0, top + 9], "overlaps"),
                     ([top + 1, top + 1], "repeat")):
        with pytest.raises(ValueError, match=msg):
            ann_store.ann_extend(d, delta(ids))
        assert tree() == before  # marker kept, nothing appended
    with open(meta_path) as f:
        meta = json.load(f)
    assert meta["max_vec_id"] == top
    del meta["max_vec_id"]
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    with pytest.raises(ValueError, match="overlaps"):
        ann_store.ann_extend(d, delta([top]))
    rep = ann_store.ann_extend(d, delta([top + 1, top + 5]))
    assert rep["n_added"] == 2
    with open(meta_path) as f:
        assert json.load(f)["max_vec_id"] == top + 5
    with pytest.raises(ValueError, match="overlaps"):
        ann_store.ann_extend(d, delta([top + 3]))


def test_reuse_keeps_artifact_from_gc(ray_session, ann_root):
    """GC ages ANN artifacts by last use: ann_build's reuse and
    ann_query_artifact both bump the _SUCCESS marker of a back-dated
    artifact, so an artifact in use is not collected."""
    import json
    import time

    import numpy as np

    from invertedindexbuilder_ray.pipelines import ann_store
    from invertedindexbuilder_ray.state import manifest as mf
    from invertedindexbuilder_ray.state.gc import gc_ckpt_root

    def backdate(d):
        stale = time.time() - 30 * 86400
        os.utime(mf.marker_path(d), (stale, stale))
        assert gc_ckpt_root(ann_root, max_age_days=7, dry_run=True) == [d]

    d = ann_store.ann_build(SF, kind="lsh")
    backdate(d)
    assert ann_store.ann_build(SF, kind="lsh") == d
    assert gc_ckpt_root(ann_root, max_age_days=7, dry_run=True) == []

    backdate(d)
    with open(os.path.join(d, "meta.json")) as f:
        dim = json.load(f)["dim"]
    q = np.ones((1, dim)) / np.sqrt(dim)
    ann_store.ann_query_artifact(d, np.array([0]), q, top_k=3).take_all()
    assert gc_ckpt_root(ann_root, max_age_days=7, dry_run=True) == []


def test_ann_extend_reports_bucket_skew(ray_session, ann_root):
    """ann_extend returns max and mean bucket occupancy after the
    extend; a batch piled into one bucket raises max / mean."""
    import pyarrow as pa
    import ray.data as rd

    from invertedindexbuilder_ray.pipelines import ann_store, similarity

    d = ann_store.ann_build(SF, kind="ivf")
    src = similarity._embeddings(SF)
    one = list(src.limit(1).to_pandas().loc[0, "embedding"])

    def extend(ids, vecs):
        return ann_store.ann_extend(d, rd.from_arrow(pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
        })))

    first = extend([1_000_000], [one])
    assert first["bucket_max"] >= first["bucket_mean"] > 0
    skewed = extend(list(range(1_000_001, 1_000_401)), [one] * 400)
    assert skewed["bucket_max"] >= first["bucket_max"] + 400
    assert (skewed["bucket_max"] / skewed["bucket_mean"]
            > first["bucket_max"] / first["bucket_mean"])

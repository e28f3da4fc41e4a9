"""Composed rolling ingest (pipelines/ingest.py): dedup the delta against
the corpus via the durable signature checkpoint, extend the index with the
survivors, roll the checkpoint forward for the next delta."""

from __future__ import annotations

import pyarrow as pa
import pytest
import ray.data as rd

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def ckpt_root(tmp_path, monkeypatch):
    root = str(tmp_path / "sig_ckpt")
    monkeypatch.setenv("IIB_SIG_CKPT_DIR", root)
    return root


def _docs_table():
    from invertedindexbuilder_ray.sources.documents import load_documents

    return load_documents(SF)


def _delta_ds(rows):
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "url": pa.array([f"doc:{r[0]}" for r in rows], pa.string()),
                "text": pa.array([r[1] for r in rows], pa.string()),
                "dl": pa.array([len(r[1]) for r in rows], pa.int64()),
            }
        )
    )


def _corpus_text(doc_id):
    import duckdb

    return duckdb.sql(
        f"SELECT text FROM read_parquet('{SF}/documents.parquet') "
        f"WHERE doc_id = {doc_id}"
    ).fetchone()[0]


NOVEL_A = "zebra quagga okapi tapir zebra quagga okapi tapir volcano"
NOVEL_B = "glacier fjord moraine esker drumlin glacier fjord moraine"


def test_ingest_delta_drops_dups_and_extends(ray_session, ckpt_root, tmp_path):
    from invertedindexbuilder_ray.pipelines.build import build_index
    from invertedindexbuilder_ray.pipelines.ingest import ingest_delta
    from invertedindexbuilder_ray.pipelines.merge import extend_index
    from invertedindexbuilder_ray.pipelines.query import QueryEngine

    base = str(tmp_path / "base")
    build_index(_docs_table(), base, num_partitions=2)

    rows = [
        (1000, _corpus_text(10)),   # corpus clone -> dropped
        (1001, _corpus_text(20)),   # corpus clone -> dropped
        (1002, NOVEL_A),            # kept (earlier of the delta pair)
        (1003, NOVEL_A),            # delta-internal dup -> dropped
        (1004, NOVEL_B),            # kept
    ]
    out = str(tmp_path / "out")
    rep = ingest_delta(base, SF, _delta_ds(rows), out)
    assert rep["n_dropped"] == 3
    assert rep["dropped_ids"] == [1000, 1001, 1003]
    assert rep["n_delta"] == 5
    assert rep["manifest"].n_docs == 502  # 500 corpus + 2 survivors
    assert rep["corpus_fingerprint"]

    # result equals extending with only the survivors
    ref = str(tmp_path / "ref")
    extend_index(
        base, _delta_ds([rows[2], rows[4]]), ref, offset_doc_ids=False
    )
    got, want = QueryEngine(out), QueryEngine(ref)
    for q in ("zebra quagga", "glacier fjord", "data join"):
        for mode in (0, 1):
            assert got.search(q, 10, mode) == want.search(q, 10, mode), (q, mode)
    # the dropped clone never entered the index
    assert all(h["doc_id"] != 1003 for h in got.search("zebra", 10, 1))


def test_chained_ingest_bands_against_rolled_ckpt(ray_session, ckpt_root, tmp_path, monkeypatch):
    """Delta 2 cloning a delta-1 SURVIVOR must be dropped — only possible
    if the rolled checkpoint includes survivor signatures — and the
    corpus must never be re-sketched after the first checkpoint build."""
    from invertedindexbuilder_ray.pipelines import dedup
    from invertedindexbuilder_ray.pipelines.build import build_index
    from invertedindexbuilder_ray.pipelines.ingest import ingest_delta

    base = str(tmp_path / "base")
    build_index(_docs_table(), base, num_partitions=2)
    out1 = str(tmp_path / "out1")
    rep1 = ingest_delta(base, SF, _delta_ds([(1000, NOVEL_A)]), out1)
    assert rep1["n_dropped"] == 0

    real = dedup.minhash_signature_ds

    def corpus_banned(source, **kw):
        if isinstance(source, str):
            raise AssertionError("corpus re-sketched during chained ingest")
        return real(source, **kw)

    monkeypatch.setattr(dedup, "minhash_signature_ds", corpus_banned)
    out2 = str(tmp_path / "out2")
    rep2 = ingest_delta(
        out1, SF,
        _delta_ds([(2000, NOVEL_A), (2001, NOVEL_B)]),
        out2,
        corpus_fingerprint=rep1["corpus_fingerprint"],
    )
    # 2000 clones survivor 1000 (now part of the rolled corpus) -> dropped
    assert rep2["dropped_ids"] == [2000]
    assert rep2["manifest"].n_docs == 502  # 500 + 1000 + 2001


def test_ingest_id_discipline_raises(ray_session, ckpt_root, tmp_path):
    from invertedindexbuilder_ray.pipelines.build import build_index
    from invertedindexbuilder_ray.pipelines.ingest import ingest_delta

    base = str(tmp_path / "base")
    build_index(_docs_table(), base, num_partitions=2)
    # delta id 10 collides with the corpus id space AND near-dups doc 10
    bad = _delta_ds([(10, _corpus_text(10))])
    with pytest.raises(ValueError, match="id discipline"):
        ingest_delta(base, SF, bad, str(tmp_path / "out"))


def test_cli_ingest(ray_session, ckpt_root, tmp_path, capsys):
    """CLI `ingest`: build base via CLI, ingest a delta documents dir,
    report JSON with drops; chains via --fingerprint."""
    import json as _json

    import pyarrow.parquet as pq

    from invertedindexbuilder_ray.cli import main

    idx = str(tmp_path / "idx")
    assert main(
        ["build", "--input", SF, "--out", idx, "--format", "documents",
         "--partitions", "2"]
    ) == 0
    capsys.readouterr()

    delta_dir = tmp_path / "delta"
    delta_dir.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1000, 1001], pa.int64()),
                "text": pa.array([_corpus_text(10), NOVEL_A], pa.string()),
                "lang": pa.array(["en", "en"], pa.string()),
                "source": pa.array(["web", "web"], pa.string()),
            }
        ),
        delta_dir / "documents.parquet",
    )
    out = str(tmp_path / "out")
    assert main(
        ["ingest", "--index", idx, "--corpus", SF,
         "--delta", str(delta_dir), "--out", out]
    ) == 0
    rep = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["n_dropped"] == 1 and rep["dropped_ids"] == [1000]
    assert rep["n_docs"] == 501
    assert rep["corpus_fingerprint"]


def test_ingest_id_discipline_without_neardup(ray_session, ckpt_root, tmp_path):
    """The id check must fire for ANY colliding delta id — including docs
    with no near-dup pair, and with dedup=False (review finding: only
    near-dup later-sides were checked)."""
    from invertedindexbuilder_ray.pipelines.build import build_index
    from invertedindexbuilder_ray.pipelines.ingest import ingest_delta

    base = str(tmp_path / "base")
    build_index(_docs_table(), base, num_partitions=2)
    bad = _delta_ds([(42, "totally unrelated novel words nowhere else")])
    with pytest.raises(ValueError, match="id discipline"):
        ingest_delta(base, SF, bad, str(tmp_path / "o1"))
    with pytest.raises(ValueError, match="id discipline"):
        ingest_delta(base, SF, bad, str(tmp_path / "o2"), dedup=False)


def _runs(ckpt_dir):
    import os

    return sorted(os.listdir(os.path.join(ckpt_dir, "bands16")))


def test_ingest_reports_pairs_probe(ray_session, ckpt_root, tmp_path):
    """The report's ``pairs_probe`` block carries the band-run probe's
    work counts; candidates before verification bound the final pairs."""
    from invertedindexbuilder_ray.pipelines.build import build_index
    from invertedindexbuilder_ray.pipelines.ingest import ingest_delta

    base = str(tmp_path / "base")
    build_index(_docs_table(), base, num_partitions=2)
    rows = [(1000, _corpus_text(10)), (1001, NOVEL_A), (1002, NOVEL_A)]
    rep = ingest_delta(base, SF, _delta_ds(rows), str(tmp_path / "out"))
    probe = rep["pairs_probe"]
    assert set(probe) == {
        "delta_keys", "run_rows", "corpus_rows", "candidates", "verified"
    }
    assert rep["n_pairs"] == probe["verified"] >= 2
    assert probe["candidates"] >= rep["n_pairs"]
    assert probe["run_rows"] == [500 * 16]  # one run: the base corpus
    assert 0 < probe["delta_keys"] <= 3 * 16
    assert 16 <= probe["corpus_rows"] <= probe["run_rows"][0]
    rep0 = ingest_delta(base, SF, _delta_ds([]), str(tmp_path / "out0"))
    assert rep0["pairs_probe"] == {}


def test_rolled_ckpt_survives_gc_and_old_layout(ray_session, ckpt_root, tmp_path):
    """A rolled checkpoint owns its files through hard links: after GC
    removes its base, the next delta's probe and roll still run from it.
    Band runs removed from every checkpoint (the layout before they
    existed, a derived chained-ingest entry included) are derived again
    from the sig parts, and the pairs do not change."""
    import os
    import shutil
    import time

    from invertedindexbuilder_ray.pipelines import dedup
    from invertedindexbuilder_ray.pipelines.build import build_index
    from invertedindexbuilder_ray.pipelines.ingest import ingest_delta
    from invertedindexbuilder_ray.state import manifest as mf
    from invertedindexbuilder_ray.state.gc import gc_ckpt_root

    base = str(tmp_path / "base")
    build_index(_docs_table(), base, num_partitions=2)
    rep1 = ingest_delta(base, SF, _delta_ds([(1000, NOVEL_A)]), str(tmp_path / "o1"))
    rolled = dedup._sig_ckpt_dir(rep1["corpus_fingerprint"], 64, 3, ckpt_root)
    (base_ckpt,) = [
        os.path.join(ckpt_root, d) for d in os.listdir(ckpt_root)
        if os.path.join(ckpt_root, d) != rolled
    ]
    assert _runs(rolled) == ["run-000000.npy", "run-000001.npy"]
    stale = time.time() - 30 * 86400
    os.utime(mf.marker_path(base_ckpt), (stale, stale))
    assert gc_ckpt_root(ckpt_root, max_age_days=7) == [base_ckpt]
    assert not os.path.exists(base_ckpt)

    delta2 = [(2000, NOVEL_A), (2001, NOVEL_B)]
    rep2 = ingest_delta(
        str(tmp_path / "o1"), SF, _delta_ds(delta2), str(tmp_path / "o2"),
        corpus_fingerprint=rep1["corpus_fingerprint"],
    )
    assert rep2["dropped_ids"] == [2000]  # clone of the delta-1 survivor
    assert rep2["pairs_probe"]["run_rows"] == [500 * 16, 16]
    rolled2 = dedup._sig_ckpt_dir(rep2["corpus_fingerprint"], 64, 3, ckpt_root)
    # 1 survivor absorbs the 1-doc run: O(log) runs
    assert _runs(rolled2) == ["run-000000.npy", "run-000002.npy"]
    assert dedup._sig_table(rolled2).num_rows == 502

    for d in os.listdir(ckpt_root):
        shutil.rmtree(os.path.join(ckpt_root, d, "bands16"))
    rep2b = ingest_delta(
        str(tmp_path / "o1"), SF, _delta_ds(delta2), str(tmp_path / "o2b"),
        corpus_fingerprint=rep1["corpus_fingerprint"],
    )
    assert rep2b["dropped_ids"] == [2000]
    assert rep2b["pairs_probe"]["run_rows"] == [501 * 16]  # one derived run
    assert {k: rep2b["pairs_probe"][k] for k in ("candidates", "verified")} == {
        k: rep2["pairs_probe"][k] for k in ("candidates", "verified")
    }


def test_chained_fingerprints_keep_their_length(ray_session, ckpt_root, tmp_path):
    """Each ingest names the previous index's and corpus's fingerprints by
    digest, so neither the manifest's ``input_fingerprint`` nor the rolled
    corpus fingerprint grows along a chain."""
    from invertedindexbuilder_ray.pipelines.build import build_index
    from invertedindexbuilder_ray.pipelines.ingest import ingest_delta

    cur = str(tmp_path / "base")
    build_index(_docs_table(), cur, num_partitions=2)
    fp, lengths = "", []
    for i, text in enumerate((NOVEL_A, NOVEL_B, "lagoon atoll reef lagoon atoll")):
        out = str(tmp_path / f"out{i}")
        rep = ingest_delta(cur, SF, _delta_ds([(1000 + i, text)]), out,
                           corpus_fingerprint=fp)
        assert rep["n_dropped"] == 0
        cur, fp = out, rep["corpus_fingerprint"]
        lengths.append((len(rep["manifest"].input_fingerprint), len(fp)))
    assert lengths[0] == lengths[1] == lengths[2], lengths

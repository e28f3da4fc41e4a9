"""End-to-end build + query conformance vs the oracle (SURVEY.md §5)."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest

from invertedindexbuilder_ray import corpus, oracle
from invertedindexbuilder_ray.pipelines import query as qmod
from invertedindexbuilder_ray.pipelines.build import build_index
from invertedindexbuilder_ray.sources.webpages import load_webpages
from invertedindexbuilder_ray.state.reader import IndexReader


@pytest.fixture(scope="session")
def built_index(ray_session, webpages_medium, tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    src = root / "webpages"
    src.mkdir()
    # two files + small row groups => many row-group tasks, exercises doc_id planning
    tbl = webpages_medium
    pq.write_table(tbl.slice(0, 600), src / "part-000.parquet", row_group_size=150)
    pq.write_table(tbl.slice(600), src / "part-001.parquet", row_group_size=150)
    out = root / "index"
    man = build_index(
        load_webpages(str(src)),
        str(out),
        num_partitions=4,
        input_fingerprint="test",
    )
    ora = oracle.build_index(tbl.to_pylist())
    return str(out), man, ora


def test_doc_stats_match(built_index):
    out, man, ora = built_index
    assert man.n_docs == ora.n_docs
    assert man.sum_dl == ora.sum_dl
    assert man.max_doc_id == ora.max_doc_id
    assert man.d_avr == pytest.approx(ora.d_avr, rel=1e-12)
    r = IndexReader(out)
    for did, dl in ora.doc_lens.items():
        assert r.doc_len(did) == dl
        assert r.url(did) == ora.urls[did]


def test_postings_match_oracle(built_index):
    out, man, ora = built_index
    r = IndexReader(out)
    assert set(r.lexicon) == set(ora.postings)
    for term, plist in ora.postings.items():
        cur = r.open_list(term)
        docs, tfs = cur.decode_all_remaining()
        assert list(zip(docs.tolist(), tfs.tolist())) == plist, term
        assert cur.df == len(plist)
    assert man.stats["distinct_terms"] == len(ora.postings)


def test_multi_block_lists_exist(built_index):
    _, man, ora = built_index
    assert max(len(p) for p in ora.postings.values()) > 128  # fixture guarantees


def test_conjunctive_conformance(built_index):
    out, _, ora = built_index
    eng = qmod.QueryEngine(out, conformance=True)
    for q in corpus.make_queries():
        terms = eng.parse_query(q["terms"])
        got = eng.conjunctive(terms, q["k"])
        want = oracle.conjunctive_topk(ora, terms, q["k"], mode="conformance")
        assert [d for d, _ in got] == [d for d, _ in want], q
        np.testing.assert_allclose(
            [s for _, s in got], [s for _, s in want], rtol=1e-9
        )


def test_conjunctive_correct_mode(built_index):
    out, _, ora = built_index
    eng = qmod.QueryEngine(out, conformance=False)
    for q in corpus.make_queries():
        terms = eng.parse_query(q["terms"])
        got = eng.conjunctive(terms, q["k"])
        want = oracle.conjunctive_topk(ora, terms, q["k"], mode="correct")
        assert [d for d, _ in got] == [d for d, _ in want], q
        np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=1e-9)


def test_disjunctive_matches_oracle(built_index):
    out, _, ora = built_index
    eng = qmod.QueryEngine(out)
    for q in corpus.make_queries():
        terms = eng.parse_query(q["terms"])
        got = eng.disjunctive(terms, q["k"])
        want = oracle.disjunctive_topk(ora, terms, q["k"])
        assert [d for d, _ in got] == [d for d, _ in want], q
        np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=1e-9)


def test_partial_resume_rebuilds_identical_bytes(built_index, tmp_path):
    """Kill-and-resume: wipe two partitions' outputs; the resumed build must
    reproduce them byte-identically from the checkpoint (no re-parse)."""
    import hashlib
    import os
    import shutil

    out, man, _ = built_index
    victims = [0, 2]
    before = {}
    for pid in victims:
        blob = os.path.join(out, "postings", f"part-{pid:05d}.bin")
        lex = os.path.join(out, "lexicon", f"part-{pid:05d}.parquet")
        meta = os.path.join(out, "parts_meta", f"part-{pid:05d}.json")
        before[pid] = hashlib.md5(open(blob, "rb").read()).hexdigest()
        os.unlink(blob), os.unlink(lex), os.unlink(meta)

    import ray.data as rd

    def boom(batch):
        raise RuntimeError("must not re-parse")

    poisoned = rd.from_items([{"doc_id": 0, "url": "h", "text": "x", "dl": 1}]).map_batches(boom)
    man2 = build_index(poisoned, out, num_partitions=4, resume=True)
    for pid in victims:
        blob = os.path.join(out, "postings", f"part-{pid:05d}.bin")
        assert hashlib.md5(open(blob, "rb").read()).hexdigest() == before[pid]
        assert man2.partitions[str(pid)]["skipped"] is False
    for pid in (1, 3):
        assert man2.partitions[str(pid)]["skipped"] is True
    # the per-partition encode seconds cover only the two re-encoded partitions
    walls = [man2.partitions[str(pid)]["wall_s"] for pid in victims]
    assert man2.stats["encode_partition_s"] == {"p50": sum(walls) / 2, "max": max(walls)}


def test_resume_skips_completed_partitions(built_index, webpages_medium):
    out, _, _ = built_index
    # rebuilding over the same directory must skip every partition and
    # never re-read the input (source is a poisoned dataset to prove it)
    import ray.data as rd

    def boom(batch):
        raise RuntimeError("input must not be re-read on resume")

    poisoned = rd.from_items([{"doc_id": 0, "url": "h", "text": "x", "dl": 1}]).map_batches(boom)
    man2 = build_index(poisoned, out, num_partitions=4, resume=True)
    assert all(p.get("skipped") for p in man2.partitions.values())


def _blob_hashes(out: str) -> dict[str, str]:
    import hashlib
    import os

    d = os.path.join(out, "postings")
    return {
        f: hashlib.md5(open(os.path.join(d, f), "rb").read()).hexdigest()
        for f in sorted(os.listdir(d))
    }


def test_kill_during_phase1_resume(ray_session, webpages_small, tmp_path):
    """A build killed between the phase-1 checkpoint write and its _SUCCESS
    marker must NOT append a second copy of every row on resume (the
    write_parquet-APPEND hazard): the resumed build wipes the unmarked
    checkpoint and reproduces the clean build exactly."""
    import os
    import shutil

    src = tmp_path / "webpages"
    src.mkdir()
    pq.write_table(webpages_small, src / "part-000.parquet", row_group_size=50)

    clean = str(tmp_path / "idx_clean")
    man_clean = build_index(load_webpages(str(src)), clean, num_partitions=4)

    crashed = str(tmp_path / "idx_crashed")
    build_index(load_webpages(str(src)), crashed, num_partitions=4)
    # simulate the kill window: phase-1 files written, marker + later phases absent
    os.unlink(os.path.join(crashed, "postings_ckpt", "_SUCCESS"))
    for sub in ("docs", "postings", "lexicon", "parts_meta"):
        shutil.rmtree(os.path.join(crashed, sub))
    os.unlink(os.path.join(crashed, "manifest.json"))

    man2 = build_index(load_webpages(str(src)), crashed, num_partitions=4, resume=True)
    assert man2.n_docs == man_clean.n_docs
    assert man2.stats["total_postings"] == man_clean.stats["total_postings"]
    assert _blob_hashes(crashed) == _blob_hashes(clean)


def test_no_resume_rebuilds_everything(ray_session, webpages_small, tmp_path):
    """resume=False over an existing out_dir must wipe and rebuild (never
    append to the checkpoint, never serve stale skipped partitions)."""
    src = tmp_path / "webpages"
    src.mkdir()
    pq.write_table(webpages_small, src / "part-000.parquet", row_group_size=50)

    out = str(tmp_path / "idx")
    man1 = build_index(load_webpages(str(src)), out, num_partitions=4)
    before = _blob_hashes(out)
    man2 = build_index(load_webpages(str(src)), out, num_partitions=4, resume=False)
    assert not any(p.get("skipped") for p in man2.partitions.values())
    assert man2.n_docs == man1.n_docs
    assert man2.stats["total_postings"] == man1.stats["total_postings"]
    assert _blob_hashes(out) == before


def _small_source(tmp_path, tbl, name="webpages"):
    src = tmp_path / name
    src.mkdir()
    pq.write_table(tbl, src / "part-000.parquet", row_group_size=50)
    return load_webpages(str(src))


def test_manifest_rejects_older_format(tmp_path):
    """A manifest written by an older format version raises a ValueError
    that names the version (not a TypeError on a key this code dropped)."""
    import json

    from invertedindexbuilder_ray.state.manifest import FORMAT_VERSION, IndexManifest

    (tmp_path / "manifest.json").write_text(json.dumps({
        "n_docs": 1, "sum_dl": 3, "d_avr": 3.0, "max_doc_id": 1, "num_partitions": 1,
        "block_max": True, "input_fingerprint": "", "format_version": 2,
        "partitions": {}, "stats": {},
    }))
    with pytest.raises(ValueError, match=f"version 2.*version {FORMAT_VERSION}"):
        IndexManifest.load(str(tmp_path))


def test_resume_reencodes_partitions_of_older_format(ray_session, webpages_small, tmp_path):
    """A resume never skips a partition whose parts_meta was written under
    another format version: it re-encodes it from the checkpoint."""
    import json
    import os

    import ray.data as rd

    from invertedindexbuilder_ray.state.manifest import FORMAT_VERSION

    out = str(tmp_path / "idx")
    man = build_index(_small_source(tmp_path, webpages_small), out, num_partitions=2)
    assert all(p["format_version"] == FORMAT_VERSION for p in man.partitions.values())
    before = _blob_hashes(out)
    for pid in range(2):
        meta_path = os.path.join(out, "parts_meta", f"part-{pid:05d}.json")
        with open(meta_path) as f:
            meta = json.load(f)
        meta["format_version"] = FORMAT_VERSION - 1
        with open(meta_path, "w") as f:
            json.dump(meta, f)
        with open(os.path.join(out, "postings", f"part-{pid:05d}.bin"), "wb") as f:
            f.write(b"\x00stale")

    def boom(batch):
        raise RuntimeError("must not re-parse")

    poisoned = rd.from_items([{"doc_id": 0, "url": "h", "text": "x", "dl": 1}]).map_batches(boom)
    man2 = build_index(poisoned, out, num_partitions=2, resume=True)
    assert not any(p["skipped"] for p in man2.partitions.values())
    assert _blob_hashes(out) == before


def test_build_with_every_doc_filtered(ray_session, webpages_small, tmp_path):
    """Every doc filtered out (quirk Q4 drops urls not starting with 'h'):
    the docs writer still writes an empty docs table and the stats are zero."""
    import pyarrow as pa
    import pyarrow.compute as pc

    tbl = webpages_small
    tbl = tbl.set_column(tbl.schema.get_field_index("url"), "url",
                         pc.binary_join_element_wise("x", tbl["url"], ""))
    out = str(tmp_path / "idx")
    man = build_index(_small_source(tmp_path, tbl), out, num_partitions=2)
    assert (man.n_docs, man.sum_dl, man.max_doc_id) == (0, 0, 0)
    assert man.stats["total_postings"] == 0
    docs = pq.read_table(str(tmp_path / "idx" / "docs"))
    assert docs.num_rows == 0 and docs.schema.names == ["doc_id", "dl", "url"]
    assert docs.schema.field("doc_id").type == pa.int64()
    eng = qmod.QueryEngine(out)
    assert eng.search("data the", 5, 0) == [] and eng.search("data", 5, 1) == []


def test_resume_takes_doc_stats_from_docs_marker(ray_session, webpages_small, tmp_path):
    """A resume over a complete docs/ reads (n_docs, sum_dl, max_doc_id)
    from its _SUCCESS marker: with the checkpoint's doc rows gone and the
    source poisoned, the manifest stats still equal the clean build's."""
    import os
    import shutil

    import ray.data as rd

    out = str(tmp_path / "idx")
    clean = build_index(_small_source(tmp_path, webpages_small), out, num_partitions=2)
    docs = os.path.join(out, "docs")
    stamps = {f: os.stat(os.path.join(docs, f)).st_mtime_ns for f in os.listdir(docs)}
    shutil.rmtree(os.path.join(out, "postings_ckpt", "partition=-1"))
    os.unlink(os.path.join(out, "manifest.json"))

    def boom(batch):
        raise RuntimeError("must not re-parse")

    poisoned = rd.from_items([{"doc_id": 0, "url": "h", "text": "x", "dl": 1}]).map_batches(boom)
    man = build_index(poisoned, out, num_partitions=2, resume=True)
    assert (man.n_docs, man.sum_dl, man.d_avr, man.max_doc_id) == (
        clean.n_docs, clean.sum_dl, clean.d_avr, clean.max_doc_id)
    assert {f: os.stat(os.path.join(docs, f)).st_mtime_ns for f in os.listdir(docs)} == stamps

"""Index merge/compaction: merging indexes built over corpus slices must be
byte-identical to one full build over the concatenated corpus."""

from __future__ import annotations

import hashlib
import os

import pyarrow.parquet as pq
import pytest

from invertedindexbuilder_ray.pipelines.build import build_index
from invertedindexbuilder_ray.pipelines.merge import merge_indexes
from invertedindexbuilder_ray.pipelines.query import QueryEngine
from invertedindexbuilder_ray.sources.webpages import load_webpages


def _blob_hashes(out: str) -> dict[str, str]:
    d = os.path.join(out, "postings")
    return {
        f: hashlib.md5(open(os.path.join(d, f), "rb").read()).hexdigest()
        for f in sorted(os.listdir(d))
    }


def _lexicon_rows(out: str):
    d = os.path.join(out, "lexicon")
    rows = []
    for f in sorted(os.listdir(d)):
        rows.extend(pq.read_table(os.path.join(d, f)).to_pylist())
    return sorted(rows, key=lambda r: (r["partition"], r["term"], r["seg"]))


@pytest.fixture(scope="module")
def merged_vs_full(ray_session, webpages_medium, tmp_path_factory):
    root = tmp_path_factory.mktemp("merge")
    tbl = webpages_medium
    full_src = root / "full"
    a_src = root / "a"
    b_src = root / "b"
    for p in (full_src, a_src, b_src):
        p.mkdir()
    pq.write_table(tbl, full_src / "w.parquet", row_group_size=100)
    pq.write_table(tbl.slice(0, 600), a_src / "w.parquet", row_group_size=100)
    pq.write_table(tbl.slice(600), b_src / "w.parquet", row_group_size=100)

    full = str(root / "idx_full")
    ia, ib, merged = str(root / "idx_a"), str(root / "idx_b"), str(root / "idx_m")
    man_full = build_index(load_webpages(str(full_src)), full, num_partitions=4)
    build_index(load_webpages(str(a_src)), ia, num_partitions=4)
    build_index(load_webpages(str(b_src)), ib, num_partitions=4)
    man_m = merge_indexes([ia, ib], merged)
    return full, merged, man_full, man_m


def test_merge_byte_identical_blobs(merged_vs_full):
    full, merged, man_full, man_m = merged_vs_full
    assert man_m.n_docs == man_full.n_docs
    assert man_m.sum_dl == man_full.sum_dl
    assert man_m.d_avr == man_full.d_avr
    assert man_m.max_doc_id == man_full.max_doc_id
    assert man_m.stats["total_postings"] == man_full.stats["total_postings"]
    assert man_m.stats["distinct_terms"] == man_full.stats["distinct_terms"]
    assert _blob_hashes(merged) == _blob_hashes(full)
    assert _lexicon_rows(merged) == _lexicon_rows(full)


def test_merge_accounts_phase_seconds(ray_session, webpages_small, tmp_path):
    """build_index and merge_indexes time their own phases under fixed
    keys (the merge shares build_index's ``docs_and_stats``): the docs
    task reports its own non-zero seconds, and the phases add up to no
    more than the call's wall.  ``encode_partition_s`` gives the p50 and
    max of the partitions' own seconds, which fit in the encode phase."""
    import time

    runs = []
    halves = []
    for name, sl in (("a", webpages_small.slice(0, 50)), ("b", webpages_small.slice(50))):
        src = tmp_path / f"src_{name}"
        src.mkdir()
        pq.write_table(sl, src / "w.parquet")
        halves.append(str(tmp_path / name))
        t0 = time.perf_counter()
        man = build_index(load_webpages(str(src)), halves[-1], num_partitions=2)
        runs.append((man, time.perf_counter() - t0,
                     ["docs_and_stats", "parse_tokenize_ckpt", "shuffle_and_encode"]))
    t0 = time.perf_counter()
    man_m = merge_indexes(halves, str(tmp_path / "m"))
    runs.append((man_m, time.perf_counter() - t0, ["docs_and_stats", "encode"]))
    for man, wall, keys in runs:
        ph = man.stats["phase_seconds"]
        assert sorted(ph) == keys
        assert ph["docs_and_stats"] > 0 and all(v >= 0 for v in ph.values())
        assert sum(ph.values()) <= wall, (ph, wall)
        part = man.stats["encode_partition_s"]
        assert sorted(part) == ["max", "p50"]
        assert 0 < part["p50"] <= part["max"] <= ph[keys[-1]], (part, ph)
    assert "merge_encode_s" not in man_m.stats


def test_delete_docs_rejects_out_of_range(ray_session, webpages_small, tmp_path):
    """delete_docs validates ids like mark_deleted: an id outside
    [0, max_doc_id) raises before anything is written."""
    from invertedindexbuilder_ray.pipelines.merge import delete_docs
    from invertedindexbuilder_ray.state.manifest import IndexManifest

    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(webpages_small, src / "w.parquet")
    idx = str(tmp_path / "idx")
    build_index(load_webpages(str(src)), idx, num_partitions=2)
    max_doc = IndexManifest.load(idx).max_doc_id
    for bad in ([0, max_doc], [-1], [max_doc + 10**6]):
        out = str(tmp_path / f"out{len(bad)}{bad[-1]}")
        with pytest.raises(ValueError, match="outside"):
            delete_docs(idx, bad, out)
        assert not os.path.exists(out)
    man = delete_docs(idx, [0, max_doc - 1], str(tmp_path / "ok"))
    assert man.stats["n_tombstones"] == 2
    assert sorted(man.stats["phase_seconds"]) == ["docs_and_stats", "encode"]


def test_delete_docs_keeps_marked_docs_deleted(ray_session, webpages_small, tmp_path):
    """Docs marked with mark_deleted stay deleted through a delete_docs
    compaction: the output equals deleting both sets at once."""
    import shutil

    from invertedindexbuilder_ray.pipelines.merge import delete_docs, mark_deleted
    from invertedindexbuilder_ray.state.manifest import IndexManifest

    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(webpages_small, src / "w.parquet")
    idx, clean = str(tmp_path / "idx"), str(tmp_path / "clean")
    build_index(load_webpages(str(src)), idx, num_partitions=2)
    shutil.copytree(idx, clean)
    mark_deleted(idx, [3, 4])
    man = delete_docs(idx, [5], str(tmp_path / "out"))
    ref = delete_docs(clean, [3, 4, 5], str(tmp_path / "ref"))
    assert man.n_docs == ref.n_docs == IndexManifest.load(clean).n_docs - 3
    assert man.stats["n_tombstones"] == 3
    assert _blob_hashes(str(tmp_path / "out")) == _blob_hashes(str(tmp_path / "ref"))
    assert _lexicon_rows(str(tmp_path / "out")) == _lexicon_rows(str(tmp_path / "ref"))


def test_merge_queries_identical(merged_vs_full):
    full, merged, _, _ = merged_vs_full
    ef, em = QueryEngine(full), QueryEngine(merged)
    for q, mode in [("data the", 0), ("data the", 1), ("w3 w17", 0), ("tail", 1)]:
        hf = ef.search(q, 10, mode)
        hm = em.search(q, 10, mode)
        assert [(h["doc_id"], h["score"]) for h in hf] == [
            (h["doc_id"], h["score"]) for h in hm
        ], (q, mode)


def test_merge_rejects_mismatched_partitions(ray_session, webpages_small, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(webpages_small, src / "w.parquet")
    a, b = str(tmp_path / "ia"), str(tmp_path / "ib")
    build_index(load_webpages(str(src)), a, num_partitions=4)
    build_index(load_webpages(str(src)), b, num_partitions=8)
    with pytest.raises(ValueError, match="identical num_partitions"):
        merge_indexes([a, b], str(tmp_path / "m"))


def test_merge_resume_skips(merged_vs_full):
    _, merged, _, _ = merged_vs_full
    from invertedindexbuilder_ray.pipelines.merge import merge_indexes as mi
    import invertedindexbuilder_ray.pipelines.merge as m

    man2 = mi(
        [p for p in m.IndexManifest.load(merged).stats["merged_from"]], merged
    )
    assert all(p.get("skipped") for p in man2.partitions.values())


def test_extend_index(ray_session, webpages_medium, tmp_path):
    """extend_index(base, new_docs) == full rebuild over base + new docs."""
    from invertedindexbuilder_ray.pipelines.merge import extend_index

    root = tmp_path
    tbl = webpages_medium
    for name, sl in [("full", tbl), ("base", tbl.slice(0, 700)), ("new", tbl.slice(700))]:
        d = root / name
        d.mkdir()
        pq.write_table(sl, d / "w.parquet", row_group_size=100)
    full_idx = str(root / "idx_full")
    base_idx = str(root / "idx_base")
    man_full = build_index(load_webpages(str(root / "full")), full_idx, num_partitions=4)
    build_index(load_webpages(str(root / "base")), base_idx, num_partitions=4)
    man_ext = extend_index(
        base_idx, load_webpages(str(root / "new")), str(root / "idx_ext")
    )
    assert man_ext.n_docs == man_full.n_docs
    assert _blob_hashes(str(root / "idx_ext")) == _blob_hashes(full_idx)


def test_merge_decodes_segmented_inputs(ray_session, webpages_medium, tmp_path):
    """Inputs whose hot terms were split into doc-range segments decode and
    re-merge byte-identically to a full build at the same
    ``segment_max_postings``, which the merge inherits from its inputs;
    inputs cut at different values are refused before any job."""
    root = tmp_path
    tbl = webpages_medium
    for name, sl in [("full", tbl), ("a", tbl.slice(0, 500)), ("b", tbl.slice(500))]:
        d = root / name
        d.mkdir()
        pq.write_table(sl, d / "w.parquet", row_group_size=100)
    full_idx, ia, ib = str(root / "if"), str(root / "ia"), str(root / "ib")
    # force multi-segment hot terms (tiny segment cap)
    man_full = build_index(load_webpages(str(root / "full")), full_idx, num_partitions=4,
                           segment_max_postings=50)
    build_index(load_webpages(str(root / "a")), ia, num_partitions=4,
                segment_max_postings=50)
    build_index(load_webpages(str(root / "b")), ib, num_partitions=4,
                segment_max_postings=50)
    assert max(r["seg"] for r in _lexicon_rows(ia)) >= 1  # inputs really are segmented
    man_m = merge_indexes([ia, ib], str(root / "im"))
    assert man_m.stats["segment_max_postings"] == 50
    assert man_m.stats["total_postings"] == man_full.stats["total_postings"]
    assert _blob_hashes(str(root / "im")) == _blob_hashes(full_idx)
    assert _lexicon_rows(str(root / "im")) == _lexicon_rows(full_idx)

    unsegmented = str(root / "iu")
    build_index(load_webpages(str(root / "b")), unsegmented, num_partitions=4)
    with pytest.raises(ValueError, match="segment_max_postings"):
        merge_indexes([ia, unsegmented], str(root / "mixed"))
    assert not os.path.exists(root / "mixed")


def test_delete_docs_byte_identical(ray_session, tmp_path):
    """delete_docs == build_index over the filtered corpus, byte-for-byte
    (postings blobs, lexicon rows, docs table, stats), also for a
    segmented build, whose ``segment_max_postings`` the compaction keeps."""
    import pyarrow as pa

    from invertedindexbuilder_ray.pipelines.merge import delete_docs
    from invertedindexbuilder_ray.sources.documents import load_documents

    src = "/root/testdata/sf0.001"
    base = str(tmp_path / "base")
    build_index(load_documents(src), base, num_partitions=4)

    tomb = [d for d in range(500) if d % 7 == 0]
    out = str(tmp_path / "deleted")
    man = delete_docs(base, tomb, out)

    def filt(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 7 != 0))

    ref = str(tmp_path / "ref")
    build_index(
        load_documents(src).map_batches(filt, batch_format="pyarrow"),
        ref,
        num_partitions=4,
    )

    assert _blob_hashes(out) == _blob_hashes(ref)
    assert _lexicon_rows(out) == _lexicon_rows(ref)
    ref_man = build_index(  # resume no-op load of the ref manifest
        load_documents(src).map_batches(filt, batch_format="pyarrow"),
        ref,
        num_partitions=4,
    )
    assert man.n_docs == ref_man.n_docs
    assert man.sum_dl == ref_man.sum_dl
    assert man.stats["total_postings"] == ref_man.stats["total_postings"]
    assert man.stats["distinct_terms"] == ref_man.stats["distinct_terms"]

    # queries over the deleted index: identical to the filtered rebuild,
    # and tombstoned docs never surface
    qe_d, qe_r = QueryEngine(out), QueryEngine(ref)
    for terms, mode in [("data the", 0), ("data model", 1)]:
        rd_, rr = qe_d.search(terms, 10, mode), qe_r.search(terms, 10, mode)
        assert [(r["doc_id"], r["score"]) for r in rd_] == [
            (r["doc_id"], r["score"]) for r in rr
        ]
        assert all(r["doc_id"] % 7 != 0 for r in rd_)

    # resume: a second call must skip every partition
    man2 = delete_docs(base, tomb, out)
    assert all(p.get("skipped") for p in man2.partitions.values())

    seg_base, seg_out, seg_ref = (str(tmp_path / n) for n in ("sb", "sd", "sr"))
    build_index(load_documents(src), seg_base, num_partitions=4, segment_max_postings=50)
    assert max(r["seg"] for r in _lexicon_rows(seg_base)) >= 1
    assert delete_docs(seg_base, tomb, seg_out).stats["segment_max_postings"] == 50
    build_index(load_documents(src).map_batches(filt, batch_format="pyarrow"), seg_ref,
                num_partitions=4, segment_max_postings=50)
    assert _blob_hashes(seg_out) == _blob_hashes(seg_ref)
    assert _lexicon_rows(seg_out) == _lexicon_rows(seg_ref)
    assert _docs_rows(seg_out) == _docs_rows(seg_ref)


def test_mark_deleted_query_time_tombstones(ray_session, tmp_path):
    """mark_deleted: O(|tombstones|) live-docs file, NO re-encode.  Every
    query mode excludes tombstoned docs while scores keep the PRE-delete
    global stats (the Lucene live-docs contract — delete_docs is the
    compaction that recomputes stats)."""
    from invertedindexbuilder_ray.pipelines.merge import mark_deleted
    from invertedindexbuilder_ray.sources.documents import load_documents

    src = "/root/testdata/sf0.001"
    idx = str(tmp_path / "idx")
    build_index(load_documents(src), idx, num_partitions=4)

    queries = [("data the", 0), ("data", 0), ("data model", 1), ("the", 1)]
    # pre-tombstone baselines (per conformance flag: quirk Q-C misses
    # candidates that the correct mode finds, so candidate sets differ)
    big, big_scores = {}, {True: {}, False: {}}
    for conf in (True, False):
        lv = QueryEngine(idx, conformance=conf, total_order_topk=True)
        for q in queries:
            res = lv.search(q[0], 10_000, q[1])
            if conf:
                big[q] = res
            big_scores[conf][q] = {r["doc_id"]: r["score"] for r in res}

    n1 = mark_deleted(idx, range(0, 400, 3))
    assert n1 == len(set(range(0, 400, 3)))
    n2 = mark_deleted(idx, [1, 2, 5, 3])  # second call must UNION (3 dup)
    dead = set(range(0, 400, 3)) | {1, 2, 5}
    assert n2 == len(dead)

    # total-order engines: filter-then-topk == topk-then-filter exactly
    qe = QueryEngine(idx, total_order_topk=True)
    assert qe.reader.tombstones.tolist() == sorted(dead)
    for terms, mode in queries:
        got = qe.search(terms, 10, mode)
        exp = [r for r in big[(terms, mode)] if r["doc_id"] not in dead][:10]
        assert [(r["doc_id"], r["score"]) for r in got] == [
            (r["doc_id"], r["score"]) for r in exp
        ], (terms, mode)

    # conformance-heap engine + correct-mode AND + AND-NOT: no
    # tombstoned doc ever surfaces, and every surfaced score matches the
    # live index's score for that doc (stats unchanged by mark_deleted).
    # Baselines per conformance flag: quirk Q-C misses candidates that the
    # correct mode finds, so the candidate sets differ between the two.
    for conf in (True, False):
        e = QueryEngine(idx, conformance=conf)
        for terms, mode in queries:
            hits = e.search(terms, 10, mode)
            assert hits, (terms, mode, conf)
            for r in hits:
                assert r["doc_id"] not in dead
                assert r["score"] == big_scores[conf][(terms, mode)][r["doc_id"]]
    hits = QueryEngine(idx).search("data", 10, 2, neg_query="model")
    assert hits and all(r["doc_id"] not in dead for r in hits)


def test_merge_compacts_tombstones(ray_session, tmp_path):
    """Lucene merge contract: merge_indexes compacts query-time tombstones
    (mark_deleted) away — byte-identical to a full rebuild over the
    corpus minus the marked docs, with stats counting survivors only."""
    import pyarrow as pa
    import pyarrow.parquet as _pq2

    from invertedindexbuilder_ray.pipelines.merge import mark_deleted
    from invertedindexbuilder_ray.sources.documents import load_documents

    src = "/root/testdata/sf0.001"
    tbl = _pq2.read_table(src + "/documents.parquet")
    half_a, half_b = tmp_path / "a", tmp_path / "b"
    half_a.mkdir(); half_b.mkdir()
    ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
    _pq2.write_table(tbl.filter(pa.array(ids < 250)), half_a / "documents.parquet")
    _pq2.write_table(tbl.filter(pa.array(ids >= 250)), half_b / "documents.parquet")
    ia, ib = str(tmp_path / "ia"), str(tmp_path / "ib")
    build_index(load_documents(str(half_a)), ia, num_partitions=4)
    build_index(load_documents(str(half_b)), ib, num_partitions=4)

    dead_a = [d for d in range(250) if d % 7 == 0]
    dead_b = [d for d in range(250, 500) if d % 11 == 0]
    mark_deleted(ia, dead_a)
    mark_deleted(ib, dead_b)
    dead = set(dead_a) | set(dead_b)

    merged = str(tmp_path / "merged")
    man = merge_indexes([ia, ib], merged, offset_doc_ids=False)

    def filt(t: pa.Table) -> pa.Table:
        i = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(~np.isin(i, list(dead))))

    import numpy as np

    ref = str(tmp_path / "ref")
    ref_man = build_index(
        load_documents(src).map_batches(filt, batch_format="pyarrow"),
        ref,
        num_partitions=4,
    )
    assert _blob_hashes(merged) == _blob_hashes(ref)
    assert _lexicon_rows(merged) == _lexicon_rows(ref)
    assert man.n_docs == ref_man.n_docs == 500 - len(dead)
    assert man.sum_dl == ref_man.sum_dl
    assert man.stats["total_postings"] == ref_man.stats["total_postings"]

    # no tombstones file propagates to the merged output (fully compacted)
    assert not os.path.exists(os.path.join(merged, "tombstones.bin"))
    for terms, mode in [("data the", 0), ("data model", 1)]:
        hits = QueryEngine(merged).search(terms, 10, mode)
        assert hits and all(h["doc_id"] not in dead for h in hits)

    # marking MORE docs must invalidate a resume into the same out_dir
    mark_deleted(ia, [1])
    with pytest.raises(ValueError, match="fingerprint"):
        merge_indexes([ia, ib], merged, offset_doc_ids=False)


def test_update_docs_replaces_content(ray_session, tmp_path):
    """update_docs = mark old versions deleted + delta-index the new
    versions under the SAME doc_ids + compact: byte-identical to a full
    rebuild over the corpus with those docs' content replaced, and the
    base index serves the delete immediately (live-docs)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as _pq2

    from invertedindexbuilder_ray.pipelines.merge import update_docs
    from invertedindexbuilder_ray.sources.documents import load_documents
    import ray.data as rd

    src = "/root/testdata/sf0.001"
    base = str(tmp_path / "base")
    build_index(load_documents(src), base, num_partitions=4)

    tbl = _pq2.read_table(src + "/documents.parquet")
    upd_ids = [10, 20, 30]
    ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
    sel = tbl.filter(pa.array(np.isin(ids, upd_ids)))
    new_text = [t + " freshupdate token" for t in sel["text"].to_pylist()]
    new_tbl = sel.set_column(
        sel.schema.get_field_index("text"), "text",
        pa.array(new_text, pa.string()),
    )
    nv_dir = tmp_path / "nv"
    nv_dir.mkdir()
    _pq2.write_table(new_tbl, nv_dir / "documents.parquet")

    out = str(tmp_path / "updated")
    man = update_docs(base, load_documents(str(nv_dir)), out)
    assert man.n_docs == 500  # replaced, not grown

    # base index (live-docs): old versions no longer surface
    eng_base = QueryEngine(base)
    for h in eng_base.search("data the", 500, 0):
        assert h["doc_id"] not in upd_ids

    # updated index: the new token hits exactly the replaced ids
    hits = QueryEngine(out).search("freshupdate", 10, 0)
    assert sorted(h["doc_id"] for h in hits) == upd_ids

    # byte-identity vs a full rebuild over the modified corpus (swap the
    # text in the RAW parquet: load_documents derives dl from text, so
    # the replacement must happen before the source adapter runs)
    rep = {10: 0, 20: 1, 30: 2}
    all_txt = [
        new_text[rep[int(d)]] if int(d) in rep else x
        for d, x in zip(ids, tbl["text"].to_pylist())
    ]
    mod_tbl = tbl.set_column(
        tbl.schema.get_field_index("text"), "text", pa.array(all_txt, pa.string())
    )
    mod_dir = tmp_path / "mod"
    mod_dir.mkdir()
    _pq2.write_table(mod_tbl, mod_dir / "documents.parquet")
    ref = str(tmp_path / "ref")
    ref_man = build_index(
        load_documents(str(mod_dir)), ref, num_partitions=4
    )
    assert _blob_hashes(out) == _blob_hashes(ref)
    assert _lexicon_rows(out) == _lexicon_rows(ref)
    assert man.sum_dl == ref_man.sum_dl


def test_cli_delete_mark_only(ray_session, tmp_path, capsys):
    """`delete --mark-only` writes query-time tombstones without Ray or a
    re-encode; a subsequent reader excludes the marked docs."""
    import json as _json

    from invertedindexbuilder_ray.cli import main
    from invertedindexbuilder_ray.sources.documents import load_documents

    idx = str(tmp_path / "idx")
    build_index(load_documents("/root/testdata/sf0.001"), idx, num_partitions=4)
    rc = main(["delete", "--index", idx, "--ids", "3,9,3", "--mark-only"])
    assert rc == 0
    out = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out == {"index": idx, "n_tombstones": 2}
    hits = QueryEngine(idx).search("the data", 500, 0)
    assert hits and all(h["doc_id"] not in (3, 9) for h in hits)
    # missing --out without --mark-only is a usage error
    with pytest.raises(SystemExit, match="--out"):
        main(["delete", "--index", idx, "--ids", "3"])


def _docs_rows(out: str):
    return sorted(pq.read_table(os.path.join(out, "docs")).to_pylist(),
                  key=lambda r: r["doc_id"])


def test_compaction_rejects_overlapping_doc_ids(ray_session, tmp_path):
    """Inputs whose surviving ids meet (offset_doc_ids=False over the same
    corpus) raise before a manifest is committed, instead of counting
    every doc twice; merging the same inputs with offsets into the same
    out_dir then re-encodes every partition."""
    from invertedindexbuilder_ray.pipelines.merge import extend_index
    from invertedindexbuilder_ray.sources.documents import load_documents

    src = "/root/testdata/sf0.001"
    base = str(tmp_path / "base")
    man = build_index(load_documents(src), base, num_partitions=4)
    ext = str(tmp_path / "ext")
    with pytest.raises(ValueError, match="overlap in doc ids"):
        extend_index(base, load_documents(src), ext, offset_doc_ids=False)
    assert not os.path.exists(os.path.join(ext, "manifest.json"))

    out = str(tmp_path / "twice")
    with pytest.raises(ValueError, match="overlap in doc ids"):
        merge_indexes([base, base], out, offset_doc_ids=False)
    assert not os.path.exists(os.path.join(out, "manifest.json"))
    man2 = merge_indexes([base, base], out)
    assert not any(p["skipped"] for p in man2.partitions.values())
    assert (man2.n_docs, man2.max_doc_id) == (2 * man.n_docs, 2 * man.max_doc_id)
    assert man2.stats["total_postings"] == 2 * man.stats["total_postings"]


def test_merge_partial_resume_reencodes_only_lost_partitions(
        ray_session, webpages_medium, tmp_path):
    """A merge of segmented, tombstoned inputs whose out_dir lost two
    committed partitions re-encodes just those two straight from the
    inputs (no checkpoint), reuses docs/, and writes the same bytes."""
    from invertedindexbuilder_ray.pipelines.merge import delete_docs, mark_deleted

    ins = []
    for name, sl in [("a", webpages_medium.slice(0, 500)), ("b", webpages_medium.slice(500))]:
        (tmp_path / name).mkdir()
        pq.write_table(sl, tmp_path / name / "w.parquet", row_group_size=100)
        ins.append(str(tmp_path / f"i{name}"))
        build_index(load_webpages(str(tmp_path / name)), ins[-1], num_partitions=4,
                    segment_max_postings=50)
    mark_deleted(ins[0], [3, 7, 11])
    mark_deleted(ins[1], [0, 5])
    out = str(tmp_path / "m")
    merge_indexes(ins, out)
    blobs, lex, docs = _blob_hashes(out), _lexicon_rows(out), _docs_rows(out)
    docs_dir = os.path.join(out, "docs")
    stamps = {f: os.stat(os.path.join(docs_dir, f)).st_mtime_ns for f in os.listdir(docs_dir)}

    for pid in (1, 3):
        for sub, ext in (("postings", "bin"), ("lexicon", "parquet"), ("parts_meta", "json")):
            os.unlink(os.path.join(out, sub, f"part-{pid:05d}.{ext}"))
    man = merge_indexes(ins, out)
    assert {int(p) for p, m in man.partitions.items() if not m["skipped"]} == {1, 3}
    assert _blob_hashes(out) == blobs
    assert _lexicon_rows(out) == lex
    assert _docs_rows(out) == docs
    assert {f: os.stat(os.path.join(docs_dir, f)).st_mtime_ns
            for f in os.listdir(docs_dir)} == stamps

    deleted = str(tmp_path / "del")
    delete_docs(ins[1], [1, 2], deleted)
    for d in (out, deleted):
        assert not os.path.exists(os.path.join(d, "postings_ckpt"))


def test_extend_resume_reencodes_only_lost_partitions(ray_session, webpages_medium, tmp_path,
                                                       monkeypatch):
    """An extend that crashed after its checkpoint was marked complete and
    its partitions committed, but before the manifest, resumes from that
    checkpoint: only the two partitions lost since are encoded again, and
    the bytes equal a completed extend's.  A partition whose token names
    another checkpoint is encoded again too."""
    import json

    from invertedindexbuilder_ray.pipelines.merge import extend_index
    from invertedindexbuilder_ray.state.manifest import IndexManifest

    for name, sl in (("base", webpages_medium.slice(0, 700)), ("delta", webpages_medium.slice(700))):
        (tmp_path / name).mkdir()
        pq.write_table(sl, tmp_path / name / "w.parquet", row_group_size=100)
    base = str(tmp_path / "ibase")
    build_index(load_webpages(str(tmp_path / "base")), base, num_partitions=4)

    def extend(out, crash=False):
        def save(self, index_dir):
            raise RuntimeError("crash before the manifest commit")

        with monkeypatch.context() as m:
            if crash:
                m.setattr(IndexManifest, "save", save)
            return extend_index(base, load_webpages(str(tmp_path / "delta")), out)

    def encoded(man):
        return {int(p) for p, m in man.partitions.items() if not m["skipped"]}

    done = str(tmp_path / "done")
    extend(done)
    want = _blob_hashes(done), _lexicon_rows(done), _docs_rows(done)

    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="crash"):
        extend(out, crash=True)
    assert os.path.exists(os.path.join(out, "postings_ckpt", "_SUCCESS"))
    assert not os.path.exists(os.path.join(out, "manifest.json"))
    for pid in (0, 2):
        for sub, ext in (("postings", "bin"), ("lexicon", "parquet"), ("parts_meta", "json")):
            os.unlink(os.path.join(out, sub, f"part-{pid:05d}.{ext}"))
    assert encoded(extend(out)) == {0, 2}
    assert (_blob_hashes(out), _lexicon_rows(out), _docs_rows(out)) == want
    assert not os.path.exists(os.path.join(out, "postings_ckpt"))

    # the committed extend deleted its checkpoint: this run tokenizes a
    # new one, then crashes; partition 3 is made to name another token
    with pytest.raises(RuntimeError, match="crash"):
        extend(out, crash=True)
    meta_path = os.path.join(out, "parts_meta", "part-00003.json")
    with open(meta_path) as f:
        meta = json.load(f)
    meta["ckpt_token"] = "0" * len(meta["ckpt_token"])
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    assert encoded(extend(out)) == {3}
    assert (_blob_hashes(out), _lexicon_rows(out), _docs_rows(out)) == want


def test_ray_data_jobs_per_call(ray_session, tmp_path):
    """A build runs two Ray Data jobs (tokenize + checkpoint, encode); a
    merge and a delete_docs run one (the encode), and an extend_index two
    (the delta's tokenize, the encode), counted from Ray Data's
    "Starting execution" log lines.  An extend leaves neither its
    checkpoint nor a delta index behind."""
    import logging

    import pyarrow as pa
    import ray.data as rd

    from invertedindexbuilder_ray.pipelines.merge import delete_docs, extend_index
    from invertedindexbuilder_ray.sources.documents import load_documents

    starts = []

    class Starts(logging.Handler):
        def emit(self, record):
            if "Starting execution" in record.getMessage():
                starts.append(record)

    def jobs(fn, *args, **kw):
        del starts[:]
        fn(*args, **kw)
        return len(starts)

    handler = Starts()
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        src = load_documents("/root/testdata/sf0.001")
        base = str(tmp_path / "base")
        assert jobs(build_index, src, base, num_partitions=4) == 2
        assert jobs(merge_indexes, [base, base], str(tmp_path / "m")) == 1
        assert jobs(delete_docs, base, [1, 2], str(tmp_path / "d")) == 1
        delta = rd.from_arrow(pa.table({"doc_id": [0, 1], "url": ["u0", "u1"],
                                        "text": ["fresh words", "more fresh words"],
                                        "dl": [11, 16]}))
        ext = str(tmp_path / "e")
        assert jobs(extend_index, base, delta, ext) == 2
        assert not os.path.exists(os.path.join(ext, "postings_ckpt"))
        assert not os.path.exists(ext + ".delta")
    finally:
        logger.removeHandler(handler)

"""Q8 opt-in conformance: query-time lexicon keys truncated to 14 bytes
(reference src/lexicon.c:56, src/query.c:251) — 15-char terms collapse
onto their 14-char prefix and the lexicographically greatest colliding
term's posting list wins (sorted lexicon file + hashmap overwrite)."""

from __future__ import annotations

import pyarrow as pa

from invertedindexbuilder_ray.pipelines.build import build_index
from invertedindexbuilder_ray.pipelines.query import QueryEngine
from invertedindexbuilder_ray.state.reader import IndexReader

T_A = "aaaaaaaaaaaaaax"  # 15 chars
T_B = "aaaaaaaaaaaaaay"  # 15 chars, same 14-prefix, sorts after T_A
T_14 = "aaaaaaaaaaaaaa"  # the shared 14-char prefix, itself a term


def _index(tmp_path, ray_session):
    import ray.data as rd

    rows = [
        {"doc_id": 0, "url": "h0", "text": f"{T_A} {T_A} plain "},
        {"doc_id": 1, "url": "h1", "text": f"{T_B} plain "},
        {"doc_id": 2, "url": "h2", "text": f"{T_14} plain "},
    ]
    for r in rows:
        r["dl"] = len(r["text"])
    out = str(tmp_path / "idx")
    build_index(rd.from_arrow(pa.Table.from_pylist(rows)), out, num_partitions=4)
    return out


def test_q8_off_keeps_full_terms(ray_session, tmp_path):
    out = _index(tmp_path, ray_session)
    r = IndexReader(out)
    assert {T_A, T_B, T_14} <= set(r.lexicon)
    docs, tfs = r.open_list(T_A).decode_all_remaining()
    assert docs.tolist() == [0] and tfs.tolist() == [2]


def test_q8_on_collapses_to_greatest_collider(ray_session, tmp_path):
    out = _index(tmp_path, ray_session)
    r = IndexReader(out, truncate_lexicon_14=True)
    # all three terms share key T_14; the greatest (T_B) wins the slot
    for q in (T_A, T_B, T_14, T_14 + "zzzz"):
        docs, _ = r.open_list(q).decode_all_remaining()
        assert docs.tolist() == [1], q
    # short terms are unaffected
    docs, _ = r.open_list("plain").decode_all_remaining()
    assert docs.tolist() == [0, 1, 2]


def test_q8_flag_through_query_engine(ray_session, tmp_path):
    out = _index(tmp_path, ray_session)
    plain = QueryEngine(out, conformance=True)
    q8 = QueryEngine(out, conformance=True, truncate_lexicon_14=True)
    # under Q8 a query for T_A scores T_B's (doc 1) list; without it, doc 0
    assert [d for d, _ in plain.conjunctive([T_A], 5)] == [0]
    assert [d for d, _ in q8.conjunctive([T_A], 5)] == [1]


def test_q8_reader_df_truncates_like_open_list(ray_session, tmp_path):
    out = _index(tmp_path, ray_session)
    for trunc in (False, True):
        r = IndexReader(out, truncate_lexicon_14=trunc)
        for q in (T_A, T_B, T_14, T_14 + "zzzz", "plain", "absent"):
            c = r.open_list(q)
            assert r.df(q) == (0 if c is None else c.df), (q, trunc)

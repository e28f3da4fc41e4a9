"""Randomized + adversarial corpora: engine vs oracle conformance fuzzing."""

from __future__ import annotations

import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from invertedindexbuilder_ray import oracle
from invertedindexbuilder_ray.corpus import WEBPAGES_SCHEMA
from invertedindexbuilder_ray.pipelines.build import build_index
from invertedindexbuilder_ray.pipelines.query import QueryEngine
from invertedindexbuilder_ray.sources.webpages import load_webpages
from invertedindexbuilder_ray.state.reader import IndexReader


def _rows_to_table(rows: list[dict]) -> pa.Table:
    import datetime

    base = datetime.datetime(2025, 1, 1)
    return pa.table(
        {
            "url": pa.array([r["url"] for r in rows], pa.string()),
            "warc_ts": pa.array([base] * len(rows), pa.timestamp("us")),
            "html": pa.array([b""] * len(rows), pa.binary()),
            "text": pa.array([r["text"] for r in rows], pa.string()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
        },
        schema=WEBPAGES_SCHEMA,
    )


def _random_rows(seed: int, n: int) -> list[dict]:
    rng = random.Random(seed)
    vocab = [f"t{i}" for i in range(30)] + ["Q", "zz9", "abcdefghijklmno"]
    rows = []
    for i in range(n):
        scheme = "ftp" if rng.random() < 0.2 else "http"
        words = [rng.choice(vocab) for _ in range(rng.randint(0, 25))]
        text = " ".join(words) + rng.choice(["", ".", " "])
        rows.append({"url": f"{scheme}://s{i}.com/{i}", "text": text})
    return rows


ADVERSARIAL = [
    # all docs filtered (no 'h' urls)
    [{"url": "ftp://a", "text": "hello world."}, {"url": "zzz://b", "text": "x y."}],
    # single doc, single token
    [{"url": "http://a", "text": "one."}],
    # only overlong / trailing-dropped tokens -> empty index, docs exist
    [{"url": "http://a", "text": "abcdefghijklmnopq stillgoingmorechars tail"}],
    # empty texts
    [{"url": "http://a", "text": ""}, {"url": "http://b", "text": "  \n\t "}],
    # identical docs (duplicate postings paths)
    [{"url": "http://a", "text": "dup dup dup."}] * 5,
]


@pytest.mark.parametrize("case", range(len(ADVERSARIAL)))
def test_adversarial_corpora(ray_session, tmp_path, case):
    rows = ADVERSARIAL[case]
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(_rows_to_table(rows), src / "a.parquet")
    out = tmp_path / "idx"
    build_index(load_webpages(str(src)), str(out), num_partitions=2)
    ora = oracle.build_index(rows)
    r = IndexReader(str(out))
    assert r.n_docs == ora.n_docs
    assert set(r.lexicon) == set(ora.postings)
    eng = QueryEngine(str(out))
    for q in ["hello", "one", "dup", "tail", "missing", ""]:
        terms = eng.parse_query(q)
        got = eng.conjunctive(terms, 5)
        want = oracle.conjunctive_topk(ora, terms, 5)
        assert [d for d, _ in got] == [d for d, _ in want], (case, q)
        got_o = eng.disjunctive(terms, 5)
        want_o = oracle.disjunctive_topk(ora, terms, 5)
        assert [d for d, _ in got_o] == [d for d, _ in want_o], (case, q)


@pytest.mark.parametrize("seed", [11, 22, 33])
def test_random_corpora_conformance(ray_session, tmp_path, seed):
    rows = _random_rows(seed, 60)
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(_rows_to_table(rows), src / "a.parquet", row_group_size=17)
    out = tmp_path / "idx"
    build_index(load_webpages(str(src)), str(out), num_partitions=3)
    ora = oracle.build_index(rows)
    r = IndexReader(str(out))
    assert set(r.lexicon) == set(ora.postings)
    for term, plist in ora.postings.items():
        docs, tfs = r.open_list(term).decode_all_remaining()
        assert list(zip(docs.tolist(), tfs.tolist())) == plist, (seed, term)
    eng = QueryEngine(str(out))
    rng = random.Random(seed)
    vocab = list(ora.postings) + ["notthere"]
    for _ in range(15):
        terms = [rng.choice(vocab) for _ in range(rng.randint(1, 4))]
        k = rng.choice([1, 3, 10])
        got = eng.conjunctive(terms, k)
        want = oracle.conjunctive_topk(ora, terms, k)
        assert [d for d, _ in got] == [d for d, _ in want], (seed, terms)
        np.testing.assert_allclose(
            [s for _, s in got], [s for _, s in want], rtol=1e-9
        )
        got_o = eng.disjunctive(terms, k)
        want_o = oracle.disjunctive_topk(ora, terms, k)
        assert [d for d, _ in got_o] == [d for d, _ in want_o], (seed, terms)
        neg = [rng.choice(vocab) for _ in range(rng.randint(0, 2))]
        got_n = eng.and_not(terms, neg, k)
        want_n = oracle.and_not_topk(ora, terms, neg, k)
        assert [d for d, _ in got_n] == [d for d, _ in want_n], (seed, terms, neg)
        np.testing.assert_allclose(
            [s for _, s in got_n], [s for _, s in want_n], rtol=1e-9
        )
        # identity: empty exclusion == correct-mode conjunction
        got_c = eng.and_not(terms, [], k)
        want_c = oracle.conjunctive_topk(ora, terms, k, mode="correct")
        assert [d for d, _ in got_c] == [d for d, _ in want_c], (seed, terms)


# ---------------------------------------------------------------- top-k replay
def _plain_heap(docs, scores, k):
    """Reference: every candidate through the reference heap, one by one."""
    hp = oracle._RefHeap()
    for d, s in zip(docs, scores):
        oracle._to_rank_heap(hp, int(d), float(s), k)
    return oracle._out_rank_heap(hp)


def test_heap_topk_replay_fuzz():
    """The pruned replay equals the plain per-candidate replay exactly,
    tie order included: random, tie-heavy, negative and rising scores,
    n = 0, n < k, k = 1 and k = 0."""
    from invertedindexbuilder_ray.pipelines.query import _heap_topk

    rng = np.random.default_rng(5)
    cases = [(0, 5), (3, 10), (1, 1), (50, 1), (1000, 1), (2000, 10)]
    cases += [(int(rng.integers(0, 3000)), int(rng.integers(1, 40))) for _ in range(200)]
    cases += [(0, 0), (40, 0), (2000, 0), (7, 0)]  # k = 0: one per score kind
    for case, (n, k) in enumerate(cases):
        docs = np.sort(rng.choice(10 * n + 1, size=n, replace=False)).astype(np.int64)
        kind = case % 4
        if kind == 0:
            scores = rng.normal(size=n)
        elif kind == 1:  # tie-heavy: a few distinct values
            scores = rng.choice([-1.5, 0.0, 0.25, 2.0], size=n)
        elif kind == 2:  # all negative
            scores = -rng.random(n) * 5
        else:  # rising: every candidate enters
            scores = np.cumsum(rng.random(n))
        assert _heap_topk(docs, scores, k) == _plain_heap(docs, scores, k), (n, k, kind)


# ------------------------------------------------------- multi-block AND fuzz
def _skewed_rows(seed: int, n: int) -> list[dict]:
    """Zipf-like vocabulary: the head terms' lists span many 128-posting
    blocks, the tail terms' lists one."""
    rng = np.random.default_rng(seed)
    vocab = np.array([f"w{i}" for i in range(400)])
    p = 1.0 / np.arange(1, len(vocab) + 1) ** 1.1
    p /= p.sum()
    return [
        {"url": f"http://s{i}.com/{i}",
         "text": " ".join(rng.choice(vocab, size=int(rng.integers(3, 30)), p=p)) + "."}
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def skewed_index(ray_session, tmp_path_factory):
    rows = _skewed_rows(7, 2000)
    root = tmp_path_factory.mktemp("skewed")
    src = root / "src"
    src.mkdir()
    pq.write_table(_rows_to_table(rows), src / "a.parquet", row_group_size=500)
    out = str(root / "idx")
    build_index(load_webpages(str(src)), out, num_partitions=2)
    return out, oracle.build_index(rows)


def _and_queries(ora, seed: int, n: int) -> list[tuple[list[str], int]]:
    """Rare-lead x hot, hot x hot and 3-4-term ANDs, k from 1 to 39."""
    by_df = sorted(ora.postings, key=lambda t: len(ora.postings[t]))
    hot = [t for t in by_df if len(ora.postings[t]) > 4 * 128]
    rare = [t for t in by_df if 2 <= len(ora.postings[t]) < 16]
    assert len(hot) >= 3 and rare
    rng = random.Random(seed)
    out = []
    for i in range(n):
        shape = i % 3
        if shape == 0:
            terms = [rng.choice(rare), rng.choice(hot)]
        elif shape == 1:
            terms = rng.sample(hot, 2)
        else:
            terms = [rng.choice(hot if rng.random() < 0.6 else by_df)
                     for _ in range(rng.randint(3, 4))]
        out.append((terms, rng.randint(1, 39)))
    return out


def _assert_same(got, want, ctx):
    assert [d for d, _ in got] == [d for d, _ in want], ctx
    np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=1e-9)


def _all_matches(ora, terms):
    """Every conformance-mode match of ``terms``, in walk (doc) order."""
    return sorted(oracle.conjunctive_topk(ora, terms, ora.max_doc_id + 1))


def test_multiblock_conformance_and_fuzz(skewed_index):
    out, ora = skewed_index
    r = IndexReader(out)
    assert max(r.open_list(t).meta.n_blocks for t in ora.postings) >= 8
    eng = QueryEngine(out)
    tot = QueryEngine(out, total_order_topk=True)
    for terms, k in _and_queries(ora, 1, 90):
        _assert_same(eng.conjunctive(terms, k), oracle.conjunctive_topk(ora, terms, k),
                     (terms, k))
        want = sorted(_all_matches(ora, terms), key=lambda m: (-m[1], m[0]))[:k]
        _assert_same(tot.conjunctive(terms, k), want, (terms, k, "total"))


def test_multiblock_conformance_and_tombstones(skewed_index, tmp_path):
    """Tombstoned matches are dropped from the walk's candidates; the
    reference heap replays the live ones in doc order."""
    import shutil

    from invertedindexbuilder_ray.pipelines.merge import mark_deleted

    src, ora = skewed_index
    out = str(tmp_path / "idx")
    shutil.copytree(src, out)
    dead = set(range(0, ora.max_doc_id, 4))
    mark_deleted(out, dead)
    eng = QueryEngine(out)
    for terms, k in _and_queries(ora, 2, 30):
        live = [m for m in _all_matches(ora, terms) if m[0] not in dead]
        _assert_same(eng.conjunctive(terms, k),
                     _plain_heap([d for d, _ in live], [s for _, s in live], k), (terms, k))


def test_multiblock_correct_and_fuzz(skewed_index, tmp_path):
    """Correct-mode AND (the dense intersection) against the oracle's
    textbook intersection on multi-block lists, with long/short df ratios
    on both sides of 16, under heap and total-order selection, with
    tombstones, and over a heavy-hitter segmented build of the same
    corpus.  AND-NOT with no negative terms is the same query, exactly."""
    import os
    import shutil

    from invertedindexbuilder_ray.pipelines.merge import mark_deleted
    from invertedindexbuilder_ray.state.reader import SegmentedCursor

    src, ora = skewed_index
    queries = _and_queries(ora, 3, 60)
    ratios = [max(len(ora.postings[t]) for t in terms) / min(len(ora.postings[t]) for t in terms)
              for terms, _ in queries]
    assert min(ratios) <= 16 < max(ratios)

    seg = str(tmp_path / "seg")
    build_index(load_webpages(os.path.join(os.path.dirname(src), "src")), seg,
                num_partitions=2, segment_max_postings=300)
    assert any(isinstance(IndexReader(seg).open_list(t), SegmentedCursor)
               for terms, _ in queries for t in terms)
    dead_idx = str(tmp_path / "dead")
    shutil.copytree(src, dead_idx)
    dead = set(range(1, ora.max_doc_id, 5))
    mark_deleted(dead_idx, dead)

    for out, gone in ((src, set()), (seg, set()), (dead_idx, dead)):
        heap = QueryEngine(out, conformance=False)
        tot = QueryEngine(out, conformance=False, total_order_topk=True)
        for terms, k in queries:
            every = oracle.conjunctive_topk(ora, terms, ora.max_doc_id + 1, mode="correct")
            live = sorted(m for m in every if m[0] not in gone)
            want = (oracle.conjunctive_topk(ora, terms, k, mode="correct") if not gone
                    else _plain_heap([d for d, _ in live], [s for _, s in live], k))
            ctx = (out, terms, k)
            got = heap.conjunctive(terms, k)
            _assert_same(got, want, ctx)
            assert heap.and_not(terms, [], k) == got, ctx
            got = tot.conjunctive(terms, k)
            _assert_same(got, sorted(live, key=lambda m: (-m[1], m[0]))[:k], ctx)
            assert tot.and_not(terms, [], k) == got, ctx

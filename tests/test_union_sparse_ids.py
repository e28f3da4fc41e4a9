"""The union kernel (query.py::QueryEngine._union) over a sparse doc-id
space: a documents-source index whose global doc_ids start above 2^21
takes the ``np.unique`` branch instead of the dense ``bincount`` one.
OR, CNF and MSM there must equal the oracle / brute-force BM25 reference
and, bit for bit, a dense-id twin of the same texts, which takes both
branches: the small ``dup`` union sorts too, the hot ones go dense."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from invertedindexbuilder_ray import oracle

SF = "/root/testdata/sf0.001"
BASE, STRIDE = 1 << 21, 1021  # sparse id = BASE + STRIDE * dense id

TERMS = [
    ["dup"],
    ["data"],
    ["data", "join"],
    ["join", "merge", "spark"],
    ["data", "join", "merge", "spark"],
    ["data", "zzzznotindexed", "merge"],
]
GROUPS = [
    [["data", "join"], ["merge", "spark"]],
    [["data"], ["data", "join"]],
    [["spark"], ["merge"], ["join", "data"]],
]


@pytest.fixture(scope="module")
def twins(ray_session, tmp_path_factory):
    """(sparse engine, dense engine, oracle index over the sparse ids)."""
    from invertedindexbuilder_ray.pipelines.build import build_index
    from invertedindexbuilder_ray.pipelines.query import QueryEngine
    from invertedindexbuilder_ray.sources.documents import load_documents

    root = tmp_path_factory.mktemp("union_sparse")
    tbl = pq.read_table(f"{SF}/documents.parquet").select(["doc_id", "text"])
    ids = tbl["doc_id"].to_numpy()
    sparse_tbl = tbl.set_column(0, "doc_id", pa.array(BASE + STRIDE * ids, pa.int64()))
    engines = []
    for name, t in (("dense", tbl), ("sparse", sparse_tbl)):
        (root / name).mkdir()
        pq.write_table(t, root / name / "documents.parquet")
        idx = str(root / f"idx_{name}")
        build_index(load_documents(str(root / name)), idx, num_partitions=2)
        engines.append(QueryEngine(idx, conformance=False, total_order_topk=True))
    dense, sparse = engines
    ora = oracle.build_index(sparse_tbl.to_pylist(), text_only_docs=True)
    return sparse, dense, ora


def _sparse(ranked):
    return [(BASE + STRIDE * d, s) for d, s in ranked]


def _brute(ora, terms, keep):
    """Every doc whose set of matched query terms passes ``keep``, scored
    as the sum of those terms' BM25 in df-ascending order."""
    lists = sorted(
        (t for t in dict.fromkeys(terms) if t in ora.postings),
        key=lambda t: len(ora.postings[t]),
    )
    matched: dict[int, list[str]] = {}
    for t in lists:
        for d, _ in ora.postings[t]:
            matched.setdefault(d, []).append(t)
    out = {}
    for d, ts in matched.items():
        if keep(set(ts)):
            out[d] = sum(
                ora.bm25(dict(ora.postings[t])[d], len(ora.postings[t]), ora.doc_lens[d])
                for t in ts
            )
    return out


def _check_reference(got, want):
    assert sorted(d for d, _ in got) == sorted(want)
    got = dict(got)
    np.testing.assert_allclose(
        [got[d] for d in sorted(want)], [want[d] for d in sorted(want)], rtol=1e-9
    )


def test_sparse_ids_take_the_unique_branch(twins):
    """The fixture reaches the sort branch for every query below: the doc-id
    space is wider than 16 postings per id.  On the dense twin only the
    ``dup`` union is that small."""
    sparse, dense, ora = twins
    flat = {t for ts in TERMS for t in ts} | {t for g in GROUPS for ts in g for t in ts}

    def postings(terms):
        return sum(len(ora.postings.get(t, [])) for t in terms)

    assert sparse.reader.max_doc_id > 16 * postings(flat)
    assert sparse.reader.max_doc_id == ora.max_doc_id
    assert [dense.reader.max_doc_id <= 16 * postings(ts) for ts in TERMS] == [
        False, True, True, True, True, True]


@pytest.mark.parametrize("k", [1, 10, 10_000])
def test_or_matches_oracle_and_dense_twin(twins, k):
    sparse, dense, ora = twins
    for terms in TERMS:
        got = sparse.disjunctive(terms, k)
        assert got == _sparse(dense.disjunctive(terms, k)), terms
        if k == 10_000:
            _check_reference(got, _brute(ora, terms, lambda ts: True))
        # the conformance heap replays in doc order; the id map keeps it
        sparse.total_order_topk = dense.total_order_topk = False
        try:
            want = oracle.disjunctive_topk(ora, terms, k)
            heap = sparse.disjunctive(terms, k)
            assert heap == _sparse(dense.disjunctive(terms, k)), terms
            assert [d for d, _ in heap] == [d for d, _ in want], terms
        finally:
            sparse.total_order_topk = dense.total_order_topk = True


@pytest.mark.parametrize("k", [1, 10, 10_000])
def test_cnf_matches_brute_force_and_dense_twin(twins, k):
    sparse, dense, ora = twins
    for groups in GROUPS:
        got = sparse.cnf(groups, k)
        assert got, groups
        assert got == _sparse(dense.cnf(groups, k)), groups
        if k == 10_000:
            flat = [t for g in groups for t in g]
            want = _brute(ora, flat, lambda ts: all(ts & set(g) for g in groups))
            _check_reference(got, want)


@pytest.mark.parametrize("k", [1, 10, 10_000])
def test_msm_matches_brute_force_and_dense_twin(twins, k):
    sparse, dense, ora = twins
    for terms in TERMS:
        n = len([t for t in dict.fromkeys(terms) if t in ora.postings])
        for m in sorted({1, 2, n}):
            got = sparse.min_should_match(terms, m, k)
            assert got == _sparse(dense.min_should_match(terms, m, k)), (terms, m)
            if k == 10_000:
                _check_reference(got, _brute(ora, terms, lambda ts: len(ts) >= m))

"""Boolean CNF ranking (query.py::cnf): conjunction of disjunction groups,
generalizing both engine modes."""

from __future__ import annotations

import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def eng(ray_session):
    from invertedindexbuilder_ray.pipelines.catalog import index_for
    from invertedindexbuilder_ray.pipelines.query import QueryEngine

    return QueryEngine(index_for(SF), conformance=False)


def test_singleton_groups_equal_conjunctive(eng):
    assert eng.cnf([["data"], ["join"], ["merge"]], 25) == eng.conjunctive(
        ["data", "join", "merge"], 25
    )


def test_one_group_equals_disjunctive(eng):
    assert eng.cnf([["data", "join"]], 25) == eng.disjunctive(["data", "join"], 25)


def test_mixed_groups_semantics(eng):
    """Every returned doc matches >= 1 term of EVERY group; score equals
    the disjunctive score over the union of matched terms."""
    groups = [["data", "join"], ["merge", "spark"]]
    got = dict(eng.cnf(groups, 10_000))
    assert got
    # coverage: members must appear in the per-group disjunctive match sets
    per_group = [dict(eng.disjunctive(g, 10_000)) for g in groups]
    union_scores = dict(eng.disjunctive(["data", "join", "merge", "spark"], 10_000))
    for doc, score in got.items():
        assert all(doc in pg for pg in per_group), doc
        assert score == union_scores[doc]
    # completeness: any union doc covered by all groups must be in got
    for doc in union_scores:
        if all(doc in pg for pg in per_group):
            assert doc in got


def test_duplicate_term_across_groups_scores_once(eng):
    """A term in two groups counts for both groups' coverage but scores
    once."""
    a = dict(eng.cnf([["data"], ["data", "join"]], 10_000))
    b = dict(eng.conjunctive(["data"], 10_000))
    # coverage: group 2 is satisfied by 'data' itself, so the match set is
    # exactly docs containing 'data'; score adds 'join' where it matches
    union = dict(eng.disjunctive(["data", "join"], 10_000))
    assert set(a) == set(b)
    for doc in a:
        assert a[doc] == union[doc]


def test_unsatisfiable_and_missing_terms(eng):
    assert eng.cnf([["data"], ["zzzznotindexed"]], 5) == []
    assert eng.cnf([], 5) == []
    # missing term inside a satisfiable group just drops
    assert eng.cnf([["data", "zzzznotindexed"]], 25) == eng.disjunctive(["data"], 25)


def test_search_mode_and_parse(eng):
    from invertedindexbuilder_ray.pipelines.query import CNF

    hits = eng.search("data join; merge spark", 5, CNF)
    want = eng.cnf([["data", "join"], ["merge", "spark"]], 5)
    assert [(h["doc_id"], h["score"]) for h in hits] == want
    assert eng.parse_cnf("Data join ;; merge  spark; ") == [
        ["data", "join"], ["merge", "spark"]
    ]


def test_cli_cnf_mode(ray_session, tmp_path, capsys):
    from invertedindexbuilder_ray.cli import main
    from invertedindexbuilder_ray.pipelines.catalog import index_for

    idx = index_for(SF)
    rc = main(["query", "--index", idx, "--terms", "data join; merge spark",
               "--mode", "cnf", "--k", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "BM25" in out and "[1]" in out


def test_cli_repl_modes_and_bad_input(ray_session, monkeypatch, capsys):
    """The REPL maps its mode word through the `query --mode` table: an
    unknown word or a k that is not a non-negative integer prints the
    usage line and the loop goes on (an unknown word used to run as OR,
    and `ten` killed the loop); `cnf` ranks groups."""
    import io

    from invertedindexbuilder_ray.cli import main
    from invertedindexbuilder_ray.pipelines.catalog import index_for
    from invertedindexbuilder_ray.pipelines.query import CNF, QueryEngine

    idx = index_for(SF)
    lines = "3 anx data join\nten and data\n-1 or data\n2\n2 cnf data; merge spark\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    assert main(["repl", "--index", idx]) == 0
    out = capsys.readouterr().out
    assert out.count("usage: <k> <and|or|cnf> <terms...>") == 4
    want = QueryEngine(idx).search("data; merge spark", 2, CNF)
    assert len(want) == 2
    assert out.endswith("".join(
        f"[{h['rank']}]\t{h['url']}\nBM25: \t{h['score']:.6f}\n\n" for h in want
    ))


def test_msm_semantics(eng):
    """minimum_should_match: m=1 bit-identical to disjunctive, m=n match
    set equals conjunctive's, intermediate m keeps exactly the >=m-term
    docs with their disjunctive scores."""
    terms = ["data", "join", "merge"]
    assert eng.min_should_match(terms, 1, 30) == eng.disjunctive(terms, 30)
    conj = {d for d, _ in eng.conjunctive(terms, 10_000)}
    assert {d for d, _ in eng.min_should_match(terms, 3, 10_000)} == conj
    union = dict(eng.disjunctive(terms, 10_000))
    per_term = [dict(eng.disjunctive([t], 10_000)) for t in terms]
    got = dict(eng.min_should_match(terms, 2, 10_000))
    for doc, score in got.items():
        assert sum(doc in pt for pt in per_term) >= 2
        assert score == union[doc]
    for doc in union:
        if sum(doc in pt for pt in per_term) >= 2:
            assert doc in got
    # m beyond the indexed-term count -> empty; m<=0 raises
    assert eng.min_should_match(terms, 4, 5) == []
    with pytest.raises(ValueError):
        eng.min_should_match(terms, 0, 5)
    # duplicate terms dedupe before counting
    assert eng.min_should_match(["data", "data"], 2, 5) == []


def test_msm_search_mode(eng):
    from invertedindexbuilder_ray.pipelines.query import MSM

    hits = eng.search("data join merge", 5, MSM, msm=2)
    want = eng.min_should_match(["data", "join", "merge"], 2, 5)
    assert [(h["doc_id"], h["score"]) for h in hits] == want

"""Document-partitioned scatter-gather querying must be EXACTLY the
total-order top-k — (score desc, doc_id asc) — of the whole corpus, with
scores bit-identical to the monolithic engine (global-stats injection,
pipelines/shards.py).  The reference heap's equal-score tie membership is
insertion-history-dependent and provably not distributable (see the
counterexample test), so sharded semantics are DEFINED as the total order."""

from __future__ import annotations

import pyarrow.parquet as pq
import pytest

from invertedindexbuilder_ray.pipelines.build import build_index
from invertedindexbuilder_ray.pipelines.query import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    QueryEngine,
    _total_topk,
)
from invertedindexbuilder_ray.pipelines.shards import ShardedEngine
from invertedindexbuilder_ray.sources.webpages import load_webpages

QUERIES = [
    "the data",            # hot terms, everywhere
    "data join merge",     # multi-term AND/OR
    "vector",              # single term
    "data missingzzz",     # one term globally absent
    "the of and a to in",  # many hot ties (Zipf scores collide)
]


def _planted(tbl):
    """The corpus plus words that only some shards hold: ``solo0`` in shard
    0, ``solo1`` in shard 1 and ``notin2`` in shards 0 and 1 (every term of
    the generator's small vocabulary is in every shard)."""
    import pyarrow as pa

    text = []
    for i, t in enumerate(tbl["text"].to_pylist()):
        words = [w for w, hit in (("notin2", i < 700 and i % 3 == 0),
                                  ("solo0", i < 400 and i % 4 == 0),
                                  ("solo1", 400 <= i < 700 and i % 4 == 1)) if hit]
        text.append(" ".join([*words, t]))
    return tbl.set_column(tbl.schema.get_field_index("text"), "text", pa.array(text, pa.string()))


@pytest.fixture(scope="module")
def sharded_setup(ray_session, webpages_medium, tmp_path_factory):
    root = tmp_path_factory.mktemp("shards")
    tbl = _planted(webpages_medium)
    slices = [tbl.slice(0, 400), tbl.slice(400, 300), tbl.slice(700)]
    shard_dirs = []
    for i, sl in enumerate(slices):
        src = root / f"src{i}"
        src.mkdir()
        pq.write_table(sl, src / "w.parquet", row_group_size=100)
        idx = str(root / f"idx{i}")
        build_index(load_webpages(str(src)), idx, num_partitions=4)
        shard_dirs.append(idx)
    full_src = root / "full"
    full_src.mkdir()
    pq.write_table(tbl, full_src / "w.parquet", row_group_size=100)
    full = str(root / "idx_full")
    build_index(load_webpages(str(full_src)), full, num_partitions=4)
    return shard_dirs, full


def _mono_truth(mono: QueryEngine, terms, k, mode):
    """Ground truth: total-order top-k over the monolithic FULL ranking
    (k = corpus size, so the quirk heap keeps every match)."""
    k_all = mono.reader.max_doc_id + 1
    if mode == CONJUNCTIVE:
        full = mono.conjunctive(terms, k_all)
    else:
        full = mono.disjunctive(terms, k_all)
    return _total_topk([d for d, _ in full], [s for _, s in full], k)


@pytest.mark.parametrize("mode", [CONJUNCTIVE, DISJUNCTIVE])
@pytest.mark.parametrize("conformance", [False, True])
def test_sharded_is_exact_total_order_topk(sharded_setup, mode, conformance):
    shard_dirs, full = sharded_setup
    mono = QueryEngine(full, conformance=conformance)
    sharded = ShardedEngine(shard_dirs, conformance=conformance)
    for q in QUERIES:
        for k in (3, 10, 50):
            terms = mono.parse_query(q)
            want = _mono_truth(mono, terms, k, mode)
            got = sharded.search_terms(terms, k, mode)
            assert got == want, (q, k, mode, conformance)


def test_sharded_single_shard_degenerates_to_mono(sharded_setup):
    shard_dirs, full = sharded_setup
    mono = QueryEngine(full, conformance=False)
    one = ShardedEngine([full], conformance=False)
    terms = mono.parse_query("data join")
    got = one.search_terms(terms, 10, CONJUNCTIVE)
    assert got == _mono_truth(mono, terms, 10, CONJUNCTIVE)


def test_total_order_engine_same_members_as_heap(sharded_setup):
    """A monolithic engine in total-order mode returns the same SCORE
    multiset as the quirk-heap engine (tie membership may differ)."""
    _, full = sharded_setup
    heap_eng = QueryEngine(full, conformance=False)
    tot_eng = QueryEngine(full, conformance=False, total_order_topk=True)
    for q in QUERIES:
        terms = heap_eng.parse_query(q)
        a = heap_eng.disjunctive(terms, 10)
        b = tot_eng.disjunctive(terms, 10)
        assert sorted(round(s, 9) for _, s in a) == sorted(
            round(s, 9) for _, s in b
        ), q


@pytest.fixture(scope="module")
def mode_cases(sharded_setup, tmp_path_factory):
    """Per-mode (terms, neg, msm) cases over the planted shard-local words,
    plus a copy of the shards and of the full index where only shard 1
    carries tombstones (the same docs, global ids in the full copy)."""
    import shutil

    from invertedindexbuilder_ray.pipelines.merge import mark_deleted
    from invertedindexbuilder_ray.pipelines.query import ANDNOT, CNF, MSM
    from invertedindexbuilder_ray.state.reader import IndexReader

    shard_dirs, full = sharded_setup
    rs = [IndexReader(d) for d in shard_dirs]
    lex = [set(r.lexicon) for r in rs]
    no2, only0, only1 = "notin2", "solo0", "solo1"
    assert no2 in lex[0] & lex[1] and no2 not in lex[2]
    assert only0 in lex[0] - lex[1] - lex[2] and only1 in lex[1] - lex[0] - lex[2]
    cases = {
        CONJUNCTIVE: [(q.split(), (), 1) for q in QUERIES] + [(["the", no2], (), 1)],
        DISJUNCTIVE: [(q.split(), (), 1) for q in QUERIES] + [([no2, only1], (), 1)],
        ANDNOT: [
            (["the", no2], (), 1),              # positive term absent from shard 2
            (["the", no2], ["data"], 1),
            (["the"], [only1], 1),              # negative term in shard 1 only
            (["data"], ["join", only1, "missingzzz"], 1),
            (["the", "missingzzz"], ["of"], 1),
        ],
        CNF: [
            ([["the", "data"], [no2, only1]], (), 1),
            ([["data"], ["missingzzz"]], (), 1),
            ([["the", "of"], ["a", "to"]], (), 1),
        ],
        MSM: [
            # shard 2 holds only "the": every m >= 2 exceeds its list count
            (["the", no2, only1, only0], (), m) for m in (1, 2, 3, 4)
        ] + [(["the", "data", "join", "merge"], (), 2), (["data", "join"], (), 5)],
    }
    root = tmp_path_factory.mktemp("mode_tombs")
    tomb_shards = list(shard_dirs)
    tomb_shards[1] = str(root / "shard1")
    tomb_full = str(root / "full")
    shutil.copytree(shard_dirs[1], tomb_shards[1])
    shutil.copytree(full, tomb_full)
    off = rs[0].max_doc_id
    local = list(range(0, rs[1].max_doc_id, 3))
    mark_deleted(tomb_shards[1], local)
    mark_deleted(tomb_full, [d + off for d in local])
    return cases, [(shard_dirs, full), (tomb_shards, tomb_full)]


@pytest.mark.parametrize("mode", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("conformance", [False, True])
def test_every_mode_is_exact_total_order_topk(mode_cases, mode, conformance):
    """Every mode at every tier: the sharded result is the monolithic
    total-order top-k, with and without tombstones in one shard.

    One exception, kept visible: over EVERY match (k = 1000) the
    conformance AND differs, because the reference walk's misses (quirk
    Q-C) depend on cursor state carried across shard boundaries, which no
    shard sees.  That combination is an expected failure, and fails for
    real once the two agree."""
    cases, setups = mode_cases
    walk = conformance and mode == CONJUNCTIVE
    walk_diverged = False
    for shards, full in setups:
        mono = QueryEngine(full, conformance=conformance, total_order_topk=True)
        sharded = ShardedEngine(shards, conformance=conformance)
        for terms, neg, msm in cases[mode]:
            for k in (1, 10, 37, 1000):  # 1000: every match of the corpus
                want = mono.rank(terms, k, mode, neg=neg, msm=msm)
                got = sharded.search_terms(terms, k, mode, neg=neg, msm=msm)
                if walk and k == 1000:
                    walk_diverged |= got != want
                else:
                    assert got == want, (full, terms, neg, msm, k)
    if walk:
        assert walk_diverged, "the walk now distributes: make k = 1000 an exact check"
        pytest.xfail("conformance AND over every match: the Q-C walk is not shard-local")


def test_ref_heap_ties_are_not_distributable():
    """The documented counterexample: with k+1 boundary ties split across
    shards, the quirk heap's surviving tie member depends on the full
    insertion history — per-shard top-k replay picks a DIFFERENT member.
    This is why sharded serving defines total-order semantics instead."""
    from invertedindexbuilder_ray.oracle import (
        _RefHeap,
        _out_rank_heap,
        _to_rank_heap,
    )

    def heap_topk(cands, k):
        hp = _RefHeap()
        for d, s in sorted(cands):
            _to_rank_heap(hp, d, s, k)
        return _out_rank_heap(hp)

    shard_a = [(1, 5.0), (2, 5.0), (3, 5.0), (4, 7.0)]
    shard_b = [(5, 6.0)]
    k = 3
    mono = heap_topk(shard_a + shard_b, k)
    merged = heap_topk(heap_topk(shard_a, k) + heap_topk(shard_b, k), k)
    assert {d for d, _ in mono} != {d for d, _ in merged}  # the divergence

    # total order decomposes exactly on the same input
    def tot(cands, k):
        return _total_topk([d for d, _ in cands], [s for _, s in cands], k)

    assert tot(shard_a + shard_b, k) == tot(tot(shard_a, k) + tot(shard_b, k), k)


def test_cli_sharded_query(sharded_setup, capsys):
    from invertedindexbuilder_ray.cli import main

    shard_dirs, full = sharded_setup
    assert main(["query", "--shards", *shard_dirs, "--terms", "data join",
                 "--k", "3", "--mode", "and"]) == 0
    out = capsys.readouterr().out
    assert "BM25:" in out and "[1]" in out

    with pytest.raises(SystemExit, match="--index or --shards"):
        main(["query", "--terms", "x"])


def test_sharded_identity_fuzz(sharded_setup):
    """Random query mixes over the corpus vocabulary, both modes, boundary
    k values — exact total-order identity must hold for every one."""
    import numpy as np

    shard_dirs, full = sharded_setup
    mono = QueryEngine(full, conformance=False)
    sharded = ShardedEngine(shard_dirs, conformance=False)
    vocab = sorted(mono.reader.lexicon)[:200]
    rng = np.random.RandomState(5)
    for trial in range(25):
        n_terms = int(rng.randint(1, 5))
        terms = [vocab[i] for i in rng.randint(0, len(vocab), n_terms)]
        k = int(rng.choice([1, 2, 7, 100]))
        mode = int(rng.randint(0, 2))
        got = sharded.search_terms(terms, k, mode)
        assert got == _mono_truth(mono, terms, k, mode), (terms, k, mode)


def test_sharded_or_uneven_shards_fuzz(sharded_setup):
    """A dedicated OR-heavy fuzz: uneven shards make the local d_avr and
    idf differ from the global ones, and the injected global stats must
    still give the monolithic total-order truth exactly."""
    import numpy as np

    shard_dirs, full = sharded_setup
    mono = QueryEngine(full, conformance=False)
    sharded = ShardedEngine(shard_dirs, conformance=False)
    vocab = sorted(mono.reader.lexicon)
    rng = np.random.RandomState(23)
    for _ in range(40):
        n_terms = int(rng.randint(1, 7))
        terms = [vocab[i] for i in rng.randint(0, len(vocab), n_terms)]
        k = int(rng.choice([1, 3, 10, 100]))
        truth = _mono_truth(mono, terms, k, DISJUNCTIVE)
        assert sharded.search_terms(terms, k, DISJUNCTIVE) == truth, (terms, k)


def test_rolling_delta_served_as_shard(ray_session, webpages_medium, tmp_path):
    """Zero-downtime rolling ingestion: a fresh delta index is queryable
    IMMEDIATELY as a second shard (same doc_id offset contract as
    merge_indexes), identical to the eventual compacted index — compaction
    becomes a background concern, not a serving prerequisite."""
    import pyarrow.parquet as pq_

    from invertedindexbuilder_ray.pipelines.merge import merge_indexes

    tbl = webpages_medium
    for name, sl in [("base", tbl.slice(0, 700)), ("new", tbl.slice(700))]:
        d = tmp_path / name
        d.mkdir()
        pq_.write_table(sl, d / "w.parquet", row_group_size=100)
    base_idx, delta_idx = str(tmp_path / "ib"), str(tmp_path / "id")
    build_index(load_webpages(str(tmp_path / "base")), base_idx, num_partitions=4)
    build_index(load_webpages(str(tmp_path / "new")), delta_idx, num_partitions=4)

    live = ShardedEngine([base_idx, delta_idx], conformance=False)
    compacted = str(tmp_path / "im")
    merge_indexes([base_idx, delta_idx], compacted)
    mono = QueryEngine(compacted, conformance=False)
    for q in ["the data", "data join merge", "vector"]:
        terms = mono.parse_query(q)
        for mode in (CONJUNCTIVE, DISJUNCTIVE):
            got = live.search_terms(terms, 10, mode)
            assert got == _mono_truth(mono, terms, 10, mode), (q, mode)


def test_sharded_respects_per_shard_tombstones(sharded_setup, tmp_path):
    """Query-time tombstones (merge.mark_deleted) compose with the sharded
    tier: each shard's reader loads its own tombstones.bin (LOCAL doc ids)
    while the injected global stats triple — n_docs / d_avr from the
    manifests, df from the lexicons — is untouched by marking, so the
    sharded result is exactly the tombstone-filtered monolithic total-order
    ranking at the UNCHANGED pre-delete scores."""
    import shutil

    from invertedindexbuilder_ray.pipelines.merge import mark_deleted
    from invertedindexbuilder_ray.state.manifest import IndexManifest

    shard_dirs, full = sharded_setup
    copies, offsets, off = [], [], 0
    for i, d in enumerate(shard_dirs):
        c = str(tmp_path / f"tomb{i}")
        shutil.copytree(d, c)
        copies.append(c)
        offsets.append(off)
        off += IndexManifest.load(d).max_doc_id
    # per-shard LOCAL tombstones: every 5th doc of shard 0, 7th of shard 1
    # (bounded by each shard's max_doc_id — mark_deleted rejects ids
    # outside the shard's own [0, max_doc_id) domain since round 5)
    local_dead = {
        0: list(range(0, min(400, IndexManifest.load(copies[0]).max_doc_id), 5)),
        1: list(range(0, min(300, IndexManifest.load(copies[1]).max_doc_id), 7)),
    }
    dead_global = set()
    for si, ids in local_dead.items():
        mark_deleted(copies[si], ids)
        dead_global |= {d + offsets[si] for d in ids}

    mono = QueryEngine(full, conformance=False)
    sharded = ShardedEngine(copies, conformance=False)
    for q in QUERIES:
        terms = mono.parse_query(q)
        for mode in (CONJUNCTIVE, DISJUNCTIVE):
            # filtered monolithic truth: full live ranking minus dead ids
            k_all = mono.reader.max_doc_id + 1
            full_rank = _mono_truth(mono, terms, k_all, mode)
            want = [(d, s) for d, s in full_rank if d not in dead_global][:10]
            got = sharded.search_terms(terms, 10, mode)
            assert got == want, (q, mode)


def test_sharded_cnf_matches_monolithic(sharded_setup):
    """CNF composes over shards: per-doc group coverage is shard-local and
    scores use the injected global stats, so the scatter-gather result is
    the monolithic total-order CNF top-k exactly — including the case
    where one group has no term at all in some shard."""
    from invertedindexbuilder_ray.pipelines.query import CNF

    shard_dirs, full = sharded_setup
    mono = QueryEngine(full, conformance=False, total_order_topk=True)
    sharded = ShardedEngine(shard_dirs, conformance=False)
    cases = [
        "the data; join merge",
        "vector; the",
        "data; missingzzz",        # unsatisfiable group -> empty
        "the of and; a to in",     # hot ties
    ]
    for q in cases:
        groups = mono.parse_cnf(q)
        k_all = mono.reader.max_doc_id + 1
        full_rank = mono.cnf(groups, k_all)
        want = _total_topk(
            [d for d, _ in full_rank], [s for _, s in full_rank], 10
        )
        got = sharded.search(q, 10, CNF)
        assert got == want, q


def test_unsupported_modes_raise(sharded_setup):
    """Every tier serves all five modes; an unknown mode, or m < 1 under
    MSM, raises instead of silently running OR — ``ShardedEngine`` before
    any RPC, through the same check as the monolithic engine."""
    import ray

    from invertedindexbuilder_ray.pipelines.query import ANDNOT, MSM

    shard_dirs, full = sharded_setup
    mono = QueryEngine(full)
    sharded = ShardedEngine(shard_dirs)
    for mode, kw in ((-1, {}), (5, {}), (99, {}), (MSM, {"msm": 0}), (MSM, {"msm": -2})):
        match = "m must be" if kw else "mode"
        with pytest.raises(ValueError, match=match):
            mono.search("data join", 10, mode, **kw)
        with pytest.raises(ValueError, match=match):
            sharded.search_terms(["data", "join"], 10, mode, **kw)
        with pytest.raises(ValueError, match=match):
            sharded.search("data join", 10, mode, **kw)
        with pytest.raises(ValueError, match=match):
            ray.get(sharded.actors[0].search.remote(["data"], 10, mode, {}, (), kw.get("msm", 1)))
    assert sharded._df_cache == {}  # the df prepass never ran
    assert sharded.search("data", 5, ANDNOT, neg_query="join")
    assert sharded.search("data join the", 5, MSM, msm=2)


def test_algorithm_option_rejected(sharded_setup):
    """There is one OR path: an ``algorithm`` choice is an error at every
    layer, never silently ignored."""
    from invertedindexbuilder_ray.cli import main
    from invertedindexbuilder_ray.pipelines.query import BatchQueryEngine

    shard_dirs, full = sharded_setup
    with pytest.raises(TypeError, match="algorithm"):
        QueryEngine(full).search("data join", 10, DISJUNCTIVE, algorithm="wand")
    with pytest.raises(TypeError, match="algorithm"):
        BatchQueryEngine(full, algorithm="wand")
    sharded = ShardedEngine(shard_dirs)
    with pytest.raises(TypeError):
        sharded.search("data join", 10, DISJUNCTIVE, "wand")
    with pytest.raises(TypeError):
        sharded.search_terms(["data", "join"], 10, DISJUNCTIVE, "wand")
    with pytest.raises(SystemExit):
        main(["query", "--index", full, "--terms", "data join", "--mode", "or",
              "--algorithm", "wand"])


def test_k_zero_returns_empty_k_negative_raises(sharded_setup):
    """k = 0 ranks nothing in every mode under both selection semantics
    (the reference heap used to raise IndexError once it had a candidate);
    k < 0 raises, on the sharded tier before any RPC."""
    from invertedindexbuilder_ray.pipelines.query import ANDNOT, CNF, MSM

    shard_dirs, full = sharded_setup
    calls = [
        ("data join", CONJUNCTIVE, {}),
        ("the data", CONJUNCTIVE, {}),  # hot x hot
        ("data join", DISJUNCTIVE, {}),
        ("data", ANDNOT, {"neg_query": "join"}),
        ("the; data of", CNF, {}),
        ("the data join", MSM, {"msm": 2}),
    ]
    for kw in ({}, {"conformance": False}, {"total_order_topk": True},
               {"conformance": False, "total_order_topk": True}):
        eng = QueryEngine(full, **kw)
        for q, mode, extra in calls:
            assert eng.search(q, 1, mode, **extra), (q, mode, kw)
            assert eng.search(q, 0, mode, **extra) == [], (q, mode, kw)
            with pytest.raises(ValueError, match="k must be"):
                eng.search(q, -1, mode, **extra)
        with pytest.raises(ValueError, match="k must be"):  # the selection itself
            eng.disjunctive(["data", "join"], -2)
    sharded = ShardedEngine(shard_dirs)
    for mode in (CONJUNCTIVE, DISJUNCTIVE, CNF):
        with pytest.raises(ValueError, match="k must be"):
            sharded.search("data join", -3, mode)
    assert sharded._df_cache == {}  # the df prepass never ran
    for mode in (CONJUNCTIVE, DISJUNCTIVE, CNF):
        assert sharded.search("data join", 0, mode) == []

"""Heavy-hitter splitting: segmented build must be query-identical to unsegmented."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest

from invertedindexbuilder_ray import corpus
from invertedindexbuilder_ray.pipelines.build import build_index
from invertedindexbuilder_ray.pipelines.merge import merge_indexes
from invertedindexbuilder_ray.pipelines.query import QueryEngine
from invertedindexbuilder_ray.sources.webpages import load_webpages
from invertedindexbuilder_ray.stages import compress
from invertedindexbuilder_ray.state.reader import IndexReader, SegmentedCursor


@pytest.fixture(scope="module")
def two_indexes(ray_session, webpages_medium, tmp_path_factory):
    root = tmp_path_factory.mktemp("seg")
    src = root / "wp"
    src.mkdir()
    pq.write_table(webpages_medium, src / "a.parquet", row_group_size=250)
    plain = root / "idx_plain"
    segd = root / "idx_seg"
    build_index(load_webpages(str(src)), str(plain), num_partitions=4)
    # tiny segment cap -> every hot term splits into many segments
    build_index(
        load_webpages(str(src)), str(segd), num_partitions=4, segment_max_postings=100
    )
    return str(plain), str(segd)


def test_segments_exist_and_postings_identical(two_indexes):
    plain, segd = two_indexes
    rp, rs = IndexReader(plain), IndexReader(segd)
    assert set(rp.lexicon) == set(rs.lexicon)
    n_seg_terms = 0
    for term in rp.lexicon:
        cs = rs.open_list(term)
        if isinstance(cs, SegmentedCursor):
            n_seg_terms += 1
        dp = rp.open_list(term).decode_all_remaining()
        ds_ = cs.decode_all_remaining()
        assert dp[0].tolist() == ds_[0].tolist(), term
        assert dp[1].tolist() == ds_[1].tolist(), term
        assert rp.open_list(term).df == cs.df
    assert n_seg_terms > 0  # hot fixture terms exceed the 100-posting cap


@pytest.mark.parametrize("mode", ["and_conf", "and_correct", "or"])
def test_segmented_queries_rank_identical(two_indexes, mode):
    plain, segd = two_indexes
    conf = mode == "and_conf"
    ep = QueryEngine(plain, conformance=conf)
    es = QueryEngine(segd, conformance=conf)
    for q in corpus.make_queries():
        terms = ep.parse_query(q["terms"])
        if mode in ("and_conf", "and_correct"):
            a, b = ep.conjunctive(terms, q["k"]), es.conjunctive(terms, q["k"])
        else:
            a, b = ep.disjunctive(terms, q["k"]), es.disjunctive(terms, q["k"])
        assert a == b, (mode, q)


# --------------------------------------------------- lazy list open vs grammar
@pytest.fixture(scope="module")
def grammar_indexes(ray_session, tmp_path_factory):
    """A multi-block Zipf index, a merge_indexes output and the
    heavy-hitter segmented index."""
    root = tmp_path_factory.mktemp("grammar")
    tbl = corpus.make_webpages_bulk(3000, vocab_size=2000)
    out = {}
    for name, sl in (("full", tbl), ("a", tbl.slice(0, 1500)), ("b", tbl.slice(1500))):
        src = root / f"src_{name}"
        src.mkdir()
        pq.write_table(sl, src / "w.parquet", row_group_size=500)
        out[name] = str(src)
    idx = {
        "zipf": str(root / "zipf"),
        "merged": str(root / "merged"),
        "segmented": str(root / "segmented"),
    }
    build_index(load_webpages(out["full"]), idx["zipf"], num_partitions=2)
    # multi-block heavy-hitter segments (300 postings = 3 blocks each)
    build_index(load_webpages(out["full"]), idx["segmented"],
                num_partitions=2, segment_max_postings=300)
    halves = [str(root / "a"), str(root / "b")]
    for h, name in zip(halves, ("a", "b")):
        build_index(load_webpages(out[name]), h, num_partitions=2)
    merge_indexes(halves, idx["merged"])
    return idx


def _eager_parse(buf: bytes) -> dict:
    """The list grammar in ``stages/compress.py``, parsed eagerly:
    df, ldoc_table_nbytes, bsize_table_nbytes (varints), the last-doc and
    block-size tables, then the blocks."""
    pos = 0

    def vb() -> int:
        nonlocal pos
        v = shift = 0
        while True:
            byte = buf[pos]
            pos += 1
            v |= (byte & 0x7F) << shift
            if byte & 0x80:
                return v
            shift += 7

    df, ldoc_nbytes, bsize_nbytes = vb(), vb(), vb()
    header = pos
    tables = []
    for nbytes in (ldoc_nbytes, bsize_nbytes):
        end, vals = pos + nbytes, []
        while pos < end:
            vals.append(vb())
        assert pos == end
        tables.append(vals)
    last_docs, block_nbytes = tables
    nb = len(last_docs)
    starts = []
    for n in block_nbytes:
        starts.append(pos)
        pos += n
    return {
        "df": df, "header": header, "last_docs": last_docs,
        "block_nbytes": block_nbytes, "block_starts": starts,
        "block_counts": [128] * (nb - 1) + [df - 128 * (nb - 1)], "end": pos,
    }


@pytest.mark.parametrize("which", ["zipf", "merged", "segmented"])
def test_lazy_open_matches_grammar(grammar_indexes, which, monkeypatch):
    r = IndexReader(grammar_indexes[which])
    parses = []
    parse = compress.DecodedList.parse_skip_table
    monkeypatch.setattr(compress.DecodedList, "parse_skip_table",
                        lambda dl: (parses.append(dl), parse(dl))[1])
    n_multi = n_split = 0
    for term, (_df, segs) in r.lexicon.items():
        for _seg, pid, off, nbytes in segs:
            buf = r._blob(pid)[off : off + nbytes]
            want = _eager_parse(bytes(buf))
            # the last block ends exactly at the entry's nbytes, which is
            # what a bulk decode from block 0 relies on
            assert want["end"] == nbytes == len(buf), term
            dl = compress.open_list(buf)
            assert dl.df == want["df"] and dl.n_blocks == len(want["last_docs"]), term
            got = compress.decode_all_blocks(dl, 0)
            assert not parses  # opening and a bulk decode from block 0 read the header only
            assert dl.last_docs.tolist() == want["last_docs"], term
            assert dl.block_nbytes.tolist() == want["block_nbytes"], term
            assert dl.block_starts.tolist() == want["block_starts"], term
            assert dl.block_counts.tolist() == want["block_counts"], term
            assert parses == [dl]  # parsed once, on first access
            parses.clear()
            # block-by-block decode through the parsed table agrees
            prev, docs, tfs = 0, [], []
            for b in range(dl.n_blocks):
                d, t = dl.decode_block(b, prev)
                prev = int(d[-1])
                docs += d.tolist()
                tfs += t.tolist()
            assert (docs, tfs) == (got[0].tolist(), got[1].tolist()), term
            n_multi += dl.n_blocks > 1
            for cut in range(want["header"]):
                with pytest.raises(ValueError, match="header"):
                    compress.open_list(buf[:cut])
        n_split += len(segs) > 1
        parses.clear()
        r.open_list(term).decode_all_remaining()
        assert not parses, term  # a fresh cursor's bulk decode
    assert n_multi > 0 and (n_split > 0) == (which == "segmented")


def test_reader_df_without_cursor(grammar_indexes, two_indexes):
    """IndexReader.df is the lexicon's total df: open_list(t).df for every
    term, heavy-hitter segmented terms included; 0 for a missing term."""
    for d in (two_indexes[0], two_indexes[1], grammar_indexes["merged"],
              grammar_indexes["segmented"]):
        r = IndexReader(d)
        for term in r.lexicon:
            assert r.df(term) == r.open_list(term).df, term
        assert r.df("missingzzz") == 0


@pytest.mark.parametrize("smax", [1_000_000, 300, 50, 1])
def test_segment_cuts_match_reference_loop(smax):
    """The vectorized heavy-hitter cut equals the per-term loop it replaced."""
    from invertedindexbuilder_ray.pipelines.build import _segment_cuts

    rng = np.random.default_rng(5)
    term_df = np.minimum(rng.zipf(1.3, size=3_000), 5_000).astype(np.int64)
    want_term, want_seg, want_starts = [], [], [0]
    s = 0
    for t, df in enumerate(term_df.tolist()):
        n_segs = max(1, (df + smax - 1) // smax)
        size = (df + n_segs - 1) // n_segs
        for j in range(n_segs):
            want_term.append(t)
            want_seg.append(j)
            want_starts.append(min(s + (j + 1) * size, s + df))
        s += df
    term_of, seg_no, seg_starts = _segment_cuts(term_df, smax)
    assert term_of.tolist() == want_term
    assert seg_no.tolist() == want_seg
    assert seg_starts.tolist() == want_starts
    assert (np.diff(seg_starts) <= smax).all()


@pytest.mark.parametrize("smax", [0, -1])
def test_segment_max_postings_must_be_positive(ray_session, webpages_small, tmp_path, smax):
    """``segment_max_postings`` < 1 is rejected before anything is written
    (0 used to mean "never split")."""
    from invertedindexbuilder_ray.pipelines.build import encode_index

    src = tmp_path / "wp"
    src.mkdir()
    pq.write_table(webpages_small, src / "a.parquet")
    out = tmp_path / "idx"
    with pytest.raises(ValueError, match="segment_max_postings"):
        build_index(load_webpages(str(src)), str(out), num_partitions=2,
                    segment_max_postings=smax)
    with pytest.raises(ValueError, match="segment_max_postings"):
        encode_index(str(out), 2, [], "", {}, "encode", {}, resume=False,
                     segment_max_postings=smax)
    assert not out.exists()

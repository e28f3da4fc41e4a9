from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invertedindexbuilder_ray.stages import compress


def _encode_one(doc_ids, tfs):
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    starts = np.array([0, len(doc_ids)], dtype=np.int64)
    return compress.encode_term_lists(starts, doc_ids, tfs)


def _decode_list(buf):
    return compress.decode_all_blocks(compress.open_list(buf))


def test_reference_verified_bytes():
    # SURVEY.md §9.1 verified hexdump: df=2, postings (0,tf=2),(1,tf=1)
    enc = _encode_one([0, 1], [2, 1])
    assert enc.blob == bytes([0x82, 0x81, 0x81, 0x81, 0x84, 0x80, 0x81, 0x82, 0x81])


def _vb(v: int) -> bytes:
    """Reference VarByte: base-128 digits, least significant first, the
    terminator bit 0x80 set on the last byte (SURVEY.md §9.1)."""
    out = bytearray()
    while v >= 0x80:
        out.append(v & 0x7F)
        v >>= 7
    return bytes(out + bytes([v | 0x80]))


def _spec_list(docs: list[int], tfs: list[int]) -> bytes:
    """One list written straight from the format spec (module docstring)."""
    deltas = [docs[0]] + [b - a for a, b in zip(docs, docs[1:])]
    blocks = [range(i, min(i + 128, len(docs))) for i in range(0, len(docs), 128)]
    payload = [b"".join(_vb(deltas[j]) for j in blk) + b"".join(_vb(tfs[j]) for j in blk)
               for blk in blocks]
    ldoc = b"".join(_vb(docs[blk[-1]]) for blk in blocks)
    bsize = b"".join(_vb(len(p)) for p in payload)
    return (_vb(len(docs)) + _vb(len(ldoc)) + _vb(len(bsize)) + ldoc + bsize
            + b"".join(payload))


def test_encode_matches_spec_bytes():
    """Every list's bytes, offset and length equal a per-list encoder written
    from the spec: df around the block edges, ids >= 2^35 and wide tfs,
    segments (one term's postings cut into lists that each restart from an
    absolute id), an empty partition, and the blob order: single-block
    lists first, then multi-block ones, each group in list order."""
    rng = np.random.default_rng(3)
    lists = []
    for df in (1, 127, 128, 129, 255, 256, 257, 300, 2, 128):
        wide = df in (255, 2)
        docs = np.sort(rng.choice(2**40 if wide else 5_000, size=df, replace=False))
        if wide:
            docs = docs + 2**35
        tfs = rng.integers(1, 2**21 if wide else 9, size=df)
        lists.append((docs.tolist(), tfs.tolist()))
    # a 700-posting term as three segment lists of 234, 234 and 232
    docs = np.sort(rng.choice(10_000, size=700, replace=False)).tolist()
    tfs = rng.integers(1, 5, size=700).tolist()
    lists += [(docs[a:b], tfs[a:b]) for a, b in ((0, 234), (234, 468), (468, 700))]

    starts = np.cumsum([0] + [len(d) for d, _ in lists])
    enc = compress.encode_term_lists(
        starts, np.concatenate([d for d, _ in lists]), np.concatenate([t for _, t in lists]))
    want = [_spec_list(d, t) for d, t in lists]
    order = [i for i, (d, _) in enumerate(lists) if len(d) <= 128] + \
            [i for i, (d, _) in enumerate(lists) if len(d) > 128]
    assert enc.blob == b"".join(want[i] for i in order)
    assert enc.dfs.tolist() == [len(d) for d, _ in lists]
    assert enc.nbytes.tolist() == [len(w) for w in want]
    for i, w in enumerate(want):
        assert enc.blob[enc.offsets[i]: enc.offsets[i] + enc.nbytes[i]] == w, i

    empty = compress.encode_term_lists(np.zeros(1, np.int64), np.empty(0, np.int64),
                                       np.empty(0, np.int64))
    assert empty.blob == b""
    assert len(empty.dfs) == len(empty.offsets) == len(empty.nbytes) == 0


def test_roundtrip_multi_block_delta_carry():
    # 300 postings -> 3 blocks; deltas must carry across block boundaries
    docs = np.cumsum(np.arange(1, 301))  # strictly increasing, growing gaps
    tfs = (np.arange(300) % 7) + 1
    enc = _encode_one(docs, tfs)
    got_docs, got_tfs = _decode_list(np.frombuffer(enc.blob, np.uint8))
    assert got_docs.tolist() == docs.tolist()
    assert got_tfs.tolist() == tfs.tolist()


def test_multi_term_partition():
    starts = np.array([0, 2, 5, 6])
    docs = np.array([3, 9, 0, 4, 7, 5])
    tfs = np.array([1, 2, 3, 1, 1, 9])
    enc = compress.encode_term_lists(starts, docs, tfs)
    blob = np.frombuffer(enc.blob, np.uint8)
    for i, (s, e) in enumerate([(0, 2), (2, 5), (5, 6)]):
        piece = blob[enc.offsets[i] : enc.offsets[i] + enc.nbytes[i]]
        got_docs, got_tfs = _decode_list(piece)
        assert got_docs.tolist() == docs[s:e].tolist()
        assert got_tfs.tolist() == tfs[s:e].tolist()
        assert enc.dfs[i] == e - s


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5_000_000), st.integers(1, 1000)),
        min_size=1,
        max_size=400,
        unique_by=lambda t: t[0],
    )
)
def test_roundtrip_property(postings):
    postings.sort()
    docs = np.array([p[0] for p in postings], dtype=np.int64)
    tfs = np.array([p[1] for p in postings], dtype=np.int64)
    enc = _encode_one(docs, tfs)
    got_docs, got_tfs = _decode_list(np.frombuffer(enc.blob, np.uint8))
    assert got_docs.tolist() == docs.tolist()
    assert got_tfs.tolist() == tfs.tolist()


def _random_partition(rng, n_terms, *, max_df, seg_max=0, big=False):
    """Encode ``n_terms`` random terms the way BuildPartition does: a term
    longer than ``seg_max`` postings is cut into independent segment lists.
    Returns (blob, offsets, nbytes, dfs) with one row per list."""
    seg_starts, doc_parts, tf_parts = [0], [], []
    id_hi = 2**40 if big else 50_000
    for _ in range(n_terms):
        df = int(rng.integers(1, max_df + 1))
        docs = np.sort(rng.choice(id_hi, size=df, replace=False)).astype(np.int64)
        if big:
            docs[0] = max(docs[0], 2**35)
            docs = np.unique(np.maximum(docs, 2**35 + np.arange(df)))
            df = len(docs)
        tfs = rng.integers(1, 2**15 if big else 20, size=df).astype(np.int64)
        doc_parts.append(docs)
        tf_parts.append(tfs)
        n_segs = max(1, -(-df // seg_max)) if seg_max else 1
        size = -(-df // n_segs)
        for j in range(n_segs):
            seg_starts.append(seg_starts[-1] + len(docs[j * size:(j + 1) * size]))
    starts = np.array(seg_starts, dtype=np.int64)
    docs = np.concatenate(doc_parts)
    tfs = np.concatenate(tf_parts)
    enc = compress.encode_term_lists(starts, docs, tfs)
    return np.frombuffer(enc.blob, np.uint8), enc.offsets, enc.nbytes, enc.dfs


def _check_decode_partition(blob, offsets, nbytes, dfs):
    list_of, docs, tfs = compress.decode_partition(blob, offsets, nbytes, dfs)
    assert len(list_of) == len(docs) == len(tfs) == int(dfs.sum())
    assert (np.diff(list_of) >= 0).all()
    bounds = np.searchsorted(list_of, np.arange(len(offsets) + 1))
    for i in range(len(offsets)):
        want_docs, want_tfs = _decode_list(blob[offsets[i] : offsets[i] + nbytes[i]])
        s, e = bounds[i], bounds[i + 1]
        assert docs[s:e].tolist() == want_docs.tolist(), f"list {i} doc ids"
        assert tfs[s:e].tolist() == want_tfs.tolist(), f"list {i} tfs"


@pytest.mark.parametrize("big", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decode_partition_matches_per_list_decode(big, seed):
    rng = np.random.default_rng(seed)
    # mostly single-block lists plus multi-block ones (df up to 3 blocks +
    # tail); ``big`` widens doc ids and tfs to 6- and 3-byte varints
    blob, offs, nbs, dfs = _random_partition(rng, 40, max_df=420, big=big)
    assert (dfs > compress.BLOCK_SIZE).any() and (dfs <= compress.BLOCK_SIZE).any()
    _check_decode_partition(blob, offs, nbs, dfs)
    # lexicon rows handed over out of blob order
    perm = rng.permutation(len(offs))
    _check_decode_partition(blob, offs[perm], nbs[perm], dfs[perm])


@pytest.mark.parametrize("shuffled", [True, False])
def test_decode_partition_segments_and_wide_varints(shuffled):
    rng = np.random.default_rng(7)

    def check(blob, offs, nbs, dfs):
        # ``shuffled``: lexicon rows handed over out of blob order
        perm = rng.permutation(len(offs)) if shuffled else np.arange(len(offs))
        _check_decode_partition(blob, offs[perm], nbs[perm], dfs[perm])

    # heavy-hitter segments: every term over 50 postings is split, each
    # segment restarting from an absolute first id
    blob, offs, nbs, dfs = _random_partition(rng, 12, max_df=700, seg_max=50)
    assert len(offs) > 12
    check(blob, offs, nbs, dfs)
    # doc ids >= 2^35 and tfs >= 2^14: 6- and 3-byte varints
    blob, offs, nbs, dfs = _random_partition(rng, 10, max_df=300, big=True)
    _, docs, tfs = compress.decode_partition(blob, offs, nbs, dfs)
    assert docs.min() >= 2**35 and tfs.max() >= 2**14
    check(blob, offs, nbs, dfs)


@pytest.mark.parametrize("df", [1, 128, 129, 300])
def test_decode_partition_one_list(df):
    docs = np.arange(df, dtype=np.int64) * 3 + 5
    tfs = np.arange(df, dtype=np.int64) % 5 + 1
    enc = _encode_one(docs, tfs)
    list_of, got_docs, got_tfs = compress.decode_partition(
        np.frombuffer(enc.blob, np.uint8), enc.offsets, enc.nbytes, enc.dfs)
    assert list_of.tolist() == [0] * df
    assert got_docs.tolist() == docs.tolist() and got_tfs.tolist() == tfs.tolist()
    empty = compress.decode_partition(np.empty(0, np.uint8), [], [], [])
    assert all(len(a) == 0 for a in empty)


def test_decode_partition_rejects_wrong_df():
    enc = _encode_one([1, 4, 9], [1, 1, 2])
    with pytest.raises(ValueError):
        compress.decode_partition(np.frombuffer(enc.blob, np.uint8), enc.offsets,
                                  enc.nbytes, enc.dfs + 1)
    # a byte range one short of its list cannot line up with the header
    enc = _encode_one(np.arange(200), np.ones(200, np.int64))
    with pytest.raises(ValueError):
        compress.decode_partition(np.frombuffer(enc.blob, np.uint8), enc.offsets,
                                  enc.nbytes - 1, enc.dfs)

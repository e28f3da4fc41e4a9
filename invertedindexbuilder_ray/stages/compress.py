"""Posting-list block codec: VarByte + delta blocks with skip + block-max.

Per-term on-disk grammar (reference-compatible core, SURVEY.md §9.1,
/root/reference/src/model_support.c:127-270; our addition is the
block-max section, which the reference format lacks):

    list := df(vb)
            ldoc_table_nbytes(vb)
            bsize_table_nbytes(vb)
            [last_doc_id(vb)] * B          # absolute, per block (skip table)
            [block_nbytes(vb)] * B         # per-block byte size
            [block_max_score float32 LE] * B   # extension: block-max BM25 (optional)
            B x ( [doc_delta(vb)] * m  [tf(vb)] * m )   # m <= 128

``B = ceil(df / 128)``.  Doc-id deltas are taken against the previous
posting of the WHOLE list (they carry across block boundaries — verified
reference behavior, SURVEY.md §1.4); the first delta is the absolute
first doc_id.  With ``block_max=False`` the bytes are exactly the
reference's (useful for byte-level conformance checks).

Opening a list (:func:`open_list`) reads only the three header varints;
``B`` and the payload offset follow from them.  The skip table is
decoded on first seek, and a bulk decode from block 0 never reads it.

Encoding is batched: callers encode a whole partition's postings with
three vectorized VarByte calls (deltas, tfs, headers) and per-term
assembly is slicing, so the per-term Python overhead is small.  This
runs inside the index-build actor pool.  Decoding a whole partition is
batched the same way (:func:`decode_partition`, used by merge): one
VarByte call over every list's bytes, no per-list Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..functions import varbyte

BLOCK_SIZE = 128  # reference include/model.h:87
K1 = 1.2
B_PARAM = 0.75


@dataclass
class EncodedPartition:
    """All posting blobs of one partition, concatenated, plus lexicon data."""

    blob: bytes
    terms: list[str]
    dfs: np.ndarray        # int64 per term
    offsets: np.ndarray    # int64 byte offset of each term's list in blob
    nbytes: np.ndarray     # int64 byte length of each term's list
    max_scores: np.ndarray  # float32 per term (max BM25 contribution; 0 if disabled)


def f32_upper(vals: np.ndarray) -> np.ndarray:
    """float64 -> float32 rounded UP (a float32 that is >= the true value),
    so block-max bounds stay valid upper bounds after narrowing."""
    f32 = np.asarray(vals, dtype=np.float64).astype(np.float32)
    low = f32.astype(np.float64) < vals
    out = np.where(low, np.nextafter(f32, np.float32(np.inf)), f32)
    return out.astype(np.float32)


def bm25_components(
    tfs: np.ndarray, dls: np.ndarray, df: int, n_docs: int, d_avr: float
) -> np.ndarray:
    """Vectorized reference BM25 (quirk Q7: log2, k1=1.2, b=0.75, idf may be
    negative — src/query.c:80-86)."""
    idf = np.log2((n_docs - df + 0.5) / (df + 0.5))
    tf = tfs.astype(np.float64)
    return idf * (K1 + 1) * tf / (K1 * ((1 - B_PARAM) + B_PARAM * dls / d_avr) + tf)


def encode_term_lists(
    terms: list[str],
    term_starts: np.ndarray,
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    *,
    doc_lens: np.ndarray | None = None,
    n_docs: int = 0,
    d_avr: float = 0.0,
    block_max: bool = True,
    score_dfs: np.ndarray | None = None,
) -> EncodedPartition:
    """Encode many terms' postings at once.

    ``term_starts`` (len = n_terms + 1) delimits each term's slice of the
    sorted ``doc_ids`` / ``tfs`` arrays (ascending doc_id within term).
    ``doc_lens`` aligns with postings (the per-posting document length)
    and is only needed when ``block_max`` is on.  ``score_dfs`` overrides
    the df used for IDF in block-max scoring (heavy-hitter segments pass
    the term-TOTAL df while their entry df is just the segment length).
    """
    n_terms = len(terms)
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    dfs = np.diff(term_starts).astype(np.int64)

    # deltas: within-term diff; first posting of each term keeps its absolute id
    deltas = np.empty_like(doc_ids)
    if len(doc_ids):
        deltas[0] = doc_ids[0]
        deltas[1:] = doc_ids[1:] - doc_ids[:-1]
        deltas[term_starts[:-1][term_starts[:-1] < len(doc_ids)]] = doc_ids[
            term_starts[:-1][term_starts[:-1] < len(doc_ids)]
        ]

    enc_deltas, sz_deltas = varbyte.encode(deltas)
    enc_tfs, sz_tfs = varbyte.encode(tfs)
    dend = np.cumsum(sz_deltas)
    dstart = dend - sz_deltas
    tend = np.cumsum(sz_tfs)
    tstart = tend - sz_tfs

    scores = None
    if block_max:
        if doc_lens is None:
            raise ValueError("block_max=True requires per-posting doc_lens")
        scores = np.zeros(len(doc_ids), dtype=np.float64)
        # idf depends on df -> per-term broadcast
        df_per_posting = np.repeat(score_dfs if score_dfs is not None else dfs, dfs)
        idf = np.log2((n_docs - df_per_posting + 0.5) / (df_per_posting + 0.5))
        tf = tfs.astype(np.float64)
        scores = idf * (K1 + 1) * tf / (
            K1 * ((1 - B_PARAM) + B_PARAM * np.asarray(doc_lens, dtype=np.float64) / d_avr)
            + tf
        )

    # fast path: single-block terms (df <= 128, the overwhelming majority in a
    # Zipf vocabulary) are assembled fully vectorized; only multi-block terms
    # fall back to the per-term loop below.
    single = dfs <= BLOCK_SIZE
    multi_idx = np.flatnonzero(~single)
    offsets = np.zeros(n_terms, dtype=np.int64)
    lengths = np.zeros(n_terms, dtype=np.int64)
    max_scores = np.zeros(n_terms, dtype=np.float32)
    fast_blob = b""
    term_max = None
    if block_max and len(doc_ids):
        # contiguous per-term score maxima (term_starts covers the array);
        # rounded UP into float32 so they stay valid upper bounds
        term_max = f32_upper(np.maximum.reduceat(scores, term_starts[:-1]))
    if single.any():
        s_idx = np.flatnonzero(single)
        fast_blob, f_off, f_len, f_max = _encode_single_block_fast(
            term_starts, doc_ids, dfs, dstart, dend, tstart, tend,
            enc_deltas, enc_tfs,
            term_max[s_idx] if term_max is not None else None,
            block_max, s_idx,
        )
        offsets[s_idx] = f_off
        lengths[s_idx] = f_len
        if block_max:
            max_scores[s_idx] = f_max

    pieces: list[bytes] = []
    pos = len(fast_blob)
    for i in multi_idx:
        s, e = int(term_starts[i]), int(term_starts[i + 1])
        df = e - s
        n_blocks = (df + BLOCK_SIZE - 1) // BLOCK_SIZE
        block_bounds = np.arange(s, e + BLOCK_SIZE, BLOCK_SIZE)
        block_bounds[-1] = e
        if block_bounds[-2] >= e:
            block_bounds = block_bounds[:-1]
        last_docs = doc_ids[block_bounds[1:] - 1]
        # per-block payload bytes = sum of delta sizes + tf sizes in the block
        dbytes = dend[block_bounds[1:] - 1] - dstart[block_bounds[:-1]]
        tbytes = tend[block_bounds[1:] - 1] - tstart[block_bounds[:-1]]
        block_nbytes = dbytes + tbytes

        enc_ldoc, _ = varbyte.encode(last_docs)
        enc_bsize, _ = varbyte.encode(block_nbytes)
        header, _ = varbyte.encode(
            np.array([df, len(enc_ldoc), len(enc_bsize)], dtype=np.int64)
        )
        parts = [header.tobytes(), enc_ldoc.tobytes(), enc_bsize.tobytes()]
        if block_max:
            bmax = f32_upper(
                np.array(
                    [scores[b0:b1].max() for b0, b1 in zip(block_bounds[:-1], block_bounds[1:])]
                )
            )
            parts.append(bmax.tobytes())
            max_scores[i] = bmax.max()
        for b0, b1 in zip(block_bounds[:-1], block_bounds[1:]):
            parts.append(enc_deltas[dstart[b0] : dend[b1 - 1]].tobytes())
            parts.append(enc_tfs[tstart[b0] : tend[b1 - 1]].tobytes())
        blob_i = b"".join(parts)
        pieces.append(blob_i)
        offsets[i] = pos
        lengths[i] = len(blob_i)
        pos += len(blob_i)

    return EncodedPartition(
        blob=fast_blob + b"".join(pieces),
        terms=list(terms),
        dfs=dfs,
        offsets=offsets,
        nbytes=lengths,
        max_scores=max_scores,
    )


def _encode_single_block_fast(
    term_starts: np.ndarray,
    doc_ids: np.ndarray,
    dfs: np.ndarray,
    dstart: np.ndarray,
    dend: np.ndarray,
    tstart: np.ndarray,
    tend: np.ndarray,
    enc_deltas: np.ndarray,
    enc_tfs: np.ndarray,
    term_max: np.ndarray | None,
    block_max: bool,
    idx: np.ndarray,
) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized assembly of all single-block term lists in one pass.

    Each list is ``df(vb) ldoc_sz(vb) bsz_sz(vb) last_doc(vb)
    block_nbytes(vb) [bmax f32] deltas tfs`` — six source ranges per
    term, materialized with a searchsorted gather instead of a Python
    loop.  Returns (blob, per-term offsets, lengths, max scores).
    """
    starts = term_starts[idx]
    ends = term_starts[idx + 1]
    n = len(idx)
    last_docs = doc_ids[ends - 1]
    payload_d = dend[ends - 1] - dstart[starts]
    payload_t = tend[ends - 1] - tstart[starts]
    block_nbytes = payload_d + payload_t

    enc_df, sz_df = varbyte.encode(dfs[idx])
    enc_ld, sz_ld = varbyte.encode(last_docs)
    enc_bn, sz_bn = varbyte.encode(block_nbytes)
    enc_szld, sz_szld = varbyte.encode(sz_ld)  # ldoc table byte size (1 block)
    enc_szbn, sz_szbn = varbyte.encode(sz_bn)
    df_end = np.cumsum(sz_df); df_start = df_end - sz_df
    ld_end = np.cumsum(sz_ld); ld_start = ld_end - sz_ld
    bn_end = np.cumsum(sz_bn); bn_start = bn_end - sz_bn
    szld_end = np.cumsum(sz_szld); szld_start = szld_end - sz_szld
    szbn_end = np.cumsum(sz_szbn); szbn_start = szbn_end - sz_szbn

    if block_max:
        bmax = np.ascontiguousarray(term_max, dtype=np.float32)
        bmax_bytes = bmax.view(np.uint8).reshape(n, 4)
    else:
        bmax = np.zeros(n, dtype=np.float32)
        bmax_bytes = np.empty((n, 0), dtype=np.uint8)

    # one source buffer; per-term pieces reference ranges within it
    src = np.concatenate(
        [enc_df, enc_szld, enc_szbn, enc_ld, enc_bn, bmax_bytes.ravel(),
         enc_deltas, enc_tfs]
    )
    o_df = 0
    o_szld = o_df + len(enc_df)
    o_szbn = o_szld + len(enc_szld)
    o_ld = o_szbn + len(enc_szbn)
    o_bn = o_ld + len(enc_ld)
    o_bm = o_bn + len(enc_bn)
    o_de = o_bm + bmax_bytes.size
    o_tf = o_de + len(enc_deltas)

    n_pieces = 7 if block_max else 6
    piece_src = np.empty((n, n_pieces), dtype=np.int64)
    piece_len = np.empty((n, n_pieces), dtype=np.int64)
    col = 0
    for src_off, p_start, p_len in (
        (o_df, df_start, sz_df),
        (o_szld, szld_start, sz_szld),
        (o_szbn, szbn_start, sz_szbn),
        (o_ld, ld_start, sz_ld),
        (o_bn, bn_start, sz_bn),
    ):
        piece_src[:, col] = src_off + p_start
        piece_len[:, col] = p_len
        col += 1
    if block_max:
        piece_src[:, col] = o_bm + 4 * np.arange(n, dtype=np.int64)
        piece_len[:, col] = 4
        col += 1
    # note: deltas and tfs are two separate pieces; merge tf piece into the
    # layout by appending after the delta piece
    piece_src[:, col - 0] = o_de + dstart[starts]
    piece_len[:, col - 0] = payload_d
    piece_src = np.concatenate(
        [piece_src, (o_tf + tstart[starts])[:, None]], axis=1
    )
    piece_len = np.concatenate([piece_len, payload_t[:, None]], axis=1)

    flat_src = piece_src.ravel()
    flat_len = piece_len.ravel()
    flat_dst_end = np.cumsum(flat_len)
    flat_dst_start = flat_dst_end - flat_len
    total = int(flat_dst_end[-1]) if len(flat_dst_end) else 0
    out_idx = np.arange(total, dtype=np.int64)
    piece_of = np.searchsorted(flat_dst_end, out_idx, side="right")
    src_pos = flat_src[piece_of] + (out_idx - flat_dst_start[piece_of])
    blob = src[src_pos]

    term_len = piece_len.sum(axis=1)
    term_end = np.cumsum(term_len)
    term_off = term_end - term_len
    return blob.tobytes(), term_off, term_len, bmax


# decoded on first access (DecodedList.parse_skip_table)
_SKIP_TABLE = ("last_docs", "block_nbytes", "block_starts", "block_max")


class DecodedList:
    """One term's compressed list, opened from its three header varints.

    ``df``, ``n_blocks`` (``ceil(df / 128)``, a format invariant) and
    ``payload_start`` (the byte offset of block 0) come from the header
    alone, so opening a list costs a few microseconds whatever its
    length.  The skip table is decoded on first access to one of its
    fields and then read as plain attributes: a cursor that bulk-decodes
    from block 0 never parses it, a cursor that seeks parses it once.
    ``buf`` holds exactly the list's bytes: its last block ends at
    ``len(buf)``.
    """

    __slots__ = ("buf", "df", "n_blocks", "payload_start", "has_block_max",
                 "_header_nbytes", "_ldoc_nbytes", "_bsize_nbytes") + _SKIP_TABLE

    last_docs: np.ndarray       # absolute last doc_id per block
    block_nbytes: np.ndarray
    block_starts: np.ndarray    # byte offset of each block within buf
    block_max: np.ndarray | None

    def __init__(self, buf: np.ndarray, df: int, header_nbytes: int,
                 ldoc_nbytes: int, bsize_nbytes: int, has_block_max: bool):
        self.buf = buf
        self.df = df
        self.n_blocks = -(-df // BLOCK_SIZE)
        self.has_block_max = has_block_max
        self._header_nbytes = header_nbytes
        self._ldoc_nbytes = ldoc_nbytes
        self._bsize_nbytes = bsize_nbytes
        self.payload_start = (header_nbytes + ldoc_nbytes + bsize_nbytes
                              + (4 * self.n_blocks if has_block_max else 0))

    def __getattr__(self, name: str):
        # reached only for an unset slot: a skip-table field before the parse
        if name not in _SKIP_TABLE:
            raise AttributeError(name)
        self.parse_skip_table()
        return getattr(self, name)

    def parse_skip_table(self) -> None:
        """Decode the skip table into its fields (``_SKIP_TABLE``)."""
        p = self._header_nbytes
        last_docs, _ = varbyte.decode(self.buf[p : p + self._ldoc_nbytes])
        p += self._ldoc_nbytes
        block_nbytes, _ = varbyte.decode(self.buf[p : p + self._bsize_nbytes])
        p += self._bsize_nbytes
        nb = self.n_blocks
        if len(last_docs) != nb or len(block_nbytes) != nb:
            raise ValueError(
                f"skip table holds {len(last_docs)}/{len(block_nbytes)} "
                f"entries, df={self.df} implies {nb} blocks"
            )
        self.block_max = None
        if self.has_block_max:
            self.block_max = np.frombuffer(self.buf[p : p + 4 * nb].tobytes(), dtype=np.float32)
        self.block_starts = np.empty(nb, dtype=np.int64)
        if nb:
            self.block_starts[0] = self.payload_start
            self.block_starts[1:] = self.payload_start + np.cumsum(block_nbytes)[:-1]
        self.last_docs = last_docs
        self.block_nbytes = block_nbytes

    @property
    def block_counts(self) -> np.ndarray:
        """Postings per block: 128 each, the remainder in the last."""
        counts = np.full(self.n_blocks, BLOCK_SIZE, dtype=np.int64)
        if self.n_blocks:
            counts[-1] = self.df - BLOCK_SIZE * (self.n_blocks - 1)
        return counts

    def decode_block(self, b: int, prev_last_doc: int) -> tuple[np.ndarray, np.ndarray]:
        """Decode block ``b`` -> (absolute doc_ids, tfs).

        ``prev_last_doc`` is the last doc_id of block ``b-1`` (0 for the
        first block): deltas carry across blocks.
        """
        m = min(BLOCK_SIZE, self.df - BLOCK_SIZE * b)
        start = int(self.block_starts[b])
        chunk = self.buf[start : start + int(self.block_nbytes[b])]
        deltas, used = varbyte.decode(chunk, count=m)
        tfs, _ = varbyte.decode(chunk[used:], count=m)
        docs = np.cumsum(deltas) + prev_last_doc
        return docs, tfs


# three int64 varints take at most 3 x 10 bytes
_HEADER_MAX = 30


def open_list(buf: np.ndarray, *, block_max: bool = True) -> DecodedList:
    """Open one term's list from its byte slice, reading only the header
    (``df``, ``ldoc_table_nbytes``, ``bsize_table_nbytes``); the skip
    table is decoded on first use (see :class:`DecodedList`)."""
    buf = np.asarray(buf, dtype=np.uint8)
    head: list[int] = []
    v = shift = 0
    for i, byte in enumerate(bytes(buf[:_HEADER_MAX])):
        v |= (byte & 0x7F) << shift
        if not byte & 0x80:
            shift += 7
            continue
        head.append(v)
        if len(head) == 3:
            return DecodedList(buf, head[0], i + 1, head[1], head[2], block_max)
        v = shift = 0
    raise ValueError(f"list header truncated: {len(head)} of 3 varints in {len(buf)} bytes")


def decode_full(buf: np.ndarray, *, block_max: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Decode a whole list -> (doc_ids, tfs) in one vectorized pass.

    All VarByte values of the payload are decoded with a single
    terminator scan; the per-block (deltas, tfs) interleaving is then
    undone with an index mask.  Doc-id deltas carry across blocks, so a
    plain cumsum over every delta reconstructs absolute ids.
    """
    dl = open_list(buf, block_max=block_max)
    return decode_all_blocks(dl)


def decode_all_blocks(dl: "DecodedList", from_block: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Decode blocks ``from_block..`` to the end of the list in one pass.

    From block 0 this reads neither skip table: the payload runs from
    ``payload_start`` to the end of ``buf`` and the block counts follow
    from ``df``."""
    if dl.n_blocks <= from_block:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if from_block:
        start = int(dl.block_starts[from_block])
        prev = int(dl.last_docs[from_block - 1])
    else:
        start, prev = dl.payload_start, 0
    counts = dl.block_counts[from_block:]
    vals, _ = varbyte.decode(dl.buf[start:], count=2 * (dl.df - BLOCK_SIZE * from_block))
    # interleaving: [deltas(m_b) tfs(m_b)] per block -> mask out the tf runs
    seg = np.repeat(np.arange(2 * len(counts), dtype=np.int64), np.repeat(counts, 2))
    is_delta = (seg % 2) == 0
    deltas = vals[is_delta]
    tfs = vals[~is_delta]
    docs = np.cumsum(deltas) + prev
    return docs, tfs


def _gather_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Indices of the concatenated ranges ``[starts[i], starts[i] + lens[i])``."""
    ends = np.cumsum(lens)
    return np.repeat(starts - (ends - lens), lens) + np.arange(int(ends[-1]) if len(ends) else 0)


def decode_partition(
    blob, offsets: np.ndarray, nbytes: np.ndarray, dfs: np.ndarray, *, block_max: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode many lists of one partition blob at once, the inverse of
    :func:`encode_term_lists` -> (list index per posting, doc_ids, tfs).

    List ``i`` is ``blob[offsets[i] : offsets[i] + nbytes[i]]`` holding
    ``dfs[i]`` postings; lists may be given in any order, and their
    postings come back in that order.  One pass for the whole partition:
    the three header varints of every list are read from an n x 30 byte
    gather, the block-max float bytes (``block_max``) are cut out, one
    VarByte decode covers every remaining byte (``3 + 2B + 2 df`` values
    per list), the per-block ``[deltas(m) tfs(m)]`` runs are separated
    by index arithmetic, and a per-list segmented cumsum restores
    absolute doc ids (every list starts from its absolute first id).
    """
    buf = np.asarray(blob, dtype=np.uint8)
    offsets = np.asarray(offsets, dtype=np.int64)
    nbytes = np.asarray(nbytes, dtype=np.int64)
    dfs = np.asarray(dfs, dtype=np.int64)
    n = len(offsets)
    if n == 0 or int(dfs.sum()) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    n_blocks = -(-dfs // BLOCK_SIZE)

    # ---- headers: df, ldoc_table_nbytes, bsize_table_nbytes of every list
    head = np.zeros((n, _HEADER_MAX), dtype=np.uint8)
    limit = np.minimum(offsets + nbytes, len(buf))
    for k in range(_HEADER_MAX):
        inside = offsets + k < limit
        head[inside, k] = buf[offsets[inside] + k]
    ends_seen = np.cumsum(head >= 0x80, axis=1, dtype=np.int8)
    if (ends_seen[:, -1] < 3).any():
        raise ValueError("list header truncated: fewer than 3 varints")
    in_header = (ends_seen - (head >= 0x80)) < 3
    hvals, _ = varbyte.decode(head[in_header])
    hvals = hvals.reshape(n, 3)
    if (hvals[:, 0] != dfs).any():
        bad = int(np.flatnonzero(hvals[:, 0] != dfs)[0])
        raise ValueError(f"list {bad}: header df {hvals[bad, 0]} != expected {dfs[bad]}")

    # ---- the bytes to decode: each list minus its block-max float section
    if block_max:
        table_end = in_header.sum(axis=1) + hvals[:, 1] + hvals[:, 2]
        float_nbytes = 4 * n_blocks
        starts = np.stack([offsets, offsets + table_end + float_nbytes], axis=1).ravel()
        lens = np.stack([table_end, nbytes - table_end - float_nbytes], axis=1).ravel()
        kept = lens.reshape(n, 2).sum(axis=1)
    else:
        starts, lens, kept = offsets, nbytes, nbytes
    if (lens < 0).any() or (offsets + nbytes > len(buf)).any():
        raise ValueError("posting list byte ranges do not fit their headers / blob")
    data = buf[_gather_ranges(starts, lens)]

    # every list must hold exactly its own values and end on a terminator
    n_vals = 3 + 2 * n_blocks + 2 * dfs
    list_end = np.cumsum(kept)
    is_end = data >= 0x80
    if (kept <= 0).any() or not is_end[list_end - 1].all() or (
        np.diff(np.concatenate([[0], np.cumsum(is_end)[list_end - 1]])) != n_vals
    ).any():
        raise ValueError("posting lists do not match their header df / byte sizes")
    vals, _ = varbyte.decode(data)

    # ---- un-interleave: posting j of a list sits in block b = j // 128;
    # the b full blocks before it hold 256 values each (its delta is value
    # 256 b + (j - 128 b) = j + 128 b of the payload), and the block's tf
    # run follows its m deltas
    list_of = np.repeat(np.arange(n, dtype=np.int64), dfs)
    post_start = np.cumsum(dfs) - dfs
    j = np.arange(len(list_of), dtype=np.int64) - post_start[list_of]
    b = j // BLOCK_SIZE
    m = np.minimum(BLOCK_SIZE, dfs[list_of] - BLOCK_SIZE * b)
    payload = (np.cumsum(n_vals) - n_vals) + 3 + 2 * n_blocks
    dpos = payload[list_of] + j + BLOCK_SIZE * b
    deltas = vals[dpos]
    tfs = vals[dpos + m]

    # ---- segmented cumsum: each list restarts from its absolute first id
    # (int64 wraparound of the running sum cancels in the subtraction)
    firsts = post_start[dfs > 0]
    run = np.cumsum(deltas)
    docs = run - np.repeat(run[firsts] - deltas[firsts], dfs[dfs > 0])
    return list_of, docs, tfs

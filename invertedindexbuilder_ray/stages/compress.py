"""Posting-list block codec: VarByte + delta blocks with a skip table.

The on-disk format is exactly the reference's, with no extension
(SURVEY.md §9.1; reference src/model_support.c:127-270).  Per term:

    list := df(vb)
            ldoc_table_nbytes(vb)
            bsize_table_nbytes(vb)
            [last_doc_id(vb)] * B          # absolute, per block (skip table)
            [block_nbytes(vb)] * B         # per-block byte size
            B x ( [doc_delta(vb)] * m  [tf(vb)] * m )   # m <= 128

``B = ceil(df / 128)``.  Doc-id deltas are taken against the previous
posting of the WHOLE list (they carry across block boundaries — verified
reference behavior, SURVEY.md §1.4); the first delta is the absolute
first doc_id.  A list's bytes depend only on its (doc_id, tf) pairs,
never on corpus statistics.

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
) -> EncodedPartition:
    """Encode many terms' postings at once.

    ``term_starts`` (len = n_terms + 1) delimits each term's slice of the
    sorted ``doc_ids`` / ``tfs`` arrays (ascending doc_id within term).
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

    # fast path: single-block terms (df <= 128, the overwhelming majority in a
    # Zipf vocabulary) are assembled fully vectorized; only multi-block terms
    # fall back to the per-term loop below.
    single = dfs <= BLOCK_SIZE
    multi_idx = np.flatnonzero(~single)
    offsets = np.zeros(n_terms, dtype=np.int64)
    lengths = np.zeros(n_terms, dtype=np.int64)
    fast_blob = b""
    if single.any():
        s_idx = np.flatnonzero(single)
        fast_blob, f_off, f_len = _encode_single_block_fast(
            term_starts, doc_ids, dfs, dstart, dend, tstart, tend,
            enc_deltas, enc_tfs, s_idx,
        )
        offsets[s_idx] = f_off
        lengths[s_idx] = f_len

    pieces: list[bytes] = []
    pos = len(fast_blob)
    for i in multi_idx:
        s, e = int(term_starts[i]), int(term_starts[i + 1])
        df = e - s
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
    idx: np.ndarray,
) -> tuple[bytes, np.ndarray, np.ndarray]:
    """Vectorized assembly of all single-block term lists in one pass.

    Each list is ``df(vb) ldoc_sz(vb) bsz_sz(vb) last_doc(vb)
    block_nbytes(vb) deltas tfs`` — seven source ranges per term,
    materialized with one range gather instead of a Python loop.
    Returns (blob, per-term offsets, lengths).
    """
    starts = term_starts[idx]
    ends = term_starts[idx + 1]
    payload_d = dend[ends - 1] - dstart[starts]
    payload_t = tend[ends - 1] - tstart[starts]

    enc_df, sz_df = varbyte.encode(dfs[idx])
    enc_ld, sz_ld = varbyte.encode(doc_ids[ends - 1])
    enc_bn, sz_bn = varbyte.encode(payload_d + payload_t)
    enc_szld, sz_szld = varbyte.encode(sz_ld)  # ldoc table byte size (1 block)
    enc_szbn, sz_szbn = varbyte.encode(sz_bn)

    # one source buffer; piece k of every term is a range of source k
    sources = (enc_df, enc_szld, enc_szbn, enc_ld, enc_bn, enc_deltas, enc_tfs)
    base = np.cumsum([0] + [len(a) for a in sources[:-1]])
    piece_src = np.stack(
        [base[k] + np.cumsum(sz) - sz
         for k, sz in enumerate((sz_df, sz_szld, sz_szbn, sz_ld, sz_bn))]
        + [base[5] + dstart[starts], base[6] + tstart[starts]],
        axis=1,
    )
    piece_len = np.stack(
        [sz_df, sz_szld, sz_szbn, sz_ld, sz_bn, payload_d, payload_t], axis=1
    )
    blob = np.concatenate(sources)[_gather_ranges(piece_src.ravel(), piece_len.ravel())]

    term_len = piece_len.sum(axis=1)
    return blob.tobytes(), np.cumsum(term_len) - term_len, term_len


# decoded on first access (DecodedList.parse_skip_table)
_SKIP_TABLE = ("last_docs", "block_nbytes", "block_starts")


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

    __slots__ = ("buf", "df", "n_blocks", "payload_start",
                 "_header_nbytes", "_ldoc_nbytes", "_bsize_nbytes") + _SKIP_TABLE

    last_docs: np.ndarray       # absolute last doc_id per block
    block_nbytes: np.ndarray
    block_starts: np.ndarray    # byte offset of each block within buf

    def __init__(self, buf: np.ndarray, df: int, header_nbytes: int,
                 ldoc_nbytes: int, bsize_nbytes: int):
        self.buf = buf
        self.df = df
        self.n_blocks = -(-df // BLOCK_SIZE)
        self._header_nbytes = header_nbytes
        self._ldoc_nbytes = ldoc_nbytes
        self._bsize_nbytes = bsize_nbytes
        self.payload_start = header_nbytes + ldoc_nbytes + bsize_nbytes

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
        nb = self.n_blocks
        if len(last_docs) != nb or len(block_nbytes) != nb:
            raise ValueError(
                f"skip table holds {len(last_docs)}/{len(block_nbytes)} "
                f"entries, df={self.df} implies {nb} blocks"
            )
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


def open_list(buf: np.ndarray) -> DecodedList:
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
            return DecodedList(buf, head[0], i + 1, head[1], head[2])
        v = shift = 0
    raise ValueError(f"list header truncated: {len(head)} of 3 varints in {len(buf)} bytes")


def decode_full(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode a whole list -> (doc_ids, tfs) in one vectorized pass.

    All VarByte values of the payload are decoded with a single
    terminator scan; the per-block (deltas, tfs) interleaving is then
    undone with an index mask.  Doc-id deltas carry across blocks, so a
    plain cumsum over every delta reconstructs absolute ids.
    """
    return decode_all_blocks(open_list(buf))


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
    blob, offsets: np.ndarray, nbytes: np.ndarray, dfs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode many lists of one partition blob at once, the inverse of
    :func:`encode_term_lists` -> (list index per posting, doc_ids, tfs).

    List ``i`` is ``blob[offsets[i] : offsets[i] + nbytes[i]]`` holding
    ``dfs[i]`` postings; lists may be given in any order, and their
    postings come back in that order.  One pass for the whole partition:
    one VarByte decode covers every list's bytes (``3 + 2B + 2 df`` values
    per list: the reference format holds nothing else), the per-block
    ``[deltas(m) tfs(m)]`` runs are separated by index arithmetic, and a
    per-list segmented cumsum restores absolute doc ids (every list
    starts from its absolute first id).
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
    if (nbytes <= 0).any() or (offsets + nbytes > len(buf)).any():
        raise ValueError("posting list byte ranges do not fit the blob")
    data = buf[_gather_ranges(offsets, nbytes)]

    # every list must hold exactly its own values and end on a terminator
    n_vals = 3 + 2 * n_blocks + 2 * dfs
    list_end = np.cumsum(nbytes)
    is_end = data >= 0x80
    if not is_end[list_end - 1].all() or (
        np.diff(np.concatenate([[0], np.cumsum(is_end)[list_end - 1]])) != n_vals
    ).any():
        raise ValueError("posting lists do not match their header df / byte sizes")
    vals, _ = varbyte.decode(data)
    list_start = np.cumsum(n_vals) - n_vals
    if (vals[list_start] != dfs).any():
        bad = int(np.flatnonzero(vals[list_start] != dfs)[0])
        raise ValueError(f"list {bad}: header df {vals[list_start[bad]]} != expected {dfs[bad]}")

    # ---- un-interleave: posting j of a list sits in block b = j // 128;
    # the b full blocks before it hold 256 values each (its delta is value
    # 256 b + (j - 128 b) = j + 128 b of the payload), and the block's tf
    # run follows its m deltas
    list_of = np.repeat(np.arange(n, dtype=np.int64), dfs)
    post_start = np.cumsum(dfs) - dfs
    j = np.arange(len(list_of), dtype=np.int64) - post_start[list_of]
    b = j // BLOCK_SIZE
    m = np.minimum(BLOCK_SIZE, dfs[list_of] - BLOCK_SIZE * b)
    payload = list_start + 3 + 2 * n_blocks
    dpos = payload[list_of] + j + BLOCK_SIZE * b
    deltas = vals[dpos]
    tfs = vals[dpos + m]

    # ---- segmented cumsum: each list restarts from its absolute first id
    # (int64 wraparound of the running sum cancels in the subtraction)
    firsts = post_start[dfs > 0]
    run = np.cumsum(deltas)
    docs = run - np.repeat(run[firsts] - deltas[firsts], dfs[dfs > 0])
    return list_of, docs, tfs

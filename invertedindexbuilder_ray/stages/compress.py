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

Encoding is batched: :func:`encode_term_lists` encodes a whole
partition with five VarByte calls (deltas, tfs, block last docs, block
byte sizes, headers) and assembles every list, of any length, by one
range gather, with no per-list Python.  This runs inside the encode
job's tasks.  Decoding a whole partition is batched the same way
(:func:`decode_partition`, used by merge): one VarByte call over every
list's bytes, no per-list Python.
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
    dfs: np.ndarray        # int64 per list
    offsets: np.ndarray    # int64 byte offset of each list in blob
    nbytes: np.ndarray     # int64 byte length of each list


def bm25_components(
    tfs: np.ndarray, dls: np.ndarray, df: int, n_docs: int, d_avr: float
) -> np.ndarray:
    """Vectorized reference BM25 (quirk Q7: log2, k1=1.2, b=0.75, idf may be
    negative — src/query.c:80-86)."""
    idf = np.log2((n_docs - df + 0.5) / (df + 0.5))
    tf = tfs.astype(np.float64)
    return idf * (K1 + 1) * tf / (K1 * ((1 - B_PARAM) + B_PARAM * dls / d_avr) + tf)


def encode_term_lists(
    term_starts: np.ndarray, doc_ids: np.ndarray, tfs: np.ndarray
) -> EncodedPartition:
    """Encode many lists' postings at once, the inverse of
    :func:`decode_partition`.

    ``term_starts`` (len = n_lists + 1) delimits each list's slice of the
    sorted ``doc_ids`` / ``tfs`` arrays (ascending doc_id within a list).
    Five VarByte calls cover the partition: deltas, tfs, every block's
    last doc, every block's byte size, and the three header values of
    every list.  List ``i`` is then ``3 + 2 B_i`` byte ranges of those
    buffers (header, ldoc table, bsize table, then deltas and tfs per
    block), all gathered in one pass.  The blob holds the single-block
    lists first and the multi-block ones after, each group in list order.
    """
    term_starts = np.asarray(term_starts, dtype=np.int64)
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    dfs = np.diff(term_starts)
    n = len(dfs)

    # deltas: within-list diff; the first posting of a list keeps its absolute id
    firsts = term_starts[:-1][dfs > 0]
    deltas = np.diff(doc_ids, prepend=0)
    deltas[firsts] = doc_ids[firsts]
    enc_d, sz_d = varbyte.encode(deltas)
    enc_t, sz_t = varbyte.encode(tfs)
    dcum = np.concatenate([[0], np.cumsum(sz_d)])  # byte offset of posting j
    tcum = np.concatenate([[0], np.cumsum(sz_t)])

    # blocks: list of each block, its posting range [bs, be)
    n_blocks = -(-dfs // BLOCK_SIZE)
    list_of = np.repeat(np.arange(n), n_blocks)
    first_block = np.cumsum(n_blocks) - n_blocks
    blk = np.arange(len(list_of)) - first_block[list_of]  # block number within its list
    bs = term_starts[list_of] + BLOCK_SIZE * blk
    be = np.minimum(bs + BLOCK_SIZE, term_starts[list_of + 1])
    enc_ld, sz_ld = varbyte.encode(doc_ids[be - 1])
    enc_bn, sz_bn = varbyte.encode(dcum[be] - dcum[bs] + tcum[be] - tcum[bs])
    ld_cum = np.concatenate([[0], np.cumsum(sz_ld)])
    bn_cum = np.concatenate([[0], np.cumsum(sz_bn)])
    last_block = first_block + n_blocks
    ld_len = ld_cum[last_block] - ld_cum[first_block]
    bn_len = bn_cum[last_block] - bn_cum[first_block]
    enc_h, sz_h = varbyte.encode(np.stack([dfs, ld_len, bn_len], axis=1).ravel())
    h_len = sz_h.reshape(n, 3).sum(axis=1)

    # ranges into src = enc_h | enc_ld | enc_bn | enc_d | enc_t, list by list
    # in blob order: single-block lists first (a stable sort keeps list order)
    base = np.cumsum([0, len(enc_h), len(enc_ld), len(enc_bn), len(enc_d)])
    order = np.argsort(n_blocks > 1, kind="stable")
    n_ranges = 3 + 2 * n_blocks
    first_range = np.empty(n, dtype=np.int64)
    first_range[order] = np.cumsum(n_ranges[order]) - n_ranges[order]
    starts = np.empty(int(n_ranges.sum()), dtype=np.int64)
    lens = np.empty_like(starts)
    head = first_range[:, None] + np.arange(3)
    starts[head] = np.stack([np.cumsum(h_len) - h_len + base[0], ld_cum[first_block] + base[1],
                             bn_cum[first_block] + base[2]], axis=1)
    lens[head] = np.stack([h_len, ld_len, bn_len], axis=1)
    pay = first_range[list_of] + 3 + 2 * blk
    starts[pay], lens[pay] = dcum[bs] + base[3], dcum[be] - dcum[bs]
    starts[pay + 1], lens[pay + 1] = tcum[bs] + base[4], tcum[be] - tcum[bs]
    src = np.concatenate([enc_h, enc_ld, enc_bn, enc_d, enc_t])
    blob = src[_gather_ranges(starts, lens)]

    nbytes = h_len + ld_len + bn_len + (dcum[term_starts[1:]] - dcum[term_starts[:-1]]
                                        + tcum[term_starts[1:]] - tcum[term_starts[:-1]])
    offsets = np.empty(n, dtype=np.int64)
    offsets[order] = np.cumsum(nbytes[order]) - nbytes[order]
    return EncodedPartition(blob=blob.tobytes(), dfs=dfs, offsets=offsets, nbytes=nbytes)


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

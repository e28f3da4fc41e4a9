"""Vectorized tokenizer over Arrow string columns.

Semantics replicate the reference parser's verified behavior
(SURVEY.md §8, /root/reference/src/main.c:104-123):

* a token is a maximal run of bytes ``[a-zA-Z0-9]`` (every other byte,
  including UTF-8 continuation bytes, is a separator — quirk Q3);
* ``A-Z`` lowercased during the scan (Q3);
* runs longer than 15 bytes are dropped whole, not truncated (Q2);
* in *quirk* mode, a run that reaches the end of the text is dropped —
  the reference only emits a token when a separator terminates it (Q1);
  *clean* mode keeps trailing tokens (the sane semantics used by the
  generic text operators).

The implementation is numpy over the Arrow string buffers directly
(zero-copy: the value buffer and offsets are viewed, never copied per
row), so a batch of documents is tokenized with a fixed number of numpy
kernel calls regardless of row count.  This is the hottest stage of the
index build; do not add per-row Python here.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

MAX_TOKEN_LEN = 15  # reference WORD_LENGTH_MAX - 1 (include/lexicon.h:8-9)

# byte -> lowercased byte for [a-zA-Z0-9], else 0 (separator)
_LUT = np.zeros(256, dtype=np.uint8)
for _c in range(ord("a"), ord("z") + 1):
    _LUT[_c] = _c
for _c in range(ord("0"), ord("9") + 1):
    _LUT[_c] = _c
for _c in range(ord("A"), ord("Z") + 1):
    _LUT[_c] = _c + 32
del _c


def _string_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """View an Arrow string/large_string array as (byte values, int64 offsets).

    Nulls are treated as empty strings (their offsets span zero bytes in
    well-formed Arrow arrays; if not, the slice is still harmless because
    runs are cut at every document boundary).
    """
    if pa.types.is_large_string(arr.type):
        off_dtype = np.int64
    elif pa.types.is_string(arr.type):
        off_dtype = np.int32
    else:
        arr = arr.cast(pa.string())
        off_dtype = np.int32
    buffers = arr.buffers()
    offsets = np.frombuffer(buffers[1], dtype=off_dtype)[arr.offset : arr.offset + len(arr) + 1]
    offsets = offsets.astype(np.int64, copy=False)
    if buffers[2] is None:
        data = np.empty(0, dtype=np.uint8)
    else:
        data = np.frombuffer(buffers[2], dtype=np.uint8)
    return data, offsets


def token_spans(
    texts: pa.Array | pa.ChunkedArray,
    *,
    drop_trailing: bool,
    max_len: int = MAX_TOKEN_LEN,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Find token byte-spans in a batch of strings.

    Returns ``(mapped, starts, lens, row_idx)`` where ``mapped`` is the
    lowercased byte buffer (separators zeroed), and each kept token ``i``
    is ``mapped[starts[i]:starts[i]+lens[i]]`` belonging to input row
    ``row_idx[i]``.
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    data, offsets = _string_buffers(texts)
    n_bytes = len(data)
    mapped = _LUT[data]
    if len(offsets):
        # sliced arrays: ignore buffer bytes outside the slice window
        mapped[: offsets[0]] = 0
        mapped[offsets[-1] :] = 0
    alnum = mapped != 0

    # Runs must break at document boundaries: clear the "previous byte was
    # alnum" flag at each row start, and the "next byte is alnum" flag at
    # each row end.
    prev_alnum = np.empty(n_bytes, dtype=bool)
    if n_bytes:
        prev_alnum[0] = False
        prev_alnum[1:] = alnum[:-1]
    row_starts = offsets[:-1]
    row_starts_in = row_starts[row_starts < n_bytes]
    prev_alnum[row_starts_in] = False

    next_alnum = np.empty(n_bytes, dtype=bool)
    if n_bytes:
        next_alnum[-1] = False
        next_alnum[:-1] = alnum[1:]
    row_ends = offsets[1:]
    row_end_last = row_ends[(row_ends > 0) & (row_ends <= n_bytes)] - 1
    next_alnum[row_end_last] = False

    starts = np.flatnonzero(alnum & ~prev_alnum)
    ends = np.flatnonzero(alnum & ~next_alnum) + 1
    lens = ends - starts
    row_idx = np.searchsorted(offsets, starts, side="right") - 1

    keep = lens <= max_len
    if drop_trailing:
        # quirk Q1: a run that reaches the end of its document is dropped
        keep &= ends != offsets[row_idx + 1]
    return mapped, starts[keep], lens[keep], row_idx[keep]


def token_spans_with_positions(
    texts: pa.Array | pa.ChunkedArray,
    *,
    drop_trailing: bool = True,
    max_len: int = MAX_TOKEN_LEN,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``token_spans`` plus a 1-based position per kept token.

    Positions are ordinals over ALL alnum runs in the row (a run dropped
    by the Q2 length cap still occupies its position, so a phrase query
    never falsely matches across a dropped token); Q1's trailing run is
    the row's LAST run, so dropping it leaves earlier ordinals intact —
    exactly the semantics of the SQL oracle's ``unnest(range(...))``
    over the regex token list with the length filter applied after.
    """
    # re-run the span scan unfiltered (max_len off, trailing kept) to get
    # all-run ordinals, then apply the same keep mask token_spans uses
    mapped, starts, lens, row_idx = token_spans(
        texts, drop_trailing=False, max_len=np.iinfo(np.int64).max
    )
    n = len(starts)
    pos = np.ones(n, dtype=np.int64)
    if n:
        # row_idx is non-decreasing (starts ascend within the batch buffer)
        firsts = np.zeros(n, dtype=np.int64)
        boundaries = np.flatnonzero(row_idx[1:] != row_idx[:-1]) + 1
        firsts[boundaries] = boundaries
        np.maximum.accumulate(firsts, out=firsts)
        pos = np.arange(n, dtype=np.int64) - firsts + 1
    keep = lens <= max_len
    if drop_trailing:
        if isinstance(texts, pa.ChunkedArray):  # combine once, as token_spans does
            texts = texts.combine_chunks()
        _, offsets = _string_buffers(texts)
        keep &= (starts + lens) != offsets[row_idx + 1]
    return mapped, starts[keep], lens[keep], row_idx[keep], pos[keep]


def _pack_tokens(mapped: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Gather each token into a fixed 16-byte row (zero padded) -> (n, 16) uint8.

    Column-wise gather (16 small 1-D takes) instead of one (n, 16) int64
    index matrix: ~4x less temporary memory, which matters on lazily
    faulted VM memory where big fresh allocations are expensive.
    """
    n = len(starts)
    out = np.zeros((n, 16), dtype=np.uint8)
    if n == 0:
        return out
    limit = len(mapped)
    for j in range(16):
        col_idx = starts + j
        if j > 0:
            np.minimum(col_idx, limit - 1, out=col_idx)
        col = mapped[col_idx]
        if j > 0:
            col[lens <= j] = 0  # zero padding past each token's end
        out[:, j] = col
    return out


def _packed_to_string_array(packed_unique: np.ndarray, lens: np.ndarray) -> pa.Array:
    """Build a pa.string() array from unique packed token rows without a Python loop."""
    if len(packed_unique) == 0:
        return pa.array([], type=pa.string())
    values = packed_unique[packed_unique != 0]  # row-major selection == concatenated tokens
    offsets = np.zeros(len(lens) + 1, dtype=np.int32)
    np.cumsum(lens, out=offsets[1:])
    return pa.StringArray.from_buffers(
        len(lens),
        pa.py_buffer(offsets.tobytes()),
        pa.py_buffer(values.tobytes()),
    )


_FNV2_OFFSET = np.uint64(0x6C62272E07BB0142)
_FNV2_PRIME = np.uint64(0x9E3779B97F4A7C15)  # odd 64-bit multiplier, independent of FNV


def _span_hashes(
    mapped: np.ndarray, starts: np.ndarray, lens: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dual 64-bit hashes per token span, straight from the byte buffer —
    no (n, 16) materialization (lazily-faulted VM memory makes big fresh
    temporaries expensive; see BASELINE.md)."""
    n = len(starts)
    limit = max(len(mapped) - 1, 0)
    with np.errstate(over="ignore"):
        h1 = np.full(n, np.uint64(1469598103934665603), dtype=np.uint64)
        h2 = np.full(n, _FNV2_OFFSET, dtype=np.uint64)
        max_len = int(lens.max()) if n else 0
        if max_len > 16:
            # the pad fold below computes np.uint64(16 - max_len); past 16
            # bytes that underflows to ~2^64 and the loop never returns
            raise ValueError(
                f"_span_hashes: span length {max_len} > 16; cap spans "
                "(np.minimum(lens, 16)) before hashing"
            )
        for j in range(max_len):
            col_idx = np.minimum(starts + j, limit)
            col = mapped[col_idx].astype(np.uint64)
            col[lens <= j] = 0  # zero padding, as in the packed form
            h1 = (h1 ^ col) * np.uint64(1099511628211)
            h2 = (h2 ^ col) * _FNV2_PRIME
        pad = np.uint64(16 - max_len)
        if pad:
            # remaining zero-padding columns fold in a data-independent way;
            # apply the closed form so hashes equal the 16-column version
            for _ in range(int(pad)):
                h1 = h1 * np.uint64(1099511628211)
                h2 = h2 * _FNV2_PRIME
    return h1, h2


def _unique_tokens(
    mapped: np.ndarray, starts: np.ndarray, lens: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(unique packed rows, inverse index per token) — exact.

    Fast path sorts a 64-bit token hash (≈3x cheaper than sorting the
    16-byte keys); a second independent hash detects collisions inside
    equal-hash runs, falling back to the exact byte-key sort if any is
    found (probability ~2^-128 per pair — never in practice, but the
    fallback keeps correctness unconditional).  Only the unique
    representatives are ever packed into 16-byte rows.
    """
    n = len(starts)
    h1, h2 = _span_hashes(mapped, starts, lens)
    order = np.argsort(h1, kind="stable")
    hs1 = h1[order]
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.not_equal(hs1[1:], hs1[:-1], out=new_run[1:])
    same = ~new_run[1:]
    if same.any():
        hs2 = h2[order]
        collision = same & (hs2[1:] != hs2[:-1])
        if collision.any():  # pragma: no cover - astronomically unlikely
            packed = _pack_tokens(mapped, starts, lens)
            keys = packed.view(np.dtype((np.void, 16))).ravel()
            uniq_keys, inverse = np.unique(keys, return_inverse=True)
            return uniq_keys.view(np.uint8).reshape(-1, 16), inverse
    group_sorted = np.cumsum(new_run) - 1
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = group_sorted
    rep_idx = order[np.flatnonzero(new_run)]
    reps = _pack_tokens(mapped, starts[rep_idx], lens[rep_idx])
    return reps, inverse


def tokenize_to_postings(
    texts: pa.Array | pa.ChunkedArray,
    doc_ids: np.ndarray,
    *,
    drop_trailing: bool = True,
) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """Tokenize a batch -> per-(doc, term) postings.

    Returns ``(terms, posting_doc_ids, tfs)`` where ``terms`` is a
    ``pa.string()`` array aligned with the other two.  Postings are
    emitted doc-major (ascending input ROW order — ascending doc_id only
    when the batch's doc_ids are; the index build sorts per term later).
    """
    mapped, starts, lens, row_idx = token_spans(texts, drop_trailing=drop_trailing)
    if len(starts) == 0:
        return (
            pa.array([], type=pa.string()),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int32),
        )
    uniq_mat, inverse = _unique_tokens(mapped, starts, lens)
    uniq_lens = (uniq_mat != 0).sum(axis=1).astype(np.int64)
    term_strings = _packed_to_string_array(uniq_mat, uniq_lens)

    # (row, term_id) -> tf via unique on a packed int64 key
    pair = (row_idx.astype(np.int64) << np.int64(32)) | inverse.astype(np.int64)
    uniq_pair, tf = np.unique(pair, return_counts=True)
    p_row = (uniq_pair >> np.int64(32)).astype(np.int64)
    p_term = (uniq_pair & np.int64(0xFFFFFFFF)).astype(np.int64)

    # doc-major ordering (np.unique sorted by (row, term_id) already)
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    import pyarrow.compute as pc

    terms = pc.take(term_strings, pa.array(p_term, type=pa.int64()))
    return terms, doc_ids[p_row], tf.astype(np.int32)


def tokenize_with_positions(
    texts: pa.Array | pa.ChunkedArray,
    doc_ids: np.ndarray,
    *,
    drop_trailing: bool = True,
) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """Token-level tokenization -> ``(terms, doc_ids, positions)``.

    One row per kept token occurrence (not aggregated to tf), with the
    1-based all-runs position from :func:`token_spans_with_positions`.
    Term strings are built once per distinct token (dual-hash uniquing)
    and gathered, so the cost matches ``tokenize_to_postings``.
    """
    mapped, starts, lens, row_idx, pos = token_spans_with_positions(
        texts, drop_trailing=drop_trailing
    )
    if len(starts) == 0:
        return (
            pa.array([], type=pa.string()),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    uniq_mat, inverse = _unique_tokens(mapped, starts, lens)
    uniq_lens = (uniq_mat != 0).sum(axis=1).astype(np.int64)
    term_strings = _packed_to_string_array(uniq_mat, uniq_lens)
    import pyarrow.compute as pc

    terms = pc.take(term_strings, pa.array(inverse, type=pa.int64()))
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    return terms, doc_ids[row_idx], pos


def token_counts(
    texts: pa.Array | pa.ChunkedArray, *, drop_trailing: bool = True
) -> np.ndarray:
    """Per-row kept-token counts (vectorized)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n_rows = len(texts)
    _, _, _, row_idx = token_spans(texts, drop_trailing=drop_trailing)
    return np.bincount(row_idx, minlength=n_rows).astype(np.int64)

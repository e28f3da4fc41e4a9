"""Index reader: lexicon + doc table + block-skipping posting cursors.

Query-side equivalent of the reference's ``init_query_database`` +
``openList``/``nextGEQ``/``getFreq`` (/root/reference/src/query.c:62-71,
src/inverted_list.c:15-90).  The lexicon and doc stats load once per
reader (i.e. once per query actor); posting blobs are memory-mapped so
block decodes read straight from the page cache.  Opening a cursor reads
only its list's three header varints (``compress.open_list``); the skip
table is decoded on the cursor's first seek, so a cursor that only
bulk-decodes (OR, MSM, CNF, ANDNOT, preloaded lists) never parses it.

A cursor is read in one of two ways: ``decode_all_remaining()`` decodes
the rest of the list in one vectorized pass (every set-at-a-time kernel,
and the catalog's posting probes, which ``searchsorted`` the result),
and ``next_geq(k)`` is the reference's DESTRUCTIVE cursor (quirk Q-C),
which consumes every posting it passes, including the one it returns;
only the conformance AND walks it.
"""

from __future__ import annotations

import glob
import os
from bisect import bisect_left

import numpy as np
import pyarrow.parquet as pq

from ..stages import compress
from .manifest import IndexManifest
from .reader_docs import DocTable


class PostingCursor:
    """Forward iterator over one term's compressed posting list."""

    __slots__ = (
        "meta", "max_doc_id", "df", "_blk", "_i",
        "_docs", "_tfs", "curr_freq", "term", "_preloaded",
    )

    def __init__(self, buf: np.ndarray, *, max_doc_id: int, term: str = ""):
        self.meta = compress.open_list(buf)
        self.max_doc_id = max_doc_id
        self.df = self.meta.df
        self.term = term
        self._blk = -1          # index of the decoded block (-1: none yet)
        self._i = 0             # position within the decoded block
        self._docs = None
        self._tfs = None
        self.curr_freq = 0
        self._preloaded = False

    # -- internals ---------------------------------------------------------
    def preload(self) -> None:
        """Bulk-decode the whole list once into plain Python lists;
        iteration semantics unchanged.

        Worth it when a caller will walk posting by posting through most
        blocks anyway (dense DAAT against a hot list): one vectorized pass
        replaces thousands of per-block decodes, and each later step is a
        ``bisect`` plus a list index instead of a numpy call.  Only valid
        before any iteration has started.
        """
        if self._preloaded or self._blk >= 0:
            return
        docs, tfs = compress.decode_all_blocks(self.meta, 0)
        self._docs, self._tfs = docs.tolist(), tfs.tolist()
        self._blk = 0
        self._i = 0
        self._preloaded = True

    def _load_block(self, b: int) -> None:
        prev = int(self.meta.last_docs[b - 1]) if b > 0 else 0
        self._docs, self._tfs = self.meta.decode_block(b, prev)
        self._blk = b
        self._i = 0

    def _position_geq(self, k: int) -> bool:
        """Move the (block, i) position to the first remaining posting with
        doc >= k.  Returns False when exhausted."""
        if self._preloaded:
            j = bisect_left(self._docs, k, self._i)
            if j < len(self._docs):
                self._i = j
                return True
            return False
        if self._blk >= 0 and self._i < len(self._docs) and self.meta.last_docs[self._blk] >= k:
            j = self._i + int(np.searchsorted(self._docs[self._i:], k))
            if j < len(self._docs):
                self._i = j
                return True
            nxt = self._blk + 1
        else:
            nxt = self._blk + 1 if self._blk >= 0 else 0
        # skip whole blocks whose last doc < k
        rel = int(np.searchsorted(self.meta.last_docs[nxt:], k))
        b = nxt + rel
        if b >= self.meta.n_blocks:
            return False
        self._load_block(b)
        self._i = int(np.searchsorted(self._docs, k))
        # last_docs[b] >= k guarantees a hit within the block
        return True

    # -- reference-conformance (destructive) API ---------------------------
    def next_geq(self, k: int) -> int:
        """Quirk Q-C: returns first remaining doc >= k and consumes it.
        Returns ``max_doc_id`` when exhausted (intended D2-free bound)."""
        if not self._position_geq(k):
            return self.max_doc_id
        doc = int(self._docs[self._i])
        self.curr_freq = int(self._tfs[self._i])
        self._i += 1
        return doc

    def decode_all_remaining(self) -> tuple[np.ndarray, np.ndarray]:
        """Bulk-decode from the current position to the end (vectorized OR path)."""
        if self._preloaded:
            return (np.asarray(self._docs[self._i:], dtype=np.int64),
                    np.asarray(self._tfs[self._i:], dtype=np.int64))
        parts_d, parts_t = [], []
        if self._blk >= 0 and self._i < len(self._docs):
            parts_d.append(self._docs[self._i:])
            parts_t.append(self._tfs[self._i:])
            start = self._blk + 1
        else:
            start = max(self._blk + 1, 0)
        d, t = compress.decode_all_blocks(self.meta, start)
        parts_d.append(d)
        parts_t.append(t)
        return np.concatenate(parts_d), np.concatenate(parts_t)


class SegmentedCursor:
    """Stitches a heavy-hitter term's doc-range segments into one logical
    posting list.  Segments are disjoint ascending doc ranges, each an
    independently-decodable list (own delta base), so stitching is pure
    iteration order — no delta rebasing at read time.  Exposes the same
    interface as :class:`PostingCursor`; ``df`` is the term-total df (the
    value BM25's ft needs), not any segment's length.
    """

    __slots__ = ("reader", "term", "df", "max_doc_id",
                 "entries", "_si", "_cur", "curr_freq")

    def __init__(self, reader: "IndexReader", term: str, df: int, entries):
        self.reader = reader
        self.term = term
        self.df = df
        self.entries = entries  # sorted by seg number == ascending doc range
        self.max_doc_id = reader.max_doc_id
        self._si = 0
        self._cur = reader._open_segment(term, entries[0])
        self.curr_freq = 0

    def _next_segment(self) -> bool:
        if self._si + 1 >= len(self.entries):
            return False
        self._si += 1
        self._cur = self.reader._open_segment(self.term, self.entries[self._si])
        return True

    def next_geq(self, k: int) -> int:
        while True:
            d = self._cur.next_geq(k)
            if d < self.max_doc_id:
                self.curr_freq = self._cur.curr_freq
                return d
            if not self._next_segment():
                return self.max_doc_id

    def decode_all_remaining(self) -> tuple[np.ndarray, np.ndarray]:
        d0, t0 = self._cur.decode_all_remaining()
        parts_d, parts_t = [d0], [t0]
        for e in self.entries[self._si + 1 :]:
            c = self.reader._open_segment(self.term, e)
            d, t = c.decode_all_remaining()
            parts_d.append(d)
            parts_t.append(t)
        return np.concatenate(parts_d), np.concatenate(parts_t)


class IndexReader:
    """Loads lexicon + doc table + manifest; opens posting cursors.

    The full lexicon lives in one dict per reader — the same design as
    the reference (414 MB for MS MARCO in one process).  At 10^12-doc
    scale a reader would instead hold only its assigned term shard
    (lexicon files are hash-partitioned by the same fnv(term) % P as the
    blobs, so routing is implicit); the sandbox corpus fits comfortably.
    """

    def __init__(self, index_dir: str, *, truncate_lexicon_14: bool = False):
        self.index_dir = index_dir
        self.truncate_lexicon_14 = truncate_lexicon_14
        self.manifest = IndexManifest.load(index_dir)
        self.n_docs = self.manifest.n_docs
        self.d_avr = self.manifest.d_avr
        self.max_doc_id = self.manifest.max_doc_id

        # term -> (total_df, [(seg, pid, offset, nbytes), ...])
        self.lexicon: dict[str, tuple[int, list[tuple[int, int, int, int]]]] = {}
        for path in sorted(glob.glob(os.path.join(index_dir, "lexicon", "part-*.parquet"))):
            t = pq.read_table(path)
            terms = t["term"].to_pylist()
            dfs = t["df"].to_numpy()
            segs = t["seg"].to_numpy()
            pids = t["partition"].to_numpy()
            offs = t["offset"].to_numpy()
            nbs = t["nbytes"].to_numpy()
            for i, term in enumerate(terms):
                ent = (int(segs[i]), int(pids[i]), int(offs[i]), int(nbs[i]))
                cur = self.lexicon.get(term)
                if cur is None:
                    self.lexicon[term] = (int(dfs[i]), [ent])
                else:
                    cur[1].append(ent)

        if truncate_lexicon_14:
            # Quirk Q8 conformance (opt-in): the reference loads lexicon keys
            # into a 15-byte field and zeroes byte 14 (src/lexicon.c:56), so
            # 15-char terms collapse onto their 14-char prefix; hashmap_set
            # overwrites, and the file is globally term-sorted, so the
            # lexicographically GREATEST colliding term wins.  Query lookups
            # truncate the same way (src/query.c:251, see open_list).
            trunc: dict[str, tuple[int, list]] = {}
            for term in sorted(self.lexicon):
                trunc[term[:14]] = self.lexicon[term]
            self.lexicon = trunc

        self.docs = DocTable.load(os.path.join(index_dir, "docs"), self.max_doc_id)
        self._mmaps: dict[int, np.ndarray] = {}

        # query-time tombstones (merge.mark_deleted): sorted doc_ids that
        # every query mode excludes from results WITHOUT re-encoding the
        # index.  Global stats (N, d_avr, df) intentionally still count
        # tombstoned docs until a delete_docs() compaction — the Lucene
        # live-docs contract.
        tomb_path = os.path.join(index_dir, "tombstones.bin")
        self.tombstones = (
            np.fromfile(tomb_path, dtype=np.int64)
            if os.path.exists(tomb_path)
            else np.empty(0, np.int64)
        )

    def _blob(self, pid: int) -> np.ndarray:
        mm = self._mmaps.get(pid)
        if mm is None:
            path = os.path.join(self.index_dir, "postings", f"part-{pid:05d}.bin")
            # a plain ndarray view of the map: slicing it per list open is
            # ~10x cheaper than slicing the np.memmap subclass
            mm = np.asarray(np.memmap(path, dtype=np.uint8, mode="r"))
            self._mmaps[pid] = mm
        return mm

    def df(self, term: str) -> int:
        """The term's corpus-total df from the lexicon (0 when absent):
        ``open_list(term).df`` without opening a cursor."""
        ent = self.lexicon.get(term[:14] if self.truncate_lexicon_14 else term)
        return 0 if ent is None else ent[0]

    def open_list(self, term: str):
        if self.truncate_lexicon_14:
            term = term[:14]  # Q8: query-side key truncation (src/query.c:251)
        ent = self.lexicon.get(term)
        if ent is None:
            return None
        df, segments = ent
        if len(segments) == 1:
            return self._open_segment(term, segments[0])
        return SegmentedCursor(self, term, df, sorted(segments))

    def _open_segment(self, term: str, seg: tuple[int, int, int, int]) -> PostingCursor:
        _segno, pid, off, nbytes = seg
        return PostingCursor(
            self._blob(pid)[off : off + nbytes], max_doc_id=self.max_doc_id, term=term
        )

    def doc_len(self, doc_id: int) -> int:
        return int(self.docs.dl[doc_id])

    def url(self, doc_id: int) -> str:
        return self.docs.url(doc_id)

"""BM25 top-k query engine over the partitioned index.

Replicates the reference's query path (/root/reference/src/query.c:232-300):
lexicon lookup -> open posting cursors -> DAAT evaluation -> strict-``>``
min-heap top-k (quirk Q-T) -> (rank, doc_id, url, score).

Modes:

* ``conjunctive`` conformance mode replicates the reference loop
  bit-exactly, including the destructive-cursor miss quirk Q-C and the
  stale inner variable (src/query.c:153-174).  The walk only records
  each match's doc and per-list tf (the lead list and the lists it
  would touch most blocks of are preloaded as plain Python lists); the
  matches are then scored in one vectorized pass and ranked by the same
  reference-heap replay as every other mode (:func:`_heap_topk`).
* ``conjunctive`` correct mode is a textbook non-consuming leapfrog
  intersection.
* ``disjunctive`` implements the *intended* union semantics (the
  reference's multi-term OR ranks on uninitialized memory, defect D6 —
  excluded from conformance per SURVEY.md §8).
* ``wand`` is block-max WAND: rank-identical to exhaustive disjunctive
  (asserted in tests), it just skips scoring work.  Negative-IDF terms
  are handled by clamping upper bounds at zero.

Batch evaluation over a query table runs as an actor pool:
``queries_ds.map_batches(BatchQueryEngine, concurrency=N)`` — the index
reader (lexicon + doc table) loads once per actor in ``__init__``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..oracle import _RefHeap, _out_rank_heap, _to_rank_heap, tokenize as oracle_tokenize
from ..stages.compress import bm25_components
from ..state.reader import IndexReader, PostingCursor

CONJUNCTIVE = 0
DISJUNCTIVE = 1
ANDNOT = 2  # extension: all positive terms AND none of the negative terms
CNF = 3     # extension: conjunction of disjunction groups "(a b); (c d)"
MSM = 4     # extension: minimum-should-match (>= m of n terms; m via msm col)


def check_k(k: int) -> None:
    """One rule for every tier: k = 0 ranks nothing, k < 0 is an error."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k!r}")


def _total_topk(docs, scores, k: int) -> list[tuple[int, float]]:
    """EXACT top-k under the total order (score desc, doc_id asc).

    Unlike the reference heap — whose surviving member among EQUAL scores
    depends on the heap array layout, i.e. the full insertion history —
    this selection is a pure function of the candidate (doc, score) SET,
    so it decomposes over document shards (pipelines/shards.py)."""
    check_k(k)
    docs = np.asarray(docs, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((docs, -scores))[:k]
    return [(int(docs[i]), float(scores[i])) for i in order]


def _heap_topk(docs: np.ndarray, scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Exact replay of the reference rank heap over (doc-ascending) scored
    candidates, replaying only the candidates that can enter.

    The heap root is the k-th largest score seen so far, so it never
    falls: a candidate scoring ``<=`` the root at the start of its chunk
    can never enter and is skipped in bulk; the rest replay through
    ``_to_rank_heap`` unchanged, ties included.  Chunks double in length
    (the root is re-read after k, 2k, 4k, ... candidates), so the replay
    costs about k entrants per chunk over log2(n/k) chunks instead of one
    Python call per candidate.
    """
    check_k(k)
    if k == 0:
        return []
    hp = _RefHeap()
    n = len(docs)
    pos = min(k, n)
    for i in range(pos):
        _to_rank_heap(hp, int(docs[i]), float(scores[i]), k)
    while pos < n:
        end = min(2 * pos, n)
        root = hp.elem[0][0]  # the heap is full: pos >= k
        for i in (np.flatnonzero(scores[pos:end] > root) + pos):
            _to_rank_heap(hp, int(docs[i]), float(scores[i]), k)
        pos = end
    return _out_rank_heap(hp)


class QueryEngine:
    def __init__(
        self,
        index_dir: str,
        *,
        conformance: bool = True,
        truncate_lexicon_14: bool = False,
        total_order_topk: bool = False,
    ):
        self.reader = IndexReader(
            index_dir, truncate_lexicon_14=truncate_lexicon_14
        )
        self.conformance = conformance
        # sharded serving selects under the deterministic total order
        # (score desc, doc asc) instead of the reference heap, whose
        # equal-score survivors are insertion-history-dependent and
        # therefore not distributable (see _total_topk)
        self.total_order_topk = total_order_topk
        # sharded serving (pipelines/shards.py) injects corpus-GLOBAL term
        # dfs here (with reader.n_docs/d_avr overridden alongside) so a
        # shard's scores are bit-identical to the monolithic computation
        self.df_override: dict[str, int] = {}
        # query-time tombstones (merge.mark_deleted): excluded from every
        # mode's candidates; global stats (N, d_avr, df) still count them
        # until a delete_docs compaction — the Lucene live-docs contract
        t = self.reader.tombstones
        self._tomb_set: frozenset = frozenset(t.tolist()) if len(t) else frozenset()

    def _drop_tombstoned(self, docs, scores):
        """Vectorized live-docs filter over candidate (docs, scores)."""
        t = self.reader.tombstones
        docs = np.asarray(docs, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        if not len(t) or not len(docs):
            return docs, scores
        pos = np.searchsorted(t, docs)
        dead = (pos < len(t)) & (t[np.minimum(pos, len(t) - 1)] == docs)
        return docs[~dead], scores[~dead]

    # ------------------------------------------------------------------
    def _bm25(self, tf: int, df: int, doc_id: int) -> float:
        r = self.reader
        idf = np.log2((r.n_docs - df + 0.5) / (df + 0.5))
        dl = r.doc_len(doc_id)
        return float(idf * (1.2 + 1) * tf / (1.2 * ((1 - 0.75) + 0.75 * dl / r.d_avr) + tf))

    def _topk(self, docs, scores, k: int) -> list[tuple[int, float]]:
        docs, scores = self._drop_tombstoned(docs, scores)
        if self.total_order_topk:
            return _total_topk(docs, scores, k)
        return _heap_topk(docs, scores, k)

    def _open_lists(self, terms: list[str]) -> list[PostingCursor]:
        # lexicon lookup; unknown terms silently dropped (src/query.c:248-260);
        # stable sort by df ascending (lvComparator, src/query.c:120,264)
        lists = [c for t in terms if (c := self.reader.open_list(t)) is not None]
        if self.df_override:
            for c in lists:  # global dfs BEFORE the sort — order must match
                df_local = c.df
                c.df = self.df_override.get(c.term, c.df)
                self._set_bound_scale(c, df_local, c.df)
        lists.sort(key=lambda c: c.df)
        for i, c in enumerate(lists):
            c.order = i
        return lists

    def _set_bound_scale(self, c: PostingCursor, df_local: int, df_global: int) -> None:
        """Make the baked (shard-local) block/term score bounds valid under
        the injected GLOBAL stats triple, without storing anything new.

        A baked bound is ``idf_l * max_p g_l(p)`` with ``g(tf, dl) =
        (k1+1)tf / (k1((1-b) + b*dl/d_avr) + tf)``.  Per posting, the
        mediant inequality gives ``g_g(p) <= max(1, d_avr_g/d_avr_l) *
        g_l(p)``, so for positive local idf the global bound is the baked
        bound scaled by ``(idf_g/idf_l) * max(1, d_avr_g/d_avr_l)``.
        Negative global idf caps the contribution at 0; the rare
        ``idf_l <= 0 < idf_g`` term (baked bound useless) falls back to
        the universal ``idf_g * (k1+1)`` cap (``g < k1+1`` always)."""
        man = self.reader.manifest
        n_l, davr_l = man.n_docs, man.d_avr
        r = self.reader
        idf_l = float(np.log2((n_l - df_local + 0.5) / (df_local + 0.5)))
        idf_g = float(np.log2((r.n_docs - df_global + 0.5) / (df_global + 0.5)))
        if idf_g <= 0.0:
            c.bound_cap = 0.0
        elif idf_l > 0.0 and davr_l > 0.0:
            c.bound_scale = (idf_g / idf_l) * max(1.0, float(r.d_avr) / davr_l)
        else:
            c.bound_cap = idf_g * (1.2 + 1)

    def _ub_term(self, c: PostingCursor) -> float:
        if c.bound_cap is not None:
            return c.bound_cap
        return max(float(c.max_score), 0.0) * c.bound_scale

    def _ub_block(self, c: PostingCursor, doc: int) -> float:
        if c.bound_cap is not None:
            return c.bound_cap
        return max(float(c.block_max_geq(doc)), 0.0) * c.bound_scale

    def parse_query(self, query: str) -> list[str]:
        # query tokenizer = same alnum scanner; trailing token NOT dropped at
        # query time (the REPL line ends with a separator in the reference)
        return oracle_tokenize(query + " ", drop_trailing=True)

    # ------------------------------------------------------------------
    def conjunctive(self, terms: list[str], k: int) -> list[tuple[int, float]]:
        lists = self._open_lists(terms)
        if not lists:
            return []
        if len(lists) == 1:
            # single-list AND scores every posting in doc order — in both
            # conformance and correct semantics — so take the vectorized path
            return self._score_single_list(lists[0], k)
        return (
            self._conjunctive_conformance(lists, k)
            if self.conformance
            else self._conjunctive_correct(lists, k)
        )

    def _score_single_list(self, c: PostingCursor, k: int) -> list[tuple[int, float]]:
        r = self.reader
        docs, tfs = c.decode_all_remaining()
        dls = r.docs.dl[docs].astype(np.float64)
        scores = bm25_components(tfs, dls, c.df, r.n_docs, r.d_avr)
        return self._topk(docs, scores, k)

    def _conjunctive_conformance(self, lists: list[PostingCursor], k: int):
        r = self.reader
        max_doc = r.max_doc_id
        # the lead list is walked whole, and drives ~df[0] probes into every
        # other list; when that touches most of a hot list's blocks, one bulk
        # decode is cheaper than thousands of per-block decodes (semantics
        # identical)
        for c in lists:
            meta = getattr(c, "meta", None)
            if meta is not None and (c is lists[0] or lists[0].df >= meta.n_blocks):
                c.preload()
        match_docs: list[int] = []
        match_tfs: list[list[int]] = [[] for _ in lists]
        did = 0
        d = 0  # deliberately persists across iterations (reference stale local)
        while did < max_doc:
            did = lists[0].next_geq(did)
            if did >= max_doc:
                break
            matched = True
            for c in lists[1:]:
                d = c.next_geq(did)
                if d != did:
                    matched = False
                    break
            if not matched and d > did:
                did = d
            else:
                match_docs.append(did)
                for tfs, c in zip(match_tfs, lists):
                    tfs.append(c.curr_freq)
                did += 1
        # score once, summing per-list terms left to right in df-ascending
        # list order from 0.0: the same floats as _bm25 summed per match
        docs = np.asarray(match_docs, dtype=np.int64)
        dls = r.docs.dl[docs].astype(np.float64)
        scores = np.zeros(len(docs))
        for tfs, c in zip(match_tfs, lists):
            scores = scores + bm25_components(
                np.asarray(tfs, dtype=np.int64), dls, c.df, r.n_docs, r.d_avr
            )
        return self._topk(docs, scores, k)

    def _conjunctive_correct(self, lists: list[PostingCursor], k: int):
        # dense regime (all lists comparably sized): decode + vectorized
        # membership beats posting-at-a-time leapfrog; sparse regime (one
        # short list): leapfrog skips most of the long lists.
        if lists[-1].df <= 16 * lists[0].df:
            return self._conjunctive_correct_vectorized(lists, k)
        return self._conjunctive_correct_leapfrog(lists, k)

    def _conjunctive_correct_vectorized(self, lists: list[PostingCursor], k: int):
        r = self.reader
        base_docs, base_tfs = lists[0].decode_all_remaining()
        dls = r.docs.dl[base_docs].astype(np.float64)
        total = bm25_components(base_tfs, dls, lists[0].df, r.n_docs, r.d_avr)
        mask = np.ones(len(base_docs), dtype=bool)
        for c in lists[1:]:
            docs_i, tfs_i = c.decode_all_remaining()
            pos = np.searchsorted(docs_i, base_docs)
            ok = (pos < len(docs_i)) & (docs_i[np.minimum(pos, len(docs_i) - 1)] == base_docs)
            mask &= ok
            sel = np.minimum(pos, len(docs_i) - 1)
            contrib = bm25_components(
                tfs_i[sel], r.docs.dl[base_docs].astype(np.float64), c.df, r.n_docs, r.d_avr
            )
            total = total + np.where(ok, contrib, 0.0)
        return self._topk(base_docs[mask], total[mask], k)

    def _conjunctive_correct_leapfrog(self, lists: list[PostingCursor], k: int):
        max_doc = self.reader.max_doc_id
        hp = _RefHeap()
        cd: list[int] = []
        cs: list[float] = []
        candidate = 0
        while True:
            candidate = lists[0].seek_geq(candidate)
            if candidate >= max_doc:
                break
            matched = True
            for c in lists[1:]:
                d = c.seek_geq(candidate)
                if d > candidate:
                    candidate = d
                    matched = False
                    break
            if matched:
                if candidate not in self._tomb_set:  # live-docs filter
                    score = sum(self._bm25(c.curr_freq, c.df, candidate) for c in lists)
                    if self.total_order_topk:
                        cd.append(candidate)
                        cs.append(score)
                    else:
                        _to_rank_heap(hp, candidate, score, k)
                candidate += 1
        if self.total_order_topk:
            return _total_topk(cd, cs, k)
        return _out_rank_heap(hp)

    # ------------------------------------------------------------------
    def and_not(
        self, pos_terms: list[str], neg_terms: list[str], k: int
    ) -> list[tuple[int, float]]:
        """Boolean AND-NOT (an extension — the reference supports only
        and/or, src/query.c:232-300): docs matching ALL positive terms
        and NONE of the negative terms, BM25-scored on the positive
        terms only.  Scores are bit-identical to the correct-mode
        conjunction of ``pos_terms`` (same df-ascending accumulation
        order); the exclusion is a vectorized sorted-membership probe
        per negative list, the classic DAAT NOT.  Unknown negative
        terms exclude nothing; unknown positive terms are dropped like
        every other mode."""
        lists = self._open_lists(pos_terms)
        if not lists:
            return []
        r = self.reader
        base_docs, base_tfs = lists[0].decode_all_remaining()
        dls = r.docs.dl[base_docs].astype(np.float64)
        total = bm25_components(base_tfs, dls, lists[0].df, r.n_docs, r.d_avr)
        mask = np.ones(len(base_docs), dtype=bool)
        for c in lists[1:]:
            docs_i, tfs_i = c.decode_all_remaining()
            pos = np.searchsorted(docs_i, base_docs)
            sel = np.minimum(pos, max(len(docs_i) - 1, 0))
            ok = (pos < len(docs_i)) & (docs_i[sel] == base_docs)
            mask &= ok
            contrib = bm25_components(
                tfs_i[sel], dls, c.df, r.n_docs, r.d_avr
            )
            total = total + np.where(ok, contrib, 0.0)
        for c in self._open_lists(neg_terms):
            docs_i, _ = c.decode_all_remaining()
            if not len(docs_i):
                continue
            pos = np.searchsorted(docs_i, base_docs)
            sel = np.minimum(pos, len(docs_i) - 1)
            mask &= ~((pos < len(docs_i)) & (docs_i[sel] == base_docs))
        return self._topk(base_docs[mask], total[mask], k)

    # ------------------------------------------------------------------
    def disjunctive(self, terms: list[str], k: int) -> list[tuple[int, float]]:
        """Exhaustive union: bulk-decode each list (vectorized scoring),
        accumulate per-doc sums, rank via the reference heap in ascending
        doc order (intended semantics)."""
        lists = self._open_lists(terms)
        if not lists:
            return []
        r = self.reader
        docs_all, score_all = [], []
        for c in lists:
            docs, tfs = c.decode_all_remaining()
            dls = r.docs.dl[docs]
            score_all.append(bm25_components(tfs, dls.astype(np.float64), c.df, r.n_docs, r.d_avr))
            docs_all.append(docs)
        docs_cat = np.concatenate(docs_all)
        scores_cat = np.concatenate(score_all)
        max_doc = self.reader.max_doc_id
        if max_doc <= 16 * len(docs_cat) + (1 << 20):
            # dense doc-id space: O(n + N) bincount beats the O(n log n) sort
            # (bincount accumulates in input order -> identical float sums)
            sums_dense = np.bincount(docs_cat, weights=scores_cat, minlength=max_doc)
            present = np.bincount(docs_cat, minlength=max_doc) > 0
            uniq = np.flatnonzero(present)
            sums = sums_dense[uniq]
        else:
            uniq, inv = np.unique(docs_cat, return_inverse=True)
            sums = np.bincount(inv, weights=scores_cat)
        return self._topk(uniq, sums, k)

    def cnf(self, groups: list[list[str]], k: int) -> list[tuple[int, float]]:
        """Boolean CNF ranking — conjunction of disjunction groups, e.g.
        ``(data OR join) AND (merge OR spark)``.  Generalizes both engine
        modes: singleton groups == conjunctive, one group == disjunctive.

        Semantics (the Lucene BooleanQuery SHOULD-inside-MUST shape): a
        doc qualifies iff every group has >= 1 matching term; its score is
        the sum of BM25 contributions of ALL its matching terms across all
        groups (a term listed in several groups is deduped and scores
        once).  Terms missing from the lexicon drop silently (the
        reference's unknown-term rule); a group whose every term is
        missing can never be satisfied -> empty result.

        Fully vectorized: one bulk decode per distinct term (the
        disjunctive path's machinery), per-(doc, group) coverage via a
        sorted unique over composed int64 keys, never a per-row loop.
        Ranking goes through the engine's selection semantics (_topk),
        so conformance and total-order serving both work."""
        if not groups:
            return []
        term_groups: dict[str, set[int]] = {}
        for gi, g in enumerate(groups):
            for t in g:
                term_groups.setdefault(t, set()).add(gi)
        lists = self._open_lists(list(term_groups))
        covered = {gi for c in lists for gi in term_groups[c.term]}
        if len(covered) < len(groups):
            return []  # some group has no indexed term: unsatisfiable
        r = self.reader
        docs_all, score_all, gid_all = [], [], []
        for c in lists:
            docs, tfs = c.decode_all_remaining()
            dls = r.docs.dl[docs]
            score_all.append(
                bm25_components(tfs, dls.astype(np.float64), c.df, r.n_docs, r.d_avr)
            )
            docs_all.append(docs)
            gid_all.append((docs, sorted(term_groups[c.term])))
        docs_cat = np.concatenate(docs_all)
        scores_cat = np.concatenate(score_all)
        uniq, inv = np.unique(docs_cat, return_inverse=True)
        sums = np.bincount(inv, weights=scores_cat, minlength=len(uniq))
        # coverage: distinct (doc, group) pairs -> groups matched per doc
        pair_parts = [
            docs * np.int64(len(groups)) + np.int64(gi)
            for docs, gis in gid_all
            for gi in gis
        ]
        pairs = np.unique(np.concatenate(pair_parts))
        n_matched = np.bincount(
            np.searchsorted(uniq, pairs // np.int64(len(groups))),
            minlength=len(uniq),
        )
        keep = n_matched == len(groups)
        return self._topk(uniq[keep], sums[keep], k)

    def min_should_match(
        self, terms: list[str], m: int, k: int
    ) -> list[tuple[int, float]]:
        """Count-threshold Boolean (the Elasticsearch minimum_should_match
        shape): docs matching >= ``m`` of the n distinct query terms,
        scored as the sum of their matched terms' BM25 — ``m=1`` is
        bit-identical to disjunctive, ``m=n`` to the conjunctive match
        set.  Same vectorized bulk-decode machinery as :meth:`cnf`;
        coverage is a per-doc distinct-term count, so it composes over
        document shards unchanged."""
        if m <= 0:
            raise ValueError(f"min_should_match: m must be >= 1, got {m}")
        # dedupe preserving order: _open_lists df-sorts stably, so df ties
        # keep the query's term order and float sums stay bit-identical to
        # the disjunctive path at m=1
        lists = self._open_lists(list(dict.fromkeys(terms)))
        if len(lists) < m:
            return []  # fewer indexed terms than the threshold
        r = self.reader
        docs_all, score_all = [], []
        for c in lists:
            docs, tfs = c.decode_all_remaining()
            dls = r.docs.dl[docs]
            score_all.append(
                bm25_components(tfs, dls.astype(np.float64), c.df, r.n_docs, r.d_avr)
            )
            docs_all.append(docs)
        docs_cat = np.concatenate(docs_all)
        scores_cat = np.concatenate(score_all)
        uniq, inv = np.unique(docs_cat, return_inverse=True)
        sums = np.bincount(inv, weights=scores_cat, minlength=len(uniq))
        # each list contributes each doc at most once -> bincount of inv IS
        # the distinct-term match count
        n_matched = np.bincount(inv, minlength=len(uniq))
        keep = n_matched >= m
        return self._topk(uniq[keep], sums[keep], k)

    def parse_cnf(self, query: str) -> list[list[str]]:
        """'data join; merge spark' -> [['data', 'join'], ['merge', 'spark']]
        (';' separates AND groups; whitespace separates OR terms).  Group
        tokens go through the engine's own query scanner (parse_query)."""
        return [
            toks
            for g in query.split(";")
            if (toks := self.parse_query(g))
        ]

    def wand(self, terms: list[str], k: int) -> list[tuple[int, float]]:
        """Block-max WAND — rank-identical to :meth:`disjunctive`.

        Works under BOTH selection semantics.  With the reference heap,
        entry requires strict ``score > root``, so a pivot is skipped when
        its bound ``<= theta``.  Under ``total_order_topk`` (sharded
        serving) a candidate tying the k-th SCORE can still win on the
        doc-id tiebreak, so skipping requires a STRICT ``bound < theta``
        — the bound comparisons below use >=/> accordingly.  Baked bounds
        are rescaled for injected global stats (``_set_bound_scale``), so
        the sharded tier's disjunctive queries skip blocks too."""
        import heapq

        check_k(k)
        lists = self._open_lists(terms)
        if not lists or k == 0:
            return []
        if len(lists) == 1:
            # single list: WAND degenerates to scoring every posting —
            # identical result via the vectorized path
            return self._score_single_list(lists[0], k)
        max_doc = self.reader.max_doc_id
        total = self.total_order_topk
        hp = _RefHeap()
        theap: list[tuple[float, int]] = []  # (score, -doc): min = evictee
        cursors = []
        for c in lists:
            if c.seek_geq(0) < max_doc:
                cursors.append(c)
        NEG_INF = float("-inf")
        while cursors:
            cursors.sort(key=lambda c: c.curr_doc)
            if total:
                full = len(theap) >= k
                theta = theap[0][0] if full else NEG_INF
            else:
                full = hp.size >= k
                theta = hp.elem[0][0] if full else NEG_INF
            acc = 0.0
            pivot_idx = -1
            for i, c in enumerate(cursors):
                acc += self._ub_term(c)
                if acc > theta or (total and acc >= theta):
                    pivot_idx = i
                    break
            if pivot_idx < 0:
                break  # no doc can beat the threshold
            pivot_doc = cursors[pivot_idx].curr_doc
            if cursors[0].curr_doc == pivot_doc:
                at_pivot = [c for c in cursors if c.curr_doc == pivot_doc]
                # block-max refinement: skip full scoring when the tight
                # per-block bound already can't beat theta
                bm_ub = sum(self._ub_block(c, pivot_doc) for c in at_pivot)
                if pivot_doc in self._tomb_set:
                    # live-docs filter: never scored/inserted; theta stays a
                    # valid lower bound for the tombstone-filtered exhaustive
                    # run, so rank-identity with disjunctive() is preserved
                    pass
                elif not full or bm_ub > theta or (total and bm_ub >= theta):
                    # sum in df-ascending list order so the float result is
                    # bit-identical to the exhaustive path's accumulation
                    score = sum(
                        self._bm25(c.curr_freq, c.df, pivot_doc)
                        for c in sorted(at_pivot, key=lambda c: c.order)
                    )
                    if total:
                        item = (score, -pivot_doc)
                        if len(theap) < k:
                            heapq.heappush(theap, item)
                        elif item > theap[0]:
                            heapq.heapreplace(theap, item)
                    else:
                        _to_rank_heap(hp, pivot_doc, score, k)
                for c in at_pivot:
                    c.advance()
            else:
                # advance the leading cursor up to the pivot
                cursors[0].seek_geq(pivot_doc)
            cursors = [c for c in cursors if c.curr_doc < max_doc]
        if total:
            ranked = sorted(theap, key=lambda it: (-it[0], -it[1]))
            return [(-nd, s) for s, nd in ranked]
        return _out_rank_heap(hp)

    # ------------------------------------------------------------------
    def search(
        self,
        query: str,
        k: int = 10,
        mode: int = CONJUNCTIVE,
        *,
        algorithm: str | None = None,
        neg_query: str = "",
        msm: int = 1,
    ) -> list[dict]:
        if mode not in (CONJUNCTIVE, DISJUNCTIVE, ANDNOT, CNF, MSM):
            raise ValueError(f"unknown query mode {mode!r}: expected 0-4")
        check_k(k)
        if mode == MSM:
            ranked = self.min_should_match(self.parse_query(query), msm, k)
            return [
                {"rank": i + 1, "doc_id": doc, "url": self.reader.url(doc),
                 "score": score}
                for i, (doc, score) in enumerate(ranked)
            ]
        if mode == CNF:
            ranked = self.cnf(self.parse_cnf(query), k)
            return [
                {"rank": i + 1, "doc_id": doc, "url": self.reader.url(doc),
                 "score": score}
                for i, (doc, score) in enumerate(ranked)
            ]
        terms = self.parse_query(query)
        if mode == ANDNOT:
            ranked = self.and_not(terms, self.parse_query(neg_query), k)
        elif mode == CONJUNCTIVE:
            ranked = self.conjunctive(terms, k)
        elif algorithm == "wand":
            ranked = self.wand(terms, k)
        else:
            ranked = self.disjunctive(terms, k)
        return [
            {
                "rank": i + 1,
                "doc_id": doc,
                "url": self.reader.url(doc),
                "score": score,
            }
            for i, (doc, score) in enumerate(ranked)
        ]


def attach_snippets(
    results: "rd.Dataset",
    docs_source: "rd.Dataset",
    queries: dict[int, list[str]],
) -> "rd.Dataset":
    """Join top-k result rows to the corpus text and compute snippets.

    Replaces the reference's byte-offset rescan of the original TREC file
    (src/query.c:175-229) with a doc_id join against the text column —
    no raw-corpus byte offsets needed.  ``queries`` maps query_id ->
    term list (broadcast once via ray.put).
    """
    import pandas as pd
    import ray

    from ..oracle import generate_snippet
    from .joins import partitioned_hash_join

    j = partitioned_hash_join(
        results,
        docs_source.select_columns(["doc_id", "text"]),
        left_on="doc_id",
        right_on="doc_id",
    )
    qref = ray.put(queries)

    def add(batch: pd.DataFrame) -> pd.DataFrame:
        qmap = ray.get(qref)
        batch["snippet"] = [
            generate_snippet(t, qmap.get(int(q), []))
            for t, q in zip(batch["text"], batch["query_id"])
        ]
        return batch.drop(columns=["text"])

    return j.map_batches(add, batch_format="pandas")


class BatchQueryEngine:
    """Actor-pool stage: query batches -> top-k result rows.

    ``queries_ds.map_batches(BatchQueryEngine, fn_constructor_kwargs=
    {"index_dir": ...}, batch_format="pyarrow", concurrency=N)``.
    The reader loads once per actor (warm lexicon + doc table, as the
    reference's 12 s warm-up does once per process).

    Size ``concurrency`` to at most cluster_CPUs - 1: a pool that
    reserves every CPU slot starves the surrounding dataset tasks and
    the pipeline can deadlock (observed in local mode at num_cpus=2,
    concurrency=2).
    """

    def __init__(self, index_dir: str, *, conformance: bool = True, algorithm: str | None = None):
        self.engine = QueryEngine(index_dir, conformance=conformance)
        self.algorithm = algorithm

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols = batch.column_names
        terms_col = batch["terms"].to_pylist()  # strings: materialize once
        # preserve the caller's query_id values/type verbatim (round-3
        # advice: an int() coercion corrupted non-integer ids)
        qid_arr = batch["query_id"].combine_chunks()
        k_col = (
            batch["k"].to_numpy(zero_copy_only=False)
            if "k" in cols
            else np.full(batch.num_rows, 10)
        )
        mode_col = (
            batch["mode"].to_numpy(zero_copy_only=False)
            if "mode" in cols
            else np.full(batch.num_rows, CONJUNCTIVE)
        )
        # optional ANDNOT exclusion terms (mode=2 rows); absent -> ""
        neg_col = (
            batch["neg_terms"].to_pylist()
            if "neg_terms" in cols
            else [""] * batch.num_rows
        )
        # optional minimum-should-match threshold (mode=4 rows); absent -> 1
        msm_col = (
            batch["msm"].to_numpy(zero_copy_only=False)
            if "msm" in cols
            else np.ones(batch.num_rows, np.int64)
        )
        qidx, ranks, docs, urls, scores = [], [], [], [], []
        for i in range(batch.num_rows):  # per QUERY, not per row of data
            hits = self.engine.search(
                terms_col[i], int(k_col[i]), int(mode_col[i]),
                algorithm=self.algorithm,
                neg_query=neg_col[i] or "",
                msm=int(msm_col[i]),
            )
            for h in hits:
                qidx.append(i)
                ranks.append(h["rank"])
                docs.append(h["doc_id"])
                urls.append(h["url"])
                scores.append(h["score"])
        return pa.table(
            {
                # take() keeps the input column's exact type and values
                "query_id": qid_arr.take(pa.array(qidx, pa.int64())),
                "rank": pa.array(ranks, pa.int32()),
                "doc_id": pa.array(docs, pa.int64()),
                "url": pa.array(urls, pa.string()),
                "score": pa.array(scores, pa.float64()),
            }
        )

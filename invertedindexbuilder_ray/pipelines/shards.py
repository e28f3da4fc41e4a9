"""Document-partitioned query tier: scatter-gather BM25 over N shard
indexes, rank-identical to one monolithic index.

At 10^12 docs a single ``IndexReader`` is impossible — its doc-length
table alone is terabytes — so production serving document-partitions the
corpus: each shard is a normal index over a corpus slice (exactly what
``build_index`` per slice / ``merge_indexes`` inputs are), queries fan
out to per-shard searcher ACTORS (the one place the engine drops to raw
``@ray.remote``: a shard's warm lexicon + doc table is long-lived
mutable state no Dataset op expresses), and per-shard top-k results
merge on the driver.

Rank identity with the monolithic index is NOT automatic — BM25 scores
depend on corpus-GLOBAL statistics — and is achieved by injecting them:

1. a df prepass sums each scored term's document frequency across shards
   (lexicon lookups only, no posting decode): the CNF groups flattened,
   or the positive terms (ANDNOT's negative terms only exclude);
2. every shard scores with the global (n_docs, d_avr, df) triple, so a
   doc's score is bit-identical to the monolithic computation.  (n_docs,
   d_avr) are static, so each shard actor receives them once at
   construction; the per-query RPC carries only the query's global dfs;
3. a term that exists globally but not in a shard makes that shard
   return nothing for AND and for ANDNOT's positive terms (the monolithic
   AND could never match its docs) instead of silently AND-ing fewer
   terms.  CNF coverage, MSM counts and ANDNOT exclusions are per doc,
   hence shard-local already;
4. selection runs under the deterministic TOTAL ORDER (score desc,
   doc_id asc) at every level — per-shard engines are constructed with
   ``total_order_topk=True`` and the merge re-selects under the same
   order.  Exact-top-k-under-a-total-order is a pure function of the
   candidate SET, so local top-k ⊇ the global winners inside each shard
   and the merged result is EXACTLY the total-order top-k of the whole
   corpus.

One DOCUMENTED deviation: the reference heap (quirk Q-T) is NOT a total
order — which member survives among EQUAL scores depends on the heap
array layout, i.e. the full insertion history including evicted docs
(counterexample in ``tests/test_shards.py::test_ref_heap_ties_are_not_
distributable``).  No distributed merge can replay that from per-shard
top-ks, so sharded serving defines its semantics as the total order
above: same scores, deterministic tie membership and order.  The
monolithic engine keeps the quirk heap for reference conformance.

Each shard ranks every mode through the monolithic engine's own mode
dispatcher (``QueryEngine.rank``) under the injected stats, and
``query.check_query`` checks the arguments before any RPC.

doc_id contract matches ``merge_indexes``: shard i's local ids shift by
the sum of earlier shards' ``max_doc_id``.
"""

from __future__ import annotations

from ..state.manifest import IndexManifest
from .query import (
    ANDNOT, CNF, CONJUNCTIVE, _total_topk, check_query, parse_groups, parse_terms,
)


def _make_searcher():
    import ray

    @ray.remote
    class ShardSearcher:
        """One warm engine per corpus shard (lexicon + doc table loaded
        once, reused across queries), scoring under the corpus-global
        (n_docs, d_avr) written into its reader once."""

        def __init__(self, index_dir: str, doc_id_offset: int, conformance: bool,
                     n_docs: int, d_avr: float):
            from .query import QueryEngine

            self.engine = QueryEngine(
                index_dir, conformance=conformance, total_order_topk=True
            )
            self.engine.reader.n_docs, self.engine.reader.d_avr = n_docs, d_avr
            self.offset = doc_id_offset

        def term_dfs(self, terms: list[str]) -> dict[str, int]:
            r = self.engine.reader
            return {t: df for t in set(terms) if (df := r.df(t))}

        def search(
            self, terms: list, k: int, mode: int, dfs: dict[str, int], neg, msm: int
        ) -> list[tuple[int, float]]:
            eng = self.engine
            if mode in (CONJUNCTIVE, ANDNOT) and any(
                t in dfs and not eng.reader.df(t) for t in terms
            ):
                # globally-present term absent from this shard: no local doc
                # can satisfy the monolithic AND
                return []
            eng.df_override = dfs  # global dfs never change: nothing to restore
            ranked = eng.rank(terms, k, mode, neg=neg, msm=msm)
            return [(doc + self.offset, score) for doc, score in ranked]

    return ShardSearcher


class ShardedEngine:
    """Scatter-gather searcher over document-partitioned shard indexes."""

    def __init__(
        self,
        index_dirs: list[str],
        *,
        conformance: bool = False,
        offset_doc_ids: bool = True,
    ):
        """``offset_doc_ids`` follows the ``merge_indexes`` contract: True
        when shards were built from consecutive corpus slices with LOCAL
        dense ids (webpages source); False when the source already carries
        globally unique doc_ids (documents-table source)."""
        mans = [IndexManifest.load(d) for d in index_dirs]
        self.n_docs = sum(m.n_docs for m in mans)
        sum_dl = sum(m.sum_dl for m in mans)
        # quirk Q6 over the UNION — matches the merged index's manifest
        self.d_avr = (
            sum_dl / (self.n_docs - 1) if self.n_docs > 1 else float(sum_dl)
        )
        cls = _make_searcher()
        self.actors = []
        off = 0
        for d, m in zip(index_dirs, mans):
            self.actors.append(cls.remote(d, off if offset_doc_ids else 0, conformance,
                                          self.n_docs, self.d_avr))
            off += m.max_doc_id
        # term dfs are static per index — cache so repeated vocabulary
        # skips the prepass RPC round (0 = globally absent)
        self._df_cache: dict[str, int] = {}

    def search_terms(
        self, terms: list, k: int = 10, mode: int = CONJUNCTIVE, *, neg=(), msm: int = 1
    ) -> list[tuple[int, float]]:
        """Any ``QueryEngine.rank`` mode and operands; bad arguments raise
        ``ValueError`` before any RPC, and k = 0 returns []."""
        import ray

        check_query(mode, k, msm)
        # phase 1: global df of every scored term (lexicon lookups only,
        # cached); CNF carries groups-of-terms, flattened here
        flat = {t for g in terms for t in g} if mode == CNF else set(terms)
        missing = [t for t in flat if t not in self._df_cache]
        if missing:
            dfs_list = ray.get([a.term_dfs.remote(missing) for a in self.actors])
            for t in missing:
                self._df_cache[t] = sum(d.get(t, 0) for d in dfs_list)
        dfs = {t: self._df_cache[t] for t in flat if self._df_cache[t] > 0}
        # phase 2: per-shard top-k under the GLOBAL stats
        results = ray.get([a.search.remote(terms, k, mode, dfs, neg, msm) for a in self.actors])
        # merge: exact top-k of the candidate union under the same total
        # order the shards selected with (see module docstring)
        cands = [c for r in results for c in r]
        return _total_topk([d for d, _ in cands], [s for _, s in cands], k)

    def search(self, query: str, k: int = 10, mode: int = CONJUNCTIVE, *,
               neg_query: str = "", msm: int = 1):
        terms = parse_groups(query) if mode == CNF else parse_terms(query)
        neg = parse_terms(neg_query) if mode == ANDNOT else ()
        return self.search_terms(terms, k, mode, neg=neg, msm=msm)

"""Reference checks, run outside every timed section.

AND, OR and (where affordable) ANDNOT results are compared with the
pure-Python oracle (``invertedindexbuilder_ray.oracle``) over the same
rows: same doc ids in the same order, scores equal to 1e-9.  CNF, MSM and
the ANDNOT queries whose oracle cost is quadratic in a hot posting list
are checked against a brute-force BM25 scorer here, which is
insensitive to how ties are ordered: every returned doc must qualify and
carry its brute-force score, and the returned scores must be the top-k
scores.  Peak RSS is read before the checks run, so the oracle's memory
never shows in it.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow.parquet as pq

TOL = 1e-9
ANDNOT_ORACLE_BUDGET = 3_000_000   # docs x postings the oracle's ANDNOT walks


def corpus_rows(corpus_dir: str) -> list[dict]:
    from .inputs import corpus_files

    rows: list[dict] = []
    for path in corpus_files(corpus_dir):
        rows += pq.read_table(path, columns=["url", "text"]).to_pylist()
    return rows


def build_counts(corpus_dir: str) -> dict:
    """What a correct index over the corpus must report."""
    from invertedindexbuilder_ray import oracle

    idx = oracle.build_index(corpus_rows(corpus_dir))
    return {
        "n_docs": idx.n_docs,
        "distinct_terms": len(idx.postings),
        "total_postings": sum(len(p) for p in idx.postings.values()),
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def same_ranking(got: list, want: list) -> bool:
    return len(got) == len(want) and all(
        gd == wd and _close(gs, ws) for (gd, gs), (wd, ws) in zip(got, want)
    )


class BruteForce:
    """Scores every doc of the oracle index for a Boolean predicate."""

    def __init__(self, idx):
        self.idx = idx
        self.dl = np.array([idx.doc_lens[d] for d in range(idx.max_doc_id)], np.float64)
        self._lists: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def postings(self, term: str):
        if term not in self._lists:
            pl = self.idx.postings.get(term, [])
            a = np.array(pl, np.int64).reshape(-1, 2)
            self._lists[term] = (a[:, 0], a[:, 1].astype(np.float64))
        return self._lists[term]

    def score(self, terms: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Per-doc BM25 sum over ``terms`` as listed (a repeated term
        scores again, as the engine's list set does) and, per doc, how
        many of them it contains."""
        idx = self.idx
        total = np.zeros(len(self.dl))
        hits = np.zeros(len(self.dl), np.int64)
        for t in terms:
            docs, tfs = self.postings(t)
            if not len(docs):
                continue
            idf = math.log2((idx.n_docs - len(docs) + 0.5) / (len(docs) + 0.5))
            norm = 1.2 * ((1 - 0.75) + 0.75 * self.dl[docs] / idx.d_avr)
            total[docs] += idf * 2.2 * tfs / (norm + tfs)
            hits[docs] += 1
        return total, hits

    def qualifying(self, q: dict, terms, neg, groups) -> tuple[np.ndarray, np.ndarray]:
        """(doc ids, scores) of every doc the query's predicate accepts."""
        mode = q["mode"]
        if mode == "cnf":
            total, _ = self.score(list(dict.fromkeys(t for g in groups for t in g)))
            ok = np.ones(len(total), bool)
            for g in groups:
                _, gh = self.score(list(dict.fromkeys(g)))
                ok &= gh > 0
            return np.flatnonzero(ok), total[ok]
        present = [t for t in terms if t in self.idx.postings]
        distinct = list(dict.fromkeys(present))
        total, _ = self.score(distinct if mode == "msm" else present)
        _, hits = self.score(distinct)
        if mode == "msm":
            ok = hits >= q["msm"] if len(distinct) >= q["msm"] else hits < 0
        elif mode in ("and", "andnot"):
            ok = hits == len(distinct) if distinct else hits < 0
            if mode == "andnot":
                _, nh = self.score(neg)
                ok &= nh == 0
        else:
            ok = hits > 0
        return np.flatnonzero(ok), total[ok]

    def agrees(self, q: dict, got: list, k: int, terms, neg, groups) -> bool:
        docs, scores = self.qualifying(q, terms, neg, groups)
        by_doc = dict(zip(docs.tolist(), scores.tolist()))
        top = sorted(scores.tolist(), reverse=True)[:k]
        mine = sorted((s for _, s in got), reverse=True)
        return (
            len(got) == len(top)
            and all(d in by_doc and _close(s, by_doc[d]) for d, s in got)
            and all(_close(a, b) for a, b in zip(mine, top))
        )


def parse(q: dict):
    from invertedindexbuilder_ray.oracle import tokenize

    terms = tokenize(q["q"] + " ")
    neg = tokenize(q["neg"] + " ")
    groups = [g for part in q["q"].split(";") if (g := tokenize(part + " "))]
    return terms, neg, groups


def query_mismatches(corpus_dir: str, stream: list[dict], results: list, k: int) -> list[dict]:
    """Indexes (into ``stream``) of queries whose result is wrong, with the
    reference's answer."""
    from invertedindexbuilder_ray import oracle

    idx = oracle.build_index(corpus_rows(corpus_dir))
    brute = BruteForce(idx)
    bad = []
    for i, (q, got) in enumerate(zip(stream, results)):
        terms, neg, groups = parse(q)
        got = [tuple(x) for x in got]
        mode = q["mode"]
        want = None
        if mode == "and":
            want = oracle.conjunctive_topk(idx, terms, k)
        elif mode == "or":
            want = oracle.disjunctive_topk(idx, terms, k)
        elif mode == "andnot":
            dfs = [len(idx.postings[t]) for t in terms if t in idx.postings]
            if dfs and min(dfs) * sum(dfs) <= ANDNOT_ORACLE_BUDGET:
                want = oracle.and_not_topk(idx, terms, neg, k)
        ok = (same_ranking(got, want) if want is not None
              else brute.agrees(q, got, k, terms, neg, groups))
        if not ok:
            bad.append({"i": i, "query": q, "got": got[:3],
                        "want": (want or [])[:3]})
    return bad


def tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            fp = os.path.join(dirpath, f)
            if not os.path.islink(fp):
                total += os.path.getsize(fp)
    return total

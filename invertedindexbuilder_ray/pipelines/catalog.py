"""Driver-facing query catalog: named Ray pipelines + matching DuckDB oracle SQL.

Each entry runs over the sf testdata tables (documents / embeddings /
events / lineitem ...).  The Ray implementation and the SQL string must
produce identical (column names, rounded values) results — the driver
compares them order-insensitively at sf=0.01.

Tokenization here uses the engine's *quirk* semantics (trailing-token
drop Q1, 15-char cap Q2, byte classes Q3 — SURVEY.md §8) and the SQL
oracles replicate them, so the whole tokenizer is cross-validated
against an independent implementation, not just the Python oracle.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Mean, Sum

from ..functions.rounding import pc_round_half_away, round_half_away
from ..functions.tokenize import tokenize_to_postings
from ..sources.documents import load_documents
from ..sources.util import read_parquet_sized
from . import sketch_sql as _sketch_sql
from .build import build_index
from .query import QueryEngine

# --------------------------------------------------------------------------
# shared pieces

# DuckDB CTE replicating the quirk tokenizer over `documents`
_SQL_TOKENS = """
tok AS (
    SELECT doc_id, unnest(tokens2) AS term
    FROM (
        SELECT doc_id,
               CASE WHEN ends_alnum
                    THEN tokens[1:len(tokens)-1] ELSE tokens END AS tokens2
        FROM (
            SELECT doc_id,
                   regexp_extract_all(lower(text), '[a-z0-9]+') AS tokens,
                   regexp_matches(text, '[A-Za-z0-9]$') AS ends_alnum
            FROM documents
        )
    )
),
tok_kept AS (
    SELECT doc_id, term FROM tok WHERE length(term) BETWEEN 1 AND 15
)
"""

_SQL_BM25_BASE = (
    _SQL_TOKENS
    + """,
tf AS (SELECT term, doc_id, count(*)::BIGINT AS tf FROM tok_kept GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
dl AS (SELECT doc_id, strlen(text)::DOUBLE AS dl FROM documents),
st AS (SELECT count(*)::DOUBLE AS n, sum(dl) AS sumdl FROM dl),
scores AS (
    SELECT tf.doc_id,
           sum(log2((st.n - df.df + 0.5) / (df.df + 0.5)) * 2.2 * tf.tf
               / (1.2 * (0.25 + 0.75 * dl.dl / (st.sumdl / (st.n - 1))) + tf.tf)
              ) AS raw_score,
           count(*) AS nmatched
    FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN st
    WHERE tf.term IN ({terms})
    GROUP BY tf.doc_id
)
"""
)

BM25_QUERY_TERMS = ["data", "join", "merge"]


def _postings_ds(sf_dir: str) -> rd.Dataset:
    def to_postings(batch: pa.Table) -> pa.Table:
        terms, doc_ids, tfs = tokenize_to_postings(
            batch["text"], batch["doc_id"].to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "term": terms,
                "doc_id": pa.array(doc_ids, pa.int64()),
                "tf": pa.array(tfs.astype(np.int64), pa.int64()),
            }
        )

    return load_documents(sf_dir).map_batches(
        to_postings, batch_format="pyarrow", zero_copy_batch=True
    )


_INDEX_CACHE: dict[str, str] = {}


def index_for(sf_dir: str) -> str:
    """Build (or reuse) the inverted index for an sf dir's documents table.

    The cache key hashes the input file's (path, size, mtime) fingerprint,
    so changed content lands in a fresh directory instead of silently
    reusing a stale checkpoint."""
    from ..state.manifest import FORMAT_VERSION
    from .build import _fingerprint

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    fp = _fingerprint([path])
    key = hashlib.md5(fp.encode()).hexdigest()[:12]
    # per-user private cache dir (same reasoning as the webpages plan cache:
    # a world-writable shared /tmp dir could be pre-seeded with a poisoned
    # index by another local user)
    root = f"/tmp/iib_index_cache_{os.getuid()}"
    os.makedirs(root, mode=0o700, exist_ok=True)
    try:
        os.chmod(root, 0o700)
    except OSError:
        pass
    out = f"{root}/v{FORMAT_VERSION}/{key}"
    if _INDEX_CACHE.get(sf_dir) == out:
        return out
    # manifest is written LAST (atomic) and carries the fingerprint: when it
    # already matches, the index is complete — skip even the resume pass
    # (which still runs the encode job's per-partition skip checks)
    try:
        from ..state.manifest import IndexManifest

        if IndexManifest.load(out).input_fingerprint == fp:
            _INDEX_CACHE[sf_dir] = out
            return out
    except (OSError, ValueError, TypeError):
        pass
    build_index(
        load_documents(sf_dir),
        out,
        num_partitions=8,
        input_fingerprint=fp,
        resume=True,
    )
    _INDEX_CACHE[sf_dir] = out
    return out


# --------------------------------------------------------------------------
# query implementations

def q_postings(sf_dir: str):
    return _postings_ds(sf_dir)


SQL_POSTINGS = (
    "WITH "
    + _SQL_TOKENS
    + "SELECT term, doc_id, count(*)::BIGINT AS tf FROM tok_kept GROUP BY term, doc_id"
)


def q_term_stats(sf_dir: str):
    return (
        _postings_ds(sf_dir)
        .groupby("term")
        .aggregate(Count(alias_name="df"), Sum("tf", alias_name="cf"))
    )


SQL_TERM_STATS = (
    "WITH "
    + _SQL_TOKENS
    + """SELECT term, count(DISTINCT doc_id)::BIGINT AS df, count(*)::BIGINT AS cf
       FROM tok_kept GROUP BY term"""
)


def q_doc_token_stats(sf_dir: str):
    return (
        _postings_ds(sf_dir)
        .groupby("doc_id")
        .aggregate(Sum("tf", alias_name="n_tokens"), Count(alias_name="n_terms"))
    )


SQL_DOC_TOKEN_STATS = (
    "WITH "
    + _SQL_TOKENS
    + """SELECT doc_id, count(*)::BIGINT AS n_tokens,
              count(DISTINCT term)::BIGINT AS n_terms
       FROM tok_kept GROUP BY doc_id"""
)


def q_doc_stats(sf_dir: str):
    res = load_documents(sf_dir).aggregate(
        Count(), Sum("dl"), Max("dl"), Mean("dl")
    )
    import pandas as pd

    return pd.DataFrame(
        [
            {
                "n_docs": int(res["count()"]),
                "sum_bytes": int(res["sum(dl)"]),
                "max_bytes": int(res["max(dl)"]),
                "avg_bytes": round_half_away(float(res["mean(dl)"]), 6),
            }
        ]
    )


SQL_DOC_STATS = """
SELECT count(*)::BIGINT AS n_docs,
       sum(strlen(text))::BIGINT AS sum_bytes,
       max(strlen(text))::BIGINT AS max_bytes,
       round(avg(strlen(text)), 6) AS avg_bytes
FROM documents
"""


def q_dataset_card(sf_dir: str):
    """One-row "dataset card" summary — the header block of a published
    corpus datasheet: doc / token / vocabulary counts, dimension
    cardinalities, exact-duplicate count.  Columns ``n_docs, n_tokens,
    vocab_size, n_langs, n_sources, dup_docs`` (int64).

    Shape: one cheap dimensions pass (bounded per-batch uniques), one
    tokenize+md5 pass whose rows carry (kind, value) through a single
    hash-sharded exchange — vocabulary and duplicate counts are exact
    per shard (a term / digest lives in exactly one shard), then a
    bounded driver sum."""
    import hashlib as _hl

    import pandas as pd

    from ..functions.tokenize import tokenize_to_postings
    from .dedup import _sharded_groupby

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["doc_id", "text", "lang", "source"])

    def dims(batch: pa.Table) -> pa.Table:
        langs = pc.unique(batch["lang"]).drop_null().to_pylist()
        srcs = pc.unique(batch["source"]).drop_null().to_pylist()
        return pa.table(
            {
                "kind": pa.array(
                    ["lang"] * len(langs) + ["source"] * len(srcs) + ["docs"],
                    pa.string(),
                ),
                "val": pa.array(
                    [str(x) for x in langs] + [str(x) for x in srcs] + [""],
                    pa.string(),
                ),
                "cnt": pa.array(
                    [0] * (len(langs) + len(srcs)) + [batch.num_rows], pa.int64()
                ),
            }
        )

    dd = ds.map_batches(dims, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    n_docs = int(dd.loc[dd["kind"] == "docs", "cnt"].sum()) if len(dd) else 0
    n_langs = int(dd.loc[dd["kind"] == "lang", "val"].nunique()) if len(dd) else 0
    n_sources = int(dd.loc[dd["kind"] == "source", "val"].nunique()) if len(dd) else 0

    def rows(batch: pa.Table) -> pa.Table:
        texts = batch["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        terms, _docs_col, tfs = tokenize_to_postings(
            texts, batch["doc_id"].to_numpy(zero_copy_only=False)
        )
        tv = terms.to_numpy(zero_copy_only=False)
        ut = np.unique(tv) if len(tv) else np.array([], object)
        kinds = ["term"] * len(ut)
        vals = [str(t) for t in ut]
        hs = [
            int.from_bytes(_hl.md5(v.encode()).digest()[:8], "little") - (1 << 63)
            for v in vals
        ]
        cnts = [0] * len(ut)
        digests = [
            _hl.md5(t.encode() if t is not None else b"").hexdigest()
            for t in texts.to_pylist()
        ]
        kinds += ["md5"] * len(digests)
        vals += digests
        hs += [int(d[:16], 16) - (1 << 63) for d in digests]
        cnts += [0] * len(digests)
        kinds.append("tokens")
        vals.append("")
        hs.append(0)
        cnts.append(int(tfs.sum()) if len(tfs) else 0)
        return pa.table(
            {
                "h": pa.array(hs, pa.int64()),
                "kind": pa.array(kinds, pa.string()),
                "val": pa.array(vals, pa.string()),
                "cnt": pa.array(cnts, pa.int64()),
            }
        )

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "vocab": [int(g.loc[g["kind"] == "term", "val"].nunique())],
                "dmd5": [int(g.loc[g["kind"] == "md5", "val"].nunique())],
                "toks": [int(g.loc[g["kind"] == "tokens", "cnt"].sum())],
            }
        )

    parts = _sharded_groupby(
        ds.map_batches(rows, batch_format="pyarrow", zero_copy_batch=True),
        ["h"],
        agg,
        empty_schema=pa.schema(
            [("vocab", pa.int64()), ("dmd5", pa.int64()), ("toks", pa.int64())]
        ),
    ).to_pandas()
    vocab = int(parts["vocab"].sum()) if len(parts) else 0
    dmd5 = int(parts["dmd5"].sum()) if len(parts) else 0
    toks = int(parts["toks"].sum()) if len(parts) else 0
    return pd.DataFrame(
        [
            {
                "n_docs": n_docs,
                "n_tokens": toks,
                "vocab_size": vocab,
                "n_langs": n_langs,
                "n_sources": n_sources,
                "dup_docs": n_docs - dmd5,
            }
        ]
    ).astype("int64")


SQL_DATASET_CARD = (
    "WITH "
    + _SQL_TOKENS
    + """SELECT (SELECT count(*) FROM documents)::BIGINT AS n_docs,
       (SELECT count(*) FROM tok_kept)::BIGINT AS n_tokens,
       (SELECT count(DISTINCT term) FROM tok_kept)::BIGINT AS vocab_size,
       (SELECT count(DISTINCT lang) FROM documents)::BIGINT AS n_langs,
       (SELECT count(DISTINCT source) FROM documents)::BIGINT AS n_sources,
       (SELECT count(*) - count(DISTINCT md5(coalesce(text, ''))) FROM documents)::BIGINT
           AS dup_docs"""
)


def q_lang_counts(sf_dir: str):
    if os.path.isdir(sf_dir):
        path = os.path.join(sf_dir, "documents.parquet")
    else:
        path = sf_dir
    return (
        read_parquet_sized(path, columns=["lang", "n_chars"])
        .groupby("lang")
        .aggregate(Count(alias_name="n_docs"), Sum("n_chars", alias_name="sum_chars"))
    )


SQL_LANG_COUNTS = """
SELECT lang, count(*)::BIGINT AS n_docs, sum(n_chars)::BIGINT AS sum_chars
FROM documents GROUP BY lang
"""


def q_top_terms(sf_dir: str):
    return (
        _postings_ds(sf_dir)
        .groupby("term")
        .aggregate(Sum("tf", alias_name="cf"))
        .sort(["cf", "term"], descending=[True, False])
        .limit(20)
    )


SQL_TOP_TERMS = (
    "WITH "
    + _SQL_TOKENS
    + "SELECT term, count(*)::BIGINT AS cf FROM tok_kept GROUP BY term "
    + "ORDER BY cf DESC, term LIMIT 20"
)


def _bm25_all(sf_dir: str, conjunctive: bool, *, index_dir: str | None = None):
    """Score ALL matching docs through the real index + the DISTRIBUTED
    query path: the query rides a Dataset into the ``BatchQueryEngine``
    actor pool (reader loads in the actor, not the driver), so the
    driver's hash check exercises the same map_batches plan production
    batch querying uses.

    Returns every match (no top-k) so the comparison is tie-proof; top-k
    semantics are pytest-verified against the oracle separately.
    ``index_dir`` overrides the shared cached index (ingested variant).
    """
    from ..state.manifest import IndexManifest
    from .query import CONJUNCTIVE, DISJUNCTIVE, BatchQueryEngine

    idx = index_dir or index_for(sf_dir)
    k = IndexManifest.load(idx).max_doc_id + 1
    queries = pa.table(
        {
            "query_id": pa.array([0], pa.int64()),
            "terms": pa.array([" ".join(BM25_QUERY_TERMS)], pa.string()),
            "k": pa.array([k], pa.int64()),
            "mode": pa.array(
                [CONJUNCTIVE if conjunctive else DISJUNCTIVE], pa.int64()
            ),
        }
    )
    return (
        rd.from_arrow(queries)
        .map_batches(
            BatchQueryEngine,
            fn_constructor_kwargs={"index_dir": idx, "conformance": False},
            batch_format="pyarrow",
            concurrency=1,  # one query row -> one actor; pool sizing is
            # exercised by entry()/bench query_batch with many rows
        )
        .map_batches(
            lambda t: pa.table(
                {
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    "score": pa.array(
                        round_half_away(
                            t["score"].to_numpy(zero_copy_only=False), 6
                        ),
                        pa.float64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )


def q_bm25_and(sf_dir: str):
    return _bm25_all(sf_dir, conjunctive=True)


def q_bm25_or(sf_dir: str):
    return _bm25_all(sf_dir, conjunctive=False)


ANDNOT_POS_TERMS = ["data", "join"]
ANDNOT_NEG_TERMS = ["merge"]


def q_bm25_and_not(sf_dir: str):
    """Boolean AND-NOT through the real index + distributed query path
    (query.py::QueryEngine.and_not): every doc matching ALL of
    ``ANDNOT_POS_TERMS`` and NONE of ``ANDNOT_NEG_TERMS``, BM25-scored
    on the positive terms only.  Same tie-proof all-matches shape as
    bm25_all_and/or."""
    from ..state.manifest import IndexManifest
    from .query import ANDNOT, BatchQueryEngine

    idx = index_for(sf_dir)
    k = IndexManifest.load(idx).max_doc_id + 1
    queries = pa.table(
        {
            "query_id": pa.array([0], pa.int64()),
            "terms": pa.array([" ".join(ANDNOT_POS_TERMS)], pa.string()),
            "neg_terms": pa.array([" ".join(ANDNOT_NEG_TERMS)], pa.string()),
            "k": pa.array([k], pa.int64()),
            "mode": pa.array([ANDNOT], pa.int64()),
        }
    )
    return (
        rd.from_arrow(queries)
        .map_batches(
            BatchQueryEngine,
            fn_constructor_kwargs={"index_dir": idx, "conformance": False},
            batch_format="pyarrow",
            concurrency=1,
        )
        .map_batches(
            lambda t: pa.table(
                {
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    "score": pa.array(
                        round_half_away(
                            t["score"].to_numpy(zero_copy_only=False), 6
                        ),
                        pa.float64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )


TOMBSTONE_MOD, TOMBSTONE_RESIDUE = 10, 3


def _tombstoned_index_for(sf_dir: str) -> str:
    """A COPY of the shared index with every ``doc_id % 10 == 3``
    tombstoned via ``merge.mark_deleted`` — a separate cache dir so the
    live index the other bm25 entries share stays untouched.  The copy
    is a plain file clone (no re-encode), mirroring a production
    "clone manifest, add live-docs file" delete; re-marking the same
    set is idempotent (mark_deleted unions)."""
    import shutil

    from ..state.manifest import IndexManifest
    from .merge import mark_deleted

    base = index_for(sf_dir)
    out = base + "-tomb"
    fp = IndexManifest.load(base).input_fingerprint
    try:
        fresh = IndexManifest.load(out).input_fingerprint == fp
    except (OSError, ValueError, TypeError):
        fresh = False
    if not fresh:
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(base, out)
    # valid id domain is [0, max_doc_id) — max_doc_id is one past the
    # largest doc_id and mark_deleted now rejects out-of-range ids
    max_doc = IndexManifest.load(out).max_doc_id
    mark_deleted(out, range(TOMBSTONE_RESIDUE, max_doc, TOMBSTONE_MOD))
    return out


def q_bm25_tombstoned(sf_dir: str):
    """Disjunctive BM25 over a tombstoned index (query-time live-docs,
    merge.mark_deleted): marked docs never surface, while N / d_avr / df
    still count them — the Lucene live-docs contract the SQL replicates
    by filtering CANDIDATES only, never the stats CTEs."""
    from .query import DISJUNCTIVE, BatchQueryEngine

    idx = _tombstoned_index_for(sf_dir)
    from ..state.manifest import IndexManifest

    k = IndexManifest.load(idx).max_doc_id + 1
    queries = pa.table(
        {
            "query_id": pa.array([0], pa.int64()),
            "terms": pa.array([" ".join(BM25_QUERY_TERMS)], pa.string()),
            "k": pa.array([k], pa.int64()),
            "mode": pa.array([DISJUNCTIVE], pa.int64()),
        }
    )
    return (
        rd.from_arrow(queries)
        .map_batches(
            BatchQueryEngine,
            fn_constructor_kwargs={"index_dir": idx, "conformance": False},
            batch_format="pyarrow",
            concurrency=1,
        )
        .map_batches(
            lambda t: pa.table(
                {
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    "score": pa.array(
                        round_half_away(
                            t["score"].to_numpy(zero_copy_only=False), 6
                        ),
                        pa.float64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )


# --- minimum-should-match ranking (query.py::min_should_match) ----------
MSM_THRESHOLD = 2  # >= 2 of the 3 standard query terms


def q_bm25_msm(sf_dir: str):
    """minimum_should_match — docs matching >= 2 of the 3 query terms,
    scored on their matched terms — through the distributed
    BatchQueryEngine path (mode=4, msm column); full-match output."""
    from ..state.manifest import IndexManifest
    from .query import MSM, BatchQueryEngine

    idx = index_for(sf_dir)
    k = IndexManifest.load(idx).max_doc_id + 1
    queries = pa.table(
        {
            "query_id": pa.array([0], pa.int64()),
            "terms": pa.array([" ".join(BM25_QUERY_TERMS)], pa.string()),
            "k": pa.array([k], pa.int64()),
            "mode": pa.array([MSM], pa.int64()),
            "msm": pa.array([MSM_THRESHOLD], pa.int64()),
        }
    )
    return (
        rd.from_arrow(queries)
        .map_batches(
            BatchQueryEngine,
            fn_constructor_kwargs={"index_dir": idx, "conformance": False},
            batch_format="pyarrow",
            concurrency=1,
        )
        .map_batches(
            lambda t: pa.table(
                {
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    "score": pa.array(
                        round_half_away(
                            t["score"].to_numpy(zero_copy_only=False), 6
                        ),
                        pa.float64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )


def _sql_bm25_msm() -> str:
    terms = ", ".join(f"'{t}'" for t in BM25_QUERY_TERMS)
    return (
        "WITH "
        + _SQL_BM25_BASE.format(terms=terms)
        + f"SELECT doc_id, round(raw_score, 6) AS score FROM scores "
        f"WHERE nmatched >= {MSM_THRESHOLD}"
    )


# --- Boolean CNF ranking (query.py::cnf) --------------------------------
CNF_GROUPS = [["data", "join"], ["merge", "spark"]]


def q_bm25_cnf(sf_dir: str):
    """Boolean CNF — (data OR join) AND (merge OR spark) — scored through
    the real index + the distributed BatchQueryEngine path (mode=3), all
    matches (tie-proof full-match comparison, the _bm25_all shape)."""
    from ..state.manifest import IndexManifest
    from .query import CNF, BatchQueryEngine

    idx = index_for(sf_dir)
    k = IndexManifest.load(idx).max_doc_id + 1
    terms = "; ".join(" ".join(g) for g in CNF_GROUPS)
    queries = pa.table(
        {
            "query_id": pa.array([0], pa.int64()),
            "terms": pa.array([terms], pa.string()),
            "k": pa.array([k], pa.int64()),
            "mode": pa.array([CNF], pa.int64()),
        }
    )
    return (
        rd.from_arrow(queries)
        .map_batches(
            BatchQueryEngine,
            fn_constructor_kwargs={"index_dir": idx, "conformance": False},
            batch_format="pyarrow",
            concurrency=1,
        )
        .map_batches(
            lambda t: pa.table(
                {
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    "score": pa.array(
                        round_half_away(
                            t["score"].to_numpy(zero_copy_only=False), 6
                        ),
                        pa.float64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )


def _sql_bm25_cnf() -> str:
    all_terms = sorted({t for g in CNF_GROUPS for t in g})
    terms = ", ".join(f"'{t}'" for t in all_terms)
    exists = " AND ".join(
        "EXISTS (SELECT 1 FROM tf WHERE tf.doc_id = s.doc_id AND tf.term IN ("
        + ", ".join(f"'{t}'" for t in g)
        + "))"
        for g in CNF_GROUPS
    )
    return (
        "WITH "
        + _SQL_BM25_BASE.format(terms=terms)
        + f"""SELECT s.doc_id, round(s.raw_score, 6) AS score
FROM scores s WHERE {exists}"""
    )


# --- driver-checked rolling ingest (pipelines/ingest.py) ----------------
# A deterministic delta per sf dir: for every doc_id % INGEST_EVERY == 0,
# one verbatim CLONE (near-dup against its source, est_jaccard = 1.0 —
# dropped by the dedup pass) and one NOVEL doc whose tokens are id-salted
# so no 3-shingle is shared between any two novel docs (jaccard 0 — always
# kept) but which contains all three BM25 query terms (so the additions
# are visible to the query oracle).  The SQL replicates exactly the
# EXPECTED outcome — corpus + novel docs, no clones; the engine leg runs
# the real ingest_delta (sketch, banding, drop, extend_index, checkpoint
# roll) and RAISES if the drop set deviates from that expectation, so a
# dedup regression surfaces as a loud error, not a silent hash mismatch.
INGEST_EVERY = 50
INGEST_CLONE_OFF = 1_000_000


def _novel_id_sql(n_expr: str = "(SELECT count(*) FROM documents)") -> str:
    return f"{n_expr} + doc_id // {INGEST_EVERY}"


def _ingested_index_for(sf_dir: str) -> str:
    """Cached ingest output per sf dir: base index + the deterministic
    delta through the REAL ingest_delta path (validated drop set)."""
    import shutil

    from ..state import manifest as mf
    from ..state.manifest import IndexManifest
    from .ingest import ingest_delta

    base = index_for(sf_dir)
    out = base + "-ingested"
    fp = IndexManifest.load(base).input_fingerprint
    src_marker = os.path.join(out, "_INGEST_SRC")
    try:
        with open(src_marker) as f:
            fresh = json.load(f).get("base_fp") == fp
    except (OSError, ValueError):
        fresh = False
    if fresh:
        return out
    shutil.rmtree(out, ignore_errors=True)

    base_n = IndexManifest.load(base).max_doc_id

    def mk_delta(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sel = t.filter(pa.array(ids % INGEST_EVERY == 0))
        sid = sel["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        novel_txt = [
            f"d{i}a d{i}b d{i}c data d{i}d merge d{i}e join d{i}f"
            for i in sid
        ]
        return pa.table(
            {
                "doc_id": pa.array(
                    np.concatenate(
                        [sid + INGEST_CLONE_OFF, base_n + sid // INGEST_EVERY]
                    ),
                    pa.int64(),
                ),
                "url": pa.array(
                    [f"doc:{i + INGEST_CLONE_OFF}" for i in sid]
                    + [f"doc:{base_n + i // INGEST_EVERY}" for i in sid],
                    pa.string(),
                ),
                "text": pa.concat_arrays(
                    [
                        sel["text"].combine_chunks(),
                        pa.array(novel_txt, pa.string()),
                    ]
                ),
                "dl": pa.array(
                    np.concatenate(
                        [
                            sel["dl"].to_numpy(zero_copy_only=False),
                            np.array([len(s) for s in novel_txt], np.int64),
                        ]
                    ),
                    pa.int64(),
                ),
            }
        )

    delta = load_documents(sf_dir).map_batches(mk_delta, batch_format="pyarrow")
    rep = ingest_delta(base, sf_dir, delta, out)
    dropped = rep["dropped_ids"]
    n_clones = rep["n_delta"] // 2
    if len(dropped) != n_clones or any(d < INGEST_CLONE_OFF for d in dropped):
        raise ValueError(
            "ingest entry invariant broken: expected exactly the "
            f"{n_clones} clones dropped, got {dropped[:10]}... "
            "(dedup behavior changed — fix before trusting the SQL oracle)"
        )
    mf.atomic_write_json(src_marker, {"base_fp": fp})
    return out


def q_bm25_after_ingest(sf_dir: str):
    """Disjunctive BM25 over the index produced by the FULL rolling-ingest
    pipeline (delta dedup via the signature checkpoint -> drop clones ->
    extend_index with the novel docs): scores must equal a from-scratch
    BM25 over corpus + novel docs — the merge contract and the drop set,
    both driver-hash-checked in one entry."""
    return _bm25_all(sf_dir, conjunctive=False, index_dir=_ingested_index_for(sf_dir))


def _sql_bm25_after_ingest() -> str:
    terms = ", ".join(f"'{t}'" for t in BM25_QUERY_TERMS)
    novel_text = (
        "'d'||doc_id||'a d'||doc_id||'b d'||doc_id||'c data "
        "d'||doc_id||'d merge d'||doc_id||'e join d'||doc_id||'f'"
    )
    aug = f"""corpus_plus_ingest AS (
    SELECT doc_id, text FROM documents
    UNION ALL
    SELECT {_novel_id_sql()} AS doc_id, {novel_text} AS text
    FROM documents WHERE doc_id % {INGEST_EVERY} = 0
), """
    return (
        "WITH "
        + aug
        + _SQL_BM25_BASE.replace("FROM documents", "FROM corpus_plus_ingest").format(
            terms=terms
        )
        + "SELECT doc_id, round(raw_score, 6) AS score FROM scores WHERE nmatched >= 1"
    )


def q_facet_counts(sf_dir: str):
    """Faceted search (the Elasticsearch "aggregations on hits" shape):
    per-(source, lang) match count and best rounded score over every doc
    matching the disjunctive BM25 query — the match set comes from the
    REAL index through the distributed BatchQueryEngine path, then one
    partitioned hash join onto the documents facet columns and a tiny
    groupby (facet cardinality is bounded, the join is the only
    corpus-sized exchange)."""
    from .joins import partitioned_hash_join

    matches = _bm25_all(sf_dir, conjunctive=False)
    path = (
        os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    )
    # Ray's sort groupby crashes on NULL string keys; DuckDB groups NULLs.
    # Sentinel-fill the facet keys before the groupby, restore after (the
    # q_lineitem_agg pattern — round-4 ADVICE item 1).
    NULL_KEY = "\x00null\x00"

    def fill_keys(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "lang": b["lang"].combine_chunks().fill_null(NULL_KEY),
                "source": b["source"].combine_chunks().fill_null(NULL_KEY),
            }
        )

    facets = read_parquet_sized(path, columns=["doc_id", "lang", "source"]).map_batches(
        fill_keys, batch_format="pyarrow"
    )
    j = partitioned_hash_join(
        matches, facets, left_on="doc_id", right_on="doc_id",
        # declared: skips the schema probe that would execute one block
        # of the whole BatchQueryEngine pipeline just for sampling
        left_schema=pa.schema([("doc_id", pa.int64()), ("score", pa.float64())]),
        right_schema=pa.schema(
            [("doc_id", pa.int64()), ("lang", pa.string()), ("source", pa.string())]
        ),
    )
    agg = (
        j.groupby(["source", "lang"])
        .aggregate(Count(alias_name="n_matches"), Max("score", alias_name="best_score"))
    )

    def unfill(b: pa.Table) -> pa.Table:
        def u(col):
            return pc.if_else(
                pc.equal(col, pa.scalar(NULL_KEY)), pa.scalar(None, pa.string()), col
            )

        return pa.table(
            {
                "source": u(b["source"]),
                "lang": u(b["lang"]),
                "n_matches": b["n_matches"],
                "best_score": b["best_score"],
            }
        )

    return agg.map_batches(unfill, batch_format="pyarrow")


def _sql_facet_counts() -> str:
    terms = ", ".join(f"'{t}'" for t in BM25_QUERY_TERMS)
    return (
        "WITH "
        + _SQL_BM25_BASE.format(terms=terms)
        + """SELECT d.source, d.lang, count(*)::BIGINT AS n_matches,
       max(round(s.raw_score, 6)) AS best_score
FROM scores s JOIN documents d USING (doc_id)
WHERE s.nmatched >= 1
GROUP BY d.source, d.lang"""
    )


def q_score_explain(sf_dir: str):
    """The "explain" debug surface every serving engine exposes: the
    per-term BM25 breakdown (term, tf, df, contrib) of the top
    conjunctive hit, read through the REAL index (lexicon lookup +
    posting-list probe per term — the exact path a production explain
    endpoint would take).  Top-1 selected under (rounded score desc,
    doc_id asc) so both engines agree even when raw scores differ by an
    ulp inside one rounding bucket."""
    import pandas as pd

    from .query import QueryEngine

    idx = index_for(sf_dir)
    eng = QueryEngine(idx, conformance=False)
    terms = list(BM25_QUERY_TERMS)
    ranked = eng.conjunctive(terms, eng.reader.max_doc_id + 1)
    cols = ["term", "tf", "df", "contrib"]
    if not ranked:
        return pd.DataFrame(
            {"term": pd.Series([], dtype="object"),
             "tf": pd.Series([], dtype="int64"),
             "df": pd.Series([], dtype="int64"),
             "contrib": pd.Series([], dtype="float64")}
        )
    docs = np.array([d for d, _ in ranked], np.int64)
    scores = round_half_away(np.array([s for _, s in ranked], np.float64), 6)
    top = int(docs[np.lexsort((docs, -scores))[0]])
    r = eng.reader
    rows = []
    for t in sorted(terms):
        c = r.open_list(t)
        if c is None:
            continue
        docs, tfs = c.decode_all_remaining()
        i = int(np.searchsorted(docs, top))
        if i == len(docs) or docs[i] != top:
            continue
        tf = int(tfs[i])
        idf = np.log2((r.n_docs - c.df + 0.5) / (c.df + 0.5))
        den = 1.2 * (0.25 + 0.75 * r.doc_len(top) / r.d_avr) + tf
        rows.append(
            {"term": t, "tf": tf, "df": int(c.df),
             "contrib": round_half_away(idf * 2.2 * tf / den, 6)}
        )
    return pd.DataFrame(rows, columns=cols)


def _sql_score_explain() -> str:
    terms = ", ".join(f"'{t}'" for t in BM25_QUERY_TERMS)
    return (
        "WITH "
        + _SQL_BM25_BASE.format(terms=terms)
        + f""", top1 AS (
    SELECT doc_id FROM scores
    WHERE nmatched = {len(BM25_QUERY_TERMS)}
    ORDER BY round(raw_score, 6) DESC, doc_id LIMIT 1
)
SELECT tf.term, tf.tf, df.df,
       round(log2((st.n - df.df + 0.5) / (df.df + 0.5)) * 2.2 * tf.tf
             / (1.2 * (0.25 + 0.75 * dl.dl / (st.sumdl / (st.n - 1))) + tf.tf),
             6) AS contrib
FROM tf JOIN top1 USING (doc_id) JOIN df USING (term) JOIN dl USING (doc_id)
CROSS JOIN st
WHERE tf.term IN ({terms})"""
    )


SEARCH_PAGE = 10


def q_search_after(sf_dir: str):
    """Keyset pagination ("search_after"): page 2 of the disjunctive BM25
    ranking under the deterministic page order (rounded score desc,
    doc_id asc).  The cursor pass mirrors a live paging session: page 1
    is a per-batch partial top-k merge; page 2 FILTERS by the keyset
    predicate (score, doc_id) > cursor before its own partial top-k — no
    OFFSET rescan, each request touches only survivors, which is why
    this shape (unlike OFFSET) stays O(k) per page at any depth."""
    import pandas as pd

    def _partial_topk(n: int):
        def part(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t
            docs = t["doc_id"].to_numpy(zero_copy_only=False)
            scores = t["score"].to_numpy(zero_copy_only=False)
            order = np.lexsort((docs, -scores))[:n]
            return t.take(pa.array(order))

        return part

    def _page(ds, n):
        rows = (
            ds.map_batches(_partial_topk(n), batch_format="pyarrow")
            .to_pandas()
        )
        if not len(rows):
            return rows
        return rows.sort_values(
            ["score", "doc_id"], ascending=[False, True]
        ).head(n).reset_index(drop=True)

    page1 = _page(_bm25_all(sf_dir, conjunctive=False), SEARCH_PAGE)
    if len(page1) < SEARCH_PAGE:  # corpus smaller than one page: empty page 2
        return pd.DataFrame({"rank": pd.Series([], dtype="int64"),
                             "doc_id": pd.Series([], dtype="int64"),
                             "score": pd.Series([], dtype="float64")})
    c_score = float(page1["score"].iloc[-1])
    c_doc = int(page1["doc_id"].iloc[-1])

    def keyset(t: pa.Table) -> pa.Table:
        s = t["score"].to_numpy(zero_copy_only=False)
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array((s < c_score) | ((s == c_score) & (d > c_doc))))

    page2 = _page(
        _bm25_all(sf_dir, conjunctive=False).map_batches(
            keyset, batch_format="pyarrow"
        ),
        SEARCH_PAGE,
    )
    page2.insert(
        0,
        "rank",
        np.arange(SEARCH_PAGE + 1, SEARCH_PAGE + 1 + len(page2), dtype=np.int64),
    )
    return page2[["rank", "doc_id", "score"]]


def _sql_search_after() -> str:
    terms = ", ".join(f"'{t}'" for t in BM25_QUERY_TERMS)
    return (
        "WITH "
        + _SQL_BM25_BASE.format(terms=terms)
        + f""", ranked AS (
    SELECT doc_id, round(raw_score, 6) AS score,
           row_number() OVER (
               ORDER BY round(raw_score, 6) DESC, doc_id)::BIGINT AS rank
    FROM scores WHERE nmatched >= 1
)
SELECT rank, doc_id, score FROM ranked
WHERE rank BETWEEN {SEARCH_PAGE + 1} AND {2 * SEARCH_PAGE}"""
    )


BM25_FILTER_SOURCE = "src3"


def q_bm25_filtered(sf_dir: str):
    """Filtered search (the metadata-predicate + relevance shape every
    serving engine exposes): the disjunctive BM25 match set restricted
    to docs with ``source = BM25_FILTER_SOURCE``.  Scores keep the
    UNFILTERED global stats — the filter restricts candidates, not the
    corpus model, exactly like the tombstone live-docs contract.  One
    partitioned hash join against the predicate's doc ids (the
    arbitrarily-selective filter side never broadcasts); all-matches
    output keeps the comparison tie-proof."""
    matches = _bm25_all(sf_dir, conjunctive=False)
    path = (
        os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    )
    allowed = read_parquet_sized(path, columns=["doc_id", "source"]).map_batches(
        lambda t: t.filter(
            pc.equal(t["source"], BM25_FILTER_SOURCE).fill_null(False)
        ).select(["doc_id"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    from .joins import partitioned_hash_join

    j = partitioned_hash_join(
        matches, allowed, left_on="doc_id", right_on="doc_id",
        left_schema=pa.schema([("doc_id", pa.int64()), ("score", pa.float64())]),
        right_schema=pa.schema([("doc_id", pa.int64())]),
    )
    return j.map_batches(
        lambda t: t.select(["doc_id", "score"]), batch_format="pyarrow"
    )


def _sql_bm25_filtered() -> str:
    terms = ", ".join(f"'{t}'" for t in BM25_QUERY_TERMS)
    return (
        "WITH "
        + _SQL_BM25_BASE.format(terms=terms)
        + f"""SELECT s.doc_id, round(s.raw_score, 6) AS score
FROM scores s JOIN documents d USING (doc_id)
WHERE s.nmatched >= 1 AND d.source = '{BM25_FILTER_SOURCE}'"""
    )


def q_collapse_by_source(sf_dir: str):
    """Field collapsing (the Elasticsearch "collapse" / grouped-top-hit
    shape): the single best match per source under (score desc, doc_id
    asc) over the disjunctive BM25 match set.  One partitioned hash join
    onto the source column, then per-batch partial best-per-source rows
    (<= n_sources per batch, a bounded dimension) merged on the driver."""
    import pandas as pd

    from .joins import partitioned_hash_join

    matches = _bm25_all(sf_dir, conjunctive=False)
    path = (
        os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    )
    src = read_parquet_sized(path, columns=["doc_id", "source"])
    j = partitioned_hash_join(
        matches, src, left_on="doc_id", right_on="doc_id",
        left_schema=pa.schema([("doc_id", pa.int64()), ("score", pa.float64())]),
        right_schema=pa.schema(
            [("doc_id", pa.int64()), ("source", pa.string())]
        ),
    )

    def best_per_source(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        df = t.to_pandas()
        df = df.sort_values(["score", "doc_id"], ascending=[False, True])
        return pa.Table.from_pandas(
            df.drop_duplicates("source", keep="first"), preserve_index=False
        ).select(["source", "doc_id", "score"])

    rows = (
        j.map_batches(best_per_source, batch_format="pyarrow").to_pandas()
    )
    if not len(rows):
        return pd.DataFrame({"source": pd.Series([], dtype="object"),
                             "doc_id": pd.Series([], dtype="int64"),
                             "score": pd.Series([], dtype="float64")})
    rows = rows.sort_values(["score", "doc_id"], ascending=[False, True])
    return rows.drop_duplicates("source", keep="first").reset_index(drop=True)[
        ["source", "doc_id", "score"]
    ]


def _sql_collapse_by_source() -> str:
    terms = ", ".join(f"'{t}'" for t in BM25_QUERY_TERMS)
    return (
        "WITH "
        + _SQL_BM25_BASE.format(terms=terms)
        + """, sel AS (
    SELECT d.source, s.doc_id, round(s.raw_score, 6) AS score
    FROM scores s JOIN documents d USING (doc_id)
    WHERE s.nmatched >= 1
)
SELECT source, doc_id, score FROM (
    SELECT *, row_number() OVER (
        PARTITION BY source ORDER BY score DESC, doc_id) AS rn
    FROM sel
) WHERE rn = 1"""
    )


def _sql_bm25_tombstoned() -> str:
    terms = ", ".join(f"'{t}'" for t in BM25_QUERY_TERMS)
    return (
        "WITH "
        + _SQL_BM25_BASE.format(terms=terms)
        + "SELECT doc_id, round(raw_score, 6) AS score FROM scores\n"
        + f"WHERE nmatched >= 1 AND doc_id % {TOMBSTONE_MOD} <> {TOMBSTONE_RESIDUE}"
    )


def _sql_bm25_and_not() -> str:
    pos = ", ".join(f"'{t}'" for t in ANDNOT_POS_TERMS)
    neg = ", ".join(f"'{t}'" for t in ANDNOT_NEG_TERMS)
    return (
        "WITH "
        + _SQL_BM25_BASE.format(terms=pos)
        + f"""SELECT doc_id, round(raw_score, 6) AS score FROM scores
WHERE nmatched = {len(ANDNOT_POS_TERMS)}
  AND doc_id NOT IN (SELECT DISTINCT doc_id FROM tf WHERE term IN ({neg}))"""
    )


def _sql_bm25(conjunctive: bool) -> str:
    terms = ", ".join(f"'{t}'" for t in BM25_QUERY_TERMS)
    cond = f"nmatched = {len(BM25_QUERY_TERMS)}" if conjunctive else "nmatched >= 1"
    return (
        "WITH "
        + _SQL_BM25_BASE.format(terms=terms)
        + f"SELECT doc_id, round(raw_score, 6) AS score FROM scores WHERE {cond}"
    )


WEEK_US = 7 * 86_400 * 1_000_000


def q_user_cohorts(sf_dir: str):
    """Cohort retention matrix (the classic product-analytics shape):
    users grouped by first-active week, counted in each later week they
    return.  Columns ``cohort_week, week_offset, n_users`` (all int64).

    Shape: per-batch Arrow distinct (user, week) pairs, ONE
    user-sharded exchange (a user lives in exactly one shard, so the
    per-shard first-week and per-(cohort, offset) distinct-user counts
    are exact partials), bounded driver sum over the weeks x offsets
    grid."""
    import pandas as pd

    from .dedup import _sharded_groupby

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["user_id", "ts"])

    def pairs(batch: pa.Table) -> pa.Table:
        wk = pc.cast(
            pc.divide(batch["ts"].cast(pa.int64()), WEEK_US), pa.int64()
        )
        t = pa.table(
            {"user_id": batch["user_id"].cast(pa.int64()), "wk": wk}
        )
        g = t.group_by(["user_id", "wk"]).aggregate([])  # per-batch distinct
        return g

    pr = ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True)

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "wk"])
        cw = g.groupby("user_id")["wk"].transform("min")
        out = (
            pd.DataFrame(
                {"cohort_week": cw.to_numpy(), "week_offset": (g["wk"] - cw).to_numpy()}
            )
            .groupby(["cohort_week", "week_offset"])
            .size()
            .reset_index(name="n_users")
        )
        return out

    parts = _sharded_groupby(
        pr, ["user_id"], per_shard,
        empty_schema=pa.schema(
            [("cohort_week", pa.int64()), ("week_offset", pa.int64()),
             ("n_users", pa.int64())]
        ),
    ).to_pandas()
    cols = ["cohort_week", "week_offset", "n_users"]
    if not len(parts):
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in cols})
    return (
        parts.groupby(["cohort_week", "week_offset"])["n_users"]
        .sum()
        .reset_index()[cols]
        .astype("int64")
    )


SQL_USER_COHORTS = f"""
WITH uw AS (
    SELECT DISTINCT user_id, (epoch_us(ts) // {WEEK_US})::BIGINT AS wk
    FROM events
),
fw AS (SELECT user_id, min(wk) AS cw FROM uw GROUP BY 1)
SELECT f.cw AS cohort_week, (u.wk - f.cw)::BIGINT AS week_offset,
       count(*)::BIGINT AS n_users
FROM uw u JOIN fw f USING (user_id)
GROUP BY 1, 2
"""


def q_events_tumbling(sf_dir: str):
    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir

    def add_bucket(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64())
        bucket = pc.divide(us, 3_600_000_000)  # integer division: µs -> hour bucket
        return batch.append_column("hour_bucket", pc.cast(bucket, pa.int64()))

    return (
        read_parquet_sized(path, columns=["ts", "event_type", "value"])
        .map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "hour_bucket"])
        .aggregate(Count(alias_name="n_events"), Sum("value", alias_name="sum_value_raw"))
        .map_batches(
            lambda b: b.append_column(
                "sum_value", pc_round_half_away(b["sum_value_raw"], 2)
            ).drop_columns(["sum_value_raw"]),
            batch_format="pyarrow",
        )
    )


SQL_EVENTS_TUMBLING = """
SELECT event_type,
       (epoch_us(ts) // 3600000000)::BIGINT AS hour_bucket,
       count(*)::BIGINT AS n_events,
       round(sum(value), 2) AS sum_value
FROM events GROUP BY 1, 2
"""


def q_lineitem_agg(sf_dir: str):
    """Map-side combine: the exchange carries <= 6 partial rows per block
    (per-batch Arrow group_by), not the 600k input rows — the
    pre-aggregate-before-groupby pattern every wide aggregate here uses."""
    path = os.path.join(sf_dir, "lineitem.parquet") if os.path.isdir(sf_dir) else sf_dir

    # Ray's sort-based groupby crashes on NULL string keys (searchsorted
    # over object arrays with None); DuckDB groups NULLs.  Sentinel-fill
    # in the partial, restore after the tiny aggregate.
    NULL_KEY = "\x00null\x00"

    def partial(batch: pa.Table) -> pa.Table:
        disc_price = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        t = batch.append_column("disc_price", disc_price)
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("disc_price", "sum"), ("l_quantity", "count")]
        )
        return pa.table(
            {
                "l_returnflag": g["l_returnflag"].fill_null(NULL_KEY),
                "l_linestatus": g["l_linestatus"].fill_null(NULL_KEY),
                "qty_sum": g["l_quantity_sum"],
                "disc_sum": g["disc_price_sum"],
                "cnt": g["l_quantity_count"].cast(pa.int64()),
            }
        )

    agg = (
        read_parquet_sized(
            path,
            columns=[
                "l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount",
            ],
        )
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_sum", alias_name="sum_qty_raw"),
            Sum("disc_sum", alias_name="sum_disc_price_raw"),
            Sum("cnt", alias_name="count_order"),
        )
    )

    def post(b: pa.Table) -> pa.Table:
        cnt = b["count_order"].cast(pa.int64())
        avg = pc.divide(
            b["sum_qty_raw"].cast(pa.float64()), cnt.cast(pa.float64())
        )

        def unfill(col):
            return pc.if_else(
                pc.equal(col, pa.scalar(NULL_KEY)),
                pa.scalar(None, pa.string()),
                col,
            )

        return pa.table(
            {
                "l_returnflag": unfill(b["l_returnflag"]),
                "l_linestatus": unfill(b["l_linestatus"]),
                "sum_qty": pc_round_half_away(b["sum_qty_raw"], 2),
                "sum_disc_price": pc_round_half_away(b["sum_disc_price_raw"], 2),
                "avg_qty": pc_round_half_away(avg, 6),
                "count_order": cnt,
            }
        )

    return agg.map_batches(post, batch_format="pyarrow")


SQL_LINEITEM_AGG = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       round(avg(l_quantity), 6) AS avg_qty,
       count(*)::BIGINT AS count_order
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


SAMPLE_MULT = 0x9E3779B97F4A7C15
SAMPLE_PCT = 10


def q_sample_hash(sf_dir: str):
    """Deterministic hash sampling: keep docs where a Fibonacci-multiply
    hash of doc_id lands in the first SAMPLE_PCT% — the reproducible
    "x% slice" every training-data pipeline needs (same rows on any
    cluster size, no RNG, SQL-verifiable)."""

    def filt(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).view(np.uint64)
        with np.errstate(over="ignore"):
            h = ids * np.uint64(SAMPLE_MULT)
        return batch.filter(pa.array((h % np.uint64(100)) < SAMPLE_PCT)).select(
            ["doc_id", "dl"]
        )

    return load_documents(sf_dir).map_batches(
        filt, batch_format="pyarrow", zero_copy_batch=True
    )


SQL_SAMPLE_HASH = f"""
SELECT doc_id, strlen(text)::BIGINT AS dl
FROM documents
WHERE ((doc_id::HUGEINT * {SAMPLE_MULT}) % 18446744073709551616) % 100 < {SAMPLE_PCT}
"""


QUANTILE_QS = [0.25, 0.5, 0.75, 0.95]


def q_lineitem_quantiles(sf_dir: str):
    """Distributed exact discrete quantiles of l_quantity: per-batch value
    counts (map-side combine), a tiny 50-key aggregate, and a driver-side
    pick at index ceil(q*N)-1 — DuckDB quantile_disc semantics, integer-
    exact at any scale because only (value, count) pairs ever move.

    CONTRACT: exact and scale-safe only for LOW-CARDINALITY value domains
    (distinct values bounded, like l_quantity's 50); on continuous columns
    distinct ≈ N and this would ship ~N rows to the driver — use
    ``quantiles.exact_quantiles_disc`` (q_price_quantiles) there."""
    path = os.path.join(sf_dir, "lineitem.parquet") if os.path.isdir(sf_dir) else sf_dir

    def value_counts(batch: pa.Table) -> pa.Table:
        vals, counts = np.unique(
            batch["l_quantity"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {
                "value": pa.array(vals, pa.float64()),
                "cnt": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    agg = (
        read_parquet_sized(path, columns=["l_quantity"])
        .map_batches(value_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("value")
        .aggregate(Sum("cnt", alias_name="n"))
        .take_all()  # <= n_distinct rows — the only data on the driver
    )
    import pandas as pd

    vals = np.array([r["value"] for r in agg])
    ns = np.array([r["n"] for r in agg], dtype=np.int64)
    order = np.argsort(vals)
    vals, ns = vals[order], ns[order]
    cum = np.cumsum(ns)
    total = int(cum[-1]) if len(cum) else 0
    if total == 0:
        # DuckDB's quantile_disc over zero rows is NULL — match it (NaN in
        # the float column) instead of indexing into an empty array
        return pd.DataFrame([{"q": q, "value": float("nan")} for q in QUANTILE_QS])
    out = []
    for q in QUANTILE_QS:
        idx = max(int(np.ceil(q * total)) - 1, 0)
        pos = int(np.searchsorted(cum, idx + 1))
        out.append({"q": q, "value": float(vals[pos])})
    return pd.DataFrame(out)


def _sql_lineitem_quantiles() -> str:
    selects = [
        f"SELECT {q} AS q, quantile_disc(l_quantity, {q}) AS value FROM lineitem"
        for q in QUANTILE_QS
    ]
    return " UNION ALL ".join(selects)


def q_price_quantiles(sf_dir: str):
    """Exact quantiles of a CONTINUOUS column (distinct ~ N, where the
    value-counts approach above would ship ~N rows to the driver):
    iterative histogram-refinement selection — integer-exact bisection on
    order-preserving keys, only fixed-size histograms cross the wire."""
    from .quantiles import exact_quantiles_disc

    path = os.path.join(sf_dir, "lineitem.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["l_extendedprice"])
    return exact_quantiles_disc(ds, "l_extendedprice", QUANTILE_QS)


def _sql_price_quantiles() -> str:
    selects = [
        f"SELECT {q} AS q, quantile_disc(l_extendedprice, {q}) AS value FROM lineitem"
        for q in QUANTILE_QS
    ]
    return " UNION ALL ".join(selects)


SEMI_JOIN_PRICE = 400_000.0

# above this many qualifying keys the broadcast path would materialize an
# unbounded array on the driver; fall back to the partitioned join (the
# minhash-verify hybrid pattern, dedup.py)
SEMI_BROADCAST_KEY_LIMIT = 2_000_000


def _semi_anti(sf_dir: str, anti: bool, *, key_limit: int = SEMI_BROADCAST_KEY_LIMIT):
    """Hybrid semi/anti join.  Small key side (the common case — a
    selective filter): keys are ray.put once and each lineitem batch
    filters with a vectorized sorted-membership probe, zero shuffle.
    Above ``key_limit`` qualifying keys: partitioned hash join of
    lineitem against a marker-tagged key table (left-outer + null test),
    so the driver never holds the key set."""
    orders_path = os.path.join(sf_dir, "orders.parquet") if os.path.isdir(sf_dir) else sf_dir
    li_path = os.path.join(os.path.dirname(orders_path), "lineitem.parquet")
    keys_ds = read_parquet_sized(orders_path, columns=["o_orderkey", "o_totalprice"]).filter(
        expr=f"o_totalprice > {SEMI_JOIN_PRICE}"
    )
    lineitem = read_parquet_sized(li_path, columns=["l_orderkey", "l_quantity"])
    keys_ds = keys_ds.materialize()  # count + consume without re-scanning
    n_keys = keys_ds.count()

    if n_keys <= key_limit:
        keys = np.array(
            [r["o_orderkey"] for r in keys_ds.take_all()], dtype=np.int64
        )
        kref = ray.put(np.sort(keys))

        def filt(batch: pa.Table) -> pa.Table:
            ks = ray.get(kref)
            ok = batch["l_orderkey"].to_numpy(zero_copy_only=False)
            if len(ks) == 0:  # no qualifying orders: semi keeps nothing, anti all
                hit = np.zeros(len(ok), dtype=bool)
            else:
                member = np.searchsorted(ks, ok)
                hit = (member < len(ks)) & (ks[np.minimum(member, len(ks) - 1)] == ok)
            if anti:
                hit = ~hit
            return batch.filter(pa.array(hit))

        filtered = lineitem.map_batches(
            filt, batch_format="pyarrow", zero_copy_batch=True
        )
    else:
        from .dedup import _join_partitions
        from .joins import partitioned_hash_join

        # o_orderkey is unique in orders, so the left join multiplies no rows
        marked = keys_ds.map_batches(
            lambda t: pa.table(
                {
                    "o_orderkey": t["o_orderkey"].cast(pa.int64()),
                    "__hit": pa.array(np.ones(t.num_rows, np.int8), pa.int8()),
                }
            ),
            batch_format="pyarrow",
        )
        j = partitioned_hash_join(
            lineitem,
            marked,
            left_on="l_orderkey",
            right_on="o_orderkey",
            # P sized to the LARGER side (lineitem count is parquet metadata)
            num_partitions=_join_partitions(max(n_keys, lineitem.count())),
            how="left",
        )
        want_null = anti
        filtered = j.map_batches(
            lambda t: t.filter(
                pc.is_null(t["__hit"]) if want_null else pc.is_valid(t["__hit"])
            ).select(["l_orderkey", "l_quantity"]),
            batch_format="pyarrow",
        )

    agg = filtered.aggregate(Count(), Sum("l_quantity")) or {}
    import pandas as pd

    n_rows = int(agg.get("count()") or 0)
    total = agg.get("sum(l_quantity)")
    # SQL sum() over ZERO rows is NULL, not 0 — mirror it (found by the
    # relational fuzz; the sf tables always keep rows so the driver gate
    # never exercised the empty branch)
    sum_qty = (
        round_half_away(float(total), 2)
        if n_rows > 0 and total is not None
        else float("nan")
    )
    return pd.DataFrame([{"n_rows": n_rows, "sum_qty": sum_qty}])


def q_semi_join(sf_dir: str):
    return _semi_anti(sf_dir, anti=False)


def q_anti_join(sf_dir: str):
    return _semi_anti(sf_dir, anti=True)


def _sql_semi_anti(anti: bool) -> str:
    op = "NOT IN" if anti else "IN"
    return f"""
SELECT count(*)::BIGINT AS n_rows, round(sum(l_quantity), 2) AS sum_qty
FROM lineitem
WHERE l_orderkey {op} (SELECT o_orderkey FROM orders WHERE o_totalprice > {SEMI_JOIN_PRICE})
"""


def q_orders_by_segment(sf_dir: str):
    """Driver-checked exercise of the partitioned hash join itself:
    orders |><| customer on custkey, revenue per market segment."""
    from .dedup import _join_partitions
    from .joins import partitioned_hash_join

    base = sf_dir if os.path.isdir(sf_dir) else os.path.dirname(sf_dir)
    orders = read_parquet_sized(
        os.path.join(base, "orders.parquet"), columns=["o_custkey", "o_totalprice"]
    )
    cust = read_parquet_sized(
        os.path.join(base, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    # P scaled to the larger side so no bucket holds more than
    # ~JOIN_ROWS_PER_PARTITION rows (parquet row counts come from metadata)
    j = partitioned_hash_join(
        orders,
        cust,
        left_on="o_custkey",
        right_on="c_custkey",
        num_partitions=_join_partitions(max(orders.count(), cust.count())),
    )

    # Map-side partial combine: each join-output block collapses to <= 5
    # rows (one per segment) BEFORE the groupby's sort exchange, so the
    # all-to-all moves O(segments x blocks) rows instead of every joined
    # row — the count/sum algebra re-associates exactly (2-dp rounding
    # absorbs double-sum order at these magnitudes, same as the oracle).
    _P_SCHEMA = pa.schema(
        [
            ("c_mktsegment", pa.string()),
            ("pcnt", pa.int64()),
            ("psum", pa.float64()),
        ]
    )

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return _P_SCHEMA.empty_table()
        g = b.group_by("c_mktsegment").aggregate(
            [("o_totalprice", "count"), ("o_totalprice", "sum")]
        )
        return pa.table(
            {
                "c_mktsegment": g["c_mktsegment"],
                "pcnt": g["o_totalprice_count"].cast(pa.int64()),
                "psum": g["o_totalprice_sum"].cast(pa.float64()),
            }
        )

    agg = (
        j.map_batches(partial, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(
            Sum("pcnt", alias_name="n_orders"),
            Sum("psum", alias_name="revenue_raw"),
        )
    )
    return agg.map_batches(
        lambda b: b.append_column(
            "revenue", pc_round_half_away(b["revenue_raw"], 2)
        ).drop_columns(["revenue_raw"]),
        batch_format="pyarrow",
    )


SQL_ORDERS_BY_SEGMENT = """
SELECT c.c_mktsegment, count(*)::BIGINT AS n_orders,
       round(sum(o.o_totalprice), 2) AS revenue
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment
"""


KNN_N_QUERIES = 5
KNN_K = 10


def q_knn_cosine(sf_dir: str):
    """Brute-force cosine top-k: broadcast query matrix, vectorized matmul
    per batch, then a PER-BATCH partial top-k (each batch emits at most k
    rows per query) so the final per-query groupby sees O(k * n_batches)
    rows instead of all N sims — the round-1 version collected every sim
    of a query into one unbounded pandas group.  The local and global
    selections use the identical total order (rounded sim desc, vec_id
    asc), so the global top-k is always contained in the union of the
    per-batch top-ks.  The sublinear scale path is `similarity.ann_lsh`."""
    path = os.path.join(sf_dir, "embeddings.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["vec_id", "embedding"])
    qrows = ds.filter(expr=f"vec_id < {KNN_N_QUERIES}").take_all()
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    qmat = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in qrows])
    qmat_n = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
    qref = ray.put((qids, qmat_n))  # broadcast once, read per task

    def sims_topk(batch: pa.Table) -> pa.Table:
        q_ids, q_n = ray.get(qref)
        emb = batch["embedding"].combine_chunks()
        mat = np.asarray(emb.values.to_numpy(zero_copy_only=False), dtype=np.float64)
        mat = mat.reshape(len(batch), -1)
        mat_n = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        s = round_half_away(mat_n @ q_n.T, 6)  # (batch, nq); rounded BEFORE topk
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(q_ids)):
            col = s[:, qi]
            mask = vec_ids != q_ids[qi]  # exclude self-match here, not later
            cand = np.flatnonzero(mask)
            order = np.lexsort((vec_ids[cand], -col[cand]))[:KNN_K]
            sel = cand[order]
            out_q.append(np.full(len(sel), q_ids[qi], np.int64))
            out_v.append(vec_ids[sel])
            out_s.append(col[sel])
        return pa.table(
            {
                "qid": pa.array(np.concatenate(out_q), pa.int64()),
                "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
                "sim": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    import pandas as pd

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sim", "vec_id"], ascending=[False, True]).head(KNN_K)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return (
        ds.map_batches(sims_topk, batch_format="pyarrow")
        .groupby("qid")
        .map_groups(topk, batch_format="pandas")
    )


SQL_KNN_COSINE = f"""
WITH q AS (
    SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
    FROM embeddings WHERE vec_id < {KNN_N_QUERIES}
),
pairs AS (
    SELECT q.qid, e.vec_id,
           round(list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])), 6) AS sim
    FROM q CROSS JOIN embeddings e
    WHERE e.vec_id != q.qid
),
ranked AS (
    SELECT qid, vec_id, sim,
           row_number() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) AS rank
    FROM pairs
)
SELECT qid, vec_id, sim, rank::BIGINT AS rank FROM ranked WHERE rank <= {KNN_K}
"""


def q_dedup_exact(sf_dir: str):
    """Exact dedup: md5 straight off the Arrow string buffer (memoryview
    slices, no pandas round-trip / per-row encode), then hash-sharded
    keep-first aggregation — 64 Ray-level groups with a vectorized pandas
    aggregate inside each, instead of a per-distinct-key Ray aggregate
    (which walks keys in Python).  md5 is kept because the DuckDB oracle
    can only reproduce md5."""
    import pandas as pd

    from ..functions.tokenize import _string_buffers

    def add_hash(batch: pa.Table) -> pa.Table:
        texts = batch["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        data, offsets = _string_buffers(texts)
        mv = memoryview(data)
        digests = [
            hashlib.md5(mv[offsets[i] : offsets[i + 1]]).digest()
            for i in range(batch.num_rows)
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "text_md5": pa.array([d.hex() for d in digests], pa.string()),
                "__kshard": pa.array(
                    np.array([d[0] for d in digests], np.int64) % 64, pa.int64()
                ),
            }
        )

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("text_md5", as_index=False).agg(
            keep_doc_id=("doc_id", "min"), n_dups=("doc_id", "size")
        )
        return out.astype({"keep_doc_id": "int64", "n_dups": "int64"})

    return (
        load_documents(sf_dir)
        .map_batches(add_hash, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__kshard")
        .map_groups(agg, batch_format="pandas")
    )


SQL_DEDUP_EXACT = """
SELECT md5(text) AS text_md5, min(doc_id)::BIGINT AS keep_doc_id,
       count(*)::BIGINT AS n_dups
FROM documents GROUP BY md5(text)
"""


# --------------------------------------------------------------------------
# training-data operators (dedup / similarity / text analysis)

def q_dedup_minhash(sf_dir: str):
    from .dedup import minhash_dedup_pairs_cached

    return minhash_dedup_pairs_cached(sf_dir, threshold=0.5)


# Incremental delta-vs-corpus dedup (round-4 verdict item 2).  The sf
# corpus has no natural "delta", so the entry synthesizes one the SQL
# replicates: every 100th doc cloned verbatim at doc_id + DELTA_OFFSET —
# guaranteed est_jaccard=1.0 matches against its source, so the entry is
# never empty at sf0.001+ (the embedding_neardup_srp augmentation
# precedent).  The engine leg goes through minhash_pairs_delta, which
# reads corpus signatures from the durable parquet checkpoint — the
# delta never re-sketches the corpus.
DEDUP_DELTA_OFFSET = 10_000_000
DEDUP_DELTA_EVERY = 100


def q_dedup_minhash_delta(sf_dir: str):
    import numpy as np
    import pyarrow.compute as pc

    from ..sources.documents import load_documents
    from .dedup import minhash_pairs_delta

    docs = load_documents(sf_dir)

    def mk_delta(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids % DEDUP_DELTA_EVERY == 0))
        return pa.table(
            {
                "doc_id": pc.add(t["doc_id"], DEDUP_DELTA_OFFSET),
                "url": t["url"],
                "text": t["text"],
                "dl": t["dl"],
            }
        )

    delta = docs.map_batches(mk_delta, batch_format="pyarrow")
    return minhash_pairs_delta(sf_dir, delta, threshold=0.5)


SQL_DEDUP_MINHASH_DELTA = _sketch_sql.sql_minhash_pairs(
    table="corpus_plus_delta",
    prelude_ctes=f"""corpus_plus_delta AS (
    SELECT doc_id, text FROM documents
    UNION ALL
    SELECT doc_id + {DEDUP_DELTA_OFFSET} AS doc_id, text
    FROM documents WHERE doc_id % {DEDUP_DELTA_EVERY} = 0
), """,
    pair_where=f" AND doc_b >= {DEDUP_DELTA_OFFSET}",
)


def q_dedup_simhash(sf_dir: str):
    from .dedup import simhash_dedup_pairs

    return simhash_dedup_pairs(sf_dir, max_hamming=3)


NGRAM_JACCARD_THRESHOLD = 0.5

# exact k=3-token-shingle Jaccard, shared by the pair + cluster oracles.
# Replicates the engine's shingling (clean tokens, <=15 chars) with string
# triples where the engine uses 64-bit shingle hashes (collision odds ~2^-64).
_SQL_NGRAM_BASE = f"""
filt AS (
    SELECT doc_id,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM documents
),
pos AS (
    SELECT doc_id, unnest(toks) AS tok,
           unnest(range(1, len(toks) + 1)) AS i
    FROM filt
),
sh AS (
    SELECT DISTINCT a.doc_id,
           a.tok || chr(1) || b.tok || chr(1) || c.tok AS shingle
    FROM pos a
    JOIN pos b ON b.doc_id = a.doc_id AND b.i = a.i + 1
    JOIN pos c ON c.doc_id = a.doc_id AND c.i = a.i + 2
),
sizes AS (SELECT doc_id, count(*)::DOUBLE AS n FROM sh GROUP BY doc_id),
inter AS (
    SELECT x.doc_id AS doc_a, y.doc_id AS doc_b, count(*)::DOUBLE AS ints
    FROM sh x JOIN sh y ON x.shingle = y.shingle AND x.doc_id < y.doc_id
    GROUP BY 1, 2
),
jpairs AS (
    SELECT doc_a, doc_b, ints / (sa.n + sb.n - ints) AS jac
    FROM inter
    JOIN sizes sa ON sa.doc_id = doc_a
    JOIN sizes sb ON sb.doc_id = doc_b
    WHERE ints / (sa.n + sb.n - ints) >= {NGRAM_JACCARD_THRESHOLD}
)
"""

SQL_NGRAM_JACCARD = (
    "WITH " + _SQL_NGRAM_BASE
    + "SELECT doc_a, doc_b, round(jac, 6) AS jaccard FROM jpairs"
)


def q_dedup_ngram_jaccard(sf_dir: str):
    from .dedup import ngram_jaccard_pairs_cached

    return ngram_jaccard_pairs_cached(
        sf_dir, threshold=NGRAM_JACCARD_THRESHOLD
    )


EMB_NEARDUP_THRESHOLD = 0.4


def q_embedding_neardup(sf_dir: str):
    from .dedup import embedding_dedup_pairs

    return embedding_dedup_pairs(sf_dir, threshold=EMB_NEARDUP_THRESHOLD)


SQL_EMBEDDING_NEARDUP = f"""
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 6) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= {EMB_NEARDUP_THRESHOLD}
"""


# High-threshold variant pinned to the SRP-banded prefilter plan.  At sf
# scale the auto-picker always chooses the grid (G=1 beats any band count),
# so without this entry the recall-guaranteed LSH path — the plan that
# actually runs at 100 TB — would never face the driver's hash gate.  The
# sf tables contain NO pairs above cosine 0.8, so the entry runs over a
# deterministically augmented table (every AUG_EVERY-th vector duplicated
# under vec_id + AUG_OFFSET, replicated in the SQL CTE) — otherwise the
# gate would only ever compare empty-to-empty.
EMB_NEARDUP_HI_THRESHOLD = 0.9
EMB_AUG_EVERY = 100
EMB_AUG_OFFSET = 10_000_000


def q_embedding_neardup_srp(sf_dir: str):
    from .dedup import embedding_dedup_pairs

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = read_parquet_sized(path, columns=["vec_id", "embedding"])

    def aug(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        mask = pa.array(ids % EMB_AUG_EVERY == 0)
        dup = b.filter(mask)
        dup = dup.set_column(
            dup.schema.get_field_index("vec_id"),
            "vec_id",
            pc.add(dup["vec_id"], EMB_AUG_OFFSET),
        )
        return pa.concat_tables([b, dup])

    return embedding_dedup_pairs(
        ds.map_batches(aug, batch_format="pyarrow"),
        threshold=EMB_NEARDUP_HI_THRESHOLD,
        method="lsh",
    )


SQL_EMBEDDING_NEARDUP_SRP = f"""
WITH aug AS (
    SELECT vec_id, embedding FROM embeddings
    UNION ALL
    SELECT vec_id + {EMB_AUG_OFFSET} AS vec_id, embedding
    FROM embeddings WHERE vec_id % {EMB_AUG_EVERY} = 0
)
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 6) AS cosine
FROM aug a JOIN aug b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= {EMB_NEARDUP_HI_THRESHOLD}
"""


def q_embedding_neardup_delta(sf_dir: str):
    """Incremental embedding near-dup (dedup.embedding_pairs_delta): the
    SRP-banded delta path over a clone-every-100th delta — pairs CREATED
    by the delta only (corpus-vs-corpus dropped in-worker via the
    band-carry flag), exact at the high threshold by the SRP recall
    guarantee.  The embedding twin of dedup_minhash_delta."""
    from .dedup import embedding_pairs_delta

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = read_parquet_sized(path, columns=["vec_id", "embedding"])

    def mk_delta(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        d = b.filter(pa.array(ids % EMB_AUG_EVERY == 0))
        return d.set_column(
            d.schema.get_field_index("vec_id"),
            "vec_id",
            pc.add(d["vec_id"], EMB_AUG_OFFSET),
        )

    delta = ds.map_batches(mk_delta, batch_format="pyarrow")
    return embedding_pairs_delta(
        sf_dir, delta, threshold=EMB_NEARDUP_HI_THRESHOLD
    )


SQL_EMBEDDING_NEARDUP_DELTA = f"""
WITH aug AS (
    SELECT vec_id, embedding FROM embeddings
    UNION ALL
    SELECT vec_id + {EMB_AUG_OFFSET} AS vec_id, embedding
    FROM embeddings WHERE vec_id % {EMB_AUG_EVERY} = 0
)
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 6) AS cosine
FROM aug a JOIN aug b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= {EMB_NEARDUP_HI_THRESHOLD}
  AND b.vec_id >= {EMB_AUG_OFFSET}
"""


def q_dedup_clusters(sf_dir: str):
    """Connected components over the EXACT n-gram-Jaccard near-dup pairs —
    SQL-checkable end to end (the pair set is deterministic and the
    component labels are reproduced by a recursive CTE)."""
    from .dedup import dedup_clusters, ngram_jaccard_pairs_cached

    pairs = ngram_jaccard_pairs_cached(
        sf_dir, threshold=NGRAM_JACCARD_THRESHOLD
    )
    return dedup_clusters(pairs, load_documents(sf_dir))


SQL_DEDUP_CLUSTERS = (
    "WITH RECURSIVE " + _SQL_NGRAM_BASE
    + """,
edges AS (
    SELECT doc_a AS a, doc_b AS b FROM jpairs
    UNION ALL
    SELECT doc_b, doc_a FROM jpairs
),
nodes AS (SELECT DISTINCT a AS node FROM edges),
reach(node, r) AS (
    SELECT node, node FROM nodes
    UNION
    SELECT reach.node, e.b FROM reach JOIN edges e ON e.a = reach.r
)
SELECT node::BIGINT AS node, min(r)::BIGINT AS lbl FROM reach GROUP BY node
"""
)


def q_ann_lsh(sf_dir: str):
    from .similarity import ann_lsh

    return ann_lsh(sf_dir, n_queries=5, top_k=10)


def q_ann_lsh_served(sf_dir: str):
    """Same queries answered from the PERSISTED ANN artifact
    (ann_store.py: fingerprinted codebook + hive-partitioned bucket
    assignments, built once and reused) — bit-identical to q_ann_lsh, so
    it shares that entry's SQL oracle verbatim."""
    from .ann_store import ann_serve

    return ann_serve(sf_dir, kind="lsh", n_queries=5, top_k=10)


def q_ann_ivf_served(sf_dir: str):
    """IVF twin of q_ann_lsh_served; shares SQL_ANN_IVF."""
    from .ann_store import ann_serve

    return ann_serve(
        sf_dir, kind="ivf",
        n_queries=IVF_N_QUERIES, top_k=IVF_TOP_K, n_probe=IVF_N_PROBE,
    )


EMB_DIM = 64  # all sf embeddings tables are list<float>[64]


def _sql_ann_lsh(n_queries: int = 5, top_k: int = 10) -> str:
    """DuckDB replication of the multiprobe LSH ANN: the seeded hyperplanes
    are DATA (deterministic given dim), inlined as literals, so bucketing
    (sign of dot products), radius-2 probe expansion, candidate join,
    exact-cosine scoring and ranking are all reproduced exactly.  Sign
    flips from float discrepancies require |dot| ~ ulp — measure-zero.

    ``nbits`` derives from count(*) with INTEGER shifts (min b with
    2^b >= ceil(N/target), clamped) — the same arithmetic as
    ``similarity.lsh_bits_for`` — and all LSH_MAX_BITS plane columns are
    inlined with ``bit < nbits`` filters, so the oracle tracks the
    engine's data-dependent bit count at any scale."""
    from .similarity import (
        ANN_TARGET_BUCKET,
        LSH_MAX_BITS,
        LSH_MIN_BITS,
        _planes,
    )

    planes = _planes(EMB_DIM, LSH_MAX_BITS)  # (dim, MAX_BITS) float64
    rows = ", ".join(
        "({}, [{}])".format(
            b, ", ".join(repr(float(x)) for x in planes[:, b])
        )
        for b in range(LSH_MAX_BITS)
    )
    tb = ANN_TARGET_BUCKET
    return f"""
WITH params AS (
    SELECT least({LSH_MAX_BITS}, greatest({LSH_MIN_BITS}, coalesce((
        SELECT min(t.b) FROM range(1, {LSH_MAX_BITS + 1}) t(b)
        WHERE (1::BIGINT << t.b) >=
              (SELECT greatest(1, (count(*) + {tb - 1}) // {tb}) FROM embeddings)
    ), {LSH_MAX_BITS})))::BIGINT AS nbits
),
v AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS ve FROM embeddings),
all_planes(bit, pv) AS (VALUES {rows}),
planes AS (SELECT bit, pv FROM all_planes, params WHERE bit < params.nbits),
masks(m) AS (
    SELECT 0
    UNION SELECT (1::BIGINT << bit) FROM planes
    UNION SELECT xor(1::BIGINT << b1.bit, 1::BIGINT << b2.bit)
          FROM planes b1 JOIN planes b2 ON b1.bit < b2.bit
),
vbits AS MATERIALIZED (
    SELECT v.vec_id,
           sum(CASE WHEN list_dot_product(v.ve, p.pv) > 0
                    THEN 1 << p.bit ELSE 0 END)::BIGINT AS bucket
    FROM v CROSS JOIN planes p GROUP BY v.vec_id
),
q AS (SELECT vec_id AS qid, ve AS qe FROM v WHERE vec_id < {n_queries}),
qb AS (SELECT q.qid, vb.bucket FROM q JOIN vbits vb ON vb.vec_id = q.qid),
probes AS (
    SELECT DISTINCT qb.qid, xor(qb.bucket, masks.m) AS bucket
    FROM qb CROSS JOIN masks
),
cand AS (
    SELECT DISTINCT p.qid, vb.vec_id
    FROM probes p JOIN vbits vb ON vb.bucket = p.bucket
),
sims AS (
    SELECT cand.qid, cand.vec_id,
           round(list_cosine_similarity(q.qe, v.ve), 6) AS sim
    FROM cand JOIN q ON q.qid = cand.qid JOIN v ON v.vec_id = cand.vec_id
    WHERE cand.vec_id != cand.qid
),
ranked AS (
    SELECT qid, vec_id, sim,
           row_number() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) AS rank
    FROM sims
)
SELECT qid, vec_id, sim, rank::BIGINT AS rank FROM ranked WHERE rank <= {top_k}
"""


IVF_N_QUERIES = 5
IVF_TOP_K = 10
IVF_N_PROBE = 4


def q_ann_ivf(sf_dir: str):
    from .similarity import ann_ivf

    return ann_ivf(
        sf_dir,
        n_queries=IVF_N_QUERIES,
        top_k=IVF_TOP_K,
        n_probe=IVF_N_PROBE,  # n_centroids derives from N (~sqrt)
    )


# The stride-picked codebook makes the WHOLE IVF pipeline (super pick,
# membership, assignment, probing, scoring, ranking) SQL-reproducible: no
# RNG, all tie-breaks are (score DESC, id ASC).  TWO-LEVEL quantizer
# (round-3 verdict item 5): n_centroids = ceil(sqrt(N)), supers = every
# sstride-th centroid with sstride = max(1, n_cents // ceil(sqrt(n_cents)))
# (~N^(1/4) supers); each centroid belongs to its nearest super; vectors
# and queries consider only the member centroids of their IVF_ASSIGN_PROBE
# nearest supers.  All integer derivations come from count(*) (IEEE sqrt
# is correctly rounded -> integer-exact below 2^52).
from .similarity import IVF_ASSIGN_PROBE  # noqa: E402

SQL_ANN_IVF = f"""
WITH params AS (
    SELECT greatest(1, count(*) //
               greatest(1, ceil(sqrt(count(*)))::BIGINT)) AS stride
    FROM embeddings
),
v AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS ve FROM embeddings),
cents AS (
    SELECT vec_id AS cid, ve AS ce FROM v, params WHERE vec_id % params.stride = 0
),
sparams AS (
    SELECT greatest(1, count(*) //
               greatest(1, ceil(sqrt(count(*)))::BIGINT)) AS sstride
    FROM cents
),
supers AS (
    SELECT cid AS scid, ce AS se FROM cents, params, sparams
    WHERE cid % (params.stride * sparams.sstride) = 0
),
casg_ranked AS (
    SELECT c.cid, s.scid,
           row_number() OVER (
               PARTITION BY c.cid
               ORDER BY list_cosine_similarity(c.ce, s.se) DESC, s.scid
           ) AS rn
    FROM cents c CROSS JOIN supers s
),
casg AS (SELECT cid, scid FROM casg_ranked WHERE rn = 1),
vsup_ranked AS (
    SELECT v.vec_id, s.scid,
           row_number() OVER (
               PARTITION BY v.vec_id
               ORDER BY list_cosine_similarity(v.ve, s.se) DESC, s.scid
           ) AS rn
    FROM v CROSS JOIN supers s
),
vcand AS (
    SELECT vr.vec_id, ca.cid
    FROM vsup_ranked vr JOIN casg ca ON ca.scid = vr.scid
    WHERE vr.rn <= {IVF_ASSIGN_PROBE}
),
asg_ranked AS (
    SELECT vc.vec_id, vc.cid,
           row_number() OVER (
               PARTITION BY vc.vec_id
               ORDER BY list_cosine_similarity(v.ve, c.ce) DESC, vc.cid
           ) AS rn
    FROM vcand vc
    JOIN v ON v.vec_id = vc.vec_id
    JOIN cents c ON c.cid = vc.cid
),
asg AS (SELECT vec_id, cid FROM asg_ranked WHERE rn = 1),
q AS (SELECT vec_id AS qid, ve AS qe FROM v WHERE vec_id < {IVF_N_QUERIES}),
probe_ranked AS (
    SELECT q.qid, vc.cid,
           row_number() OVER (
               PARTITION BY q.qid
               ORDER BY list_cosine_similarity(q.qe, c.ce) DESC, vc.cid
           ) AS rn
    FROM q
    JOIN vcand vc ON vc.vec_id = q.qid
    JOIN cents c ON c.cid = vc.cid
),
probes AS (SELECT qid, cid FROM probe_ranked WHERE rn <= {IVF_N_PROBE}),
cand AS (
    SELECT p.qid, a.vec_id FROM probes p JOIN asg a ON a.cid = p.cid
),
sims AS (
    SELECT cand.qid, cand.vec_id,
           round(list_cosine_similarity(q.qe, v.ve), 6) AS sim
    FROM cand JOIN q ON q.qid = cand.qid JOIN v ON v.vec_id = cand.vec_id
    WHERE cand.vec_id != cand.qid
),
ranked AS (
    SELECT qid, vec_id, sim,
           row_number() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) AS rank
    FROM sims
)
SELECT qid, vec_id, sim, rank::BIGINT AS rank FROM ranked WHERE rank <= {IVF_TOP_K}
"""


def q_langid(sf_dir: str):
    from .textpipe import langid_ds

    return langid_ds(sf_dir)


def _sql_langid() -> str:
    """DuckDB re-implementation of the stopword-profile language ID:
    per-language stopword-hit ratios over clean tokens, argmax with
    first-in-sorted-lang-order tie-break, < 0.05 confidence -> 'und'."""
    from .textpipe import STOPWORDS

    langs = sorted(STOPWORDS)  # matches LangId's np.argmax order
    hit_cols = ", ".join(
        "sum(CASE WHEN term IN ({}) THEN 1 ELSE 0 END)::DOUBLE AS h_{}".format(
            ", ".join(f"'{w}'" for w in STOPWORDS[lang]), lang
        )
        for lang in langs
    )
    ratio_cols = ", ".join(
        f"coalesce(h.h_{lang} / nullif(h.n_tokens, 0), 0) AS r_{lang}"
        for lang in langs
    )
    best = "greatest({})".format(", ".join(f"r_{lang}" for lang in langs))
    # first max in sorted-lang order == np.argmax over the sorted lang axis
    pick = "CASE "
    for lang in langs[:-1]:
        conds = " AND ".join(
            f"r_{lang} >= r_{other}" for other in langs if other != lang
        )
        pick += f"WHEN {conds} THEN '{lang}' "
    pick += f"ELSE '{langs[-1]}' END"
    return f"""
WITH {_SQL_TOKENS_CLEAN},
h AS (
    SELECT doc_id, count(*)::DOUBLE AS n_tokens, {hit_cols}
    FROM tokc_kept GROUP BY doc_id
),
r AS (
    SELECT d.doc_id, {ratio_cols}
    FROM documents d LEFT JOIN h ON d.doc_id = h.doc_id
),
scored AS (SELECT doc_id, {best} AS best, {pick} AS lang FROM r)
SELECT doc_id,
       CASE WHEN best >= 0.05 THEN lang ELSE 'und' END AS lang_pred,
       round(best, 6) AS confidence
FROM scored
"""


def q_quality(sf_dir: str):
    from .textpipe import quality_ds

    return quality_ds(sf_dir)


def q_fingerprint(sf_dir: str):
    """Rolling-fingerprint dup groups, SQL-checked via the normalized
    token stream (see textpipe.fingerprint_groups_ds)."""
    from .textpipe import fingerprint_groups_ds

    return fingerprint_groups_ds(sf_dir)


SQL_FINGERPRINT = """
WITH s AS (
    SELECT doc_id,
           array_to_string(
               list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                           x -> len(x) <= 15),
               ' ') AS stream
    FROM documents
)
SELECT doc_id,
       min(doc_id) OVER (PARTITION BY stream) AS canon_doc_id,
       count(*) OVER (PARTITION BY stream)::BIGINT AS n_dups
FROM s
"""


# clean-mode tokens (NO trailing drop — quality metrics use every token)
_SQL_TOKENS_CLEAN = """
tokc AS (
    SELECT doc_id, unnest(tokens) AS term
    FROM (
        SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS tokens
        FROM documents
    )
),
tokc_kept AS (
    SELECT doc_id, term FROM tokc WHERE length(term) BETWEEN 1 AND 15
)
"""

_QUALITY_STOPLIST_SQL = ", ".join(
    f"'{w}'" for w in [
        "the", "and", "of", "a", "to", "in", "is", "it", "that", "for", "on", "with",
    ]
)

SQL_QUALITY = (
    "WITH "
    + _SQL_TOKENS_CLEAN
    + f""",
tstats AS (
    SELECT doc_id,
           count(*)::BIGINT AS n_tokens,
           avg(length(term)) AS mean_len,
           sum(CASE WHEN term IN ({_QUALITY_STOPLIST_SQL}) THEN 1 ELSE 0 END)::DOUBLE
               / count(*) AS stop_ratio
    FROM tokc_kept GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(t.n_tokens, 0) AS n_tokens,
       round(coalesce(t.mean_len, 0), 6) AS mean_token_len,
       round(length(regexp_replace(d.text, '[^a-zA-Z0-9]', '', 'g'))::DOUBLE
             / nullif(strlen(d.text), 0), 6) AS alnum_ratio,
       round(length(regexp_replace(d.text, '[^0-9]', '', 'g'))::DOUBLE
             / nullif(strlen(d.text), 0), 6) AS digit_ratio,
       round(coalesce(t.stop_ratio, 0), 6) AS stopword_ratio
FROM documents d LEFT JOIN tstats t USING (doc_id)
"""
)


def q_token_count_bpe(sf_dir: str):
    from .textpipe import bpe_token_count_ds

    return bpe_token_count_ds(sf_dir)


def _sql_token_count_bpe() -> str:
    from .textpipe import BPE_REGEX

    pat = BPE_REGEX.replace("'", "''")
    return f"""
SELECT doc_id,
       length(regexp_extract_all(text, '{pat}'))::BIGINT AS n_bpe_tokens
FROM documents
"""


def q_events_sliding(sf_dir: str):
    from .windows import sliding_window

    return sliding_window(sf_dir)


def q_events_sessions(sf_dir: str):
    from .windows import session_windows

    return session_windows(sf_dir)


def _sql_windows():
    from .windows import sql_session_windows, sql_sliding_window

    return sql_sliding_window(), sql_session_windows()


# --------------------------------------------------------------------------
# registry

QUERIES = {
    "postings": (q_postings, SQL_POSTINGS),
    "term_stats": (q_term_stats, SQL_TERM_STATS),
    "doc_token_stats": (q_doc_token_stats, SQL_DOC_TOKEN_STATS),
    "doc_stats": (q_doc_stats, SQL_DOC_STATS),
    "dataset_card": (q_dataset_card, SQL_DATASET_CARD),
    "lang_counts": (q_lang_counts, SQL_LANG_COUNTS),
    "top_terms": (q_top_terms, SQL_TOP_TERMS),
    "bm25_all_and": (q_bm25_and, _sql_bm25(True)),
    "bm25_all_or": (q_bm25_or, _sql_bm25(False)),
    "bm25_and_not": (q_bm25_and_not, _sql_bm25_and_not()),
    "bm25_tombstoned": (q_bm25_tombstoned, _sql_bm25_tombstoned()),
    "bm25_after_ingest": (q_bm25_after_ingest, _sql_bm25_after_ingest()),
    "bm25_cnf": (q_bm25_cnf, _sql_bm25_cnf()),
    "bm25_msm": (q_bm25_msm, _sql_bm25_msm()),
    "facet_counts": (q_facet_counts, _sql_facet_counts()),
    "search_after": (q_search_after, _sql_search_after()),
    "score_explain": (q_score_explain, _sql_score_explain()),
    "collapse_by_source": (q_collapse_by_source, _sql_collapse_by_source()),
    "bm25_filtered": (q_bm25_filtered, _sql_bm25_filtered()),
    "events_tumbling": (q_events_tumbling, SQL_EVENTS_TUMBLING),
    "user_cohorts": (q_user_cohorts, SQL_USER_COHORTS),
    "lineitem_agg": (q_lineitem_agg, SQL_LINEITEM_AGG),
    "knn_cosine": (q_knn_cosine, SQL_KNN_COSINE),
    "dedup_exact": (q_dedup_exact, SQL_DEDUP_EXACT),
    # training-data ops; entries with sql=None get the driver's rows-only check
    "dedup_minhash": (q_dedup_minhash, _sketch_sql.sql_minhash_pairs()),
    "dedup_minhash_delta": (q_dedup_minhash_delta, SQL_DEDUP_MINHASH_DELTA),
    "dedup_simhash": (q_dedup_simhash, _sketch_sql.sql_simhash_pairs()),
    "dedup_ngram_jaccard": (q_dedup_ngram_jaccard, SQL_NGRAM_JACCARD),
    "dedup_clusters": (q_dedup_clusters, SQL_DEDUP_CLUSTERS),
    "embedding_neardup": (q_embedding_neardup, SQL_EMBEDDING_NEARDUP),
    "embedding_neardup_srp": (q_embedding_neardup_srp, SQL_EMBEDDING_NEARDUP_SRP),
    "embedding_neardup_delta": (q_embedding_neardup_delta, SQL_EMBEDDING_NEARDUP_DELTA),
    "ann_lsh": (q_ann_lsh, _sql_ann_lsh()),
    "ann_lsh_served": (q_ann_lsh_served, _sql_ann_lsh()),
    "ann_ivf": (q_ann_ivf, SQL_ANN_IVF),
    "ann_ivf_served": (q_ann_ivf_served, SQL_ANN_IVF),
    "langid": (q_langid, _sql_langid()),
    "quality": (q_quality, SQL_QUALITY),
    "fingerprint": (q_fingerprint, SQL_FINGERPRINT),
    "token_count_bpe": (q_token_count_bpe, _sql_token_count_bpe()),
}

_sliding_sql, _session_sql = _sql_windows()
QUERIES["events_sliding"] = (q_events_sliding, _sliding_sql)
QUERIES["events_sessions"] = (q_events_sessions, _session_sql)
QUERIES["semi_join"] = (q_semi_join, _sql_semi_anti(False))
QUERIES["anti_join"] = (q_anti_join, _sql_semi_anti(True))
QUERIES["orders_by_segment"] = (q_orders_by_segment, SQL_ORDERS_BY_SEGMENT)
QUERIES["sample_hash"] = (q_sample_hash, SQL_SAMPLE_HASH)
QUERIES["lineitem_quantiles"] = (q_lineitem_quantiles, _sql_lineitem_quantiles())
QUERIES["price_quantiles"] = (q_price_quantiles, _sql_price_quantiles())


def q_corpus_clean(sf_dir: str):
    """Composed cleaning chain (langid ∧ quality ∧ exact-dup keep-first ∧
    minhash near-dup) — each stage is hash-checked alone by its own entry;
    this entry hash-checks their COMPOSITION."""
    from .clean import corpus_clean

    return corpus_clean(sf_dir)


def _sql_corpus_clean() -> str:
    from .clean import (
        CLEAN_JACCARD,
        CLEAN_MIN_ALNUM,
        CLEAN_MIN_STOPWORD,
        CLEAN_MIN_TOKENS,
    )

    return f"""
WITH lang AS (SELECT * FROM ({_sql_langid()})),
qual AS (SELECT * FROM ({SQL_QUALITY})),
exact_keep AS (
    SELECT doc_id FROM (
        SELECT doc_id, min(doc_id) OVER (PARTITION BY md5(text)) AS keeper
        FROM documents
    ) WHERE doc_id = keeper
),
mh_losers AS (
    SELECT DISTINCT doc_b
    FROM ({_sketch_sql.sql_minhash_pairs(threshold=CLEAN_JACCARD)})
)
SELECT l.doc_id, l.lang_pred, q.n_tokens
FROM lang l JOIN qual q USING (doc_id) JOIN exact_keep USING (doc_id)
WHERE l.lang_pred != 'und'
  AND q.n_tokens >= {CLEAN_MIN_TOKENS}
  AND q.alnum_ratio >= {CLEAN_MIN_ALNUM}
  AND q.stopword_ratio >= {CLEAN_MIN_STOPWORD}
  AND l.doc_id NOT IN (SELECT doc_b FROM mh_losers)
"""


QUERIES["corpus_clean"] = (q_corpus_clean, _sql_corpus_clean())


GROUP_TOPK_K = 3


def q_top_docs_per_lang(sf_dir: str):
    """Grouped top-k (largest docs per language) — the per-domain sampling
    primitive: per-batch partial top-k (≤k rows per group per batch under
    the total order (n_chars desc, doc_id asc)), then a final merge over
    only n_langs tiny groups.  No full sort, no per-key groupby on an
    unbounded keyspace — group count is what's small here, not row count."""
    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["doc_id", "lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        # dictionary-encode keeps the group keys in Arrow (integer codes)
        # instead of a to_pylist object round-trip (round-3 verdict)
        codes = (
            batch["lang"].combine_chunks().dictionary_encode()
            .indices.to_numpy(zero_copy_only=False)
        )
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        nc = batch["n_chars"].to_numpy(zero_copy_only=False)
        keep = np.zeros(len(ids), dtype=bool)
        for code in np.unique(codes):  # distinct langs per batch — few
            rows = np.flatnonzero(codes == code)
            order = np.lexsort((ids[rows], -nc[rows]))[:GROUP_TOPK_K]
            keep[rows[order]] = True
        return batch.filter(pa.array(keep))

    import pandas as pd

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_chars", "doc_id"], ascending=[False, True]).head(
            GROUP_TOPK_K
        )
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lang")
        .map_groups(topk, batch_format="pandas")
    )


SQL_TOP_DOCS_PER_LANG = f"""
SELECT lang, doc_id, n_chars, rank::BIGINT AS rank FROM (
    SELECT lang, doc_id, n_chars,
           row_number() OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id)
               AS rank
    FROM documents
) WHERE rank <= {GROUP_TOPK_K}
"""

QUERIES["top_docs_per_lang"] = (q_top_docs_per_lang, SQL_TOP_DOCS_PER_LANG)

# --------------------------------------------------------------------------
# temporal joins (as-of, range-join aggregate) — pipelines/temporal.py


def q_events_asof_prior_click(sf_dir: str):
    """As-of join: for each 'purchase' event, the user's most recent
    'click' at-or-before it (DuckDB ASOF semantics, ties broken to the
    largest click event_id so the oracle is deterministic).  Unmatched
    purchases keep the -1 sentinel — nullable-int round-trips through
    pandas are a dtype minefield the driver compare doesn't need."""
    from .temporal import _partitions_for, asof_join

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    import pyarrow.parquet as _pq

    # partition count from parquet METADATA (free) — a count() would run
    # the filter stage twice just to size the exchange
    n_part = _partitions_for(_pq.ParquetFile(path).metadata.num_rows)

    def _typed(kind: str):
        def f(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b["event_type"], kind)).select(
                ["event_id", "user_id", "ts"]
            )
        return f

    ev = lambda kind: read_parquet_sized(  # noqa: E731
        path, columns=["event_id", "user_id", "ts", "event_type"]
    ).map_batches(_typed(kind), batch_format="pyarrow", zero_copy_batch=True)

    joined = asof_join(
        ev("purchase"),
        ev("click"),
        on="user_id",
        left_ts="ts",
        right_ts="ts",
        payload={"event_id": "last_click_id", "ts": "last_click_ts"},
        direction="backward",
        tie_on="event_id",
        num_partitions=n_part,
    )

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": b["event_id"],
                "user_id": b["user_id"],
                "ts_us": b["ts"].cast(pa.int64()),
                "last_click_id": pc.fill_null(b["last_click_id"], -1),
                "last_click_ts_us": pc.fill_null(
                    b["last_click_ts"].cast(pa.int64()), -1
                ),
            }
        )

    return joined.map_batches(finalize, batch_format="pyarrow")


SQL_EVENTS_ASOF = """
WITH p AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase'),
c AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'click'),
m AS (
    SELECT p.event_id,
           c.event_id AS last_click_id,
           epoch_us(c.ts) AS last_click_ts_us,
           row_number() OVER (
               PARTITION BY p.event_id ORDER BY c.ts DESC, c.event_id DESC
           ) AS rn
    FROM p JOIN c ON c.user_id = p.user_id AND c.ts <= p.ts
)
SELECT p.event_id, p.user_id, epoch_us(p.ts) AS ts_us,
       coalesce(m.last_click_id, -1) AS last_click_id,
       coalesce(m.last_click_ts_us, -1) AS last_click_ts_us
FROM p LEFT JOIN m ON m.event_id = p.event_id AND m.rn = 1
"""

QUERIES["events_asof_prior_click"] = (q_events_asof_prior_click, SQL_EVENTS_ASOF)


def q_conversion_attribution(sf_dir: str):
    """See temporal.conversion_attribution: first/last/linear multi-touch
    credit per touch type over the 24 h window before each purchase."""
    from .temporal import conversion_attribution

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    return conversion_attribution(
        read_parquet_sized(
            path, columns=["event_id", "user_id", "ts", "event_type"]
        )
    )


from .temporal import SQL_CONVERSION_ATTRIBUTION  # noqa: E402

QUERIES["conversion_attribution"] = (
    q_conversion_attribution, SQL_CONVERSION_ATTRIBUTION
)


def q_events_window_agg(sf_dir: str):
    """Range-join aggregate: for each event, count/min/max of the SAME
    user's event values in the following day ([ts, ts+1d), self-
    inclusive so every row has >=1 match).  count/min/max are order-
    independent — exact against the SQL oracle where a float sum is
    reduction-order-dependent."""
    from .temporal import _partitions_for, range_join_agg

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    import pyarrow.parquet as _pq

    n_part = _partitions_for(_pq.ParquetFile(path).metadata.num_rows)
    left = read_parquet_sized(path, columns=["event_id", "user_id", "ts"])
    right = read_parquet_sized(path, columns=["user_id", "ts", "value"])
    out = range_join_agg(
        left,
        right,
        on="user_id",
        left_ts="ts",
        right_ts="ts",
        lower_us=0,
        upper_us=86_400_000_000,  # 1 day
        value_col="value",
        num_partitions=n_part,
    )

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": b["event_id"],
                "n_events": b["n_match"],
                "min_value": b["min_value"],
                "max_value": b["max_value"],
            }
        )

    return out.map_batches(finalize, batch_format="pyarrow")


SQL_EVENTS_WINDOW_AGG = """
SELECT a.event_id,
       count(*)::BIGINT AS n_events,
       min(b.value) AS min_value,
       max(b.value) AS max_value
FROM events a JOIN events b
  ON b.user_id = a.user_id
 AND b.ts >= a.ts
 AND b.ts < a.ts + INTERVAL 1 DAY
GROUP BY 1
"""

QUERIES["events_window_agg"] = (q_events_window_agg, SQL_EVENTS_WINDOW_AGG)


def q_approx_distinct_hll(sf_dir: str):
    """HyperLogLog registers over the clean-tokenization token-hash
    stream (the sketch stream).  The driver gate compares the REGISTER
    table — pure integers, bit-exact vs sketch_sql.sql_hll_registers;
    the float estimate is a deterministic driver-side function of it
    (distinct.hll_estimate, accuracy-tested in test_distinct.py)."""
    from .dedup import _docs
    from .distinct import hll_token_registers

    return hll_token_registers(_docs(sf_dir))


QUERIES["approx_distinct_hll"] = (
    q_approx_distinct_hll,
    _sketch_sql.sql_hll_registers(),
)


HLL_SET_MULT = 0x9E3779B97F4A7C15
_HLL_SET_A, _HLL_SET_B = "click", "view"


def q_hll_set_ops(sf_dir: str):
    """Mergeable-sketch set algebra: per-event-type HLL register tables
    over hashed user ids PLUS their elementwise-max union table — the
    merge that makes HLL the distributed distinct-count sketch (union
    registers = per-bucket max; |A ∩ B| follows on the driver by
    inclusion-exclusion over ``distinct.hll_estimate``).  Columns
    ``set_name ('a'|'b'|'union'), bucket, maxrank`` — pure integers, so
    the driver hash gate covers the sketch bit-for-bit."""
    import pandas as pd

    from .distinct import _batch_registers

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        parts = []
        for label, typ in (("a", _HLL_SET_A), ("b", _HLL_SET_B)):
            m = (
                pc.equal(batch["event_type"], typ)
                .fill_null(False)  # NULL event_type matches neither set
                .to_numpy(zero_copy_only=False)
            )
            with np.errstate(over="ignore"):
                h = uid[m].view(np.uint64) * np.uint64(HLL_SET_MULT)
            t = _batch_registers(h)
            parts.append(
                t.append_column(
                    "set_name", pa.array([label] * t.num_rows, pa.string())
                )
            )
        return pa.concat_tables(parts)

    # partials are bounded (<= 2 * 2^p rows per batch): driver max-merge
    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    cols = ["set_name", "bucket", "maxrank"]
    if not len(parts):
        return pd.DataFrame(
            {"set_name": pd.Series([], dtype="object"),
             "bucket": pd.Series([], dtype="int64"),
             "maxrank": pd.Series([], dtype="int64")}
        )
    regs = parts.groupby(["set_name", "bucket"], as_index=False)["maxrank"].max()
    union = regs.groupby("bucket", as_index=False)["maxrank"].max()
    union.insert(0, "set_name", "union")
    out = pd.concat([regs, union], ignore_index=True)[cols]
    out["bucket"] = out["bucket"].astype("int64")
    out["maxrank"] = out["maxrank"].astype("int64")
    return out


def _sql_hll_set_ops() -> str:
    m64 = 1 << 64
    wdiv = 1 << 52
    return f"""
WITH src AS (
    SELECT user_id,
           CASE WHEN event_type = '{_HLL_SET_A}' THEN 'a' ELSE 'b' END AS set_name
    FROM events WHERE event_type IN ('{_HLL_SET_A}', '{_HLL_SET_B}')
),
hh AS (
    SELECT set_name,
           (user_id::HUGEINT * {HLL_SET_MULT}) % {m64}::HUGEINT AS h
    FROM src
),
hw AS (
    SELECT set_name, (h // {wdiv})::BIGINT AS bucket,
           (h % {wdiv})::BIGINT AS w
    FROM hh
),
regs AS (
    SELECT set_name, bucket,
           max(CASE WHEN w = 0 THEN 53
                    ELSE 53 - length(bin(w)) END)::BIGINT AS maxrank
    FROM hw GROUP BY 1, 2
)
SELECT set_name, bucket, maxrank FROM regs
UNION ALL
SELECT 'union' AS set_name, bucket, max(maxrank) FROM regs GROUP BY 2
"""


QUERIES["hll_set_ops"] = (q_hll_set_ops, _sql_hll_set_ops())


def q_kmv_distinct(sf_dir: str):
    """K-minimum-values distinct sketch over md5(text) — the mergeable
    order-statistics counterpart to the HLL entry (supports union and
    Jaccard estimation over the minima; see distinct.kmv_minima).
    Every output column is an exact integer, so the driver hash gate
    covers the estimate itself."""
    from .dedup import _docs
    from .distinct import kmv_minima

    return kmv_minima(_docs(sf_dir))


from .distinct import sql_kmv_minima as _sql_kmv_minima  # noqa: E402

QUERIES["kmv_distinct"] = (q_kmv_distinct, _sql_kmv_minima())


def q_events_hourly_users(sf_dir: str):
    """Windowed distinct-count: events and DISTINCT users per hour bucket.

    Distinct-count is the aggregate that punishes naive plans at scale
    (count(DISTINCT) forces key movement); here hours are hash-sharded
    (dedup._sharded_groupby, 64 Ray groups regardless of hour count) and
    each shard runs a vectorized pandas nunique at C speed.  The standard
    sharded-agg caveat applies: one pathologically hot hour lands in one
    worker — salt by user-hash prefix upstream if an hour can exceed a
    worker's heap.  (The HLL sketch, approx_distinct_hll, is the
    approximate path when even per-window exactness is too expensive.)"""
    import pandas as pd

    from .dedup import _sharded_groupby

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir

    def add_bucket(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64())
        bucket = pc.cast(pc.divide(us, 3_600_000_000), pa.int64())
        return pa.table({"hour_bucket": bucket, "user_id": batch["user_id"]})

    ds = read_parquet_sized(path, columns=["ts", "user_id"]).map_batches(
        add_bucket, batch_format="pyarrow", zero_copy_batch=True
    )

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("hour_bucket", as_index=False).agg(
            n_events=("user_id", "size"), n_users=("user_id", "nunique")
        )
        out["n_events"] = out["n_events"].astype("int64")
        out["n_users"] = out["n_users"].astype("int64")
        return out

    schema = pa.schema(
        [("hour_bucket", pa.int64()), ("n_events", pa.int64()),
         ("n_users", pa.int64())]
    )
    return _sharded_groupby(ds, ["hour_bucket"], agg, empty_schema=schema)


SQL_EVENTS_HOURLY_USERS = """
SELECT (epoch_us(ts) // 3600000000)::BIGINT AS hour_bucket,
       count(*)::BIGINT AS n_events,
       count(DISTINCT user_id)::BIGINT AS n_users
FROM events GROUP BY 1
"""

QUERIES["events_hourly_users"] = (q_events_hourly_users, SQL_EVENTS_HOURLY_USERS)


def q_bigram_topk(sf_dir: str):
    """Top-20 bigram collocations (adjacent kept tokens, clean
    tokenization — the sketch stream's adjacency, which both sides form
    AFTER dropping >15-char tokens).  Deterministic under the total
    order (count desc, bigram asc)."""
    from ..sources.documents import load_documents
    from .textpipe import bigram_topk

    return bigram_topk(load_documents(sf_dir))


SQL_BIGRAM_TOPK = """
WITH filt AS (
    SELECT doc_id,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM documents
),
toks AS (
    SELECT doc_id, unnest(toks) AS term,
           unnest(range(1, len(toks) + 1)) AS pos
    FROM filt
),
nxt AS (
    SELECT term,
           lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS t2
    FROM toks
),
cnt AS (
    SELECT term || ' ' || t2 AS bigram, count(*)::BIGINT AS n
    FROM nxt WHERE t2 IS NOT NULL GROUP BY 1
)
SELECT bigram, n, rank::BIGINT AS rank FROM (
    SELECT bigram, n, row_number() OVER (ORDER BY n DESC, bigram) AS rank
    FROM cnt
) WHERE rank <= 20
"""

QUERIES["bigram_topk"] = (q_bigram_topk, SQL_BIGRAM_TOPK)


# --------------------------------------------------------------------------
# curation tier (round 4): repetition quality, PII, decontamination,
# tf-idf top terms, stratified sampling — see pipelines/curation.py

_SQL_TOKS_LIST = """
filt AS (
    SELECT doc_id,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM documents
)
"""


def q_gopher_repetition(sf_dir: str):
    from .curation import gopher_repetition_ds

    return gopher_repetition_ds(sf_dir)


def _sql_gopher_repetition() -> str:
    from .curation import (
        GOPHER_MAX_DUP_FRAC,
        GOPHER_MAX_TOP_BIGRAM_FRAC,
        GOPHER_MIN_TOKENS,
    )

    return f"""
WITH {_SQL_TOKS_LIST},
tok AS (
    SELECT doc_id, unnest(toks) AS term,
           unnest(range(1, len(toks) + 1)) AS pos
    FROM filt
),
tf AS (SELECT doc_id, term, count(*) AS c FROM tok GROUP BY 1, 2),
pd AS (
    SELECT doc_id, sum(c)::BIGINT AS n_tokens, count(*)::BIGINT AS n_distinct
    FROM tf GROUP BY 1
),
bg AS (
    SELECT doc_id,
           term || ' ' || lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS b
    FROM tok
),
bc AS (SELECT doc_id, b, count(*) AS c FROM bg WHERE b IS NOT NULL GROUP BY 1, 2),
bt AS (SELECT doc_id, max(c)::BIGINT AS top_bigram_n FROM bc GROUP BY 1),
j AS (
    SELECT d.doc_id,
           coalesce(pd.n_tokens, 0) AS n_tokens,
           coalesce(pd.n_distinct, 0) AS n_distinct,
           coalesce(bt.top_bigram_n, 0) AS top_bigram_n
    FROM documents d
    LEFT JOIN pd ON d.doc_id = pd.doc_id
    LEFT JOIN bt ON d.doc_id = bt.doc_id
),
r AS (
    SELECT doc_id, n_tokens, n_distinct, top_bigram_n,
           round((n_tokens - n_distinct) / greatest(n_tokens, 1)::DOUBLE, 6)
               AS dup_frac,
           round(2.0 * top_bigram_n / greatest(n_tokens, 1)::DOUBLE, 6)
               AS top_bigram_frac
    FROM j
)
SELECT doc_id, n_tokens, n_distinct, top_bigram_n, dup_frac, top_bigram_frac,
       (n_tokens >= {GOPHER_MIN_TOKENS}
        AND dup_frac <= {GOPHER_MAX_DUP_FRAC}
        AND top_bigram_frac <= {GOPHER_MAX_TOP_BIGRAM_FRAC})::BIGINT AS passes
FROM r
"""


QUERIES["gopher_repetition"] = (q_gopher_repetition, _sql_gopher_repetition())


def q_pii_scan(sf_dir: str):
    from .curation import pii_scan_ds

    return pii_scan_ds(sf_dir)


def _sql_pii_scan() -> str:
    from .curation import PII_EMAIL_EVERY, PII_EMAIL_RE, PII_IP_EVERY, PII_IPV4_RE

    return f"""
WITH aug AS (
    SELECT doc_id,
           text ||
           CASE WHEN doc_id % {PII_EMAIL_EVERY} = 0
                THEN ' contact user' || doc_id || '@example.com now'
                ELSE '' END ||
           CASE WHEN doc_id % {PII_IP_EVERY} = 0
                THEN ' from 10.' || (doc_id % 256) || '.0.' || (doc_id % 100)
                     || ' port'
                ELSE '' END AS t
    FROM documents
)
SELECT doc_id,
       len(regexp_extract_all(t, '{PII_EMAIL_RE}'))::BIGINT AS n_emails,
       len(regexp_extract_all(t, '{PII_IPV4_RE}'))::BIGINT AS n_ips,
       length(regexp_replace(regexp_replace(t, '{PII_EMAIL_RE}', '<EMAIL>', 'g'),
                             '{PII_IPV4_RE}', '<IP>', 'g'))::BIGINT
           AS redacted_len
FROM aug
"""


QUERIES["pii_scan"] = (q_pii_scan, _sql_pii_scan())


def q_decontaminate(sf_dir: str):
    from .curation import decontaminate_ds

    return decontaminate_ds(sf_dir)


def _sql_decontaminate() -> str:
    from .curation import DECON_BENCH_EVERY, DECON_WINDOW

    w = DECON_WINDOW
    return f"""
WITH {_SQL_TOKS_LIST},
sh AS (
    SELECT doc_id,
           unnest(list_transform(range(1, len(toks) - {w - 2}),
                                 j -> array_to_string(toks[j:j + {w - 1}], ' ')))
               AS shingle
    FROM filt
    WHERE len(toks) >= {w}
),
bench AS (SELECT DISTINCT shingle FROM sh WHERE doc_id % {DECON_BENCH_EVERY} = 0),
cnt AS (
    SELECT sh.doc_id,
           count(*)::BIGINT AS n_sh,
           sum(CASE WHEN bench.shingle IS NOT NULL THEN 1 ELSE 0 END)::BIGINT
               AS n_cont
    FROM sh LEFT JOIN bench USING (shingle)
    GROUP BY 1
)
SELECT d.doc_id,
       coalesce(cnt.n_sh, 0)::BIGINT AS n_shingles,
       coalesce(cnt.n_cont, 0)::BIGINT AS n_contaminated,
       (coalesce(cnt.n_cont, 0) > 0)::BIGINT AS contaminated
FROM documents d LEFT JOIN cnt ON d.doc_id = cnt.doc_id
"""


QUERIES["decontaminate"] = (q_decontaminate, _sql_decontaminate())


def q_tfidf_top_terms(sf_dir: str):
    from .curation import tfidf_top_terms_ds

    return tfidf_top_terms_ds(sf_dir)


def _sql_tfidf_top_terms() -> str:
    from .curation import TFIDF_TOP_K

    return f"""
WITH {_SQL_TOKS_LIST},
tok AS (SELECT doc_id, unnest(toks) AS term FROM filt),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM tok GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
n AS (SELECT count(*)::DOUBLE AS n FROM documents),
ranked AS (
    SELECT tf.doc_id, tf.term, tf.tf, df.df,
           round(tf.tf * log2((n.n + 1) / (df.df + 1)), 6) AS score,
           row_number() OVER (PARTITION BY tf.doc_id
                              ORDER BY tf.tf DESC, df.df ASC, tf.term ASC)
               AS rank
    FROM tf JOIN df USING (term) CROSS JOIN n
)
SELECT doc_id, term, tf, df, score, rank::BIGINT AS rank
FROM ranked WHERE rank <= {TFIDF_TOP_K}
"""


QUERIES["tfidf_top_terms"] = (q_tfidf_top_terms, _sql_tfidf_top_terms())


def q_stratified_sample(sf_dir: str):
    from .curation import stratified_sample_ds

    return stratified_sample_ds(sf_dir)


def _sql_stratified_sample() -> str:
    from .curation import STRATA_DEFAULT_RATE, STRATA_RATES

    case = (
        "CASE lang "
        + " ".join(
            f"WHEN '{k}' THEN {v}" for k, v in sorted(STRATA_RATES.items())
        )
        + f" ELSE {STRATA_DEFAULT_RATE} END"
    )
    return f"""
SELECT doc_id, lang, strlen(text)::BIGINT AS dl
FROM documents
WHERE ((doc_id::HUGEINT * {SAMPLE_MULT}) % 18446744073709551616) % 100 < {case}
"""


QUERIES["stratified_sample"] = (q_stratified_sample, _sql_stratified_sample())


def q_substring_dup_spans(sf_dir: str):
    from .curation import substring_dup_spans_ds

    return substring_dup_spans_ds(sf_dir)


def _sql_substring_dup_spans() -> str:
    from .curation import SUBSTR_CLONE_EVERY, SUBSTR_CLONE_OFFSET, SUBSTR_WINDOW

    w = SUBSTR_WINDOW
    return f"""
WITH aug AS (
    SELECT doc_id, text FROM documents
    UNION ALL
    SELECT doc_id + {SUBSTR_CLONE_OFFSET}, text FROM documents
    WHERE doc_id % {SUBSTR_CLONE_EVERY} = 0
),
filt AS (
    SELECT doc_id,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM aug
),
win AS (
    SELECT doc_id,
           unnest(list_transform(range(1, len(toks) - {w - 2}),
                                 j -> array_to_string(toks[j:j + {w - 1}], ' ')))
               AS sh
    FROM filt
    WHERE len(toks) >= {w}
),
shared AS (SELECT sh FROM win GROUP BY sh HAVING count(DISTINCT doc_id) >= 2),
dup AS (
    SELECT doc_id, count(*)::BIGINT AS n_dup
    FROM win JOIN shared USING (sh)
    GROUP BY 1
),
base AS (
    SELECT doc_id, greatest(len(toks) - {w - 1}, 0)::BIGINT AS n_windows
    FROM filt
)
SELECT b.doc_id,
       b.n_windows,
       coalesce(d.n_dup, 0)::BIGINT AS n_dup_windows,
       round(coalesce(d.n_dup, 0) / greatest(b.n_windows, 1)::DOUBLE, 6)
           AS dup_frac,
       (coalesce(d.n_dup, 0) > 0)::BIGINT AS has_dup
FROM base b LEFT JOIN dup d USING (doc_id)
"""


QUERIES["substring_dup_spans"] = (q_substring_dup_spans, _sql_substring_dup_spans())


def q_length_outlier_filter(sf_dir: str):
    from .curation import length_outlier_filter_ds

    return length_outlier_filter_ds(sf_dir)


def _sql_length_outlier_filter() -> str:
    from .curation import OUTLIER_HI_Q, OUTLIER_LO_Q

    return f"""
SELECT doc_id, strlen(text)::BIGINT AS n_chars
FROM documents
WHERE strlen(text) >= (SELECT quantile_disc(strlen(text), {OUTLIER_LO_Q})
                       FROM documents)
  AND strlen(text) <= (SELECT quantile_disc(strlen(text), {OUTLIER_HI_Q})
                       FROM documents)
"""


QUERIES["length_outlier_filter"] = (q_length_outlier_filter,
                                    _sql_length_outlier_filter())


def q_sequence_pack(sf_dir: str):
    from .curation import sequence_pack_ds

    return sequence_pack_ds(sf_dir)


def _sql_sequence_pack() -> str:
    from .curation import SEQ_PACK_LEN

    return f"""
WITH {_SQL_TOKS_LIST},
t AS (SELECT doc_id, len(toks)::BIGINT AS n_tokens FROM filt),
c AS (
    SELECT doc_id, n_tokens,
           (sum(n_tokens) OVER (ORDER BY doc_id
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                AND CURRENT ROW)
            - n_tokens)::BIGINT AS tok_offset
    FROM t
)
SELECT doc_id, n_tokens, tok_offset,
       (tok_offset // {SEQ_PACK_LEN})::BIGINT AS seq_id
FROM c
"""


QUERIES["sequence_pack"] = (q_sequence_pack, _sql_sequence_pack())


def q_heavy_hitters_cms(sf_dir: str):
    """Count-Min-Sketch probe estimates (term, est, exact) — additive
    integer registers stream+merge; est >= exact by the CMS one-sided
    guarantee.  See pipelines/heavyhitters.py."""
    from .heavyhitters import cms_probe_estimates

    return cms_probe_estimates(sf_dir)


QUERIES["heavy_hitters_cms"] = (
    q_heavy_hitters_cms,
    _sketch_sql.sql_cms_estimates(),
)


def q_bloom_probe(sf_dir: str):
    """Bloom-filter seen-set prefilter: membership verdicts for the
    held-out vocabulary (+ synthetic negatives) against a filter built
    over the base split.  See pipelines/bloom.py."""
    from .bloom import bloom_probe

    return bloom_probe(sf_dir)


QUERIES["bloom_probe"] = (q_bloom_probe, _sketch_sql.sql_bloom_probe())


BAND_JOIN_WINDOW_US = 3_600_000_000  # 1 hour


def q_events_band_join(sf_dir: str):
    """Stream-stream band join materializing pairs: every (click, view)
    of the same user with the view in the hour BEFORE the click
    ([click-1h, click)).  gap_us is integer microseconds — exact on
    both sides.  See temporal.band_join_pairs."""
    from .temporal import _partitions_for, band_join_pairs

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    import pyarrow.parquet as _pq

    n_part = _partitions_for(_pq.ParquetFile(path).metadata.num_rows)
    ev = read_parquet_sized(path, columns=["event_id", "user_id", "ts", "event_type"])

    def typed(kind: str):
        def f(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t["event_type"], kind)).select(
                ["event_id", "user_id", "ts"]
            )

        return ev.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)

    out = band_join_pairs(
        typed("click"),
        typed("view"),
        on="user_id",
        left_ts="ts",
        right_ts="ts",
        lower_us=-BAND_JOIN_WINDOW_US,
        upper_us=0,
        left_id="event_id",
        right_id="event_id",
        num_partitions=n_part,
    )

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "click_id": b["left_id"],
                "view_id": b["right_id"],
                "user_id": b["key"],
                "gap_us": b["gap_us"],
            }
        )

    return out.map_batches(finalize, batch_format="pyarrow")


SQL_EVENTS_BAND_JOIN = f"""
SELECT c.event_id AS click_id,
       v.event_id AS view_id,
       c.user_id,
       (epoch_us(c.ts) - epoch_us(v.ts))::BIGINT AS gap_us
FROM events c JOIN events v ON v.user_id = c.user_id
WHERE c.event_type = 'click' AND v.event_type = 'view'
  AND epoch_us(v.ts) >= epoch_us(c.ts) - {BAND_JOIN_WINDOW_US}
  AND epoch_us(v.ts) < epoch_us(c.ts)
"""

QUERIES["events_band_join"] = (q_events_band_join, SQL_EVENTS_BAND_JOIN)


def q_events_rolling_agg(sf_dir: str):
    """Row-frame window aggregate (ROWS BETWEEN 3 PRECEDING AND CURRENT
    ROW) per user ordered by (ts, event_id): frame count + max value.
    See temporal.rolling_row_agg."""
    from .temporal import rolling_row_agg

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["event_id", "user_id", "ts", "value"])
    out = rolling_row_agg(
        ev, key="user_id", ts="ts", tie="event_id", value_col="value",
        preceding=3,
    )

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": b["tie"],
                "n_frame": b["n_frame"],
                "max_value": b["max_value"],
            }
        )

    return out.map_batches(finalize, batch_format="pyarrow")


SQL_EVENTS_ROLLING_AGG = """
SELECT event_id,
       count(*) OVER w::BIGINT AS n_frame,
       max(value) OVER w AS max_value
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
"""

QUERIES["events_rolling_agg"] = (q_events_rolling_agg, SQL_EVENTS_ROLLING_AGG)


def q_lineitem_running_sum(sf_dir: str):
    """Per-order running quantity (sum OVER PARTITION BY ... ORDER BY):
    l_quantity is integer-valued so the float64 cumsum is exact and
    order-independent.  See temporal.running_sum."""
    from .temporal import running_sum

    path = os.path.join(sf_dir, "lineitem.parquet") if os.path.isdir(sf_dir) else sf_dir
    li = read_parquet_sized(
        path, columns=["l_orderkey", "l_linenumber", "l_quantity"]
    )
    out = running_sum(
        li, key="l_orderkey", order_col="l_linenumber", value_col="l_quantity"
    )

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": b["key"],
                "l_linenumber": b["ord"],
                "running_qty": b["running"],
            }
        )

    return out.map_batches(finalize, batch_format="pyarrow")


SQL_LINEITEM_RUNNING_SUM = """
SELECT l_orderkey,
       l_linenumber::BIGINT AS l_linenumber,
       sum(l_quantity) OVER (PARTITION BY l_orderkey ORDER BY l_linenumber)
           AS running_qty
FROM lineitem
"""

QUERIES["lineitem_running_sum"] = (q_lineitem_running_sum, SQL_LINEITEM_RUNNING_SUM)


STAR_DIM_BROADCAST_LIMIT = 2_000_000  # rows; same bound class as semi_join


def q_qty_by_nation(sf_dir: str):
    """Star join: lineitem |><| orders |><| customer |><| nation, rolled
    up to quantity per nation.  The scale shape: DIMENSION sides
    (customer's custkey->nationkey map, nation's names) broadcast under
    an explicit bound — only the fact-fact edge (lineitem |><| orders)
    pays a partitioned-hash-join exchange; above the bound the customer
    side falls back to the partitioned join.  The measure is
    sum(l_quantity) — integer-valued, so the float64 sum is
    order-independent-exact (a price*discount revenue sum would not be).
    """
    from .dedup import _join_partitions
    from .joins import partitioned_hash_join

    d = sf_dir if os.path.isdir(sf_dir) else os.path.dirname(sf_dir)
    li = read_parquet_sized(
        os.path.join(d, "lineitem.parquet"), columns=["l_orderkey", "l_quantity"]
    )
    orders = read_parquet_sized(
        os.path.join(d, "orders.parquet"), columns=["o_orderkey", "o_custkey"]
    )
    cust = read_parquet_sized(
        os.path.join(d, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    # nation: a 25-row dimension — take_all + ray.put, the broadcast side
    nat_rows = read_parquet_sized(
        os.path.join(d, "nation.parquet"), columns=["n_nationkey", "n_name"]
    ).take_all()
    nat_name = {int(r["n_nationkey"]): r["n_name"] for r in nat_rows}

    n_part = _join_partitions(li.count())
    n_cust = cust.count()  # parquet metadata, no scan
    crows = cust.take_all() if n_cust <= STAR_DIM_BROADCAST_LIMIT else []
    ck = np.array([r["c_custkey"] for r in crows], np.int64)
    # the broadcast lookup returns ONE nationkey per order; an inner join
    # multiplies rows on duplicate custkeys.  c_custkey is a primary key
    # by contract (TPC-H), but ENFORCE it: duplicates fall back to the
    # partitioned join, whose semantics match the SQL oracle exactly.
    unique_pk = len(np.unique(ck)) == len(ck)
    if n_cust <= STAR_DIM_BROADCAST_LIMIT and n_cust > 0 and unique_pk:
        # broadcast the custkey -> nationkey map: orders gains
        # c_nationkey with a vectorized sorted probe, zero exchange
        cn = np.array([r["c_nationkey"] for r in crows], np.int64)
        o = np.argsort(ck)
        cref = ray.put((ck[o], cn[o]))

        def enrich(b: pa.Table) -> pa.Table:
            cks, cns = ray.get(cref)
            ok = b["o_custkey"].to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(cks, ok), len(cks) - 1)
            hit = cks[pos] == ok
            t = b.filter(pa.array(hit))
            return pa.table(
                {
                    "o_orderkey": t["o_orderkey"].cast(pa.int64()),
                    "c_nationkey": pa.array(cns[pos[hit]], pa.int64()),
                }
            )

        oc = orders.map_batches(enrich, batch_format="pyarrow",
                                zero_copy_batch=True)
    elif n_cust == 0:
        # inner join with an empty dimension keeps nothing
        oc = rd.from_arrow(
            pa.table(
                {
                    "o_orderkey": pa.array([], pa.int64()),
                    "c_nationkey": pa.array([], pa.int64()),
                }
            )
        )
    else:  # over-limit or duplicate custkeys: exact join semantics
        # (exercised by the fallback-parity test, limit monkeypatched)
        oc = partitioned_hash_join(
            orders, cust, left_on="o_custkey", right_on="c_custkey",
            num_partitions=_join_partitions(orders.count()), how="inner",
        ).select_columns(["o_orderkey", "c_nationkey"])
    j = partitioned_hash_join(
        li, oc,
        left_on="l_orderkey", right_on="o_orderkey",
        num_partitions=n_part, how="inner",
    )

    def partial(b: pa.Table) -> pa.Table:
        agg = b.group_by("c_nationkey").aggregate(
            [("l_quantity", "sum"), ("c_nationkey", "count")]
        )
        return pa.table(
            {
                "nk": agg["c_nationkey"].cast(pa.int64()),
                "qty": agg["l_quantity_sum"].cast(pa.float64()),
                "n": agg["c_nationkey_count"].cast(pa.int64()),
            }
        )

    rows = j.map_batches(partial, batch_format="pyarrow").take_all()
    import pandas as pd

    df = (
        pd.DataFrame(rows, columns=["nk", "qty", "n"])
        .groupby("nk", as_index=False)
        .sum()
    )
    df["n_name"] = df["nk"].map(nat_name)
    df = df.sort_values("n_name").reset_index(drop=True)
    return pd.DataFrame(
        {
            "n_name": df["n_name"],
            "n_rows": df["n"].astype("int64"),
            "sum_qty": df["qty"],
        }
    )


SQL_QTY_BY_NATION = """
SELECT n.n_name,
       count(*)::BIGINT AS n_rows,
       sum(l.l_quantity) AS sum_qty
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
GROUP BY 1
"""

QUERIES["qty_by_nation"] = (q_qty_by_nation, SQL_QTY_BY_NATION)


def q_quantity_percent_rank(sf_dir: str):
    """percent_rank() OVER (ORDER BY l_quantity), one row per distinct
    value: pr = count_less / (N - 1) — identical integer division on
    both sides, no rounding needed.  Distributed shape = the
    low-cardinality value-count combine of lineitem_quantiles: only
    (value, count) pairs reach the driver."""
    path = os.path.join(sf_dir, "lineitem.parquet") if os.path.isdir(sf_dir) else sf_dir

    def value_counts(batch: pa.Table) -> pa.Table:
        vals, counts = np.unique(
            batch["l_quantity"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {
                "value": pa.array(vals, pa.float64()),
                "cnt": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        read_parquet_sized(path, columns=["l_quantity"])
        .map_batches(value_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("value")
        .aggregate(Sum("cnt", alias_name="n"))
        .take_all()
    )
    import pandas as pd

    vals = np.array([r["value"] for r in rows])
    ns = np.array([r["n"] for r in rows], dtype=np.int64)
    order = np.argsort(vals)
    vals, ns = vals[order], ns[order]
    total = int(ns.sum())
    count_less = np.concatenate([[0], np.cumsum(ns)[:-1]]).astype(np.int64)
    pr = count_less / max(total - 1, 1)
    return pd.DataFrame({"value": vals, "count_less": count_less, "pr": pr})


SQL_QUANTITY_PERCENT_RANK = """
WITH c AS (SELECT l_quantity AS value, count(*)::BIGINT AS n
           FROM lineitem GROUP BY 1),
t AS (SELECT value, n,
             (sum(n) OVER (ORDER BY value) - n)::BIGINT AS count_less,
             (SELECT count(*) FROM lineitem)::BIGINT AS total
      FROM c)
SELECT value, count_less,
       count_less / greatest(total - 1, 1)::DOUBLE AS pr
FROM t
"""

QUERIES["quantity_percent_rank"] = (
    q_quantity_percent_rank,
    SQL_QUANTITY_PERCENT_RANK,
)


FUNNEL_STAGES = ["view", "click", "purchase"]


def q_events_funnel(sf_dir: str):
    """Funnel analysis: per user, progress through view -> click ->
    purchase with strictly increasing timestamps (greedy-earliest, which
    is provably optimal for reach).  See temporal.funnel_stages."""
    from .temporal import funnel_stages

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["user_id", "ts", "event_type"])
    out = funnel_stages(
        ev, key="user_id", ts="ts", type_col="event_type", stages=FUNNEL_STAGES
    )

    def finalize(b: pa.Table) -> pa.Table:
        cols = {"user_id": b["key"], "stage": b["stage"]}
        for i in range(len(FUNNEL_STAGES)):
            cols[f"t{i + 1}_us"] = b[f"t{i + 1}_us"]
        return pa.table(cols)

    return out.map_batches(finalize, batch_format="pyarrow")


def _sql_events_funnel() -> str:
    names = FUNNEL_STAGES
    ctes = ["u AS (SELECT DISTINCT user_id FROM events)"]
    prev = None
    for i, s in enumerate(names, start=1):
        if prev is None:
            ctes.append(
                f"s{i} AS (SELECT user_id, min(epoch_us(ts))::BIGINT AS t{i} "
                f"FROM events WHERE event_type = '{s}' GROUP BY 1)"
            )
        else:
            ctes.append(
                f"s{i} AS (SELECT e.user_id, min(epoch_us(e.ts))::BIGINT AS t{i} "
                f"FROM events e JOIN s{prev} USING (user_id) "
                f"WHERE e.event_type = '{s}' AND epoch_us(e.ts) > s{prev}.t{prev} "
                f"GROUP BY 1)"
            )
        prev = i
    stage_expr = " + ".join(
        f"(s{i}.user_id IS NOT NULL)::INT" for i in range(1, len(names) + 1)
    )
    t_cols = ", ".join(f"s{i}.t{i} AS t{i}_us" for i in range(1, len(names) + 1))
    joins = " ".join(f"LEFT JOIN s{i} USING (user_id)" for i in range(1, len(names) + 1))
    return f"""
WITH {", ".join(ctes)}
SELECT u.user_id, ({stage_expr})::BIGINT AS stage, {t_cols}
FROM u {joins}
"""


QUERIES["events_funnel"] = (q_events_funnel, _sql_events_funnel())


def q_events_props_extract(sf_dir: str):
    """Semi-structured extraction: pull the integer `k` field out of the
    JSON `props` string with ONE RE2 scan per batch (Arrow
    extract_substring_regex == DuckDB regexp_extract — same engine), and
    roll up counts per decile bucket so the entry also checks the
    downstream aggregate."""
    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["event_id", "props"])

    def extract(b: pa.Table) -> pa.Table:
        # Arrow's extract_regex requires a NAMED group; DuckDB's
        # regexp_extract takes the same RE2 pattern with group index 1 —
        # match spans are identical, only the capture syntax differs.
        # A props row without the field yields NULL and NULL propagates
        # through cast/divide (SQL ''::BIGINT would error; null-out is
        # the graceful contract on the Ray side)
        m = pc.extract_regex(b["props"], pattern=r'"k": (?P<k>[0-9]+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        return pa.table(
            {
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "k_val": k,
                # Arrow int64 divide truncates; k is non-negative so
                # trunc == floor == DuckDB //
                "k_bucket": pc.divide(k, pa.scalar(10, pa.int64())),
            }
        )

    return ev.map_batches(extract, batch_format="pyarrow", zero_copy_batch=True)


SQL_EVENTS_PROPS_EXTRACT = r"""
SELECT event_id,
       nullif(regexp_extract(props, '"k": ([0-9]+)', 1), '')::BIGINT AS k_val,
       (nullif(regexp_extract(props, '"k": ([0-9]+)', 1), '')::BIGINT // 10)::BIGINT
           AS k_bucket
FROM events
"""

QUERIES["events_props_extract"] = (
    q_events_props_extract,
    SQL_EVENTS_PROPS_EXTRACT,
)


def q_orders_rollup(sf_dir: str):
    """ROLLUP aggregate (grouping sets): order counts at (status,
    priority), (status), and grand-total levels, NULL-filled like SQL
    ROLLUP.  Distributed shape: per-batch Arrow partial counts of the
    FINEST level only (low cardinality by contract — status x priority
    is ~15 here); coarser levels derive from those partials on the
    driver, so the rollup costs ONE combine regardless of level count.
    """
    path = os.path.join(sf_dir, "orders.parquet") if os.path.isdir(sf_dir) else sf_dir
    ords = read_parquet_sized(path, columns=["o_orderstatus", "o_orderpriority"])

    def partial(b: pa.Table) -> pa.Table:
        # count_all, NOT a column count: NULL grouping keys form real
        # groups in SQL ROLLUP and a column count would skip null rows
        agg = b.group_by(["o_orderstatus", "o_orderpriority"]).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "o_orderstatus": agg["o_orderstatus"],
                "o_orderpriority": agg["o_orderpriority"],
                "n": agg["count_all"].cast(pa.int64()),
            }
        )

    rows = ords.map_batches(partial, batch_format="pyarrow").take_all()
    import pandas as pd

    base = (
        pd.DataFrame(rows, columns=["o_orderstatus", "o_orderpriority", "n"])
        .groupby(["o_orderstatus", "o_orderpriority"], as_index=False,
                 dropna=False)["n"]
        .sum()
    )
    lvl1 = base.groupby("o_orderstatus", as_index=False, dropna=False)["n"].sum()
    lvl1["o_orderpriority"] = None
    total = pd.DataFrame(
        [{"o_orderstatus": None, "o_orderpriority": None, "n": base["n"].sum()}]
    )
    out = pd.concat([base, lvl1, total], ignore_index=True)
    out["n"] = out["n"].astype("int64")
    out = out[["o_orderstatus", "o_orderpriority", "n"]]
    # NULL grouping keys surface as NaN after pandas groupby(dropna=False)
    # while the synthesized subtotal rows carry None — normalize to None
    # (what DuckDB returns for both)
    for c in ("o_orderstatus", "o_orderpriority"):
        col = out[c].astype(object)
        out[c] = col.where(pd.notna(col), None)
    return out


SQL_ORDERS_ROLLUP = """
SELECT o_orderstatus, o_orderpriority, count(*)::BIGINT AS n
FROM orders
GROUP BY ROLLUP (o_orderstatus, o_orderpriority)
"""

QUERIES["orders_rollup"] = (q_orders_rollup, SQL_ORDERS_ROLLUP)


def q_fuzzy_term_join(sf_dir: str):
    """Fuzzy string self-join on the corpus vocabulary (edit distance
    <= 1) via FastSS deletion signatures + exact vectorized verify.
    See curation.fuzzy_term_pairs_ds."""
    from .curation import fuzzy_term_pairs_ds

    return fuzzy_term_pairs_ds(sf_dir)


def _sql_fuzzy_term_join() -> str:
    from .curation import FUZZY_MIN_LEN

    return f"""
WITH {_SQL_TOKS_LIST},
tok AS (SELECT DISTINCT unnest(toks) AS term FROM filt),
vocab AS (
    SELECT term FROM tok
    UNION
    SELECT substr(term, 2) FROM tok WHERE length(term) >= {FUZZY_MIN_LEN}
)
SELECT a.term AS term_a, b.term AS term_b, 1::BIGINT AS dist
FROM vocab a JOIN vocab b
  ON a.term < b.term AND levenshtein(a.term, b.term) <= 1
"""


QUERIES["fuzzy_term_join"] = (q_fuzzy_term_join, _sql_fuzzy_term_join())


def q_term_cooccurrence(sf_dir: str):
    """Top co-occurring term pairs among the most frequent vocabulary
    with lift (= exp(PMI); transcendental-free so the SQL pairing is
    exact) as a rounded payload.  See curation.term_cooccurrence."""
    from .curation import term_cooccurrence

    return term_cooccurrence(sf_dir)


def _sql_term_cooccurrence() -> str:
    from .curation import COOC_TOP_PAIRS, COOC_TOP_VOCAB

    return f"""
WITH {_SQL_TOKS_LIST},
tok AS (SELECT DISTINCT doc_id, unnest(toks) AS term FROM filt),
dfc AS (SELECT term, count(*)::BIGINT AS df FROM tok GROUP BY 1),
topv AS (SELECT term, df FROM dfc ORDER BY df DESC, term LIMIT {COOC_TOP_VOCAB}),
tv AS (SELECT t.doc_id, t.term FROM tok t JOIN topv USING (term)),
pairs AS (
    SELECT a.term AS term_a, b.term AS term_b, count(*)::BIGINT AS c_ab
    FROM tv a JOIN tv b ON a.doc_id = b.doc_id AND a.term < b.term
    GROUP BY 1, 2
),
n AS (SELECT count(*)::BIGINT AS n_docs FROM documents),
scored AS (
    SELECT p.term_a, p.term_b, p.c_ab, va.df AS df_a, vb.df AS df_b,
           round((p.c_ab * n.n_docs)::DOUBLE / (va.df * vb.df)::DOUBLE, 6)
               AS lift
    FROM pairs p
    JOIN topv va ON va.term = p.term_a
    JOIN topv vb ON vb.term = p.term_b
    CROSS JOIN n
)
SELECT term_a, term_b, c_ab, df_a, df_b, lift,
       row_number() OVER (ORDER BY c_ab DESC, term_a, term_b)::BIGINT AS rank
FROM scored
QUALIFY rank <= {COOC_TOP_PAIRS}
ORDER BY rank
"""


QUERIES["term_cooccurrence"] = (q_term_cooccurrence, _sql_term_cooccurrence())


def q_events_transitions(sf_dir: str):
    """Markov transition counts over per-user event sequences (the
    lag/lead window shape).  See temporal.event_transitions."""
    from .temporal import event_transitions

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["user_id", "ts", "event_type", "event_id"])
    return event_transitions(ev)


SQL_EVENTS_TRANSITIONS = """
WITH seq AS (
    SELECT event_type AS from_type,
           lead(event_type) OVER (
               PARTITION BY user_id ORDER BY ts, event_id
           ) AS to_type
    FROM events
),
p AS (
    SELECT from_type, to_type, count(*)::BIGINT AS n
    FROM seq WHERE to_type IS NOT NULL GROUP BY 1, 2
),
t AS (SELECT from_type, sum(n)::BIGINT AS total_from FROM p GROUP BY 1)
SELECT p.from_type, p.to_type, p.n, t.total_from,
       round(p.n::DOUBLE / t.total_from::DOUBLE, 6) AS prob
FROM p JOIN t ON p.from_type IS NOT DISTINCT FROM t.from_type
"""

QUERIES["events_transitions"] = (q_events_transitions, SQL_EVENTS_TRANSITIONS)


HIST_LO, HIST_W, HIST_NBINS = 0.0, 5.0, 20


def q_events_value_histogram(sf_dir: str):
    """Fixed-bin histogram of the event value with per-bin min/max:
    bin = clamp(floor((value - lo) / w)) with an underflow (-1) and an
    overflow (NBINS) bin.  floor/divide on IEEE doubles is deterministic
    on both sides; min/max are order-independent, so the float columns
    compare exactly.  Shape: per-batch Arrow group_by partials (at most
    NBINS+3 groups each), one driver combine of fixed-size partials —
    the histogram never shuffles row data."""
    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["value"])

    def partial(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        ok = ~np.isnan(v)
        vb = v[ok]
        bins = np.clip(
            np.floor((vb - HIST_LO) / HIST_W).astype(np.int64), -1, HIST_NBINS
        )
        t = pa.table(
            {
                "bin": pa.array(bins, pa.int64()),
                "value": pa.array(vb, pa.float64()),
            }
        )
        g = t.group_by(["bin"]).aggregate(
            [([], "count_all"), ("value", "min"), ("value", "max")]
        )
        return pa.table(
            {
                "bin": g["bin"],
                "n": g["count_all"].cast(pa.int64()),
                "vmin": g["value_min"],
                "vmax": g["value_max"],
            }
        )

    parts = ev.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    import pandas as pd

    if not len(parts):
        return pd.DataFrame(columns=["bin", "n", "vmin", "vmax"])
    out = parts.groupby("bin", as_index=False).agg(
        n=("n", "sum"), vmin=("vmin", "min"), vmax=("vmax", "max")
    )
    out["n"] = out["n"].astype("int64")
    return out[["bin", "n", "vmin", "vmax"]]


SQL_EVENTS_VALUE_HISTOGRAM = f"""
SELECT least(greatest(floor((value - {HIST_LO}) / {HIST_W})::BIGINT, -1),
             {HIST_NBINS}) AS bin,
       count(*)::BIGINT AS n,
       min(value) AS vmin,
       max(value) AS vmax
FROM events
WHERE value IS NOT NULL AND NOT isnan(value)
GROUP BY 1
"""

QUERIES["events_value_histogram"] = (
    q_events_value_histogram,
    SQL_EVENTS_VALUE_HISTOGRAM,
)


def q_user_mode_event(sf_dir: str):
    """Per-user modal (most frequent) non-NULL event type under the
    deterministic total order (count desc, type asc).  Shape: per-batch
    Arrow group_by partials of (user, type) counts, then ONE user-hashed
    exchange (`dedup._sharded_groupby`) combines counts and picks each
    user's mode vectorized — never a per-key Ray groupby."""
    from .dedup import _sharded_groupby
    import pandas as pd

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["user_id", "event_type"])

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b["event_type"]))
        g = t.group_by(["user_id", "event_type"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "user_id": g["user_id"].cast(pa.int64()),
                "event_type": g["event_type"],
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    rows = ev.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def mode(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["user_id", "event_type"], as_index=False)["n"].sum()
        c = c.sort_values(["user_id", "n", "event_type"],
                          ascending=[True, False, True], kind="mergesort")
        m = c.drop_duplicates("user_id", keep="first").copy()
        m["n"] = m["n"].astype("int64")
        return m.rename(columns={"event_type": "mode_type"})[
            ["user_id", "mode_type", "n"]
        ]

    mschema = pa.schema(
        [("user_id", pa.int64()), ("mode_type", pa.utf8()), ("n", pa.int64())]
    )
    return _sharded_groupby(rows, ["user_id"], mode, empty_schema=mschema)


SQL_USER_MODE_EVENT = """
WITH c AS (
    SELECT user_id, event_type, count(*)::BIGINT AS n
    FROM events WHERE event_type IS NOT NULL GROUP BY 1, 2
)
SELECT user_id, event_type AS mode_type, n
FROM c
QUALIFY row_number() OVER (
    PARTITION BY user_id ORDER BY n DESC, event_type
) = 1
"""

QUERIES["user_mode_event"] = (q_user_mode_event, SQL_USER_MODE_EVENT)


CENTROID_Q = 1 << 20  # quantization scale: floor(x * Q) per dimension


def q_label_centroids(sf_dir: str):
    """Per-label embedding centroids with an EXACT SQL pairing: float
    sums are reduction-order-dependent, so each dimension is quantized
    to floor(x * 2^20) int64 first — integer sums are order-independent
    and bit-exact — and the centroid is a rounded payload of the exact
    (qsum, n) pair.  Shape: per-batch label-sorted reduceat partials
    (|labels| x d rows per task), one driver combine; nearest-centroid
    classification / cluster profiling is a lookup against this tiny
    result."""
    path = os.path.join(sf_dir, "embeddings.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["label", "embedding"])

    def partial(b: pa.Table) -> pa.Table:
        emb = b["embedding"].combine_chunks()
        mat = np.asarray(emb.values.to_numpy(zero_copy_only=False), dtype=np.float64)
        d = mat.size // len(b) if len(b) else 0
        mat = mat.reshape(len(b), d)
        q = np.floor(mat * CENTROID_Q).astype(np.int64)
        labels = b["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(labels, kind="stable")
        ul, starts = np.unique(labels[order], return_index=True)
        qsum = np.add.reduceat(q[order], starts, axis=0)
        n = np.diff(np.append(starts, len(labels))).astype(np.int64)
        nl = len(ul)
        return pa.table(
            {
                "label": pa.array(np.repeat(ul, d), pa.int64()),
                "dim": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64), nl)),
                "qsum": pa.array(qsum.ravel(), pa.int64()),
                "n": pa.array(np.repeat(n, d), pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    import pandas as pd

    if not len(parts):
        return pd.DataFrame(columns=["label", "dim", "n", "qsum", "centroid"])
    out = parts.groupby(["label", "dim"], as_index=False).agg(
        n=("n", "sum"), qsum=("qsum", "sum")
    )
    for c in ("label", "dim", "n", "qsum"):
        out[c] = out[c].astype("int64")
    from ..functions.rounding import round_half_away

    out["centroid"] = round_half_away(
        out["qsum"].to_numpy().astype(np.float64)
        / (out["n"].to_numpy() * np.int64(CENTROID_Q)).astype(np.float64),
        6,
    )
    return out[["label", "dim", "n", "qsum", "centroid"]]


SQL_LABEL_CENTROIDS = f"""
WITH u AS (
    SELECT label::BIGINT AS label,
           generate_subscripts(embedding, 1)::BIGINT AS dim,
           floor(unnest(embedding)::DOUBLE * {CENTROID_Q})::BIGINT AS q
    FROM embeddings
),
s AS (
    SELECT label, dim, sum(q)::BIGINT AS qsum, count(*)::BIGINT AS n
    FROM u GROUP BY 1, 2
)
SELECT label, dim, n, qsum,
       round(qsum::DOUBLE / (n * {CENTROID_Q})::DOUBLE, 6) AS centroid
FROM s
"""

QUERIES["label_centroids"] = (q_label_centroids, SQL_LABEL_CENTROIDS)


def q_vocab_coverage(sf_dir: str):
    """Per-doc OOV rate against the global top-V vocabulary (rare-token
    quality signal).  See curation.vocab_coverage_ds."""
    from .curation import vocab_coverage_ds

    return vocab_coverage_ds(sf_dir)


def _sql_vocab_coverage() -> str:
    from .curation import OOV_TOP_VOCAB

    return f"""
WITH {_SQL_TOKS_LIST},
tok AS (SELECT doc_id, unnest(toks) AS term FROM filt),
dfc AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM tok GROUP BY 1),
topv AS (SELECT term FROM dfc ORDER BY df DESC, term LIMIT {OOV_TOP_VOCAB}),
per AS (
    SELECT t.doc_id, count(*)::BIGINT AS n_tokens,
           count(v.term)::BIGINT AS n_in
    FROM tok t LEFT JOIN topv v USING (term) GROUP BY 1
)
SELECT d.doc_id,
       coalesce(per.n_tokens, 0)::BIGINT AS n_tokens,
       coalesce(per.n_in, 0)::BIGINT AS n_in_vocab,
       CASE WHEN per.n_tokens > 0 THEN
           round((per.n_tokens - per.n_in)::DOUBLE / per.n_tokens::DOUBLE, 6)
       END AS oov_rate
FROM documents d LEFT JOIN per USING (doc_id)
"""


QUERIES["vocab_coverage"] = (q_vocab_coverage, _sql_vocab_coverage())


def q_events_value_mad(sf_dir: str):
    """Median absolute deviation of the event value with EXPLICIT
    median semantics (mean of the two middle order statistics) on both
    sides — DuckDB's mad()/median() interpolation is version-dependent,
    so the SQL oracle computes the same two OFFSET order stats instead.
    Two streaming passes of the histogram-refinement order-stat engine
    (quantiles.exact_order_stats): only fixed-size histograms reach the
    driver; |x - med| is a derived map_batches, never materialized."""
    from .quantiles import exact_order_stats
    import pandas as pd

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["value"])

    def mid(n: int) -> list[int]:
        return [(n - 1) // 2, n // 2]

    n, stats = exact_order_stats(ev, "value", mid)
    if n == 0:
        return pd.DataFrame(
            {
                "n": pd.Series([], dtype="int64"),
                "median": pd.Series([], dtype="float64"),
                "mad": pd.Series([], dtype="float64"),
            }
        )
    a, b = stats
    med = (a + b) / 2.0

    def dev(t: pa.Table) -> pa.Table:
        x = pc.cast(t["value"], pa.float64())
        return pa.table(
            {"dv": pc.abs(pc.subtract(x, pa.scalar(med, pa.float64())))}
        )

    dvs = ev.map_batches(dev, batch_format="pyarrow", zero_copy_batch=True)
    _, (da, db) = exact_order_stats(dvs, "dv", mid)
    from ..functions.rounding import round_half_away

    r = round_half_away(np.array([med, (da + db) / 2.0]), 6)
    return pd.DataFrame(
        {"n": np.array([n], np.int64), "median": [r[0]], "mad": [r[1]]}
    )


SQL_EVENTS_VALUE_MAD = """
WITH v AS (
    SELECT value AS x FROM events
    WHERE value IS NOT NULL AND NOT isnan(value)
),
n AS (SELECT count(*)::BIGINT AS n FROM v),
lo AS (SELECT x AS a FROM v ORDER BY x
       LIMIT 1 OFFSET (SELECT greatest((n - 1) // 2, 0) FROM n)),
hi AS (SELECT x AS b FROM v ORDER BY x
       LIMIT 1 OFFSET (SELECT greatest(n // 2, 0) FROM n)),
med AS (SELECT (a + b) / 2 AS med FROM lo, hi),
d AS (SELECT abs(x - med.med) AS dv FROM v, med),
dlo AS (SELECT dv AS da FROM d ORDER BY dv
        LIMIT 1 OFFSET (SELECT greatest((n - 1) // 2, 0) FROM n)),
dhi AS (SELECT dv AS db FROM d ORDER BY dv
        LIMIT 1 OFFSET (SELECT greatest(n // 2, 0) FROM n))
SELECT n.n AS n, round(med.med, 6) AS median, round((da + db) / 2, 6) AS mad
FROM n, med, dlo, dhi
"""

QUERIES["events_value_mad"] = (q_events_value_mad, SQL_EVENTS_VALUE_MAD)


HYBRID_TOP = 50
RRF_K = 60


def q_hybrid_rrf(sf_dir: str):
    """Hybrid retrieval: reciprocal-rank fusion of the BM25 disjunctive
    leg (through the real index + BatchQueryEngine actor pool) and a
    single-query embedding cosine leg (vec 0 as the query, the
    knn_cosine kernel).  Both legs take their top-R under the total
    order (rounded score desc, id asc) via per-batch partial top-R +
    a bounded driver merge; fusion itself touches 2R rows.  rrf =
    1/(K+brank) + 1/(K+krank) over INTEGER ranks (missing leg
    contributes 0), rounded to 9 — ranks, not raw scores, make the
    fusion scale-free and the SQL pairing exact."""
    import pandas as pd

    # ---- BM25 leg: distributed partial top-R, driver merge
    bm = _bm25_all(sf_dir, conjunctive=False)

    def part_top_b(t: pa.Table) -> pa.Table:
        s = t["score"].to_numpy(zero_copy_only=False)
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, -s))[:HYBRID_TOP]
        return pa.table(
            {
                "doc_id": pa.array(d[order], pa.int64()),
                "score": pa.array(s[order], pa.float64()),
            }
        )

    bparts = bm.map_batches(part_top_b, batch_format="pyarrow").to_pandas()
    btop = (
        bparts.sort_values(["score", "doc_id"], ascending=[False, True],
                           kind="mergesort")
        .head(HYBRID_TOP)
        .reset_index(drop=True)
    )
    btop["brank"] = np.arange(1, len(btop) + 1, dtype=np.int64)

    # ---- embedding leg: query = vec 0, same kernel as knn_cosine
    epath = os.path.join(sf_dir, "embeddings.parquet")
    eds = read_parquet_sized(epath, columns=["vec_id", "embedding"])
    q = eds.filter(expr="vec_id == 0").take_all()
    qv = np.asarray(q[0]["embedding"], dtype=np.float64)
    qref = ray.put(qv / np.linalg.norm(qv))

    def part_top_k(batch: pa.Table) -> pa.Table:
        qn = ray.get(qref)
        emb = batch["embedding"].combine_chunks()
        mat = np.asarray(emb.values.to_numpy(zero_copy_only=False), dtype=np.float64)
        mat = mat.reshape(len(batch), -1)
        mat_n = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = round_half_away(mat_n @ qn, 6)
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((vec_ids, -sims))[:HYBRID_TOP]
        return pa.table(
            {
                "doc_id": pa.array(vec_ids[order].astype(np.int64)),
                "sim": pa.array(sims[order], pa.float64()),
            }
        )

    kparts = eds.map_batches(part_top_k, batch_format="pyarrow").to_pandas()
    ktop = (
        kparts.sort_values(["sim", "doc_id"], ascending=[False, True],
                           kind="mergesort")
        .head(HYBRID_TOP)
        .reset_index(drop=True)
    )
    ktop["krank"] = np.arange(1, len(ktop) + 1, dtype=np.int64)

    # ---- fuse (2R rows on the driver)
    f = btop[["doc_id", "brank"]].merge(
        ktop[["doc_id", "krank"]], on="doc_id", how="outer"
    )
    br = f["brank"].to_numpy(dtype=np.float64, na_value=np.nan)
    kr = f["krank"].to_numpy(dtype=np.float64, na_value=np.nan)
    cb = np.where(np.isnan(br), 0.0, 1.0 / (RRF_K + br))
    ck = np.where(np.isnan(kr), 0.0, 1.0 / (RRF_K + kr))
    f["rrf"] = round_half_away(cb + ck, 9)
    f["brank"] = br
    f["krank"] = kr
    f = f.sort_values(["rrf", "doc_id"], ascending=[False, True],
                      kind="mergesort").reset_index(drop=True)
    f["rank"] = np.arange(1, len(f) + 1, dtype=np.int64)
    return f[["doc_id", "brank", "krank", "rrf", "rank"]]


def _sql_hybrid_rrf() -> str:
    return (
        "WITH "
        + _SQL_BM25_BASE.format(
            terms=", ".join(f"'{t}'" for t in BM25_QUERY_TERMS)
        )
        + f""",
bm AS (
    SELECT doc_id, round(raw_score, 6) AS score FROM scores WHERE nmatched >= 1
),
br AS (
    SELECT doc_id,
           row_number() OVER (ORDER BY score DESC, doc_id) AS brank
    FROM bm QUALIFY brank <= {HYBRID_TOP}
),
qv AS (SELECT CAST(embedding AS DOUBLE[]) AS qe FROM embeddings WHERE vec_id = 0),
ks AS (
    SELECT e.vec_id AS doc_id,
           round(list_cosine_similarity(qv.qe, CAST(e.embedding AS DOUBLE[])), 6)
               AS sim
    FROM embeddings e CROSS JOIN qv
),
kr AS (
    SELECT doc_id,
           row_number() OVER (ORDER BY sim DESC, doc_id) AS krank
    FROM ks QUALIFY krank <= {HYBRID_TOP}
),
f AS (
    SELECT coalesce(br.doc_id, kr.doc_id) AS doc_id,
           br.brank::DOUBLE AS brank, kr.krank::DOUBLE AS krank,
           round(coalesce(1.0 / ({RRF_K} + br.brank), 0)
                 + coalesce(1.0 / ({RRF_K} + kr.krank), 0), 9) AS rrf
    FROM br FULL OUTER JOIN kr ON br.doc_id = kr.doc_id
)
SELECT doc_id, brank, krank, rrf,
       row_number() OVER (ORDER BY rrf DESC, doc_id)::BIGINT AS rank
FROM f
"""
    )


QUERIES["hybrid_rrf"] = (q_hybrid_rrf, _sql_hybrid_rrf())


def q_text_normalize(sf_dir: str):
    """Text canonicalization: lowercase, collapse every non-[a-z0-9] run
    to one space, trim — three Arrow RE2/ASCII kernels per batch, the
    same RE2 the DuckDB oracle runs (regexp_replace 'g'), so the
    normalized strings are byte-identical.  The normalized length rides
    along for cheap downstream filters."""
    ds = load_documents(sf_dir)

    def norm(b: pa.Table) -> pa.Table:
        low = pc.utf8_lower(b["text"])
        coll = pc.replace_substring_regex(low, pattern="[^a-z0-9]+",
                                          replacement=" ")
        out = pc.utf8_trim_whitespace(coll)
        return pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "norm_text": out,
                "norm_len": pc.utf8_length(out).cast(pa.int64()),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True)


SQL_TEXT_NORMALIZE = """
SELECT doc_id,
       trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')) AS norm_text,
       length(trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')))::BIGINT
           AS norm_len
FROM documents
"""

QUERIES["text_normalize"] = (q_text_normalize, SQL_TEXT_NORMALIZE)


def q_lang_length_rank(sf_dir: str):
    """RANK() of each document's length within its language — the
    distributed window-rank shape: RANK (ties share) equals 1 + count
    of strictly smaller values, so it needs only the per-(lang, length)
    HISTOGRAM, never a global sort.  Per-batch Arrow group_by partials,
    one bounded driver combine over distinct (lang, length) pairs
    (cardinality is value-bounded, not row-bounded), then a broadcast
    rank table and a second streaming lookup pass via searchsorted."""
    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["doc_id", "lang", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by(["lang", "n_chars"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "lang": g["lang"],
                "n_chars": g["n_chars"].cast(pa.int64()),
                "c": g["count_all"].cast(pa.int64()),
            }
        )

    import pandas as pd

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    if not len(parts):
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "lang": pd.Series([], dtype=object),
                "n_chars": pd.Series([], dtype="int64"),
                "rnk": pd.Series([], dtype="int64"),
            }
        )
    hist = parts.groupby(["lang", "n_chars"], as_index=False, dropna=False)["c"].sum()
    hist = hist.sort_values(["lang", "n_chars"], kind="mergesort")
    # rank(len) = 1 + count of strictly smaller lengths in the lang
    hist["rnk"] = (
        hist.groupby("lang", dropna=False)["c"].cumsum() - hist["c"] + 1
    ).astype("int64")
    lut = {
        lang: (g["n_chars"].to_numpy(), g["rnk"].to_numpy())
        for lang, g in hist.groupby("lang", dropna=False)
    }
    lut_ref = ray.put(lut)

    def lookup(b: pa.Table) -> pa.Table:
        table = ray.get(lut_ref)
        langs = b["lang"].to_numpy(zero_copy_only=False)
        lens = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        rnk = np.zeros(len(b), np.int64)
        for lang in pd.unique(langs):
            m = langs == lang
            lens_sorted, ranks = table[lang]
            rnk[m] = ranks[np.searchsorted(lens_sorted, lens[m])]
        return pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "lang": b["lang"],
                "n_chars": pa.array(lens, pa.int64()),
                "rnk": pa.array(rnk, pa.int64()),
            }
        )

    return ds.map_batches(lookup, batch_format="pyarrow", zero_copy_batch=True)


SQL_LANG_LENGTH_RANK = """
SELECT doc_id, lang, n_chars,
       rank() OVER (PARTITION BY lang ORDER BY n_chars)::BIGINT AS rnk
FROM documents
"""

QUERIES["lang_length_rank"] = (q_lang_length_rank, SQL_LANG_LENGTH_RANK)


def q_top_order_per_customer(sf_dir: str):
    """Greatest-n-per-group: each customer's single largest order under
    the total order (o_totalprice desc, o_orderkey asc — the float is a
    stored value compared verbatim, never recomputed, so cross-engine
    order is exact).  ONE custkey-hashed exchange with a vectorized
    sort + keep-first inside each shard (`dedup._sharded_groupby`)."""
    from .dedup import _sharded_groupby
    import pandas as pd

    path = os.path.join(sf_dir, "orders.parquet") if os.path.isdir(sf_dir) else sf_dir
    ords = read_parquet_sized(
        path, columns=["o_custkey", "o_orderkey", "o_totalprice"]
    )

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        return g.drop_duplicates("o_custkey", keep="first")[
            ["o_custkey", "o_orderkey", "o_totalprice"]
        ]

    schema = pa.schema(
        [
            ("o_custkey", pa.int64()),
            ("o_orderkey", pa.int64()),
            ("o_totalprice", pa.float64()),
        ]
    )
    return _sharded_groupby(ords, ["o_custkey"], pick, empty_schema=schema)


SQL_TOP_ORDER_PER_CUSTOMER = """
SELECT o_custkey, o_orderkey, o_totalprice
FROM orders
QUALIFY row_number() OVER (
    PARTITION BY o_custkey ORDER BY o_totalprice DESC, o_orderkey
) = 1
"""

QUERIES["top_order_per_customer"] = (
    q_top_order_per_customer,
    SQL_TOP_ORDER_PER_CUSTOMER,
)


SHUFFLE_MULT = 0x9E3779B97F4A7C15  # odd -> bijective over 2^64: NO ties
SHUFFLE_BUCKET_BITS = 16


def q_deterministic_shuffle(sf_dir: str):
    """Deterministic global shuffle (training-data ordering): pos =
    row_number by an INJECTIVE multiply hash of doc_id — the same
    reproducible permutation on any cluster size, no RNG.  Because the
    salt is bijective there are no ties, so the position equals
    1 + count of smaller salts: pass 1 accumulates 2^16 bucket counts
    per batch (fixed-size partials, driver cumsum gives bucket base
    offsets), pass 2 is ONE bucket-hashed exchange that sorts each
    bucket locally and adds its base — a global sort's result without a
    global sort."""
    from .dedup import _sharded_groupby
    import pandas as pd

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["doc_id"])

    def add_salt(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).view(np.uint64)
        with np.errstate(over="ignore"):
            salt = ids * np.uint64(SHUFFLE_MULT)
        bucket = (salt >> np.uint64(64 - SHUFFLE_BUCKET_BITS)).astype(np.int64)
        # bias to int64 preserving uint64 order (bucket fixes the top
        # bits; the biased value orders correctly within a bucket too)
        biased = (salt - np.uint64(1 << 63)).view(np.int64)
        return pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "bucket": pa.array(bucket, pa.int64()),
                "salt_b": pa.array(biased, pa.int64()),
            }
        )

    salted = ds.map_batches(add_salt, batch_format="pyarrow",
                            zero_copy_batch=True)

    def bucket_counts(b: pa.Table) -> pa.Table:
        g = b.group_by(["bucket"]).aggregate([([], "count_all")])
        return pa.table(
            {"bucket": g["bucket"], "c": g["count_all"].cast(pa.int64())}
        )

    parts = salted.map_batches(bucket_counts, batch_format="pyarrow").to_pandas()
    if not len(parts):
        return pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"),
             "pos": pd.Series([], dtype="int64")}
        )
    hist = parts.groupby("bucket", as_index=False)["c"].sum()
    hist = hist.sort_values("bucket", kind="mergesort")
    base = dict(
        zip(hist["bucket"], (hist["c"].cumsum() - hist["c"]).astype("int64"))
    )
    base_ref = ray.put(base)

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        b = ray.get(base_ref)
        g = g.sort_values(["bucket", "salt_b"], kind="mergesort")
        local = g.groupby("bucket").cumcount().to_numpy()
        pos = g["bucket"].map(b).to_numpy(dtype=np.int64) + local + 1
        return pd.DataFrame(
            {"doc_id": g["doc_id"].to_numpy(), "pos": pos.astype(np.int64)}
        )

    oschema = pa.schema([("doc_id", pa.int64()), ("pos", pa.int64())])
    return _sharded_groupby(salted, ["bucket"], assign, empty_schema=oschema)


SQL_DETERMINISTIC_SHUFFLE = f"""
SELECT doc_id,
       row_number() OVER (
           ORDER BY (doc_id::HUGEINT * {SHUFFLE_MULT}) % 18446744073709551616
       )::BIGINT AS pos
FROM documents
"""

QUERIES["deterministic_shuffle"] = (
    q_deterministic_shuffle,
    SQL_DETERMINISTIC_SHUFFLE,
)


def q_token_entropy(sf_dir: str):
    from .curation import token_entropy_ds

    return token_entropy_ds(sf_dir)


def _sql_token_entropy() -> str:
    from .curation import ENTROPY_LOG_SCALE as S

    return f"""
WITH {_SQL_TOKS_LIST},
tok AS (SELECT doc_id, unnest(toks) AS term FROM filt),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS n FROM tok GROUP BY 1, 2),
per AS (
    SELECT doc_id,
           sum(n)::BIGINT AS dl,
           sum(n * CAST(round(log2(n::DOUBLE) * {S}) AS BIGINT))::BIGINT AS s
    FROM tf GROUP BY 1
)
SELECT d.doc_id,
       coalesce(per.dl, 0)::BIGINT AS n_tokens,
       CASE WHEN per.dl > 0 THEN round(
            (CAST(round(log2(per.dl::DOUBLE) * {S}) AS BIGINT) * per.dl
             - per.s)::DOUBLE
            / (per.dl * {S})::DOUBLE, 6)
       END AS entropy
FROM documents d LEFT JOIN per USING (doc_id)
"""


QUERIES["token_entropy"] = (q_token_entropy, _sql_token_entropy())


# --------------------------------------------------------------------------
# pivot: per-source language-count matrix

# pivoted columns MUST be a bounded vocabulary (they become schema); the
# row key (source/domain) may be high-cardinality — it stays sharded.
PIVOT_LANGS = ["de", "en", "es", "fr", "zh"]


def q_lang_source_pivot(sf_dir: str):
    """PIVOT (long -> wide): per source, one count column per language
    plus ``n_other``/``n_total``.  The pivoted axis (lang) is a bounded
    vocabulary so it can become schema; the row axis (source — a domain
    at web scale) is unbounded, so rows are combined via per-batch Arrow
    ``group_by`` partials and ONE source-hashed exchange
    (`dedup._sharded_groupby`) — cardinality never concentrates on the
    driver.  The shard key is an internal hash column (not in the
    output), so the SQL oracle needs no replication of it."""
    from .dedup import _sharded_groupby
    import pandas as pd

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["lang", "source"])

    def partial(b: pa.Table) -> pa.Table:
        known = pc.coalesce(
            pc.is_in(b["lang"], value_set=pa.array(PIVOT_LANGS, pa.utf8())),
            pa.scalar(False),
        )
        lang = pc.if_else(known, b["lang"], pa.scalar("__other__", pa.utf8()))
        t = pa.table({"source": b["source"], "lang": lang})
        g = t.group_by(["source", "lang"]).aggregate([([], "count_all")])
        sh = pd.util.hash_array(
            np.asarray(g["source"].to_pylist(), dtype=object)
        ).view(np.int64)
        return pa.table(
            {
                "source": g["source"],
                "lang": g["lang"],
                "n": g["count_all"].cast(pa.int64()),
                "sh": pa.array(sh, pa.int64()),
            }
        )

    rows = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    cols = [f"n_{l}" for l in PIVOT_LANGS] + ["n_other", "n_total"]

    def pivot(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["source", "lang"], dropna=False, as_index=False)["n"].sum()
        wide = c.pivot_table(index="source", columns="lang", values="n",
                             aggfunc="sum", fill_value=0)
        out = pd.DataFrame({"source": wide.index})
        for l in PIVOT_LANGS:
            out[f"n_{l}"] = (
                wide[l].to_numpy() if l in wide.columns else 0
            )
        out["n_other"] = (
            wide["__other__"].to_numpy() if "__other__" in wide.columns else 0
        )
        for c2 in cols[:-1]:
            out[c2] = out[c2].astype("int64")
        out["n_total"] = out[[f"n_{l}" for l in PIVOT_LANGS] + ["n_other"]].sum(
            axis=1
        ).astype("int64")
        return out.reset_index(drop=True)

    oschema = pa.schema(
        [("source", pa.utf8())] + [(c, pa.int64()) for c in cols]
    )
    return _sharded_groupby(rows, ["sh"], pivot, empty_schema=oschema)


def _sql_lang_source_pivot() -> str:
    cases = ",\n       ".join(
        f"sum(CASE WHEN lang = '{l}' THEN 1 ELSE 0 END)::BIGINT AS n_{l}"
        for l in PIVOT_LANGS
    )
    in_list = ", ".join(f"'{l}'" for l in PIVOT_LANGS)
    return f"""
SELECT source,
       {cases},
       sum(CASE WHEN lang IS NULL OR lang NOT IN ({in_list})
                THEN 1 ELSE 0 END)::BIGINT AS n_other,
       count(*)::BIGINT AS n_total
FROM documents
GROUP BY source
"""


QUERIES["lang_source_pivot"] = (q_lang_source_pivot, _sql_lang_source_pivot())


# --------------------------------------------------------------------------
# ordered string aggregation: per-user event path

PATH_MAX_STEPS = 64  # bound per-user output (a bot user can have millions)


def q_user_event_path(sf_dir: str):
    """ORDER-SENSITIVE string aggregation: each user's event-type
    sequence ``view>click>purchase...`` under the deterministic total
    order (ts, event_id), capped at the first ``PATH_MAX_STEPS`` events
    per user so one bot user can't blow up a row.  NULL event types are
    skipped (DuckDB ``string_agg`` semantics); an all-NULL user keeps a
    row with a NULL path.  Shape: ONE user-hashed exchange, vectorized
    pandas ordering inside each shard — the sequence-modeling
    prerequisite (user histories for session/behavior models)."""
    from .dedup import _sharded_groupby
    import pandas as pd

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(
        path, columns=["user_id", "ts", "event_id", "event_type"]
    )

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        rn = g.groupby("user_id").cumcount()
        g = g[rn < PATH_MAX_STEPS]
        keep = g[g["event_type"].notna()]
        n = keep.groupby("user_id").size()
        p = keep.groupby("user_id")["event_type"].agg(">".join)
        users = g["user_id"].drop_duplicates()
        out = pd.DataFrame({"user_id": users.to_numpy()})
        out["n_steps"] = out["user_id"].map(n).fillna(0).astype("int64")
        out["path"] = out["user_id"].map(p)
        out["path"] = out["path"].astype(object).where(out["path"].notna(), None)
        return out

    oschema = pa.schema(
        [("user_id", pa.int64()), ("n_steps", pa.int64()), ("path", pa.utf8())]
    )
    return _sharded_groupby(ev, ["user_id"], agg, empty_schema=oschema)


SQL_USER_EVENT_PATH = f"""
WITH ranked AS (
    SELECT user_id, ts, event_id, event_type,
           row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
    FROM events
)
SELECT user_id,
       count(event_type)::BIGINT AS n_steps,
       string_agg(event_type, '>' ORDER BY ts, event_id) AS path
FROM ranked WHERE rn <= {PATH_MAX_STEPS}
GROUP BY user_id
"""

QUERIES["user_event_path"] = (q_user_event_path, SQL_USER_EVENT_PATH)


# --------------------------------------------------------------------------
# deterministic train/valid/test split (hash split + disjointness proof)

SPLIT_MULT = 0x9E3779B97F4A7C15  # Fibonacci multiplier, same family as sample_hash
SPLIT_PCTS = {"train": 90, "valid": 5, "test": 5}  # must sum to 100


def q_train_split(sf_dir: str):
    """Deterministic train/valid/test split: a doc's split is a pure
    function of doc_id (multiply hash mod 100 -> 90/5/5), so the split
    is reproducible on any cluster size / any row order and NEVER needs
    a shuffle or a stored assignment table.  Returns the per-split
    audit summary (doc count, char volume, doc_id range); the driver's
    hash comparison proves both engines assign every doc to the same
    split, and `sum(n_docs) == N` + disjoint hash ranges prove the
    partition property.  Shape: fixed-size per-batch partials (3 rows
    per batch) -> driver combine — nothing scales with N."""
    import pandas as pd

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["doc_id", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).view(np.uint64)
        with np.errstate(over="ignore"):
            h = (ids * np.uint64(SPLIT_MULT)) % np.uint64(100)
        split = np.where(h < 90, "train", np.where(h < 95, "valid", "test"))
        t = pa.table(
            {
                "split": pa.array(split, pa.utf8()),
                "doc_id": b["doc_id"].cast(pa.int64()),
                "n_chars": b["n_chars"].cast(pa.int64()),
            }
        )
        g = t.group_by(["split"]).aggregate(
            [("doc_id", "count"), ("n_chars", "sum"),
             ("doc_id", "min"), ("doc_id", "max")]
        )
        return pa.table(
            {
                "split": g["split"],
                "n_docs": g["doc_id_count"].cast(pa.int64()),
                "sum_chars": g["n_chars_sum"].cast(pa.int64()),
                "min_doc": g["doc_id_min"].cast(pa.int64()),
                "max_doc": g["doc_id_max"].cast(pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    if not len(parts):
        return pd.DataFrame(
            {
                "split": pd.Series([], dtype=object),
                "n_docs": pd.Series([], dtype="int64"),
                "sum_chars": pd.Series([], dtype="int64"),
                "min_doc": pd.Series([], dtype="int64"),
                "max_doc": pd.Series([], dtype="int64"),
            }
        )
    out = parts.groupby("split", as_index=False).agg(
        n_docs=("n_docs", "sum"),
        sum_chars=("sum_chars", "sum"),
        min_doc=("min_doc", "min"),
        max_doc=("max_doc", "max"),
    )
    for c in ["n_docs", "sum_chars", "min_doc", "max_doc"]:
        out[c] = out[c].astype("int64")
    return out


SQL_TRAIN_SPLIT = f"""
WITH assigned AS (
    SELECT doc_id, n_chars,
           (doc_id::HUGEINT * {SPLIT_MULT}) % 18446744073709551616 % 100 AS h
    FROM documents
)
SELECT CASE WHEN h < 90 THEN 'train'
            WHEN h < 95 THEN 'valid' ELSE 'test' END AS split,
       count(*)::BIGINT AS n_docs,
       sum(n_chars)::BIGINT AS sum_chars,
       min(doc_id)::BIGINT AS min_doc,
       max(doc_id)::BIGINT AS max_doc
FROM assigned
GROUP BY 1
"""

QUERIES["train_split"] = (q_train_split, SQL_TRAIN_SPLIT)


# --------------------------------------------------------------------------
# grouped Pearson correlation from exact integer moments

CORR_SCALE = 100  # cents quantization: both columns have <= 2 decimals


def q_qty_discount_corr(sf_dir: str):
    """Per-returnflag Pearson correlation corr(l_quantity, l_discount)
    with an EXACT SQL pairing: float sums are order-dependent, so both
    engines quantize to integer cents first (x100 — the synthetic
    columns carry <= 2 decimals) and accumulate the five moments
    (n, Sx, Sy, Sxx, Syy, Sxy) as EXACT integers; the correlation is
    then ONE float expression over identical integers -> bit-identical.

    Shape: classic combiner pre-aggregation — per-batch Arrow group_by
    partials (5 ints x n_groups rows per batch), driver combine in
    arbitrary-precision Python ints (immune to int64 overflow at any
    scale; the SQL side sums in HUGEINT), zero data shuffles."""
    import pandas as pd

    path = os.path.join(sf_dir, "lineitem.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(
        path, columns=["l_returnflag", "l_quantity", "l_discount"]
    )

    def partial(b: pa.Table) -> pa.Table:
        x = round_half_away(
            b["l_quantity"].to_numpy(zero_copy_only=False) * CORR_SCALE, 0
        ).astype(np.int64)
        y = round_half_away(
            b["l_discount"].to_numpy(zero_copy_only=False) * CORR_SCALE, 0
        ).astype(np.int64)
        t = pa.table(
            {
                "f": b["l_returnflag"],
                "x": pa.array(x, pa.int64()),
                "y": pa.array(y, pa.int64()),
                "xx": pa.array(x * x, pa.int64()),
                "yy": pa.array(y * y, pa.int64()),
                "xy": pa.array(x * y, pa.int64()),
            }
        )
        g = t.group_by(["f"]).aggregate(
            [("x", "count"), ("x", "sum"), ("y", "sum"),
             ("xx", "sum"), ("yy", "sum"), ("xy", "sum")]
        )
        return pa.table(
            {
                "f": g["f"],
                "n": g["x_count"].cast(pa.int64()),
                "sx": g["x_sum"].cast(pa.int64()),
                "sy": g["y_sum"].cast(pa.int64()),
                "sxx": g["xx_sum"].cast(pa.int64()),
                "syy": g["yy_sum"].cast(pa.int64()),
                "sxy": g["xy_sum"].cast(pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    rows = []
    for f, grp in parts.groupby("f", dropna=False):
        if f is not None and not isinstance(f, str) and pd.isna(f):
            f = None
        n = int(grp["n"].sum())
        sx = sum(int(v) for v in grp["sx"])
        sy = sum(int(v) for v in grp["sy"])
        sxx = sum(int(v) for v in grp["sxx"])
        syy = sum(int(v) for v in grp["syy"])
        sxy = sum(int(v) for v in grp["sxy"])
        a = float(n * sxy - sx * sy)
        vb = float(n * sxx - sx * sx)
        vc = float(n * syy - sy * sy)
        den = np.sqrt(vb * vc)
        corr = round_half_away(a / den, 9) if den > 0 else None
        rows.append((f, n, corr))
    import pandas as pd

    out = pd.DataFrame(rows, columns=["l_returnflag", "n", "corr_qty_disc"])
    out["n"] = out["n"].astype("int64")
    out["corr_qty_disc"] = out["corr_qty_disc"].astype("float64")
    return out.sort_values("l_returnflag").reset_index(drop=True)


SQL_QTY_DISCOUNT_CORR = f"""
WITH q AS (
    SELECT l_returnflag AS f,
           CAST(round(l_quantity * {CORR_SCALE}) AS BIGINT) AS x,
           CAST(round(l_discount * {CORR_SCALE}) AS BIGINT) AS y
    FROM lineitem
),
m AS (
    SELECT f, count(*)::HUGEINT AS n,
           sum(x)::HUGEINT AS sx, sum(y)::HUGEINT AS sy,
           sum(x*x)::HUGEINT AS sxx, sum(y*y)::HUGEINT AS syy,
           sum(x*y)::HUGEINT AS sxy
    FROM q GROUP BY f
)
SELECT f AS l_returnflag, n::BIGINT AS n,
       CASE WHEN (n*sxx - sx*sx)::DOUBLE * (n*syy - sy*sy)::DOUBLE > 0
            THEN round((n*sxy - sx*sy)::DOUBLE
                       / sqrt((n*sxx - sx*sx)::DOUBLE
                              * (n*syy - sy*sy)::DOUBLE), 9)
       END AS corr_qty_disc
FROM m
"""

QUERIES["qty_discount_corr"] = (q_qty_discount_corr, SQL_QTY_DISCOUNT_CORR)


def q_qty_discount_ols(sf_dir: str):
    """Per-returnflag OLS regression discount ~ quantity: the same
    exact-integer-moments combine as qty_discount_corr, with slope and
    intercept emitted as single float expressions over identical
    integers — slope = (n·Sxy − Sx·Sy)/(n·Sxx − Sx²), intercept =
    (Sy·Sxx − Sx·Sxy)/(n·Sxx − Sx²) — so both payloads are
    bit-identical across engines (grouped linear-model fitting, the
    ML-lite sibling of the correlation entry)."""
    import pandas as pd

    path = os.path.join(sf_dir, "lineitem.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(
        path, columns=["l_returnflag", "l_quantity", "l_discount"]
    )

    def partial(b: pa.Table) -> pa.Table:
        x = round_half_away(
            b["l_quantity"].to_numpy(zero_copy_only=False) * CORR_SCALE, 0
        ).astype(np.int64)
        y = round_half_away(
            b["l_discount"].to_numpy(zero_copy_only=False) * CORR_SCALE, 0
        ).astype(np.int64)
        t = pa.table({
            "f": b["l_returnflag"],
            "x": pa.array(x, pa.int64()),
            "y": pa.array(y, pa.int64()),
            "xx": pa.array(x * x, pa.int64()),
            "xy": pa.array(x * y, pa.int64()),
        })
        g = t.group_by(["f"]).aggregate(
            [("x", "count"), ("x", "sum"), ("y", "sum"),
             ("xx", "sum"), ("xy", "sum")]
        )
        return pa.table({
            "f": g["f"],
            "n": g["x_count"].cast(pa.int64()),
            "sx": g["x_sum"].cast(pa.int64()),
            "sy": g["y_sum"].cast(pa.int64()),
            "sxx": g["xx_sum"].cast(pa.int64()),
            "sxy": g["xy_sum"].cast(pa.int64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    rows = []
    for f, grp in parts.groupby("f", dropna=False):
        if f is not None and not isinstance(f, str) and pd.isna(f):
            f = None
        n = int(grp["n"].sum())
        sx = sum(int(v) for v in grp["sx"])
        sy = sum(int(v) for v in grp["sy"])
        sxx = sum(int(v) for v in grp["sxx"])
        sxy = sum(int(v) for v in grp["sxy"])
        den = n * sxx - sx * sx
        if den > 0:
            slope = float(round_half_away(
                np.array([float(n * sxy - sx * sy) / float(den)]), 9)[0])
            icept = float(round_half_away(
                np.array([float(sy * sxx - sx * sxy) / float(den)]), 9)[0])
        else:
            slope = icept = None
        rows.append((f, n, sx, sy, sxx, sxy, slope, icept))
    out = pd.DataFrame(
        rows,
        columns=["l_returnflag", "n", "sx", "sy", "sxx", "sxy",
                 "slope", "intercept"],
    )
    for c in ("n", "sx", "sy", "sxx", "sxy"):
        out[c] = out[c].astype("int64")
    out["slope"] = out["slope"].astype("float64")
    out["intercept"] = out["intercept"].astype("float64")
    return out.sort_values("l_returnflag").reset_index(drop=True)


SQL_QTY_DISCOUNT_OLS = f"""
WITH q AS (
    SELECT l_returnflag AS f,
           CAST(round(l_quantity * {CORR_SCALE}) AS BIGINT) AS x,
           CAST(round(l_discount * {CORR_SCALE}) AS BIGINT) AS y
    FROM lineitem
),
m AS (
    SELECT f, count(*)::HUGEINT AS n,
           sum(x)::HUGEINT AS sx, sum(y)::HUGEINT AS sy,
           sum(x*x)::HUGEINT AS sxx, sum(x*y)::HUGEINT AS sxy
    FROM q GROUP BY f
)
SELECT f AS l_returnflag, n::BIGINT AS n,
       sx::BIGINT AS sx, sy::BIGINT AS sy,
       sxx::BIGINT AS sxx, sxy::BIGINT AS sxy,
       CASE WHEN n*sxx - sx*sx > 0
            THEN round((n*sxy - sx*sy)::DOUBLE
                       / (n*sxx - sx*sx)::DOUBLE, 9) END AS slope,
       CASE WHEN n*sxx - sx*sx > 0
            THEN round((sy*sxx - sx*sxy)::DOUBLE
                       / (n*sxx - sx*sx)::DOUBLE, 9) END AS intercept
FROM m
"""

QUERIES["qty_discount_ols"] = (q_qty_discount_ols, SQL_QTY_DISCOUNT_OLS)


def q_mwu_length(sf_dir: str):
    """Mann-Whitney U rank test of document length, lang='en' vs rest
    (the rank-based sibling of the length_ks entry — completes the
    hypothesis-testing family: KS, G-test, and now MWU).

    Exactness: tied midranks are half-integers, so every rank statistic
    is carried DOUBLED (r1_x2, u1_x2, u2_x2 — exact ints): for each
    distinct value v occupying ranks [c_less+1, c_less+c_v], group A's
    doubled rank sum adds a_v·(2·c_less + c_v + 1).  The tie-correction
    term Σ(t³−t) is exact too; the AUC effect size u1/(n1·n2) is the
    one float payload, a single division over identical integers.

    Shape: per-batch (value, a, c) partials via Arrow group_by, a
    value-sharded exchange sums them, and the bounded distinct-value
    table (lengths, not rows) reaches the driver for the cumulative
    scan — same cost class as the exact-quantiles entries."""
    import pandas as pd

    from .dedup import _sharded_groupby

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["lang", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        is_a = pc.equal(b["lang"], "en")
        t = pa.table({
            "v": b["n_chars"].cast(pa.int64()),
            "a": is_a.cast(pa.int64()),
            "one": pa.array(np.ones(b.num_rows, np.int64)),
        })
        g = t.group_by(["v"]).aggregate([("a", "sum"), ("one", "sum")])
        return pa.table({
            "v": g["v"],
            "a": g["a_sum"].cast(pa.int64()),
            "c": g["one_sum"].cast(pa.int64()),
        })

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("v", as_index=False)[["a", "c"]].sum()

    schema = pa.schema([("v", pa.int64()), ("a", pa.int64()),
                        ("c", pa.int64())])
    vals = _sharded_groupby(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["v"], agg, empty_schema=schema,
    ).to_pandas()
    vals = vals.groupby("v", as_index=False)[["a", "c"]].sum().sort_values("v")
    n1 = int(vals["a"].sum())
    n = int(vals["c"].sum())
    n2 = n - n1
    r1x2 = 0
    ties = 0
    c_less = 0
    for a_v, c_v in zip(vals["a"], vals["c"]):
        a_v, c_v = int(a_v), int(c_v)
        r1x2 += a_v * (2 * c_less + c_v + 1)
        ties += c_v * c_v * c_v - c_v
        c_less += c_v
    u1x2 = r1x2 - n1 * (n1 + 1)
    u2x2 = 2 * n1 * n2 - u1x2
    auc = (
        float(round_half_away(
            np.array([float(u1x2) / float(2 * n1 * n2)]), 9)[0])
        if n1 > 0 and n2 > 0 else None
    )
    out = pd.DataFrame([{
        "n1": n1, "n2": n2, "r1_x2": r1x2, "u1_x2": u1x2, "u2_x2": u2x2,
        "tie_cubes": ties, "auc": auc,
    }])
    for c in ("n1", "n2", "r1_x2", "u1_x2", "u2_x2", "tie_cubes"):
        out[c] = out[c].astype("int64")
    out["auc"] = out["auc"].astype("float64")
    return out


SQL_MWU_LENGTH = """
WITH v AS (
    SELECT n_chars::BIGINT AS v,
           CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS is_a
    FROM documents
),
g AS (
    SELECT v, sum(is_a)::HUGEINT AS a, count(*)::HUGEINT AS c
    FROM v GROUP BY v
),
w AS (
    SELECT v, a, c,
           coalesce(sum(c) OVER (ORDER BY v
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
               0)::HUGEINT AS cl
    FROM g
),
m AS (
    SELECT coalesce(sum(a * (2*cl + c + 1)), 0)::HUGEINT AS r1x2,
           coalesce(sum(a), 0)::HUGEINT AS n1,
           coalesce(sum(c), 0)::HUGEINT AS n,
           coalesce(sum(c*c*c - c), 0)::HUGEINT AS ties
    FROM w
)
SELECT n1::BIGINT AS n1, (n - n1)::BIGINT AS n2,
       r1x2::BIGINT AS r1_x2,
       (r1x2 - n1*(n1+1))::BIGINT AS u1_x2,
       (2*n1*(n - n1) - (r1x2 - n1*(n1+1)))::BIGINT AS u2_x2,
       ties::BIGINT AS tie_cubes,
       CASE WHEN n1 > 0 AND n > n1
            THEN round((r1x2 - n1*(n1+1))::DOUBLE
                       / (2*n1*(n - n1))::DOUBLE, 9) END AS auc
FROM m
"""

QUERIES["mwu_length"] = (q_mwu_length, SQL_MWU_LENGTH)


def q_pagerank_terms(sf_dir: str):
    """Fixed-point PageRank over the frequent-term co-occurrence graph
    (the iterative-algorithm entry).  See curation.pagerank_terms."""
    from .curation import pagerank_terms

    return pagerank_terms(sf_dir)


def _sql_pagerank_terms() -> str:
    from .curation import (
        PR_DAMP_DEN,
        PR_DAMP_NUM,
        PR_ITERS,
        PR_SCALE,
        PR_TOP_VOCAB,
    )

    steps = []
    for k in range(1, PR_ITERS + 1):
        steps.append(f"""
r{k} AS (
    SELECT d.term,
           ((SELECT base FROM con)
            + ({PR_DAMP_NUM} * coalesce(s.c, 0)) // {PR_DAMP_DEN})::BIGINT AS r
    FROM degs d LEFT JOIN (
        SELECT e.dst AS term, sum(r.r // dg.deg)::BIGINT AS c
        FROM edges e
        JOIN r{k-1} r ON r.term = e.src
        JOIN degs dg ON dg.term = e.src
        GROUP BY 1
    ) s USING (term)
)""")
    return f"""
WITH {_SQL_TOKS_LIST},
tok AS (SELECT DISTINCT doc_id, unnest(toks) AS term FROM filt),
dfc AS (SELECT term, count(*)::BIGINT AS df FROM tok GROUP BY 1),
topv AS (SELECT term FROM dfc ORDER BY df DESC, term LIMIT {PR_TOP_VOCAB}),
tv AS (SELECT t.doc_id, t.term FROM tok t JOIN topv USING (term)),
edges AS (
    SELECT DISTINCT a.term AS src, b.term AS dst
    FROM tv a JOIN tv b ON a.doc_id = b.doc_id AND a.term <> b.term
),
degs AS (
    SELECT t.term, count(e.dst)::BIGINT AS deg
    FROM topv t LEFT JOIN edges e ON e.src = t.term
    GROUP BY 1
),
nv AS (SELECT count(*)::BIGINT AS n FROM topv),
con AS (SELECT CASE WHEN n > 0
                    THEN ((15 * ({PR_SCALE} // n)) // {PR_DAMP_DEN})::BIGINT
                    ELSE 0 END AS base
        FROM nv),
r0 AS (SELECT term, ({PR_SCALE} // (SELECT n FROM nv))::BIGINT AS r
       FROM topv),
{",".join(steps)}
SELECT d.term, d.deg, rf.r AS pr,
       row_number() OVER (ORDER BY rf.r DESC, d.term)::BIGINT AS pr_rank
FROM degs d JOIN r{PR_ITERS} rf USING (term)
"""


QUERIES["pagerank_terms"] = (q_pagerank_terms, _sql_pagerank_terms())


def q_hits_terms(sf_dir: str):
    """HITS hubs/authorities over the df-directed co-occurrence graph
    (integer max-normalized half-steps).  See curation.hits_terms."""
    from .curation import hits_terms

    return hits_terms(sf_dir)


def _sql_hits_terms() -> str:
    from .curation import HITS_ITERS, HITS_SCALE, PR_TOP_VOCAB

    steps = []
    prev = "h0"
    for k in range(1, HITS_ITERS + 1):
        steps.append(f"""
a{k}r AS MATERIALIZED (
    SELECT t.term, coalesce(s.c, 0)::HUGEINT AS v
    FROM topv t LEFT JOIN (
        SELECT e.dst AS term, sum(h.v)::HUGEINT AS c
        FROM ed e JOIN {prev} h ON h.term = e.src
        GROUP BY 1
    ) s USING (term)
),
a{k} AS MATERIALIZED (
    SELECT term,
           (CASE WHEN (SELECT max(v) FROM a{k}r) > 0
                 THEN v * {HITS_SCALE} // (SELECT max(v) FROM a{k}r)
                 ELSE 0 END)::HUGEINT AS v
    FROM a{k}r
),
h{k}r AS MATERIALIZED (
    SELECT t.term, coalesce(s.c, 0)::HUGEINT AS v
    FROM topv t LEFT JOIN (
        SELECT e.src AS term, sum(a.v)::HUGEINT AS c
        FROM ed e JOIN a{k} a ON a.term = e.dst
        GROUP BY 1
    ) s USING (term)
),
h{k} AS MATERIALIZED (
    SELECT term,
           (CASE WHEN (SELECT max(v) FROM h{k}r) > 0
                 THEN v * {HITS_SCALE} // (SELECT max(v) FROM h{k}r)
                 ELSE 0 END)::HUGEINT AS v
    FROM h{k}r
)""")
        prev = f"h{k}"
    return f"""
WITH {_SQL_TOKS_LIST},
tok AS (SELECT DISTINCT doc_id, unnest(toks) AS term FROM filt),
dfc AS (SELECT term, count(*)::BIGINT AS df FROM tok GROUP BY 1),
topv AS (SELECT term FROM dfc ORDER BY df DESC, term LIMIT {PR_TOP_VOCAB}),
tv AS (SELECT t.doc_id, t.term FROM tok t JOIN topv USING (term)),
edges AS (
    SELECT DISTINCT a.term AS src, b.term AS dst
    FROM tv a JOIN tv b ON a.doc_id = b.doc_id AND a.term <> b.term
),
ed AS (
    SELECT e.src, e.dst
    FROM edges e
    JOIN dfc da ON da.term = e.src
    JOIN dfc db ON db.term = e.dst
    WHERE da.df < db.df OR (da.df = db.df AND e.src < e.dst)
),
h0 AS (SELECT term, {HITS_SCALE}::HUGEINT AS v FROM topv),
{",".join(steps)}
SELECT t.term,
       coalesce(od.c, 0)::BIGINT AS outdeg,
       coalesce(idg.c, 0)::BIGINT AS indeg,
       af.v::BIGINT AS auth, hf.v::BIGINT AS hub,
       row_number() OVER (ORDER BY hf.v DESC, t.term)::BIGINT AS hub_rank
FROM topv t
LEFT JOIN (SELECT src AS term, count(*)::BIGINT AS c FROM ed GROUP BY 1)
    od USING (term)
LEFT JOIN (SELECT dst AS term, count(*)::BIGINT AS c FROM ed GROUP BY 1)
    idg USING (term)
JOIN a{HITS_ITERS} af USING (term)
JOIN h{HITS_ITERS} hf USING (term)
"""


QUERIES["hits_terms"] = (q_hits_terms, _sql_hits_terms())


def q_unigram_logprob(sf_dir: str):
    """Per-doc unigram-LM negative log-likelihood (CCNet-style quality
    score) on a 16-bit probability grid.  See curation.unigram_logprob_ds."""
    from .curation import unigram_logprob_ds

    return unigram_logprob_ds(sf_dir)


def _sql_unigram_logprob() -> str:
    from .curation import ENTROPY_LOG_SCALE as S
    from .curation import UNIGRAM_RGRID, UNIGRAM_VOCAB

    l16 = 16 * S
    return f"""
WITH {_SQL_TOKS_LIST},
tok AS (SELECT doc_id, unnest(toks) AS term FROM filt),
cnt AS (SELECT term, count(*)::BIGINT AS c FROM tok GROUP BY 1),
tot AS (SELECT coalesce(sum(c), 0)::BIGINT AS t FROM cnt),
topv AS (SELECT term, c FROM cnt ORDER BY c DESC, term LIMIT {UNIGRAM_VOCAB}),
model AS (
    SELECT term,
           greatest(1, (c::HUGEINT * {UNIGRAM_RGRID})
                       // (SELECT t FROM tot))::BIGINT AS r
    FROM topv
),
scored AS (
    SELECT tok.doc_id,
           {l16} - CAST(round(log2(coalesce(model.r, 1)::DOUBLE) * {S})
                        AS BIGINT) AS contrib
    FROM tok LEFT JOIN model USING (term)
),
per AS (
    SELECT doc_id, count(*)::BIGINT AS dl, sum(contrib)::BIGINT AS s
    FROM scored GROUP BY 1
)
SELECT d.doc_id,
       coalesce(per.dl, 0)::BIGINT AS n_tokens,
       CASE WHEN per.dl > 0
            THEN round(per.s::DOUBLE / (per.dl * {S})::DOUBLE, 6)
       END AS nll_bits
FROM documents d LEFT JOIN per USING (doc_id)
"""


QUERIES["unigram_logprob"] = (q_unigram_logprob, _sql_unigram_logprob())


GROUP_MEDIAN_MAX_GROUPS = 16


def q_group_median_price(sf_dir: str):
    """GROUPED exact median (mean of the two middle order statistics,
    same explicit semantics as ``events_value_mad``) of the extended
    price per returnflag, via the grouped histogram-refinement engine
    (`quantiles.exact_order_stats_grouped`): every (group, rank) target
    shares ONE histogram pass per refinement round, so the pass count
    does not scale with the group count — which must still be a bounded
    enumeration (asserted in the engine); an unbounded key would need
    per-group-hash exchanges instead.  Only fixed-size histograms ever
    reach the driver."""
    from .quantiles import exact_order_stats_grouped
    import pandas as pd

    path = os.path.join(sf_dir, "lineitem.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["l_returnflag", "l_extendedprice"])

    def mid(n: int) -> list[int]:
        return [(n - 1) // 2, n // 2]

    stats = exact_order_stats_grouped(ds, "l_extendedprice", "l_returnflag", mid)
    rows = [
        (g, n, round_half_away((vals[0] + vals[1]) / 2.0, 6))
        for g, (n, vals) in sorted(stats.items())
        if n > 0
    ]
    out = pd.DataFrame(rows, columns=["l_returnflag", "n", "median_price"])
    out["n"] = out["n"].astype("int64")
    out["median_price"] = out["median_price"].astype("float64")
    return out


SQL_GROUP_MEDIAN_PRICE = """
WITH v AS (
    SELECT l_returnflag AS f, l_extendedprice AS x
    FROM lineitem
    WHERE l_returnflag IS NOT NULL
      AND l_extendedprice IS NOT NULL AND NOT isnan(l_extendedprice)
),
r AS (
    SELECT f, x,
           row_number() OVER (PARTITION BY f ORDER BY x) - 1 AS rk,
           count(*) OVER (PARTITION BY f) AS n
    FROM v
)
SELECT f AS l_returnflag, max(n)::BIGINT AS n,
       round(avg(x), 6) AS median_price
FROM r
WHERE rk = (n - 1) // 2 OR rk = n // 2
GROUP BY f
"""

QUERIES["group_median_price"] = (q_group_median_price, SQL_GROUP_MEDIAN_PRICE)


CROSSLANG_TOP = 50


def q_crosslang_terms(sf_dir: str):
    """Set INTERSECTION across partitions of the corpus: terms whose
    document-frequency is positive in BOTH the 'en' and the 'zh' slice,
    ranked by combined df (integer rank keys: df_en+df_zh desc, term
    asc), top {CROSSLANG_TOP}.  Shape: per-batch distinct presence per
    (term, lang) — docs never span batches, so batch-distinct is
    globally distinct — then ONE term-sharded exchange; a shard owns
    all rows of its terms, so per-shard top-k candidates contain the
    global top-k and the driver merge is bounded."""
    from .dedup import _sharded_groupby
    from .curation import _batch_tokens
    import pandas as pd

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["doc_id", "text", "lang"])

    def partial(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "term": pa.array([], pa.utf8()),
                "th": pa.array([], pa.int64()),
                "en": pa.array([], pa.int64()),
                "zh": pa.array([], pa.int64()),
            }
        )
        toks, token_doc, row_idx, h1, _h2 = _batch_tokens(b)
        if not len(toks):
            return empty
        lang = b["lang"].combine_chunks().take(
            pa.array(row_idx, pa.int64())
        )
        keep = pc.coalesce(
            pc.is_in(lang, value_set=pa.array(["en", "zh"], pa.utf8())),
            pa.scalar(False),
        ).to_numpy(zero_copy_only=False)
        if not keep.any():
            return empty
        t = pa.table(
            {
                "doc_id": pa.array(token_doc[keep], pa.int64()),
                "term": pc.array_filter(toks, pa.array(keep)),
                "th": pa.array(h1[keep].view(np.int64), pa.int64()),
                "is_en": pc.equal(
                    pc.array_filter(lang, pa.array(keep)), pa.scalar("en")
                ).cast(pa.int64()),
            }
        )
        d = t.group_by(["doc_id", "term", "is_en"]).aggregate([("th", "min")])
        g = (
            pa.table(
                {"term": d["term"], "th": d["th_min"], "is_en": d["is_en"]}
            )
            .group_by(["term", "is_en"])
            .aggregate([("th", "min"), ([], "count_all")])
        )
        en = pc.multiply(g["is_en"], g["count_all"].cast(pa.int64()))
        zh = pc.multiply(
            pc.subtract(pa.scalar(1, pa.int64()), g["is_en"]),
            g["count_all"].cast(pa.int64()),
        )
        return pa.table(
            {"term": g["term"], "th": g["th_min"], "en": en, "zh": zh}
        )

    rows = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def shard_top(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("term", as_index=False)[["en", "zh"]].sum()
        s = s[(s["en"] > 0) & (s["zh"] > 0)].copy()
        s["combined"] = s["en"] + s["zh"]
        s = s.sort_values(
            ["combined", "term"], ascending=[False, True], kind="mergesort"
        ).head(CROSSLANG_TOP)
        out = s.rename(columns={"en": "df_en", "zh": "df_zh"})
        for c in ["df_en", "df_zh", "combined"]:
            out[c] = out[c].astype("int64")
        return out[["term", "df_en", "df_zh", "combined"]]

    cschema = pa.schema(
        [
            ("term", pa.utf8()),
            ("df_en", pa.int64()),
            ("df_zh", pa.int64()),
            ("combined", pa.int64()),
        ]
    )
    cand = _sharded_groupby(rows, ["th"], shard_top, empty_schema=cschema).to_pandas()
    out_cols = ["term", "df_en", "df_zh", "rank"]
    if not len(cand):
        return pd.DataFrame(
            {
                "term": pd.Series([], dtype=object),
                "df_en": pd.Series([], dtype="int64"),
                "df_zh": pd.Series([], dtype="int64"),
                "rank": pd.Series([], dtype="int64"),
            }
        )
    cand = cand.sort_values(
        ["combined", "term"], ascending=[False, True], kind="mergesort"
    ).head(CROSSLANG_TOP).reset_index(drop=True)
    cand["rank"] = np.arange(1, len(cand) + 1, dtype=np.int64)
    return cand[out_cols]


SQL_CROSSLANG_TERMS = f"""
WITH tokl AS (
    SELECT DISTINCT d.doc_id, d.lang,
           unnest(list_filter(regexp_extract_all(lower(d.text), '[a-z0-9]+'),
                              x -> len(x) <= 15)) AS term
    FROM documents d WHERE d.lang IN ('en', 'zh')
),
dfs AS (
    SELECT term,
           count(DISTINCT CASE WHEN lang = 'en' THEN doc_id END)::BIGINT AS df_en,
           count(DISTINCT CASE WHEN lang = 'zh' THEN doc_id END)::BIGINT AS df_zh
    FROM tokl GROUP BY 1
)
SELECT term, df_en, df_zh,
       row_number() OVER (ORDER BY df_en + df_zh DESC, term)::BIGINT AS rank
FROM dfs WHERE df_en > 0 AND df_zh > 0
QUALIFY rank <= {CROSSLANG_TOP}
ORDER BY rank
"""

QUERIES["crosslang_terms"] = (q_crosslang_terms, SQL_CROSSLANG_TERMS)


def q_term_triangles(sf_dir: str):
    """Triangle counts / local clustering over the term co-occurrence
    graph.  See curation.term_triangles."""
    from .curation import term_triangles

    return term_triangles(sf_dir)


def _sql_term_triangles() -> str:
    from .curation import TRI_TOP_VOCAB

    return f"""
WITH {_SQL_TOKS_LIST},
tok AS (SELECT DISTINCT doc_id, unnest(toks) AS term FROM filt),
dfc AS (SELECT term, count(*)::BIGINT AS df FROM tok GROUP BY 1),
topv AS (SELECT term FROM dfc ORDER BY df DESC, term LIMIT {TRI_TOP_VOCAB}),
tv AS (SELECT t.doc_id, t.term FROM tok t JOIN topv USING (term)),
edges AS (
    SELECT DISTINCT a.term AS src, b.term AS dst
    FROM tv a JOIN tv b ON a.doc_id = b.doc_id AND a.term <> b.term
),
degs AS (
    SELECT t.term, count(e.dst)::BIGINT AS deg
    FROM topv t LEFT JOIN edges e ON e.src = t.term
    GROUP BY 1
),
tris AS (
    SELECT t.term,
           coalesce((
               SELECT count(*)
               FROM edges e1
               JOIN edges e2 ON e2.src = t.term AND e1.src = t.term
                             AND e1.dst < e2.dst
               JOIN edges e3 ON e3.src = e1.dst AND e3.dst = e2.dst
           ), 0)::BIGINT AS tri
    FROM topv t
)
SELECT d.term, d.deg, tr.tri,
       CASE WHEN d.deg >= 2
            THEN round((2 * tr.tri)::DOUBLE / (d.deg * (d.deg - 1))::DOUBLE, 6)
       END AS clustering
FROM degs d JOIN tris tr USING (term)
"""


QUERIES["term_triangles"] = (q_term_triangles, _sql_term_triangles())


# --------------------------------------------------------------------------
# islands-and-gaps: missing-id ranges in an event sequence

GAP_HOLE_MOD, GAP_HOLE_RES = 97, 5  # deterministic hole-punching (see SQL CTE)
GAP_MAX_BUCKETS = 1 << 16


def q_event_id_gaps(sf_dir: str):
    """Islands-and-gaps over the event_id sequence: every maximal run of
    missing ids strictly inside [min_id, max_id] as ``(gap_start,
    gap_end, gap_len)``.  The synthetic ids are gap-free, so both sides
    punch deterministic holes first (drop ids ≡ {GAP_HOLE_RES} mod
    {GAP_HOLE_MOD} — the documented augmentation pattern for operators
    the sf tables cannot trigger).

    Distributed shape: ids bucket by range (bucket width derived from
    the id span so bucket count is bounded by {GAP_MAX_BUCKETS});
    within-bucket gaps come from ONE bucket-sharded exchange (a bucket's
    ids land in one shard; vectorized diff inside), cross-bucket gaps
    from a bounded per-bucket (min, max) summary combine on the driver.
    The gap rows themselves stay a streaming Dataset — never
    materialized on the driver."""
    from .dedup import _sharded_groupby
    import pandas as pd

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["event_id"])

    def present(b: pa.Table) -> pa.Table:
        ids = (
            b["event_id"].combine_chunks().drop_null()
            .to_numpy(zero_copy_only=False).astype(np.int64)
        )
        return pa.table(
            {"id": pa.array(ids[ids % GAP_HOLE_MOD != GAP_HOLE_RES], pa.int64())}
        )

    pres = ev.map_batches(present, batch_format="pyarrow", zero_copy_batch=True)

    # bounded per-bucket summaries (drives bucket width + cross-bucket gaps)
    def minmax(t: pa.Table) -> pa.Table:
        n = t.num_rows
        v = t["id"].to_numpy(zero_copy_only=False) if n else None
        return pa.table(
            {
                "lo": pa.array([int(v.min()) if n else 0], pa.int64()),
                "hi": pa.array([int(v.max()) if n else 0], pa.int64()),
                "valid": pa.array([bool(n)]),
            }
        )

    mm = pres.map_batches(minmax, batch_format="pyarrow").to_pandas()
    gap_schema = pa.schema(
        [("gap_start", pa.int64()), ("gap_end", pa.int64()),
         ("gap_len", pa.int64())]
    )
    empty = pd.DataFrame(
        {c: pd.Series([], dtype="int64") for c in
         ["gap_start", "gap_end", "gap_len"]}
    )
    if not len(mm) or not mm["valid"].any():
        return empty
    lo = int(mm.loc[mm["valid"], "lo"].min())
    hi = int(mm.loc[mm["valid"], "hi"].max())
    width = max(1, -(-(hi - lo + 1) // GAP_MAX_BUCKETS))

    def add_bucket(t: pa.Table) -> pa.Table:
        ids = t["id"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "bucket", pa.array((ids - lo) // width, pa.int64())
        )

    bucketed = pres.map_batches(add_bucket, batch_format="pyarrow",
                                zero_copy_batch=True)

    # bounded driver combine: per-bucket (min, max) -> cross-bucket gaps
    def bsum(t: pa.Table) -> pa.Table:
        g = t.group_by(["bucket"]).aggregate([("id", "min"), ("id", "max")])
        return pa.table(
            {
                "bucket": g["bucket"],
                "bmin": g["id_min"].cast(pa.int64()),
                "bmax": g["id_max"].cast(pa.int64()),
            }
        )

    summ = bucketed.map_batches(bsum, batch_format="pyarrow").to_pandas()
    s = summ.groupby("bucket", as_index=False).agg(
        bmin=("bmin", "min"), bmax=("bmax", "max")
    ).sort_values("bucket", kind="mergesort")
    prev_max = s["bmax"].to_numpy()[:-1]
    next_min = s["bmin"].to_numpy()[1:]
    cross_mask = next_min - prev_max > 1
    cross = pd.DataFrame(
        {
            "gap_start": prev_max[cross_mask] + 1,
            "gap_end": next_min[cross_mask] - 1,
        }
    )
    cross["gap_len"] = (cross["gap_end"] - cross["gap_start"] + 1)
    for c in cross.columns:
        cross[c] = cross[c].astype("int64")

    # within-bucket gaps: one bucket-sharded exchange, vectorized diff
    def bucket_gaps(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _b, grp in g.groupby("bucket"):
            ids = np.unique(grp["id"].to_numpy())
            d = np.diff(ids)
            at = np.nonzero(d > 1)[0]
            if len(at):
                out.append(pd.DataFrame(
                    {"gap_start": ids[at] + 1, "gap_end": ids[at + 1] - 1}
                ))
        if not out:
            return pd.DataFrame(
                {"gap_start": pd.Series([], dtype="int64"),
                 "gap_end": pd.Series([], dtype="int64"),
                 "gap_len": pd.Series([], dtype="int64")}
            )
        r = pd.concat(out, ignore_index=True)
        r["gap_len"] = r["gap_end"] - r["gap_start"] + 1
        for c in r.columns:
            r[c] = r[c].astype("int64")
        return r

    inner = _sharded_groupby(
        bucketed, ["bucket"], bucket_gaps, empty_schema=gap_schema
    )
    cross_ds = rd.from_pandas(cross) if len(cross) else None
    result = inner.union(cross_ds) if cross_ds is not None else inner
    df = result.to_pandas()
    if not len(df) or "gap_start" not in df.columns:
        return empty
    return df


SQL_EVENT_ID_GAPS = f"""
WITH present AS (
    SELECT event_id AS id FROM events
    WHERE event_id IS NOT NULL AND event_id % {GAP_HOLE_MOD} <> {GAP_HOLE_RES}
),
w AS (SELECT id, lag(id) OVER (ORDER BY id) AS prev FROM present)
SELECT prev + 1 AS gap_start, id - 1 AS gap_end,
       (id - prev - 1)::BIGINT AS gap_len
FROM w WHERE prev IS NOT NULL AND id - prev > 1
"""

QUERIES["event_id_gaps"] = (q_event_id_gaps, SQL_EVENT_ID_GAPS)


# --------------------------------------------------------------------------
# deterministic weighted (priority) sampling

WSAMPLE_K = 20
WSAMPLE_MULT = 0x9E3779B97F4A7C15


def q_weighted_sample(sf_dir: str):
    """Deterministic weighted priority sampling — the data-mixing
    primitive (sample docs proportional to a weight, here ``n_chars``):
    priority = hash(doc_id) // weight (integer floor division of a
    uniform 64-bit multiply hash), take the ``WSAMPLE_K`` smallest.
    Min-order statistics of ``uniform // w`` select proportionally to
    ``w`` (the integer analogue of exponential-race / A-Res sampling)
    while staying EXACTLY reproducible in SQL — no float ``pow``/``ln``
    whose last ulp differs across engines.  Shape: per-batch partial
    top-k under the total order (priority asc, doc_id asc) + bounded
    driver merge; no shuffle, identical result at any parallelism."""
    import pandas as pd

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["doc_id", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = np.maximum(
            b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64), 1
        )
        with np.errstate(over="ignore"):
            h = (ids.view(np.uint64) * np.uint64(WSAMPLE_MULT))
        pri = (h // w.astype(np.uint64)).astype(np.uint64)
        order = np.lexsort((ids, pri))[:WSAMPLE_K]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                "n_chars": pa.array(
                    b["n_chars"].to_numpy(zero_copy_only=False)[order],
                    pa.int64(),
                ),
                # bias-preserving int64 view for the merge sort key
                "pri": pa.array(
                    (pri[order] - np.uint64(1 << 63)).view(np.int64), pa.int64()
                ),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    if not len(parts):
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "n_chars": pd.Series([], dtype="int64"),
                "rank": pd.Series([], dtype="int64"),
            }
        )
    out = parts.sort_values(["pri", "doc_id"], kind="mergesort").head(WSAMPLE_K)
    out = out.reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out[["doc_id", "n_chars", "rank"]]


SQL_WEIGHTED_SAMPLE = f"""
WITH pri AS (
    SELECT doc_id, n_chars,
           ((doc_id::HUGEINT * {WSAMPLE_MULT}) % 18446744073709551616)
           // greatest(n_chars, 1) AS p
    FROM documents
)
SELECT doc_id, n_chars,
       row_number() OVER (ORDER BY p, doc_id)::BIGINT AS rank
FROM pri
QUALIFY rank <= {WSAMPLE_K}
ORDER BY rank
"""

QUERIES["weighted_sample"] = (q_weighted_sample, SQL_WEIGHTED_SAMPLE)


# --------------------------------------------------------------------------
# bloom-prefiltered semi join (sketch-accelerated join pruning)

BLOOMJ_NATION_LT = 10  # build side: customers in nations 0..9
BLOOMJ_MAX_BUILD_KEYS = 2_000_000  # same loud broadcast bound as semi_join


def q_bloom_semi_join(sf_dir: str):
    """Sketch-ACCELERATED semi join: orders probe a Bloom filter built
    over the custkeys of a customer subset (nations < {BLOOMJ_NATION_LT})
    before the exact membership check — the crawl/ingest pattern where
    "definitely not in the build side" rows skip the join exchange
    entirely.  Reports per-priority ``n_orders / n_bloom_pass /
    n_exact`` so the one-sided guarantee (pass >= exact, no false
    negatives) and the FP overhead are driver-checked.  Bit-exact SQL:
    the filter is the engine's 2^16-bit / 32-bit-word Bloom with the
    multiply-shift constants (< 2^62, HUGEINT-safe) applied directly to
    the int64 key.  Shape: bounded build-key collect (loud
    {BLOOMJ_MAX_BUILD_KEYS} cap, same contract as the broadcast semi
    join), 8 KiB word table + key set shipped once via ray.put, one
    streaming probe pass with per-batch integer partials."""
    from .bloom import BLOOM_K, BLOOM_SHIFT, BLOOM_WORDS
    from .heavyhitters import _buckets
    import pandas as pd

    cpath = os.path.join(sf_dir, "customer.parquet")
    opath = os.path.join(sf_dir, "orders.parquet")
    cust = read_parquet_sized(cpath, columns=["c_custkey", "c_nationkey"])

    def bkeys(t: pa.Table) -> pa.Table:
        keep = pc.and_kleene(
            pc.is_valid(t["c_nationkey"]),
            pc.less(t["c_nationkey"], pa.scalar(BLOOMJ_NATION_LT)),
        )
        return pa.table(
            {"k": t.filter(pc.coalesce(keep, pa.scalar(False)))["c_custkey"]
                  .cast(pa.int64())}
        )

    key_rows = cust.map_batches(bkeys, batch_format="pyarrow").take_all()
    keys = np.unique(np.array([r["k"] for r in key_rows], np.int64))
    if len(keys) > BLOOMJ_MAX_BUILD_KEYS:
        raise ValueError(
            f"bloom_semi_join build side {len(keys)} keys exceeds the "
            f"broadcast bound {BLOOMJ_MAX_BUILD_KEYS}; shard the build "
            "side or probe in chunks"
        )
    words = np.zeros(BLOOM_WORDS, np.int64)
    # pre-mix: the CMS multiply-shift rows assume a well-mixed 64-bit
    # input (token FNV hashes); on raw small sequential keys their top
    # bits barely move (measured 75% FP rate) — one Fibonacci multiply
    # restores the contract, replicated in the SQL
    with np.errstate(over="ignore"):
        h = keys.view(np.uint64) * np.uint64(WSAMPLE_MULT)
    for i in range(BLOOM_K):
        bits = _buckets(h, i, BLOOM_SHIFT).astype(np.int64)
        np.bitwise_or.at(words, bits >> 5, np.int64(1) << (bits & 31))
    state = ray.put((words, keys))

    orders = read_parquet_sized(opath, columns=["o_custkey", "o_orderpriority"])

    def probe(t: pa.Table) -> pa.Table:
        w, ks = ray.get(state)
        ck = t["o_custkey"].combine_chunks()
        valid = pc.is_valid(ck).to_numpy(zero_copy_only=False)
        kv = ck.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
        with np.errstate(over="ignore"):
            hh = kv.view(np.uint64) * np.uint64(WSAMPLE_MULT)
        passed = valid.copy()
        for i in range(BLOOM_K):
            bits = _buckets(hh, i, BLOOM_SHIFT).astype(np.int64)
            passed &= ((w[bits >> 5] >> (bits & 31)) & 1).astype(bool)
        exact = valid & np.isin(kv, ks)
        g = pa.table(
            {
                "o_orderpriority": t["o_orderpriority"],
                "bp": pa.array(passed.astype(np.int64), pa.int64()),
                "ex": pa.array(exact.astype(np.int64), pa.int64()),
            }
        ).group_by(["o_orderpriority"]).aggregate(
            [([], "count_all"), ("bp", "sum"), ("ex", "sum")]
        )
        return pa.table(
            {
                "o_orderpriority": g["o_orderpriority"],
                "n_orders": g["count_all"].cast(pa.int64()),
                "n_bloom_pass": g["bp_sum"].cast(pa.int64()),
                "n_exact": g["ex_sum"].cast(pa.int64()),
            }
        )

    parts = orders.map_batches(probe, batch_format="pyarrow",
                               zero_copy_batch=True).to_pandas()
    if not len(parts):
        return pd.DataFrame(
            {
                "o_orderpriority": pd.Series([], dtype=object),
                "n_orders": pd.Series([], dtype="int64"),
                "n_bloom_pass": pd.Series([], dtype="int64"),
                "n_exact": pd.Series([], dtype="int64"),
            }
        )
    out = parts.groupby("o_orderpriority", dropna=False, as_index=False).sum()
    for c in ["n_orders", "n_bloom_pass", "n_exact"]:
        out[c] = out[c].astype("int64")
    # an all-null Arrow utf8 column round-trips as float NaN in pandas;
    # restore object-None so the driver's string canon matches the SQL
    p = out["o_orderpriority"]
    out["o_orderpriority"] = p.astype(object).where(p.notna(), None)
    assert (out["n_bloom_pass"] >= out["n_exact"]).all(), "bloom false negative"
    return out


def _sql_bloom_semi_join() -> str:
    from .bloom import BLOOM_K, BLOOM_SHIFT
    from .heavyhitters import CMS_A, CMS_B
    from .sketch_sql import M64

    div = 1 << BLOOM_SHIFT
    mix = f"((k::HUGEINT * {WSAMPLE_MULT}) % {M64})"
    bit_exprs = [
        f"((({mix} * {CMS_A[i]} + {CMS_B[i]}) % {M64}) // {div})"
        for i in range(BLOOM_K)
    ]
    bit_union = "\n    UNION ".join(
        f"SELECT DISTINCT {e} AS bit FROM bkeys" for e in bit_exprs
    )
    probe_conds = " AND ".join(
        e.replace("k::HUGEINT", "o_custkey::HUGEINT")
        + " IN (SELECT bit FROM bitset)"
        for e in bit_exprs
    )
    return f"""
WITH bkeys AS (
    SELECT c_custkey AS k FROM customer
    WHERE c_nationkey IS NOT NULL AND c_nationkey < {BLOOMJ_NATION_LT}
),
bitset AS (
    {bit_union}
)
SELECT o_orderpriority,
       count(*)::BIGINT AS n_orders,
       sum(CASE WHEN o_custkey IS NOT NULL AND {probe_conds}
                THEN 1 ELSE 0 END)::BIGINT AS n_bloom_pass,
       sum(CASE WHEN o_custkey IN (SELECT k FROM bkeys)
                THEN 1 ELSE 0 END)::BIGINT AS n_exact
FROM orders
GROUP BY 1
"""


QUERIES["bloom_semi_join"] = (q_bloom_semi_join, _sql_bloom_semi_join())


# --------------------------------------------------------------------------
# faceted search: BM25 top-k joined back to document metadata

FACET_TOP_K = 100


def q_search_facets(sf_dir: str):
    """Search -> analytics composition: the disjunctive BM25 result for
    the fixed query (through the REAL index + BatchQueryEngine actor
    path, same as ``bm25_all_or``) is ranked under the deterministic
    total order (rounded score desc, doc_id asc) — ordering by the
    ROUNDED payload is engine-independent precisely because the
    bm25_all_or hash check proves both engines produce identical rounded
    scores — and the top-{FACET_TOP_K} hits are faceted by language:
    ``lang, n_docs, best_rank``.  Shape: per-batch partial top-k over
    the match stream, bounded driver merge, then ONE filtered streaming
    pass over documents for the facet labels (hit set <= k, shipped in
    the closure)."""
    import pandas as pd

    matches = _bm25_all(sf_dir, conjunctive=False)

    def partial_topk(t: pa.Table) -> pa.Table:
        s = t["score"].to_numpy(zero_copy_only=False)
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, -s))[:FACET_TOP_K]
        return pa.table(
            {
                "doc_id": pa.array(d[order], pa.int64()),
                "score": pa.array(s[order], pa.float64()),
            }
        )

    parts = matches.map_batches(
        partial_topk, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    empty = pd.DataFrame(
        {
            "lang": pd.Series([], dtype=object),
            "n_docs": pd.Series([], dtype="int64"),
            "best_rank": pd.Series([], dtype="int64"),
        }
    )
    if not len(parts):
        return empty
    top = parts.sort_values(
        ["score", "doc_id"], ascending=[False, True], kind="mergesort"
    ).head(FACET_TOP_K).reset_index(drop=True)
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    rank_of = dict(zip(top["doc_id"].astype(np.int64), top["rank"]))
    hit_ids = pa.array(top["doc_id"].astype(np.int64).tolist(), pa.int64())

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    docs = read_parquet_sized(path, columns=["doc_id", "lang"])

    def label(t: pa.Table) -> pa.Table:
        keep = pc.coalesce(
            pc.is_in(t["doc_id"].cast(pa.int64()), value_set=hit_ids),
            pa.scalar(False),
        )
        f = t.filter(keep)
        return pa.table(
            {"doc_id": f["doc_id"].cast(pa.int64()), "lang": f["lang"]}
        )

    hits = docs.map_batches(label, batch_format="pyarrow",
                            zero_copy_batch=True).to_pandas()
    if not len(hits):
        return empty
    hits["rank"] = hits["doc_id"].map(rank_of).astype("int64")
    out = hits.groupby("lang", dropna=False, as_index=False).agg(
        n_docs=("doc_id", "size"), best_rank=("rank", "min")
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    out["best_rank"] = out["best_rank"].astype("int64")
    lg = out["lang"]
    out["lang"] = lg.astype(object).where(lg.notna(), None)
    return out


def _sql_search_facets() -> str:
    terms = ", ".join(f"'{t}'" for t in BM25_QUERY_TERMS)
    return (
        "WITH "
        + _SQL_BM25_BASE.format(terms=terms)
        + f""",
ranked AS (
    SELECT doc_id, round(raw_score, 6) AS score,
           row_number() OVER (ORDER BY round(raw_score, 6) DESC, doc_id)
               AS rnk
    FROM scores
)
SELECT d.lang, count(*)::BIGINT AS n_docs, min(r.rnk)::BIGINT AS best_rank
FROM ranked r JOIN documents d USING (doc_id)
WHERE r.rnk <= {FACET_TOP_K}
GROUP BY 1
"""
    )


QUERIES["search_facets"] = (q_search_facets, _sql_search_facets())


# --------------------------------------------------------------------------
# sliding-window DISTINCT count (non-subtractable window aggregate)

SLIDE_DISTINCT_SIZE_H = 3
SLIDE_DISTINCT_STEP_H = 1


def q_sliding_distinct_users(sf_dir: str):
    """Distinct users per SLIDING window ({SLIDE_DISTINCT_SIZE_H} h
    window, {SLIDE_DISTINCT_STEP_H} h step) — unlike the sum/count
    sliding aggregate (``events_sliding``), DISTINCT is not
    subtractable, so overlapping windows can't share partials: each
    event replicates into size/step windows (vectorized explode with
    per-batch (window, user) pre-distinct) and ONE window-sharded
    exchange finishes the distinct count.  Columns: ``window_start``
    (epoch hours), ``n_users``, ``n_events``."""
    from .dedup import _sharded_groupby
    import pandas as pd

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["ts", "user_id"])
    n_windows = SLIDE_DISTINCT_SIZE_H // SLIDE_DISTINCT_STEP_H
    us_per_h = 3_600_000_000

    def explode(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_kleene(pc.is_valid(b["ts"]), pc.is_valid(b["user_id"]))
        )
        h = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
             // us_per_h)
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        parts = []
        for j in range(n_windows):
            parts.append(
                pa.table(
                    {
                        "window_start": pa.array(h - j, pa.int64()),
                        "user_id": pa.array(uid, pa.int64()),
                    }
                )
            )
        x = pa.concat_tables(parts)
        g = x.group_by(["window_start", "user_id"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "window_start": g["window_start"],
                "user_id": g["user_id"],
                "c": g["count_all"].cast(pa.int64()),
            }
        )

    rows = ev.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("window_start", as_index=False).agg(
            n_users=("user_id", "nunique"), n_events=("c", "sum")
        )
        out["n_users"] = out["n_users"].astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        return out

    oschema = pa.schema(
        [("window_start", pa.int64()), ("n_users", pa.int64()),
         ("n_events", pa.int64())]
    )
    return _sharded_groupby(rows, ["window_start"], agg, empty_schema=oschema)


SQL_SLIDING_DISTINCT_USERS = f"""
WITH e AS (
    SELECT user_id, epoch_us(ts) // 3600000000 AS h
    FROM events WHERE ts IS NOT NULL AND user_id IS NOT NULL
),
x AS (
    SELECT user_id, (h - j) AS wstart
    FROM e CROSS JOIN range({SLIDE_DISTINCT_SIZE_H // SLIDE_DISTINCT_STEP_H}) t(j)
)
SELECT wstart::BIGINT AS window_start,
       count(DISTINCT user_id)::BIGINT AS n_users,
       count(*)::BIGINT AS n_events
FROM x GROUP BY 1
"""

QUERIES["sliding_distinct_users"] = (
    q_sliding_distinct_users,
    SQL_SLIDING_DISTINCT_USERS,
)


def q_bigram_logprob(sf_dir: str):
    """Per-doc bigram-LM NLL (context-conditional quality score).
    See curation.bigram_logprob_ds."""
    from .curation import bigram_logprob_ds

    return bigram_logprob_ds(sf_dir)


def _sql_bigram_logprob() -> str:
    from .curation import BIGRAM_VOCAB, UNIGRAM_RGRID
    from .curation import ENTROPY_LOG_SCALE as S

    l16 = 16 * S
    return f"""
WITH {_SQL_TOKS_LIST},
big AS (
    SELECT doc_id,
           unnest(toks[1:len(toks)-1]) AS a,
           unnest(toks[2:len(toks)]) AS b
    FROM filt WHERE len(toks) >= 2
),
cab AS (SELECT a, b, count(*)::BIGINT AS c FROM big GROUP BY 1, 2),
ctx AS (SELECT a, sum(c)::BIGINT AS t FROM cab GROUP BY 1),
topb AS (
    SELECT cab.a, cab.b, cab.c, ctx.t
    FROM cab JOIN ctx USING (a)
    ORDER BY cab.c DESC, cab.a, cab.b LIMIT {BIGRAM_VOCAB}
),
model AS (
    SELECT a, b,
           {l16} - CAST(round(log2(
               greatest(1, (c::HUGEINT * {UNIGRAM_RGRID}) // t)::DOUBLE
           ) * {S}) AS BIGINT) AS contrib
    FROM topb
),
scored AS (
    SELECT big.doc_id, coalesce(model.contrib, {l16}) AS contrib
    FROM big LEFT JOIN model USING (a, b)
),
per AS (
    SELECT doc_id, count(*)::BIGINT AS n, sum(contrib)::BIGINT AS s
    FROM scored GROUP BY 1
)
SELECT d.doc_id,
       coalesce(per.n, 0)::BIGINT AS n_bigrams,
       CASE WHEN per.n > 0
            THEN round(per.s::DOUBLE / (per.n * {S})::DOUBLE, 6)
       END AS nll_bits
FROM documents d LEFT JOIN per USING (doc_id)
"""


QUERIES["bigram_logprob"] = (q_bigram_logprob, _sql_bigram_logprob())


# --------------------------------------------------------------------------
# positional index tier: phrase + proximity queries (pipelines/positional.py)

# positional variant of _SQL_TOKENS: ordinal over ALL regex tokens (a
# >15-char token still occupies its position), length filter applied after
_SQL_TOKS_POS = """
tokp AS (
    SELECT doc_id, unnest(tokens2) AS term,
           unnest(range(1, len(tokens2) + 1))::BIGINT AS pos
    FROM (
        SELECT doc_id,
               CASE WHEN ends_alnum
                    THEN tokens[1:len(tokens)-1] ELSE tokens END AS tokens2
        FROM (
            SELECT doc_id,
                   regexp_extract_all(lower(text), '[a-z0-9]+') AS tokens,
                   regexp_matches(text, '[A-Za-z0-9]$') AS ends_alnum
            FROM documents
        )
    )
),
kept_pos AS (
    SELECT doc_id, term, pos FROM tokp WHERE length(term) BETWEEN 1 AND 15
)
"""

PHRASE_TERMS = ["fast", "sort"]
PROXIMITY_TERMS = ("spark", "query")
PROXIMITY_WINDOW = 5


def q_positional_postings(sf_dir: str):
    """Flattened positional postings (term, doc_id, tf, first_pos,
    last_pos) — validates position assignment across the whole vocabulary,
    not just the phrase terms.  See positional.positional_postings."""
    from .positional import positional_postings

    return positional_postings(sf_dir)


SQL_POSITIONAL_POSTINGS = (
    "WITH "
    + _SQL_TOKS_POS
    + """SELECT term, doc_id, count(*)::BIGINT AS tf,
              min(pos) AS first_pos, max(pos) AS last_pos
       FROM kept_pos GROUP BY term, doc_id"""
)


def q_phrase_match(sf_dir: str):
    from .positional import phrase_match

    return phrase_match(sf_dir, PHRASE_TERMS)


def _sql_phrase_match() -> str:
    joins = []
    for i in range(1, len(PHRASE_TERMS)):
        joins.append(
            f"JOIN kept_pos a{i} ON a{i}.doc_id = a0.doc_id "
            f"AND a{i}.pos = a0.pos + {i} AND a{i}.term = '{PHRASE_TERMS[i]}'"
        )
    return (
        "WITH "
        + _SQL_TOKS_POS
        + f"""SELECT a0.doc_id, count(*)::BIGINT AS n_occurrences
       FROM kept_pos a0 {' '.join(joins)}
       WHERE a0.term = '{PHRASE_TERMS[0]}'
       GROUP BY a0.doc_id"""
    )


def q_proximity_match(sf_dir: str):
    from .positional import proximity_match

    return proximity_match(
        sf_dir, PROXIMITY_TERMS[0], PROXIMITY_TERMS[1], PROXIMITY_WINDOW
    )


SQL_PROXIMITY_MATCH = (
    "WITH "
    + _SQL_TOKS_POS
    + f"""SELECT a.doc_id, count(*)::BIGINT AS n_pairs
       FROM kept_pos a JOIN kept_pos b
         ON b.doc_id = a.doc_id
        AND b.pos BETWEEN a.pos - {PROXIMITY_WINDOW} AND a.pos + {PROXIMITY_WINDOW}
       WHERE a.term = '{PROXIMITY_TERMS[0]}' AND b.term = '{PROXIMITY_TERMS[1]}'
       GROUP BY a.doc_id"""
)


# passage-window retrieval: the RAG chunk-scoring primitive — for every
# doc containing a query term, the densest fixed-width position window
# (max count of query-term occurrences in [p, p + PW_WINDOW - 1]).
# Integer-exact; per batch the count is ONE searchsorted over composed
# (doc_rank << 32 | pos) keys (a window can never cross a doc boundary).

PW_WINDOW = 32
PW_TERMS = ("data", "join", "merge")


def q_passage_windows(sf_dir: str):
    """Columns ``doc_id, best_window`` for docs matching any of
    ``PW_TERMS`` (best_window = max query-term occurrences in any
    ``PW_WINDOW``-position window)."""
    from ..functions.tokenize import tokenize_with_positions

    pw_set = pa.array(list(PW_TERMS), pa.string())
    empty = pa.schema([("doc_id", pa.int64()), ("best_window", pa.int64())])

    def per_batch(batch: pa.Table) -> pa.Table:
        terms, tdocs, pos = tokenize_with_positions(
            batch["text"], batch["doc_id"].to_numpy(zero_copy_only=False)
        )
        if len(tdocs) == 0:
            return empty.empty_table()
        sel = pc.is_in(terms, value_set=pw_set).to_numpy(zero_copy_only=False)
        if not sel.any():
            return empty.empty_table()
        docs_q = tdocs[sel]
        pos_q = pos[sel].astype(np.int64)
        uniq, ranks = np.unique(docs_q, return_inverse=True)
        keys = (ranks.astype(np.int64) << np.int64(32)) | pos_q
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        ranks = ranks[order]
        # occurrences within [p, p + W - 1]: one vectorized searchsorted
        cnt = np.searchsorted(keys, keys + PW_WINDOW, side="left") - np.arange(
            len(keys)
        )
        starts = np.flatnonzero(np.r_[True, ranks[1:] != ranks[:-1]])
        best = np.maximum.reduceat(cnt, starts)
        return pa.table(
            {
                "doc_id": pa.array(uniq, pa.int64()),
                "best_window": pa.array(best.astype(np.int64), pa.int64()),
            }
        )

    return load_documents(sf_dir).map_batches(
        per_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def _sql_passage_windows() -> str:
    terms = ", ".join(f"'{t}'" for t in PW_TERMS)
    return (
        "WITH "
        + _SQL_TOKS_POS
        + f""", q AS (
    SELECT doc_id, pos FROM kept_pos WHERE term IN ({terms})
),
w AS (
    SELECT a.doc_id, a.pos, count(*)::BIGINT AS cnt
    FROM q a JOIN q b
      ON b.doc_id = a.doc_id
     AND b.pos BETWEEN a.pos AND a.pos + {PW_WINDOW - 1}
    GROUP BY 1, 2
)
SELECT doc_id, max(cnt)::BIGINT AS best_window FROM w GROUP BY 1"""
    )


QUERIES["passage_windows"] = (q_passage_windows, _sql_passage_windows())
QUERIES["positional_postings"] = (q_positional_postings, SQL_POSITIONAL_POSTINGS)
QUERIES["phrase_match"] = (q_phrase_match, _sql_phrase_match())
QUERIES["proximity_match"] = (q_proximity_match, SQL_PROXIMITY_MATCH)


# --------------------------------------------------------------------------
# index size accounting: the SQL oracle PREDICTS the physical on-disk
# compressed size of every posting list from pure integer varbyte math,
# and the entry reads the REAL bytes back from the built index's lexicon —
# a storage-layout conformance check (stages/compress.py layout, the
# reference format: header vb(df) vb(len_ldoc) vb(len_bsize) + ldoc table
# + bsize table + cross-block delta/tf payload).  Assumes
# unsegmented terms (df <= segment_max_postings=1M — always true at sf).


def _vb_len(expr: str) -> str:
    """SQL for the VarByte (0x80-MSB, 7 bits/byte) encoded length of a
    non-negative integer expression (functions/varbyte.py)."""
    return (
        f"(CASE WHEN {expr} < 128 THEN 1 WHEN {expr} < 16384 THEN 2"
        f" WHEN {expr} < 2097152 THEN 3 WHEN {expr} < 268435456 THEN 4"
        f" WHEN {expr} < 34359738368 THEN 5 ELSE 6 END)"
    )


def q_index_size_stats(sf_dir: str):
    idx = index_for(sf_dir)
    import glob as _glob

    schema = pa.schema(
        [
            ("term", pa.string()),
            ("df", pa.int64()),
            ("n_blocks", pa.int64()),
            ("nbytes", pa.int64()),
        ]
    )
    files = sorted(_glob.glob(os.path.join(idx, "lexicon", "part-*.parquet")))
    if not files:
        return schema.empty_table()

    def shape(b: pa.Table) -> pa.Table:
        from ..stages.compress import BLOCK_SIZE

        df = b["df"].cast(pa.int64())
        nblocks = pc.divide(pc.add(df, BLOCK_SIZE - 1), BLOCK_SIZE)  # int64 div
        return pa.table(
            {
                "term": b["term"],
                "df": df,
                "n_blocks": nblocks,
                "nbytes": b["nbytes"].cast(pa.int64()),
            }
        )

    # lexicon is one tiny row per term — a plain read is the right size
    return rd.read_parquet(files, columns=["term", "df", "nbytes"]).map_batches(
        shape, batch_format="pyarrow", zero_copy_batch=True
    )


def _sql_index_size_stats() -> str:
    return f"""
WITH {_SQL_TOKENS},
tfm AS (SELECT term, doc_id, count(*)::BIGINT AS tf FROM tok_kept GROUP BY 1, 2),
ordered AS (
    SELECT term, doc_id, tf,
           (row_number() OVER w - 1) // 128 AS blk,
           doc_id - coalesce(lag(doc_id) OVER w, 0) AS delta
    FROM tfm WINDOW w AS (PARTITION BY term ORDER BY doc_id)
),
sized AS (
    SELECT term, doc_id, tf, blk,
           {_vb_len('delta')} AS dlen, {_vb_len('tf')} AS tlen
    FROM ordered
),
blocks AS (
    SELECT term, blk, max(doc_id) AS last_doc,
           sum(dlen + tlen)::BIGINT AS bsize
    FROM sized GROUP BY 1, 2
),
bt AS (
    SELECT term, count(*)::BIGINT AS n_blocks,
           sum({_vb_len('last_doc')})::BIGINT AS len_ldoc,
           sum({_vb_len('bsize')})::BIGINT AS len_bsize
    FROM blocks GROUP BY 1
),
pt AS (
    SELECT term, count(*)::BIGINT AS df,
           sum(dlen + tlen)::BIGINT AS payload
    FROM sized GROUP BY 1
)
SELECT pt.term, pt.df, bt.n_blocks,
       ({_vb_len('pt.df')} + {_vb_len('bt.len_ldoc')} + {_vb_len('bt.len_bsize')}
        + bt.len_ldoc + bt.len_bsize + pt.payload)::BIGINT AS nbytes
FROM pt JOIN bt USING (term)
"""


QUERIES["index_size_stats"] = (q_index_size_stats, _sql_index_size_stats())


# --------------------------------------------------------------------------
# Z-order (Morton) data layout: co-clustering two dimensions for 2-D range
# pruning.  Rows are assigned the morton code of their (partkey, suppkey)
# grid cell; the entry reports per-z-bucket row counts and the bounding
# box of both dimensions — exactly the min/max metadata a writer would
# attach to each file for scan pruning.  One streaming pass, per-batch
# Arrow partials (<= n_buckets rows each), fixed-size driver combine.

ZORDER_PCELL = 256  # partkey grid cell width
ZORDER_SCELL = 16   # suppkey grid cell width


def _morton_spread16(x: np.ndarray) -> np.ndarray:
    """Interleave zeros between the low 16 bits of x (classic magic masks)."""
    x = x.astype(np.uint64)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def q_zorder_layout(sf_dir: str):
    path = os.path.join(sf_dir, "lineitem.parquet") if os.path.isdir(sf_dir) else sf_dir
    li = read_parquet_sized(path, columns=["l_partkey", "l_suppkey"])

    def partial(b: pa.Table) -> pa.Table:
        p = b["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = b["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pc_ = p // ZORDER_PCELL
        sc_ = s // ZORDER_SCELL
        if len(p) and (pc_.max() >= 1 << 16 or sc_.max() >= 1 << 16 or p.min() < 0 or s.min() < 0):
            # 16 bits per dimension by construction; widen the cells (or the
            # spread) rather than silently wrapping
            raise ValueError("zorder cell index exceeds 16 bits")
        z = (_morton_spread16(pc_) | (_morton_spread16(sc_) << np.uint64(1))).astype(
            np.int64
        )
        t = pa.table(
            {
                "zbucket": pa.array(z, pa.int64()),
                "p": pa.array(p, pa.int64()),
                "s": pa.array(s, pa.int64()),
            }
        )
        g = t.group_by(["zbucket"]).aggregate(
            [([], "count_all"), ("p", "min"), ("p", "max"), ("s", "min"), ("s", "max")]
        )
        return pa.table(
            {
                "zbucket": g["zbucket"],
                "n": g["count_all"].cast(pa.int64()),
                "part_min": g["p_min"],
                "part_max": g["p_max"],
                "supp_min": g["s_min"],
                "supp_max": g["s_max"],
            }
        )

    parts = li.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    import pandas as pd

    if not len(parts):
        return pd.DataFrame(
            columns=["zbucket", "n", "part_min", "part_max", "supp_min", "supp_max"]
        )
    out = parts.groupby("zbucket", as_index=False).agg(
        n=("n", "sum"),
        part_min=("part_min", "min"),
        part_max=("part_max", "max"),
        supp_min=("supp_min", "min"),
        supp_max=("supp_max", "max"),
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _sql_zorder_layout() -> str:
    # morton interleave unrolled over 16 bits per dimension
    terms = []
    for i in range(16):
        terms.append(f"(((pcell >> {i}) & 1) << {2 * i})")
        terms.append(f"(((scell >> {i}) & 1) << {2 * i + 1})")
    z = " + ".join(terms)
    return f"""
WITH cells AS (
    SELECT l_partkey AS p, l_suppkey AS s,
           l_partkey // {ZORDER_PCELL} AS pcell,
           l_suppkey // {ZORDER_SCELL} AS scell
    FROM lineitem
)
SELECT ({z})::BIGINT AS zbucket,
       count(*)::BIGINT AS n,
       min(p)::BIGINT AS part_min, max(p)::BIGINT AS part_max,
       min(s)::BIGINT AS supp_min, max(s)::BIGINT AS supp_max
FROM cells GROUP BY 1
"""


QUERIES["zorder_layout"] = (q_zorder_layout, _sql_zorder_layout())


# --------------------------------------------------------------------------
# exact table profiling: per-column null + distinct counts in ONE pass.
# Distinct is exact without materializing any column on the driver: each
# batch emits its pre-distinct (column, value) pairs, pairs are hash-
# sharded on the VALUE (a given value lands in exactly one shard, so
# per-shard distinct counts are additive), and only fixed-size partial
# counts reach the driver.  The per-column value-space partitioning is
# what makes this hold at any scale — no shard ever sees more than its
# hash slice of the distinct values.

PROFILE_COLS = ["event_id", "user_id", "event_type", "props"]


def q_events_profile(sf_dir: str):
    from .dedup import _sharded_groupby
    import pandas as pd

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=PROFILE_COLS)

    def partial(b: pa.Table) -> pa.Table:
        hs, cids, vs, nns = [], [], [], []
        for ci, col in enumerate(PROFILE_COLS):
            arr = b[col].combine_chunks()
            n_null = arr.null_count
            u = pc.unique(pc.cast(arr.drop_null(), pa.string()))
            if len(u):
                # value hash only routes shards; identity stays on the value
                h = pd.util.hash_array(u.to_numpy(zero_copy_only=False))
                with np.errstate(over="ignore"):
                    h = (
                        h ^ np.uint64(ci + 1) * np.uint64(0x9E3779B97F4A7C15)
                    ).view(np.int64)
                hs.append(h)
                cids.append(np.full(len(u), ci, np.int64))
                vs.append(u)
                nns.append(np.zeros(len(u), np.int64))
            # null-count marker row (one per column per batch, fixed shard)
            hs.append(np.array([ci], np.int64))
            cids.append(np.array([ci], np.int64))
            vs.append(pa.array([None], pa.string()))
            nns.append(np.array([n_null], np.int64))
        return pa.table(
            {
                "h": pa.array(np.concatenate(hs), pa.int64()),
                "colid": pa.array(np.concatenate(cids), pa.int64()),
                "v": pa.concat_arrays([pa.array(x, pa.string()) if not isinstance(x, pa.Array) else x for x in vs]),
                "nn": pa.array(np.concatenate(nns), pa.int64()),
            }
        )

    def shard_agg(g: pd.DataFrame) -> pd.DataFrame:
        vals = g[g["v"].notna()]
        nd = vals.drop_duplicates(["colid", "v"]).groupby("colid").size()
        nn = g.groupby("colid")["nn"].sum()
        idx = sorted(set(nd.index) | set(nn.index))
        return pd.DataFrame(
            {
                "colid": pd.Series(idx, dtype="int64"),
                "nd": nd.reindex(idx, fill_value=0).astype("int64").values,
                "nn": nn.reindex(idx, fill_value=0).astype("int64").values,
            }
        )

    oschema = pa.schema([("colid", pa.int64()), ("nd", pa.int64()), ("nn", pa.int64())])
    rows = ev.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    parts = _sharded_groupby(rows, ["h"], shard_agg, empty_schema=oschema).to_pandas()
    out = pd.DataFrame({"colid": np.arange(len(PROFILE_COLS), dtype=np.int64)})
    if len(parts):
        s = parts.groupby("colid", as_index=False).agg(
            nd=("nd", "sum"), nn=("nn", "sum")
        )
        out = out.merge(s, on="colid", how="left").fillna(0)
    else:
        out["nd"] = 0
        out["nn"] = 0
    return pd.DataFrame(
        {
            "col": [PROFILE_COLS[int(c)] for c in out["colid"]],
            "n_nulls": out["nn"].astype("int64"),
            "n_distinct": out["nd"].astype("int64"),
        }
    )


SQL_EVENTS_PROFILE = " UNION ALL ".join(
    f"SELECT '{c}' AS col, (count(*) - count({c}))::BIGINT AS n_nulls,"
    f" count(DISTINCT {c})::BIGINT AS n_distinct FROM events"
    for c in PROFILE_COLS
)

QUERIES["events_profile"] = (q_events_profile, SQL_EVENTS_PROFILE)


# --------------------------------------------------------------------------
# sparse tf-idf "more like this": top-k cosine neighbors per query doc via
# the term-partitioned inverted-postings exchange (see sparse_sim.py for
# the exactness contract and the 100-TB shape)

MLT_QUERY_MOD = 83
MLT_TOP_K = 10


def q_more_like_this(sf_dir: str):
    from .sparse_sim import more_like_this

    n_docs = load_documents(sf_dir).count()
    return more_like_this(
        _postings_ds(sf_dir), n_docs, query_mod=MLT_QUERY_MOD, top_k=MLT_TOP_K
    )


def _sql_more_like_this() -> str:
    return (
        "WITH "
        + _SQL_TOKENS
        + f""",
tfm AS (SELECT term, doc_id, count(*)::BIGINT AS tf FROM tok_kept GROUP BY 1, 2),
dfm AS (SELECT term, count(*)::BIGINT AS df FROM tfm GROUP BY 1),
stm AS (SELECT count(*)::BIGINT AS n FROM documents),
wm AS (
    SELECT t.term, t.doc_id,
           t.tf * CAST(round((CAST(round(log2(stm.n) * 1e9) AS BIGINT)
                              - CAST(round(log2(d.df) * 1e9) AS BIGINT))
                             / 1000000.0) AS BIGINT) AS w
    FROM tfm t JOIN dfm d USING (term) CROSS JOIN stm
),
norms AS (SELECT doc_id, CAST(sum(w * w) AS BIGINT) AS norm2 FROM wm GROUP BY 1),
dots AS (
    SELECT q.doc_id AS qid, d.doc_id AS doc_id, CAST(sum(q.w * d.w) AS BIGINT) AS dot
    FROM wm q JOIN wm d USING (term)
    WHERE q.doc_id % {MLT_QUERY_MOD} = 0 AND d.doc_id <> q.doc_id
    GROUP BY 1, 2
),
sims AS (
    SELECT dots.qid, dots.doc_id,
           round(dot / sqrt(nq.norm2::DOUBLE * nd.norm2::DOUBLE), 6) AS sim
    FROM dots
    JOIN norms nq ON nq.doc_id = dots.qid
    JOIN norms nd ON nd.doc_id = dots.doc_id
    WHERE nq.norm2 > 0 AND nd.norm2 > 0
),
ranked AS (
    SELECT qid, doc_id, sim,
           row_number() OVER (PARTITION BY qid ORDER BY sim DESC, doc_id) AS rk
    FROM sims
)
SELECT qid, doc_id, sim, rk::BIGINT AS rank FROM ranked WHERE rk <= {MLT_TOP_K}"""
    )


QUERIES["more_like_this"] = (q_more_like_this, _sql_more_like_this())


# --------------------------------------------------------------------------
# grouped approximate distinct: one mergeable HLL sketch PER GROUP


def q_grouped_distinct_hll(sf_dir: str):
    """Per-language HLL registers over the token-hash stream — the
    grouped-cardinality sketch (one fixed-size sketch per group, merged
    by elementwise register max; distinct.hll_token_registers_by).  The
    driver gate compares the integer register table, bit-exact vs
    sketch_sql.sql_hll_registers_grouped."""
    from .distinct import hll_token_registers_by

    path = (
        os.path.join(sf_dir, "documents.parquet")
        if os.path.isdir(sf_dir)
        else sf_dir
    )
    docs = read_parquet_sized(path, columns=["doc_id", "text", "lang"])
    return hll_token_registers_by(docs, group_col="lang")


QUERIES["grouped_distinct_hll"] = (
    q_grouped_distinct_hll,
    _sketch_sql.sql_hll_registers_grouped(group_col="lang"),
)


# --------------------------------------------------------------------------
# weighted source mixture: deterministic training-data mixing with EXACT
# per-source counts.  Target proportions come from a per-source weight
# (here a deterministic function of the source name so the SQL can
# reproduce it); the limiting source sets the global scale k =
# min(avail_s // w_s) and each source contributes exactly n_s = k * w_s
# docs, selected by the total order (hash(doc_id), doc_id).
#
# Shape (100 TB): selection by RANK within a source can't materialize a
# per-source partition anywhere, so the per-source n_s-th smallest hash
# key is found with the grouped histogram-refinement order-stat engine
# (quantiles.exact_order_stats_grouped — fixed-size histograms per round,
# never the rows), then ONE streaming filter keeps keys strictly below
# the per-source threshold and only the boundary-collision rows (hash
# keys are 52-bit, collisions are a handful) reach the driver for the
# doc_id tie-break.

MIX_WEIGHT_MOD = 4  # w_s = (int(source[3:]) % 4) + 1 over sources "srcN"


def q_source_mixture(sf_dir: str):
    import pandas as pd
    from .quantiles import exact_order_stats_grouped

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["doc_id", "source"])

    def with_key(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).view(np.uint64)
        with np.errstate(over="ignore"):
            hk = (ids * np.uint64(SAMPLE_MULT)) >> np.uint64(12)
        # 52-bit key: float64-exact, so the order-stat engine's double
        # round-trip is lossless
        return pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "source": b["source"],
                "hkey": pa.array(hk.astype(np.float64), pa.float64()),
            }
        )

    keyed = ds.map_batches(with_key, batch_format="pyarrow", zero_copy_batch=True)

    # pass 1: per-source counts (tiny — source cardinality is bounded)
    def counts(b: pa.Table) -> pa.Table:
        g = b.group_by(["source"]).aggregate([([], "count_all")])
        return pa.table(
            {"source": g["source"], "c": g["count_all"].cast(pa.int64())}
        )

    parts = ds.map_batches(counts, batch_format="pyarrow").to_pandas()
    avail = parts.groupby("source")["c"].sum().to_dict()
    out_schema = {
        "doc_id": pd.Series([], dtype="int64"),
        "source": pd.Series([], dtype=object),
    }
    if not avail:
        return pd.DataFrame(out_schema)
    wt = {s: (int(s[3:]) % MIX_WEIGHT_MOD) + 1 for s in avail}
    k = min(avail[s] // wt[s] for s in avail)
    n_tgt = {s: k * wt[s] for s in avail}
    if all(n == 0 for n in n_tgt.values()):
        return pd.DataFrame(out_schema)

    # pass 2+: per-source n_s-th smallest key via shared-histogram rounds
    stats = exact_order_stats_grouped(
        keyed, "hkey", "source",
        lambda g, n: [n_tgt[g] - 1] if n_tgt[g] > 0 else [],
    )
    thr = {g: vals[0] for g, (n, vals) in stats.items() if vals}

    thr_ref = ray.put(thr)

    def below(b: pa.Table) -> pa.Table:
        t = ray.get(thr_ref)
        src = b["source"].to_numpy(zero_copy_only=False)
        hk = b["hkey"].to_numpy(zero_copy_only=False)
        tv = np.array([t.get(s, -1.0) for s in src], np.float64)
        keep = hk < tv
        eq = hk == tv
        return pa.table(
            {
                "doc_id": b["doc_id"].take(pa.array(np.flatnonzero(keep | eq))),
                "source": b["source"].take(pa.array(np.flatnonzero(keep | eq))),
                "is_eq": pa.array(eq[keep | eq]),
            }
        )

    sel = keyed.map_batches(below, batch_format="pyarrow").to_pandas()
    if not len(sel):
        return pd.DataFrame(out_schema)
    # boundary tie-break: keep the smallest doc_ids among hash-equal rows
    out_frames = []
    for s, g in sel.groupby("source"):
        strict = g[~g["is_eq"]]
        need = n_tgt.get(s, 0) - len(strict)
        eqr = g[g["is_eq"]].sort_values("doc_id").head(max(need, 0))
        out_frames.append(pd.concat([strict, eqr])[["doc_id", "source"]])
    out = pd.concat(out_frames, ignore_index=True)
    return out.astype({"doc_id": "int64"})


def _sql_source_mixture() -> str:
    return f"""
WITH w AS (
    SELECT source, count(*)::BIGINT AS c,
           (CAST(substr(source, 4) AS BIGINT) % {MIX_WEIGHT_MOD}) + 1 AS wt
    FROM documents GROUP BY source
),
kk AS (SELECT min(c // wt) AS k FROM w),
sel AS (
    SELECT d.doc_id, d.source,
           row_number() OVER (
               PARTITION BY d.source
               ORDER BY ((d.doc_id::HUGEINT * {SAMPLE_MULT})
                         % 18446744073709551616) // 4096, d.doc_id
           ) AS rn
    FROM documents d
)
SELECT sel.doc_id, sel.source
FROM sel JOIN w ON w.source = sel.source CROSS JOIN kk
WHERE sel.rn <= kk.k * w.wt
"""


QUERIES["source_mixture"] = (q_source_mixture, _sql_source_mixture())


# --------------------------------------------------------------------------
# bigram collocations by Dunning log-likelihood ratio (textpipe.bigram_llr)

LLR_TOP_K = 30


def q_collocations_llr(sf_dir: str):
    """Top-30 bigram collocations by Dunning's LLR over the clean-token
    adjacency stream; exact int64 fixed-point S(k)=k*log2(k) terms on
    both sides (textpipe._log2_fp_ext), integer rank key."""
    from ..sources.documents import load_documents
    from .textpipe import bigram_llr

    return bigram_llr(load_documents(sf_dir), top_k=LLR_TOP_K)


def _sql_collocations_llr() -> str:
    # S(k) = k * (round(log2(k >> s)*1e9) + s*1e9), s = max(bitlen-16, 0):
    # evaluated once per contingency quantity via unnest, re-aggregated
    # with signs (the engine's exact integer arithmetic, in SQL)
    return f"""
WITH filt AS (
    SELECT doc_id,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM documents
),
toks AS (
    SELECT doc_id, unnest(toks) AS term,
           unnest(range(1, len(toks) + 1)) AS pos
    FROM filt
),
nxt AS (
    SELECT term AS left_t,
           lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS right_t
    FROM toks
),
cnt AS (
    SELECT left_t, right_t, count(*)::BIGINT AS k11
    FROM nxt WHERE right_t IS NOT NULL GROUP BY 1, 2
),
marg AS (
    SELECT left_t, right_t, k11,
           sum(k11) OVER (PARTITION BY left_t)::BIGINT AS r1,
           sum(k11) OVER (PARTITION BY right_t)::BIGINT AS c1,
           (SELECT sum(k11) FROM cnt)::BIGINT AS nt
    FROM cnt
),
kv AS (
    SELECT left_t, right_t, k11,
           unnest([k11, r1 - k11, c1 - k11, nt - r1 - c1 + k11, nt,
                   r1, nt - r1, c1, nt - c1]) AS k,
           unnest([1, 1, 1, 1, 1, -1, -1, -1, -1]) AS sgn
    FROM marg
),
sterm AS (
    SELECT left_t, right_t, k11, sgn,
           CASE WHEN k <= 1 THEN 0::HUGEINT ELSE
               k::HUGEINT * (CAST(round(log2(k >> s) * 1000000000) AS HUGEINT)
                             + s::HUGEINT * 1000000000)
           END AS sk
    FROM (SELECT *, greatest(length(bin(k))::BIGINT - 16, 0) AS s FROM kv)
),
llr AS (
    SELECT left_t || ' ' || right_t AS bigram, any_value(k11) AS n,
           CAST(2 * sum(sgn * sk) AS BIGINT) AS llr_fp
    FROM sterm GROUP BY left_t, right_t
)
SELECT bigram, n::BIGINT AS n, llr_fp,
       round(llr_fp / 1000000000.0, 6) AS llr, rk::BIGINT AS rank
FROM (
    SELECT *, row_number() OVER (ORDER BY llr_fp DESC, bigram) AS rk
    FROM llr
)
WHERE rk <= {LLR_TOP_K}
"""


QUERIES["collocations_llr"] = (q_collocations_llr, _sql_collocations_llr())


# --------------------------------------------------------------------------
# set operations: INTERSECT / EXCEPT membership over two derived key sets
# (customers ordering in 1995 vs 1996), as one distributed pass

SETOP_YEAR_A = 1995
SETOP_YEAR_B = 1996


def q_customer_year_sets(sf_dir: str):
    """Set algebra without materializing either set: per-batch distinct
    (custkey, year-flag) partials, ONE custkey-sharded OR-merge, bucket
    label from the two bits — covers INTERSECT ('both'), A EXCEPT B
    ('only_a') and B EXCEPT A ('only_b') in a single exchange instead
    of three distinct-shuffles."""
    from .dedup import _sharded_groupby
    import pandas as pd

    path = os.path.join(sf_dir, "orders.parquet") if os.path.isdir(sf_dir) else sf_dir
    ords = read_parquet_sized(path, columns=["o_custkey", "o_orderdate"])

    def partial(b: pa.Table) -> pa.Table:
        yr = pc.year(b["o_orderdate"])
        in_a = pc.equal(yr, SETOP_YEAR_A)
        in_b = pc.equal(yr, SETOP_YEAR_B)
        keep = pc.or_(in_a, in_b)
        t = pa.table(
            {
                "o_custkey": b["o_custkey"].cast(pa.int64()),
                "a": in_a.cast(pa.int64()),
                "b": in_b.cast(pa.int64()),
            }
        ).filter(keep)
        g = t.group_by("o_custkey").aggregate([("a", "max"), ("b", "max")])
        return pa.table(
            {"o_custkey": g["o_custkey"], "a": g["a_max"], "b": g["b_max"]}
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("o_custkey", as_index=False).agg(
            a=("a", "max"), b=("b", "max")
        )
        both = (s["a"] > 0) & (s["b"] > 0)
        s["bucket"] = np.where(both, "both",
                               np.where(s["a"] > 0, "only_a", "only_b"))
        return s[["o_custkey", "bucket"]]

    schema = pa.schema([("o_custkey", pa.int64()), ("bucket", pa.utf8())])
    return _sharded_groupby(
        ords.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["o_custkey"],
        merge,
        empty_schema=schema,
    )


SQL_CUSTOMER_YEAR_SETS = f"""
WITH flags AS (
    SELECT o_custkey,
           max(CASE WHEN year(o_orderdate) = {SETOP_YEAR_A} THEN 1 ELSE 0 END) AS a,
           max(CASE WHEN year(o_orderdate) = {SETOP_YEAR_B} THEN 1 ELSE 0 END) AS b
    FROM orders
    WHERE year(o_orderdate) IN ({SETOP_YEAR_A}, {SETOP_YEAR_B})
    GROUP BY 1
)
SELECT o_custkey::BIGINT AS o_custkey,
       CASE WHEN a = 1 AND b = 1 THEN 'both'
            WHEN a = 1 THEN 'only_a' ELSE 'only_b' END AS bucket
FROM flags
"""

QUERIES["customer_year_sets"] = (q_customer_year_sets, SQL_CUSTOMER_YEAR_SETS)


# --------------------------------------------------------------------------
# Pareto frontier (2-D skyline): parts where no other part is both
# cheaper-or-equal and larger-or-equal (one strict).  Skyline is
# union-stable — skyline(A ∪ B) ⊆ skyline(A) ∪ skyline(B) — so per-batch
# partial skylines reduce the set before ONE tiny final sweep; the sweep
# itself is the O(n log n) sort-by-x, running-max-y scan, never the
# quadratic dominance join the SQL oracle uses.


def q_pareto_front(sf_dir: str):
    import pandas as pd

    path = os.path.join(sf_dir, "part.parquet") if os.path.isdir(sf_dir) else sf_dir
    parts = read_parquet_sized(
        path, columns=["p_partkey", "p_retailprice", "p_size"]
    )

    def sweep(df: pd.DataFrame) -> pd.DataFrame:
        # sort: price asc, size desc, partkey asc; keep rows whose size
        # strictly exceeds the running max OR tie exactly on (price,size)
        # with a kept row (equal points are mutually non-dominating)
        df = df.sort_values(
            ["p_retailprice", "p_size", "p_partkey"],
            ascending=[True, False, True],
            kind="mergesort",
        ).reset_index(drop=True)
        size = df["p_size"].to_numpy()
        price = df["p_retailprice"].to_numpy()
        runmax = np.maximum.accumulate(size)
        prev = np.concatenate(([np.iinfo(np.int64).min], runmax[:-1]))
        new_best = size > prev
        # group rows by the (price, size) pair of the current best: any
        # exact duplicate of a frontier point is also on the frontier
        keep = new_best.copy()
        best_idx = np.maximum.accumulate(np.where(new_best, np.arange(len(df)), -1))
        dup = (
            (size == size[best_idx])
            & (price == price[best_idx])
            & (best_idx >= 0)
        )
        keep |= dup
        return df[keep]

    def partial(b: pa.Table) -> pa.Table:
        df = b.select(["p_partkey", "p_retailprice", "p_size"]).to_pandas()
        out = sweep(df)
        return pa.Table.from_pandas(out, preserve_index=False)

    reduced = parts.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(sweep(t.to_pandas()), preserve_index=False)

    return reduced.repartition(1).map_batches(
        finalize, batch_format="pyarrow", batch_size=None
    )


SQL_PARETO_FRONT = """
SELECT p_partkey, p_retailprice, p_size FROM part a
WHERE NOT EXISTS (
    SELECT 1 FROM part b
    WHERE b.p_retailprice <= a.p_retailprice AND b.p_size >= a.p_size
      AND (b.p_retailprice < a.p_retailprice OR b.p_size > a.p_size)
)
"""

QUERIES["pareto_front"] = (q_pareto_front, SQL_PARETO_FRONT)


# --------------------------------------------------------------------------
# TPC-H Q5-shape: region-filtered star join with an exact derived-measure
# rollup.  revenue = sum(l_extendedprice * (1 - l_discount)) computed as
# INTEGER cents x (100 - pct) per row (both columns are 2-decimal by
# data contract; round() recovers the exact ints from the stored
# doubles), so the sum is order-independent on both engines; the float
# revenue is a rounded payload of the exact integer total.

REV_REGION = "ASIA"
REV_DATE_LO = "1995-01-01"
REV_DATE_HI = "1997-01-01"


def q_revenue_by_nation(sf_dir: str):
    """Filtered star join (region -> nation -> customer -> orders ->
    lineitem) rolled up to exact revenue per nation.  Scale shape =
    qty_by_nation: dimension chain collapses to a bounded custkey ->
    nation broadcast (partitioned-join fallback above the limit /
    on duplicate keys); only the fact-fact edge pays an exchange; the
    driver combines per-batch integer partials as Python ints (no
    float accumulation, no int64 overflow)."""
    from .dedup import _join_partitions
    from .joins import partitioned_hash_join
    import pandas as pd

    d = sf_dir if os.path.isdir(sf_dir) else os.path.dirname(sf_dir)
    reg = read_parquet_sized(
        os.path.join(d, "region.parquet"), columns=["r_regionkey", "r_name"]
    ).take_all()
    rkeys = {int(r["r_regionkey"]) for r in reg if r["r_name"] == REV_REGION}
    nat = read_parquet_sized(
        os.path.join(d, "nation.parquet"),
        columns=["n_nationkey", "n_name", "n_regionkey"],
    ).take_all()
    nat_name = {
        int(r["n_nationkey"]): r["n_name"]
        for r in nat
        if int(r["n_regionkey"]) in rkeys
    }
    out_empty = pd.DataFrame(
        {
            "n_name": pd.Series([], dtype=object),
            "n_rows": pd.Series([], dtype="int64"),
            "revenue": pd.Series([], dtype="float64"),
        }
    )
    if not nat_name:
        return out_empty

    cust = read_parquet_sized(
        os.path.join(d, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    orders = read_parquet_sized(
        os.path.join(d, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    li = read_parquet_sized(
        os.path.join(d, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    lo = np.datetime64(REV_DATE_LO)
    hi = np.datetime64(REV_DATE_HI)

    def filter_orders(b: pa.Table) -> pa.Table:
        dt = b["o_orderdate"].to_numpy(zero_copy_only=False)
        keep = (dt >= lo) & (dt < hi)
        return b.filter(pa.array(keep)).select(["o_orderkey", "o_custkey"])

    od = orders.map_batches(
        filter_orders, batch_format="pyarrow", zero_copy_batch=True
    )

    n_cust = cust.count()
    crows = cust.take_all() if n_cust <= STAR_DIM_BROADCAST_LIMIT else []
    ck = np.array([r["c_custkey"] for r in crows], np.int64)
    unique_pk = len(np.unique(ck)) == len(ck)
    if crows and unique_pk:
        cn = np.array([r["c_nationkey"] for r in crows], np.int64)
        in_region = np.isin(cn, np.array(sorted(nat_name), np.int64))
        o = np.argsort(ck[in_region])
        cref = ray.put((ck[in_region][o], cn[in_region][o]))

        def enrich(b: pa.Table) -> pa.Table:
            cks, cns = ray.get(cref)
            ok = b["o_custkey"].to_numpy(zero_copy_only=False)
            if not len(cks):
                return pa.table(
                    {
                        "o_orderkey": pa.array([], pa.int64()),
                        "c_nationkey": pa.array([], pa.int64()),
                    }
                )
            pos = np.minimum(np.searchsorted(cks, ok), len(cks) - 1)
            hit = cks[pos] == ok
            t = b.filter(pa.array(hit))
            return pa.table(
                {
                    "o_orderkey": t["o_orderkey"].cast(pa.int64()),
                    "c_nationkey": pa.array(cns[pos[hit]], pa.int64()),
                }
            )

        oc = od.map_batches(enrich, batch_format="pyarrow", zero_copy_batch=True)
    else:  # over-limit or duplicate custkeys: exact partitioned semantics
        nk = np.array(sorted(nat_name), np.int64)

        def cfilt(b: pa.Table) -> pa.Table:
            keep = np.isin(
                b["c_nationkey"].to_numpy(zero_copy_only=False), nk
            )
            return b.filter(pa.array(keep))

        oc = partitioned_hash_join(
            od,
            cust.map_batches(cfilt, batch_format="pyarrow", zero_copy_batch=True),
            left_on="o_custkey",
            right_on="c_custkey",
            num_partitions=_join_partitions(od.count()),
            how="inner",
        ).select_columns(["o_orderkey", "c_nationkey"])

    j = partitioned_hash_join(
        li, oc,
        left_on="l_orderkey", right_on="o_orderkey",
        num_partitions=_join_partitions(li.count()), how="inner",
    )

    def partial(b: pa.Table) -> pa.Table:
        ep = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = b["l_discount"].to_numpy(zero_copy_only=False)
        cents = round_half_away(ep * 100.0, 0).astype(np.int64)
        pct = round_half_away(dc * 100.0, 0).astype(np.int64)
        rev = cents * (100 - pct)
        nk = b["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table(
            {"nk": pa.array(nk), "rev": pa.array(rev), "one": pa.array(np.ones(len(nk), np.int64))}
        )
        g = t.group_by("nk").aggregate([("rev", "sum"), ("one", "sum")])
        return pa.table(
            {
                "nk": g["nk"].cast(pa.int64()),
                "rev": g["rev_sum"].cast(pa.int64()),
                "n": g["one_sum"].cast(pa.int64()),
            }
        )

    rows = j.map_batches(partial, batch_format="pyarrow").take_all()
    if not rows:
        return out_empty
    acc: dict[int, list] = {}
    for r in rows:  # Python-int combine: exact at any magnitude
        e = acc.setdefault(int(r["nk"]), [0, 0])
        e[0] += int(r["rev"])
        e[1] += int(r["n"])
    out = pd.DataFrame(
        {
            "n_name": [nat_name[k] for k in acc],
            "n_rows": pd.Series([v[1] for v in acc.values()], dtype="int64"),
            "revenue": [
                # convert-then-divide, matching the SQL's CAST(sum AS
                # DOUBLE)/10000.0 (Python int/float would true-divide
                # from the exact rational and can differ above 2^53)
                float(round_half_away(np.array([float(v[0]) / 10000.0]), 2)[0])
                for v in acc.values()
            ],
        }
    )
    return out.sort_values("n_name").reset_index(drop=True)


SQL_REVENUE_BY_NATION = f"""
SELECT n.n_name,
       count(*)::BIGINT AS n_rows,
       round(CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                      * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                  AS DOUBLE) / 10000.0, 2) AS revenue
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
JOIN region r ON r.r_regionkey = n.n_regionkey
WHERE r.r_name = '{REV_REGION}'
  AND o.o_orderdate >= '{REV_DATE_LO}' AND o.o_orderdate < '{REV_DATE_HI}'
GROUP BY 1
"""

QUERIES["revenue_by_nation"] = (q_revenue_by_nation, SQL_REVENUE_BY_NATION)


def q_orders_cube(sf_dir: str):
    """CUBE grouping sets: counts at (status, priority), (status),
    (priority) and grand total.  Same one-combine shape as
    q_orders_rollup — every coarser level derives from the finest
    per-batch partials on the driver, so the level count never adds a
    pass over the data."""
    path = os.path.join(sf_dir, "orders.parquet") if os.path.isdir(sf_dir) else sf_dir
    ords = read_parquet_sized(path, columns=["o_orderstatus", "o_orderpriority"])

    def partial(b: pa.Table) -> pa.Table:
        agg = b.group_by(["o_orderstatus", "o_orderpriority"]).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "o_orderstatus": agg["o_orderstatus"],
                "o_orderpriority": agg["o_orderpriority"],
                "n": agg["count_all"].cast(pa.int64()),
            }
        )

    rows = ords.map_batches(partial, batch_format="pyarrow").take_all()
    import pandas as pd

    base = (
        pd.DataFrame(rows, columns=["o_orderstatus", "o_orderpriority", "n"])
        .groupby(["o_orderstatus", "o_orderpriority"], as_index=False,
                 dropna=False)["n"]
        .sum()
    )
    lvl_s = base.groupby("o_orderstatus", as_index=False, dropna=False)["n"].sum()
    lvl_s["o_orderpriority"] = None
    lvl_p = base.groupby("o_orderpriority", as_index=False, dropna=False)["n"].sum()
    lvl_p["o_orderstatus"] = None
    total = pd.DataFrame(
        [{"o_orderstatus": None, "o_orderpriority": None, "n": base["n"].sum()}]
    )
    out = pd.concat([base, lvl_s, lvl_p, total], ignore_index=True)
    out["n"] = out["n"].astype("int64")
    out = out[["o_orderstatus", "o_orderpriority", "n"]]
    for c in ("o_orderstatus", "o_orderpriority"):
        col = out[c].astype(object)
        out[c] = col.where(pd.notna(col), None)
    return out


SQL_ORDERS_CUBE = """
SELECT o_orderstatus, o_orderpriority, count(*)::BIGINT AS n
FROM orders
GROUP BY CUBE (o_orderstatus, o_orderpriority)
"""

QUERIES["orders_cube"] = (q_orders_cube, SQL_ORDERS_CUBE)


# --------------------------------------------------------------------------
# FULL OUTER join: per-customer account balance vs order totals, keeping
# customers with no orders AND orders whose custkey dangles


def q_customer_order_balance(sf_dir: str):
    """FULL OUTER JOIN as one tagged-union exchange: customer rows and
    per-batch order partials both shard by custkey, meet in one
    `_sharded_groupby`, and the in-shard combine emits matched rows,
    customer-only rows (n_orders = 0) and dangling-order rows (NULL
    balance) — no second pass, no broadcast, outer semantics exact."""
    from .dedup import _sharded_groupby
    import pandas as pd

    d = sf_dir if os.path.isdir(sf_dir) else os.path.dirname(sf_dir)
    cust = read_parquet_sized(
        os.path.join(d, "customer.parquet"), columns=["c_custkey", "c_acctbal"]
    )
    orders = read_parquet_sized(
        os.path.join(d, "orders.parquet"), columns=["o_custkey", "o_totalprice"]
    )

    def cust_rows(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": b["c_custkey"].cast(pa.int64()),
                "bal": b["c_acctbal"].cast(pa.float64()),
                # order partials: cents kept integer for the exact sum
                "cents": pa.array(np.zeros(len(b), np.int64)),
                "n": pa.array(np.zeros(len(b), np.int64)),
                "is_cust": pa.array(np.ones(len(b), np.int64)),
            }
        )

    def order_partial(b: pa.Table) -> pa.Table:
        tp = b["o_totalprice"].to_numpy(zero_copy_only=False)
        cents = round_half_away(tp * 100.0, 0).astype(np.int64)
        t = pa.table(
            {
                "k": b["o_custkey"].cast(pa.int64()),
                "cents": pa.array(cents),
                "n": pa.array(np.ones(len(b), np.int64)),
            }
        )
        g = t.group_by("k").aggregate([("cents", "sum"), ("n", "sum")])
        return pa.table(
            {
                "k": g["k"],
                "bal": pa.array(np.full(len(g), np.nan), pa.float64()),
                "cents": g["cents_sum"].cast(pa.int64()),
                "n": g["n_sum"].cast(pa.int64()),
                "is_cust": pa.array(np.zeros(len(g), np.int64)),
            }
        )

    both = cust.map_batches(
        cust_rows, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        orders.map_batches(
            order_partial, batch_format="pyarrow", zero_copy_batch=True
        )
    )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("k", as_index=False).agg(
            bal=("bal", "max"),  # NaN-skipping: the customer row's value
            cents=("cents", "sum"),
            n=("n", "sum"),
            is_cust=("is_cust", "max"),
        )
        total = round_half_away(
            s["cents"].to_numpy().astype(np.float64) / 100.0, 2
        )
        has_orders = s["n"].to_numpy() > 0
        out = pd.DataFrame(
            {
                "custkey": s["k"].astype("int64"),
                "c_acctbal": s["bal"],  # NaN -> dangling order, matches NULL
                "n_orders": s["n"].astype("int64"),
                "total_spent": np.where(has_orders, total, np.nan),
            }
        )
        return out

    schema = pa.schema(
        [
            ("custkey", pa.int64()),
            ("c_acctbal", pa.float64()),
            ("n_orders", pa.int64()),
            ("total_spent", pa.float64()),
        ]
    )
    return _sharded_groupby(both, ["k"], combine, empty_schema=schema)


SQL_CUSTOMER_ORDER_BALANCE = """
WITH o AS (
    SELECT o_custkey,
           count(*)::BIGINT AS n_orders,
           round(CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS DOUBLE)
                 / 100.0, 2) AS total_spent
    FROM orders GROUP BY 1
)
SELECT coalesce(c.c_custkey, o.o_custkey)::BIGINT AS custkey,
       c.c_acctbal,
       coalesce(o.n_orders, 0)::BIGINT AS n_orders,
       o.total_spent
FROM customer c FULL OUTER JOIN o ON o.o_custkey = c.c_custkey
"""

QUERIES["customer_order_balance"] = (
    q_customer_order_balance,
    SQL_CUSTOMER_ORDER_BALANCE,
)


# --------------------------------------------------------------------------
# hashing-trick sparse feature vectors: token counts folded into a fixed
# F-bucket space per doc (Weinberger et al. 2009) — the vectorizer every
# scale-bounded ML featurizer uses.  Pure streaming: docs never span
# batches, so one bincount per batch and ZERO exchanges.

FEATURE_HASH_BUCKETS = 64


def q_feature_hash_vectors(sf_dir: str):
    from ..sources.documents import load_documents
    from ..functions.sketch import _token_hashes

    F = FEATURE_HASH_BUCKETS

    def per_batch(batch: pa.Table) -> pa.Table:
        h, row = _token_hashes(batch["text"])
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(h):
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "bucket": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        b = (h % np.uint64(F)).astype(np.int64)
        flat = np.bincount(row.astype(np.int64) * F + b,
                           minlength=batch.num_rows * F)
        nz = np.flatnonzero(flat)
        return pa.table(
            {
                "doc_id": pa.array(ids[nz // F], pa.int64()),
                "bucket": pa.array(nz % F, pa.int64()),
                "n": pa.array(flat[nz].astype(np.int64), pa.int64()),
            }
        )

    return load_documents(sf_dir).map_batches(
        per_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def _sql_feature_hash_vectors() -> str:
    from .sketch_sql import _token_hash_ctes

    return f"""
WITH {_token_hash_ctes()}
SELECT doc_id, CAST(h % {FEATURE_HASH_BUCKETS} AS BIGINT) AS bucket,
       count(*)::BIGINT AS n
FROM th GROUP BY 1, 2
"""


QUERIES["feature_hash_vectors"] = (
    q_feature_hash_vectors,
    _sql_feature_hash_vectors(),
)


# --------------------------------------------------------------------------
# deterministic NTILE: equal-count tiles of orders under the total order
# (o_totalprice, o_orderkey) — ties broken so the window is reproducible
# (bare NTILE OVER (ORDER BY price) is nondeterministic on ties).
#
# Shape — the sequence_pack two-level scan, but bucketed by VALUE RANGE
# (price cents // 2^20, a fixed ~$10.5k grid) so bucket order == rank
# order: per-bucket counts cumsum on the driver (O(#buckets) rows), one
# bucket-keyed exchange computes in-bucket local ranks, and the exact
# SQL NTILE split (first n%k tiles get the extra row) is integer math.

NTILE_K = 8
_NTILE_GRID_SHIFT = 20  # cents >> 20: ~10.5k-dollar buckets


def q_price_ntile(sf_dir: str):
    from .dedup import _sharded_groupby
    import pandas as pd

    path = os.path.join(sf_dir, "orders.parquet") if os.path.isdir(sf_dir) else sf_dir
    ords = read_parquet_sized(path, columns=["o_orderkey", "o_totalprice"])

    def keyed(b: pa.Table) -> pa.Table:
        tp = b["o_totalprice"].to_numpy(zero_copy_only=False)
        cents = round_half_away(tp * 100.0, 0).astype(np.int64)
        return pa.table(
            {
                "o_orderkey": b["o_orderkey"].cast(pa.int64()),
                "o_totalprice": pa.array(tp, pa.float64()),
                "cents": pa.array(cents),
                "bucket": pa.array(cents >> _NTILE_GRID_SHIFT, pa.int64()),
            }
        )

    rows = ords.map_batches(keyed, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()

    def bucket_partial(b: pa.Table) -> pa.Table:
        g = b.group_by("bucket").aggregate([([], "count_all")])
        return pa.table(
            {"bucket": g["bucket"], "c": g["count_all"].cast(pa.int64())}
        )

    bucket_rows = rows.map_batches(
        bucket_partial, batch_format="pyarrow"
    ).take_all()
    import pandas as pd

    if not bucket_rows:
        return pd.DataFrame(
            {
                "o_orderkey": pd.Series([], dtype="int64"),
                "o_totalprice": pd.Series([], dtype="float64"),
                "tile": pd.Series([], dtype="int64"),
            }
        )
    bf = (
        pd.DataFrame(bucket_rows, columns=["bucket", "c"])
        .groupby("bucket", as_index=False)["c"].sum()
        .sort_values("bucket")
    )
    n_total = int(bf["c"].sum())
    buckets = bf["bucket"].to_numpy(np.int64)
    offs = np.concatenate([[0], np.cumsum(bf["c"].to_numpy(np.int64))[:-1]])
    bref = ray.put((buckets, offs))
    k = NTILE_K
    big = n_total % k
    small_sz = n_total // k
    big_sz = small_sz + 1

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        bk, off = ray.get(bref)
        g = g.sort_values(["cents", "o_orderkey"], kind="mergesort").copy()
        local = g.groupby("bucket").cumcount().to_numpy(np.int64)
        base = off[np.searchsorted(bk, g["bucket"].to_numpy(np.int64))]
        rn = base + local + 1  # 1-based global row_number
        cut = big * big_sz
        tile = np.where(
            rn <= cut,
            (rn - 1) // big_sz + 1,
            big + (rn - cut - 1) // max(small_sz, 1) + 1,
        )
        return pd.DataFrame(
            {
                "o_orderkey": g["o_orderkey"].astype("int64"),
                "o_totalprice": g["o_totalprice"],
                "tile": tile.astype("int64"),
            }
        )

    schema = pa.schema(
        [
            ("o_orderkey", pa.int64()),
            ("o_totalprice", pa.float64()),
            ("tile", pa.int64()),
        ]
    )
    return _sharded_groupby(rows, ["bucket"], scan, empty_schema=schema)


SQL_PRICE_NTILE = f"""
SELECT o_orderkey, o_totalprice,
       ntile({NTILE_K}) OVER (ORDER BY o_totalprice, o_orderkey)::BIGINT AS tile
FROM orders
"""

QUERIES["price_ntile"] = (q_price_ntile, SQL_PRICE_NTILE)


# --------------------------------------------------------------------------
# per-group min-max scaling: the [0, 1] feature-normalization pass

def q_scale_minmax(sf_dir: str):
    """scaled = round((n_chars - min) / (max - min), 6) within each
    language (NULL when the group is constant).  Two streaming passes:
    per-batch (lang, min, max) partials -> tiny driver combine ->
    broadcast lookup — group count is bounded, rows never move."""
    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["doc_id", "lang", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by("lang").aggregate(
            [("n_chars", "min"), ("n_chars", "max")]
        )
        return pa.table(
            {
                "lang": g["lang"],
                "mn": g["n_chars_min"].cast(pa.int64()),
                "mx": g["n_chars_max"].cast(pa.int64()),
            }
        )

    import pandas as pd

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if not len(parts):
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "lang": pd.Series([], dtype=object),
                "scaled": pd.Series([], dtype="float64"),
            }
        )
    mm = parts.groupby("lang", as_index=False).agg(
        mn=("mn", "min"), mx=("mx", "max")
    )
    lut = {r.lang: (int(r.mn), int(r.mx)) for r in mm.itertuples()}
    lref = ray.put(lut)

    def scale(b: pa.Table) -> pa.Table:
        t = ray.get(lref)
        langs = b["lang"].to_numpy(zero_copy_only=False)
        x = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        mn = np.array([t[l][0] for l in langs], np.float64)
        mx = np.array([t[l][1] for l in langs], np.float64)
        rng = mx - mn
        with np.errstate(invalid="ignore", divide="ignore"):
            scaled = round_half_away((x - mn) / rng, 6)
        out = pc.if_else(
            pa.array(rng > 0),
            pa.array(np.where(rng > 0, scaled, 0.0), pa.float64()),
            pa.scalar(None, pa.float64()),
        )
        return pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "lang": b["lang"],
                "scaled": out,
            }
        )

    return ds.map_batches(scale, batch_format="pyarrow", zero_copy_batch=True)


SQL_SCALE_MINMAX = """
SELECT doc_id, lang,
       CASE WHEN mx > mn
            THEN round((n_chars - mn) / CAST(mx - mn AS DOUBLE), 6)
       END AS scaled
FROM (
    SELECT doc_id, lang, n_chars,
           min(n_chars) OVER (PARTITION BY lang) AS mn,
           max(n_chars) OVER (PARTITION BY lang) AS mx
    FROM documents
)
"""

QUERIES["scale_minmax"] = (q_scale_minmax, SQL_SCALE_MINMAX)


# --------------------------------------------------------------------------
# query autocomplete: top-k term completions per prefix by document
# frequency.  One streaming pass over the postings stream with the tiny
# prefix set in the closure; per-batch partial (prefix, term) df counts,
# one bounded combine (candidate space = terms matching a prefix).

SUGGEST_PREFIXES = ["d", "re", "s"]
SUGGEST_K = 5


def q_prefix_suggest(sf_dir: str):
    import pandas as pd

    prefixes = sorted(SUGGEST_PREFIXES)

    def partial(b: pa.Table) -> pa.Table:
        terms, doc_ids, _tfs = tokenize_to_postings(
            b["text"], b["doc_id"].to_numpy(zero_copy_only=False)
        )
        out_p, out_t = [], []
        for p in prefixes:
            m = pc.starts_with(terms, p)
            sel = terms.filter(m)
            if len(sel):
                # df partial: distinct docs per term within the batch
                t = pa.table(
                    {
                        "term": sel,
                        "doc": pa.array(
                            np.asarray(doc_ids)[
                                m.to_numpy(zero_copy_only=False)
                            ],
                            pa.int64(),
                        ),
                    }
                )
                g = t.group_by(["term"]).aggregate([("doc", "count_distinct")])
                out_p.append(np.full(len(g), p, object))
                out_t.append(
                    pa.table(
                        {
                            "term": g["term"],
                            "df": g["doc_count_distinct"].cast(pa.int64()),
                        }
                    )
                )
        if not out_t:
            return pa.table(
                {
                    "prefix": pa.array([], pa.utf8()),
                    "term": pa.array([], pa.utf8()),
                    "df": pa.array([], pa.int64()),
                }
            )
        tt = pa.concat_tables(out_t)
        return pa.table(
            {
                "prefix": pa.array(np.concatenate(out_p), pa.utf8()),
                "term": tt["term"],
                "df": tt["df"],
            }
        )

    rows = (
        load_documents(sf_dir)
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
    )
    out_cols = ["prefix", "term", "df", "rank"]
    if not len(rows):
        import pandas as pd

        return pd.DataFrame(
            {
                "prefix": pd.Series([], dtype=object),
                "term": pd.Series([], dtype=object),
                "df": pd.Series([], dtype="int64"),
                "rank": pd.Series([], dtype="int64"),
            }
        )
    # NOTE: per-batch count_distinct partials cannot be summed when a
    # term's docs span batches — recount df from (prefix, term, doc)?
    # No: docs never span batches (load_documents contract), and a doc
    # contributes at most 1 to a term's df, so per-batch distinct-doc
    # counts ARE additive across batches.
    tot = rows.groupby(["prefix", "term"], as_index=False)["df"].sum()
    tot = tot.sort_values(
        ["prefix", "df", "term"], ascending=[True, False, True],
        kind="mergesort",
    )
    tot["rank"] = tot.groupby("prefix").cumcount() + 1
    tot = tot[tot["rank"] <= SUGGEST_K].reset_index(drop=True)
    tot["df"] = tot["df"].astype("int64")
    tot["rank"] = tot["rank"].astype("int64")
    return tot[out_cols]


def _sql_prefix_suggest() -> str:
    pref_values = ", ".join(f"('{p}')" for p in sorted(SUGGEST_PREFIXES))
    return (
        "WITH "
        + _SQL_TOKENS
        + f""",
pref(p) AS (VALUES {pref_values}),
dfp AS (
    SELECT p AS prefix, term, count(DISTINCT doc_id)::BIGINT AS df
    FROM tok_kept JOIN pref ON starts_with(term, p)
    GROUP BY 1, 2
),
ranked AS (
    SELECT prefix, term, df,
           row_number() OVER (
               PARTITION BY prefix ORDER BY df DESC, term
           ) AS rk
    FROM dfp
)
SELECT prefix, term, df, rk::BIGINT AS rank
FROM ranked WHERE rk <= {SUGGEST_K}"""
    )


QUERIES["prefix_suggest"] = (q_prefix_suggest, _sql_prefix_suggest())


# --------------------------------------------------------------------------
# distributed grep: docs matching an RE2 pattern, with per-doc match
# counts — one streaming vectorized regex scan (Arrow re2 kernel on the
# engine, regexp_* on the oracle; identical RE2 syntax subset)

REGEX_SEARCH_PATTERN = "(the|data) [a-z]{7,}"


def q_regex_search(sf_dir: str):
    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["doc_id", "text"])

    def scan(b: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(b["text"], REGEX_SEARCH_PATTERN)
        t = pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "n_matches": n.cast(pa.int64()),
            }
        )
        return t.filter(pc.greater(t["n_matches"], 0))

    out = ds.map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)
    # a zero-match corpus would yield only empty blocks, which Ray's
    # to_pandas drops into a column-less frame — union a typed empty
    # block so the schema always survives (house rule)
    empty = pa.schema([("doc_id", pa.int64()), ("n_matches", pa.int64())])
    return out.union(rd.from_arrow(empty.empty_table()))


SQL_REGEX_SEARCH = f"""
SELECT doc_id, len(regexp_extract_all(text, '{REGEX_SEARCH_PATTERN}'))::BIGINT
       AS n_matches
FROM documents
WHERE regexp_matches(text, '{REGEX_SEARCH_PATTERN}')
"""

QUERIES["regex_search"] = (q_regex_search, SQL_REGEX_SEARCH)


# --------------------------------------------------------------------------
# passage chunking: sliding token windows (size W, stride S) per document
# — the RAG / context-window preprocessing op.  Chunk grid: starts at
# multiples of S while start < n_tokens; chunk = tokens[start, start+W).
# Pure streaming (docs never span batches): per-batch flat-token gather +
# one Arrow list-join kernel, zero exchanges, zero Python per-row loops.

CHUNK_W = 64
CHUNK_S = 48


def q_chunk_documents(sf_dir: str):
    from ..functions.tokenize import token_spans
    from .textpipe import _token_string_array

    W, S = CHUNK_W, CHUNK_S

    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "chunk_id": pa.array([], pa.int64()),
            "start_pos": pa.array([], pa.int64()),
            "n_chunk_tokens": pa.array([], pa.int64()),
            "chunk_text": pa.array([], pa.utf8()),
        }
    )

    def chunks(batch: pa.Table) -> pa.Table:
        mapped, starts, lens, row_idx = token_spans(
            batch["text"], drop_trailing=False
        )
        if not len(starts):
            return empty
        toks = _token_string_array(mapped, starts, lens)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n_rows = batch.num_rows
        cnt = np.bincount(row_idx, minlength=n_rows).astype(np.int64)
        doc_start = np.concatenate(([0], np.cumsum(cnt)[:-1]))
        nch = -(-cnt // S)  # ceil(n/S); 0 chunks for token-less docs
        total = int(nch.sum())
        if not total:
            return empty
        crow = np.repeat(np.arange(n_rows), nch)  # doc row per chunk
        coffs = np.concatenate(([0], np.cumsum(nch)[:-1]))
        cid = np.arange(total, dtype=np.int64) - np.repeat(coffs, nch)
        cstart = cid * S
        clen = np.minimum(cnt[crow] - cstart, W)
        # flat token indices of every chunk member (repeat/cumsum gather)
        tot_toks = int(clen.sum())
        boff = np.concatenate(([0], np.cumsum(clen)[:-1]))
        within = np.arange(tot_toks, dtype=np.int64) - np.repeat(boff, clen)
        tok_idx = np.repeat(doc_start[crow] + cstart, clen) + within
        gathered = toks.take(pa.array(tok_idx, pa.int64()))
        offsets = np.zeros(total + 1, np.int32)
        offsets[1:] = np.cumsum(clen)
        lst = pa.ListArray.from_arrays(pa.array(offsets), gathered)
        text = pc.binary_join(lst, " ")
        return pa.table(
            {
                "doc_id": pa.array(ids[crow], pa.int64()),
                "chunk_id": pa.array(cid, pa.int64()),
                "start_pos": pa.array(cstart, pa.int64()),
                "n_chunk_tokens": pa.array(clen, pa.int64()),
                "chunk_text": text,
            }
        )

    return load_documents(sf_dir).map_batches(
        chunks, batch_format="pyarrow", zero_copy_batch=True
    )


def _sql_chunk_documents() -> str:
    W, S = CHUNK_W, CHUNK_S
    return f"""
WITH filt AS (
    SELECT doc_id,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM documents
),
toks AS (
    SELECT doc_id, unnest(toks) AS term,
           unnest(range(1, len(toks) + 1)) AS pos
    FROM filt
),
nn AS (SELECT doc_id, count(*)::BIGINT AS n FROM toks GROUP BY 1),
chunks AS (
    SELECT doc_id, unnest(range(0, (n + {S} - 1) // {S})) AS chunk_id
    FROM nn
)
SELECT c.doc_id, c.chunk_id::BIGINT AS chunk_id,
       (c.chunk_id * {S})::BIGINT AS start_pos,
       count(*)::BIGINT AS n_chunk_tokens,
       string_agg(t.term, ' ' ORDER BY t.pos) AS chunk_text
FROM chunks c
JOIN toks t ON t.doc_id = c.doc_id
   AND t.pos > c.chunk_id * {S} AND t.pos <= c.chunk_id * {S} + {W}
GROUP BY c.doc_id, c.chunk_id
"""


QUERIES["chunk_documents"] = (q_chunk_documents, _sql_chunk_documents())


# --------------------------------------------------------------------------
# skip-gram pair generation: directed (left, right) token pairs within
# window D — the word2vec / co-occurrence training-pair extractor.
# Per-batch shifted-array pair counts (one Arrow group_by per batch),
# pair-hash-sharded global sum, per-shard partial top-k (a pair's total
# lives in one shard), tiny final merge — the bigram_topk shape at
# distance up to D.

SKIPGRAM_D = 3
SKIPGRAM_TOP_K = 30


def q_skipgram_pairs(sf_dir: str):
    from ..functions.tokenize import _span_hashes, token_spans
    from .dedup import _sharded_groupby
    from .textpipe import _FNV_PRIME, _token_string_array
    import pandas as pd

    D, K = SKIPGRAM_D, SKIPGRAM_TOP_K

    def partial(batch: pa.Table) -> pa.Table:
        mapped, starts, lens, row_idx = token_spans(
            batch["text"], drop_trailing=False
        )
        n = len(starts)
        empty = pa.table(
            {
                "left": pa.array([], pa.utf8()),
                "right": pa.array([], pa.utf8()),
                "ph": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
            }
        )
        if n < 2:
            return empty
        toks = _token_string_array(mapped, starts, lens)
        h, _h2 = _span_hashes(mapped, starts, lens)
        parts = []
        for d in range(1, D + 1):
            if n <= d:
                break
            keep = row_idx[:-d] == row_idx[d:]
            if not keep.any():
                continue
            left = toks.slice(0, n - d).filter(pa.array(keep))
            right = toks.slice(d, n - d).filter(pa.array(keep))
            with np.errstate(over="ignore"):
                ph = (
                    (h[:-d] ^ (h[d:] * np.uint64(_FNV_PRIME)))[keep]
                ).view(np.int64)
            parts.append(
                pa.table(
                    {"left": left, "right": right,
                     "ph": pa.array(ph, pa.int64())}
                )
            )
        if not parts:
            return empty
        t = pa.concat_tables(parts)
        agg = t.group_by(["left", "right"]).aggregate(
            [("ph", "min"), ([], "count_all")]
        )
        return pa.table(
            {
                "left": agg["left"],
                "right": agg["right"],
                "ph": agg["ph_min"],
                "n": agg["count_all"].cast(pa.int64()),
            }
        )

    partials = load_documents(sf_dir).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby(["left", "right"], as_index=False)["n"].sum()
        return tot.sort_values(
            ["n", "left", "right"], ascending=[False, True, True],
            kind="mergesort",
        ).head(K)

    schema = pa.schema(
        [("left", pa.utf8()), ("right", pa.utf8()), ("n", pa.int64())]
    )
    tops = _sharded_groupby(partials, ["ph"], agg, empty_schema=schema)

    def finalize(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            ["n", "left", "right"], ascending=[False, True, True],
            kind="mergesort",
        ).head(K).reset_index(drop=True)
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        df["n"] = df["n"].astype("int64")
        return pa.Table.from_pandas(
            df[["left", "right", "n", "rank"]], preserve_index=False
        )

    return tops.repartition(1).map_batches(
        finalize, batch_format="pyarrow", batch_size=None
    )


def _sql_skipgram_pairs() -> str:
    return f"""
WITH filt AS (
    SELECT doc_id,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM documents
),
toks AS (
    SELECT doc_id, unnest(toks) AS term,
           unnest(range(1, len(toks) + 1)) AS pos
    FROM filt
),
pairs AS (
    SELECT a.term AS left_t, b.term AS right_t, count(*)::BIGINT AS n
    FROM toks a JOIN toks b
      ON b.doc_id = a.doc_id
     AND b.pos - a.pos BETWEEN 1 AND {SKIPGRAM_D}
    GROUP BY 1, 2
)
SELECT left_t AS "left", right_t AS "right", n, rk::BIGINT AS rank
FROM (
    SELECT left_t, right_t, n,
           row_number() OVER (ORDER BY n DESC, left_t, right_t) AS rk
    FROM pairs
)
WHERE rk <= {SKIPGRAM_TOP_K}
"""


QUERIES["skipgram_pairs"] = (q_skipgram_pairs, _sql_skipgram_pairs())


# --------------------------------------------------------------------------
# partitioned parquet sink round-trip: write documents hive-partitioned by
# lang (the resumable-output layout: one directory per partition value, so
# a failed run skips finished partitions), then READ THE SINK BACK and
# aggregate — the gate verifies the full write->read cycle, not just a
# count.


def q_export_partitioned(sf_dir: str):
    import hashlib as _hl

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    from .build import _fingerprint

    fp = _hl.md5(_fingerprint([path]).encode()).hexdigest()[:12]
    out = f"/tmp/iib_export_{os.getuid()}/{fp}"
    marker = os.path.join(out, "_SUCCESS")
    if not os.path.exists(marker):
        import shutil

        shutil.rmtree(out, ignore_errors=True)
        ds = read_parquet_sized(path, columns=["doc_id", "lang", "n_chars"])
        ds.write_parquet(out, partition_cols=["lang"])
        with open(marker, "w") as f:
            f.write(fp)
    back = rd.read_parquet(out)

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by("lang").aggregate(
            [([], "count_all"), ("n_chars", "sum")]
        )
        return pa.table(
            {
                "lang": g["lang"].cast(pa.string()),
                "n": g["count_all"].cast(pa.int64()),
                "sum_chars": g["n_chars_sum"].cast(pa.int64()),
            }
        )

    import pandas as pd

    parts = back.map_batches(partial, batch_format="pyarrow").to_pandas()
    if not len(parts):
        return pd.DataFrame(
            {
                "lang": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64"),
                "sum_chars": pd.Series([], dtype="int64"),
            }
        )
    out_df = parts.groupby("lang", as_index=False).agg(
        n=("n", "sum"), sum_chars=("sum_chars", "sum")
    )
    out_df["n"] = out_df["n"].astype("int64")
    out_df["sum_chars"] = out_df["sum_chars"].astype("int64")
    return out_df


SQL_EXPORT_PARTITIONED = """
SELECT lang, count(*)::BIGINT AS n, sum(n_chars)::BIGINT AS sum_chars
FROM documents GROUP BY 1
"""

QUERIES["export_partitioned"] = (q_export_partitioned, SQL_EXPORT_PARTITIONED)


# --------------------------------------------------------------------------
# language-ID confusion matrix: predicted vs labeled language counts —
# the model-evaluation rollup every classifier stage needs.  One fused
# actor-pool pass (predict + count per batch, only (label, pred, n)
# partials move), tiny driver combine.


def q_langid_confusion(sf_dir: str):
    from ..sources.util import actor_pool
    from .textpipe import LangId
    import pandas as pd

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["doc_id", "text", "lang"])

    class Confusion(LangId):
        def __call__(self, batch: pa.Table) -> pa.Table:
            pred = super().__call__(batch)
            t = pa.table(
                {"lang": batch["lang"], "lang_pred": pred["lang_pred"]}
            )
            g = t.group_by(["lang", "lang_pred"]).aggregate([([], "count_all")])
            return pa.table(
                {
                    "lang": g["lang"],
                    "lang_pred": g["lang_pred"],
                    "n": g["count_all"].cast(pa.int64()),
                }
            )

    parts = ds.map_batches(
        Confusion, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=actor_pool(),
    ).to_pandas()
    if not len(parts):
        return pd.DataFrame(
            {
                "lang": pd.Series([], dtype=object),
                "lang_pred": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64"),
            }
        )
    out = parts.groupby(["lang", "lang_pred"], as_index=False)["n"].sum()
    out["n"] = out["n"].astype("int64")
    return out


def _sql_langid_confusion() -> str:
    return f"""
SELECT d.lang, p.lang_pred, count(*)::BIGINT AS n
FROM documents d
JOIN ({_sql_langid()}) p ON p.doc_id = d.doc_id
GROUP BY 1, 2
"""


QUERIES["langid_confusion"] = (q_langid_confusion, _sql_langid_confusion())


def q_langid_kappa(sf_dir: str):
    """Cohen's kappa of the language-ID classifier against the labeled
    lang column: chance-corrected agreement from the integer confusion
    matrix — n·agree and the expected-agreement numerator Σ row_c·col_c
    are exact ints (HUGEINT in SQL), kappa is ONE float expression over
    them.  Completes the classifier-evaluation family (confusion
    matrix, AUC, NDCG → agreement statistic)."""
    import pandas as pd

    conf = q_langid_confusion(sf_dir)
    n = int(conf["n"].sum()) if len(conf) else 0
    agree = (
        int(conf.loc[conf["lang"] == conf["lang_pred"], "n"].sum())
        if len(conf) else 0
    )
    rows = conf.groupby("lang")["n"].sum() if len(conf) else {}
    colsum = conf.groupby("lang_pred")["n"].sum() if len(conf) else {}
    pe_num = sum(
        int(rows.get(lab, 0)) * int(colsum.get(lab, 0))
        for lab in set(getattr(rows, "index", [])) | set(
            getattr(colsum, "index", []))
    )
    acc_ppm = agree * 1_000_000 // n if n else 0
    kappa = (
        float(round_half_away(
            np.array([(n * agree - pe_num) / (n * n - pe_num)]), 9)[0])
        if n * n != pe_num else None
    )
    out = pd.DataFrame([{
        "n": n, "agree": agree, "pe_num": pe_num, "acc_ppm": acc_ppm,
        "kappa": kappa,
    }])
    for c in ("n", "agree", "pe_num", "acc_ppm"):
        out[c] = out[c].astype("int64")
    out["kappa"] = out["kappa"].astype("float64")
    return out


def _sql_langid_kappa() -> str:
    return f"""
WITH conf AS ({_sql_langid_confusion()}),
r AS (SELECT lang AS l, sum(n)::HUGEINT AS c FROM conf GROUP BY 1),
cc AS (SELECT lang_pred AS l, sum(n)::HUGEINT AS c FROM conf GROUP BY 1),
m AS (
    SELECT coalesce((SELECT sum(n) FROM conf), 0)::HUGEINT AS n,
           coalesce((SELECT sum(n) FROM conf WHERE lang = lang_pred),
                    0)::HUGEINT AS agree,
           coalesce((SELECT sum(r.c * cc.c) FROM r JOIN cc USING (l)),
                    0)::HUGEINT AS pe
)
SELECT n::BIGINT AS n, agree::BIGINT AS agree, pe::BIGINT AS pe_num,
       (CASE WHEN n > 0 THEN agree * 1000000 // n ELSE 0 END)::BIGINT
           AS acc_ppm,
       CASE WHEN n*n <> pe
            THEN round((n*agree - pe)::DOUBLE / (n*n - pe)::DOUBLE, 9)
       END AS kappa
FROM m
"""


QUERIES["langid_kappa"] = (q_langid_kappa, _sql_langid_kappa())


# --------------------------------------------------------------------------
# vocabulary growth (Heaps-law curve): distinct terms among the first k
# docs, for a grid of prefixes.  Prefix-distinct without re-scanning per
# k: each term's FIRST doc_id (term-sharded min) is all that's needed —
# |vocab(k)| = #{terms: first_doc < k}.

VOCAB_GROWTH_FRACS = [0.1, 0.25, 0.5, 1.0]


def q_vocab_growth(sf_dir: str):
    from ..functions.hashing import term_hash
    from .dedup import _sharded_groupby
    import pandas as pd

    post = _postings_ds(sf_dir)
    docs = load_documents(sf_dir)
    n_docs = docs.count()
    ks = sorted({max(1, int(n_docs * f)) for f in VOCAB_GROWTH_FRACS})

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by("term").aggregate([("doc_id", "min")])
        t = pa.table({"term": g["term"], "first_doc": g["doc_id_min"]})
        return t.append_column(
            "th", pa.array(term_hash(t["term"].combine_chunks()).view(np.int64))
        )

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        first = g.groupby("term")["first_doc"].min().to_numpy(np.int64)
        # per-shard histogram over the k grid: only len(ks) rows move on
        return pd.DataFrame(
            {
                "k": np.array(ks, np.int64),
                "n_terms": np.array(
                    [(first < k).sum() for k in ks], np.int64
                ),
            }
        )

    schema = pa.schema([("k", pa.int64()), ("n_terms", pa.int64())])
    parts = _sharded_groupby(
        post.map_batches(partial, batch_format="pyarrow"),
        ["th"],
        agg,
        empty_schema=schema,
    ).to_pandas()
    if not len(parts):
        return pd.DataFrame(
            {"k": pd.Series(ks, dtype="int64"),
             "n_terms": pd.Series([0] * len(ks), dtype="int64")}
        )
    out = parts.groupby("k", as_index=False)["n_terms"].sum()
    out["n_terms"] = out["n_terms"].astype("int64")
    return out


def _sql_vocab_growth() -> str:
    return (
        "WITH "
        + _SQL_TOKENS
        + f""",
nn AS (SELECT count(*)::BIGINT AS n FROM documents),
ks AS (
    SELECT DISTINCT greatest(1, CAST(floor(n * f) AS BIGINT)) AS k
    FROM nn, (SELECT unnest({VOCAB_GROWTH_FRACS}) AS f)
),
first_doc AS (SELECT term, min(doc_id) AS fd FROM tok_kept GROUP BY 1)
SELECT ks.k, count(fd)::BIGINT AS n_terms
FROM ks LEFT JOIN first_doc ON fd < ks.k
GROUP BY 1"""
    )


QUERIES["vocab_growth"] = (q_vocab_growth, _sql_vocab_growth())


# --------------------------------------------------------------------------
# cohort retention: of the users active in hour h, how many are also
# active in hour h+1.  Distinct (user, hour) pairs -> user-sharded
# consecutive-hour detection (a user's hours co-locate) -> per-hour
# counts; only (hour, n) partials leave the shards.

RETENTION_HOUR_US = 3_600_000_000


def q_events_retention(sf_dir: str):
    from .dedup import _sharded_groupby
    import pandas as pd

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["user_id", "ts"])

    def pairs(b: pa.Table) -> pa.Table:
        ts = b["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        hour = ts.astype(np.int64) // RETENTION_HOUR_US
        t = pa.table(
            {
                "user_id": b["user_id"].cast(pa.int64()),
                "hour": pa.array(hour, pa.int64()),
            }
        )
        g = t.group_by(["user_id", "hour"]).aggregate([])
        return g

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "hour"]).sort_values(
            ["user_id", "hour"], kind="mergesort"
        )
        u = g["user_id"].to_numpy(np.int64)
        h = g["hour"].to_numpy(np.int64)
        active = pd.DataFrame({"hour": h}).groupby("hour").size()
        nxt = (u[:-1] == u[1:]) & (h[:-1] + 1 == h[1:])
        ret = pd.DataFrame({"hour": h[:-1][nxt]}).groupby("hour").size()
        idx = active.index
        return pd.DataFrame(
            {
                "hour": idx.to_numpy(np.int64),
                "n_active": active.to_numpy(np.int64),
                "n_retained": ret.reindex(idx, fill_value=0).to_numpy(np.int64),
            }
        )

    schema = pa.schema(
        [("hour", pa.int64()), ("n_active", pa.int64()), ("n_retained", pa.int64())]
    )
    parts = _sharded_groupby(
        ev.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"],
        agg,
        empty_schema=schema,
    ).to_pandas()
    import pandas as pd

    if not len(parts):
        return pd.DataFrame(
            {
                "hour": pd.Series([], dtype="int64"),
                "n_active": pd.Series([], dtype="int64"),
                "n_retained": pd.Series([], dtype="int64"),
            }
        )
    out = parts.groupby("hour", as_index=False).agg(
        n_active=("n_active", "sum"), n_retained=("n_retained", "sum")
    )
    for c in ("n_active", "n_retained"):
        out[c] = out[c].astype("int64")
    return out


SQL_EVENTS_RETENTION = f"""
WITH uh AS (
    SELECT DISTINCT user_id,
           CAST(epoch_us(ts) // {RETENTION_HOUR_US} AS BIGINT) AS hour
    FROM events
)
SELECT a.hour, count(*)::BIGINT AS n_active,
       sum(CASE WHEN b.user_id IS NOT NULL THEN 1 ELSE 0 END)::BIGINT
           AS n_retained
FROM uh a
LEFT JOIN uh b ON b.user_id = a.user_id AND b.hour = a.hour + 1
GROUP BY 1
"""

QUERIES["events_retention"] = (q_events_retention, SQL_EVENTS_RETENTION)


# --------------------------------------------------------------------------
# DSIR importance weights (Xie et al. 2023): per-doc log importance ratio
# between a target-domain (lang='en') hashed-unigram LM and the raw-corpus
# LM — the importance-resampling data-selection signal.  All per-token
# contributions are exact int64 via the 16-bit probability grid + the
# verified fixed-point log2 table, so the SQL pairing is hash-exact.


def q_dsir_weights(sf_dir: str):
    """See curation.dsir_weights_ds."""
    from .curation import dsir_weights_ds

    return dsir_weights_ds(sf_dir)


def _sql_dsir_weights() -> str:
    from .curation import (
        DSIR_BUCKETS,
        DSIR_MARK,
        DSIR_MARK_EVERY,
        DSIR_MARK_REPEAT,
        DSIR_RGRID,
        DSIR_TARGET_LANG,
        ENTROPY_LOG_SCALE,
    )
    from .sketch_sql import _token_hash_ctes

    D, R, S = DSIR_BUCKETS, DSIR_RGRID, ENTROPY_LOG_SCALE
    return f"""
WITH docs_aug AS (
    SELECT doc_id,
           text || CASE WHEN lang = '{DSIR_TARGET_LANG}'
                             AND doc_id % {DSIR_MARK_EVERY} = 0
                        THEN repeat(' {DSIR_MARK}', {DSIR_MARK_REPEAT})
                        ELSE '' END AS text,
           lang
    FROM documents
),
{_token_hash_ctes(table="docs_aug")},
tb AS (SELECT doc_id, CAST(h % {D} AS BIGINT) AS bucket FROM th),
tgt AS (
    SELECT bucket, count(*)::BIGINT AS c
    FROM tb JOIN documents USING (doc_id)
    WHERE lang = '{DSIR_TARGET_LANG}' GROUP BY 1
),
raw AS (SELECT bucket, count(*)::BIGINT AS c FROM tb GROUP BY 1),
tots AS (
    SELECT (SELECT coalesce(sum(c), 0) FROM tgt)::BIGINT AS tt,
           (SELECT coalesce(sum(c), 0) FROM raw)::BIGINT AS tr
),
grid AS (
    SELECT b.range::BIGINT AS bucket,
           greatest(1, ((coalesce(t.c, 0) + 1)::HUGEINT * {R})
                       // ((SELECT tt FROM tots) + {D}))::BIGINT AS rt,
           greatest(1, ((coalesce(r.c, 0) + 1)::HUGEINT * {R})
                       // ((SELECT tr FROM tots) + {D}))::BIGINT AS rr
    FROM range({D}) b
    LEFT JOIN tgt t ON t.bucket = b.range
    LEFT JOIN raw r ON r.bucket = b.range
),
delta AS (
    SELECT bucket,
           CAST(round(log2(rt::DOUBLE) * {S}) AS BIGINT)
           - CAST(round(log2(rr::DOUBLE) * {S}) AS BIGINT) AS d
    FROM grid
),
scored AS (
    SELECT tb.doc_id, count(*)::BIGINT AS dl, sum(delta.d)::BIGINT AS s
    FROM tb JOIN delta USING (bucket) GROUP BY 1
)
SELECT d.doc_id,
       coalesce(sc.dl, 0)::BIGINT AS n_tokens,
       CASE WHEN sc.dl > 0
            THEN round(sc.s::DOUBLE / (sc.dl * {S})::DOUBLE, 6)
       END AS logratio_bits,
       coalesce(sc.s > 0, FALSE) AS selected
FROM documents d LEFT JOIN scored sc ON sc.doc_id = d.doc_id
"""


QUERIES["dsir_weights"] = (q_dsir_weights, _sql_dsir_weights())


# --------------------------------------------------------------------------
# Winnowing fingerprints (Schleimer et al. 2003): window-min shingle
# selection with rightmost tie-break — the MOSS document-fingerprint
# scheme.  SQL side selects via max() over the packed key
# (M61-1-fp)*2^32 + pos, the identical total order.


def q_winnow_fingerprints(sf_dir: str):
    """See curation.winnow_fingerprints_ds."""
    from .curation import winnow_fingerprints_ds

    return winnow_fingerprints_ds(sf_dir)


def _sql_winnow_fingerprints() -> str:
    from .curation import WINNOW_M61, WINNOW_W
    from .sketch_sql import (
        FNV_PRIME,
        M64,
        MIX_MULT,
        MIX_SHIFT_DIV,
        _token_hash_ctes,
    )

    m61 = WINNOW_M61
    w = WINNOW_W
    p32 = 1 << 32
    return f"""
WITH {_token_hash_ctes()},
thm AS (
    SELECT doc_id, pos,
           (CAST(xor(CAST(h AS UBIGINT), CAST(h // {MIX_SHIFT_DIV} AS UBIGINT))
                 AS HUGEINT) * {MIX_MULT}) % {M64} AS h
    FROM th
),
sh3 AS (
    SELECT a.doc_id, a.pos,
           (((((a.h * {FNV_PRIME}) % {M64} + b.h) % {M64}) * {FNV_PRIME}
             % {M64} + c.h) % {M64}) % {m61} AS fp
    FROM thm a
    JOIN thm b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
    JOIN thm c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2
),
keyed AS (
    SELECT doc_id, pos, fp,
           ({m61} - 1 - fp) * {p32}::HUGEINT + pos AS key,
           count(*) OVER (PARTITION BY doc_id) AS n
    FROM sh3
),
wins AS (
    SELECT doc_id, pos, n,
           max(key) OVER (PARTITION BY doc_id ORDER BY pos
                          ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING)
               AS wkey
    FROM keyed
)
SELECT DISTINCT doc_id,
       CAST(wkey % {p32} AS BIGINT) AS pos,
       CAST(({m61} - 1) - (wkey // {p32}) AS BIGINT) AS fp
FROM wins WHERE pos <= n - {w} + 1
"""


QUERIES["winnow_fingerprints"] = (
    q_winnow_fingerprints,
    _sql_winnow_fingerprints(),
)


# --------------------------------------------------------------------------
# BPE merge training (Sennrich et al. 2016): the first M learned merges.
# The SQL oracle unrolls the merge recurrence as chained CTEs — possible
# because every quantity is an integer and DuckDB replace() has the same
# left-to-right non-overlapping semantics as Python str.replace.


def q_bpe_merges(sf_dir: str):
    """See curation.bpe_merges_df."""
    from .curation import bpe_merges_df

    return bpe_merges_df(sf_dir)


def _sql_bpe_merges() -> str:
    from .curation import BPE_MAX_WORDS, BPE_MERGES

    parts = [
        f"""WITH {_SQL_TOKS_LIST},
words AS (
    SELECT term AS w, count(*)::BIGINT AS c
    FROM (SELECT unnest(toks) AS term FROM filt)
    GROUP BY 1 ORDER BY c DESC, w LIMIT {BPE_MAX_WORDS}
),
w1 AS MATERIALIZED (
    SELECT ' ' || array_to_string(
               [substr(w, x, 1) FOR x IN range(1, length(w) + 1)], ' ')
           || ' ' AS word,
           c AS freq
    FROM words
)"""
    ]
    for i in range(1, BPE_MERGES + 1):
        a, b = f"(SELECT a FROM best{i})", f"(SELECT b FROM best{i})"
        parts.append(f""",
x{i} AS MATERIALIZED (
    SELECT word, freq, unnest(syms) AS s,
           unnest(range(1, len(syms) + 1)) AS j
    FROM (SELECT word, freq, string_split(trim(word), ' ') AS syms FROM w{i})
),
p{i} AS (
    SELECT a.s AS a, b.s AS b, sum(a.freq)::BIGINT AS c
    FROM x{i} a JOIN x{i} b ON b.word = a.word AND b.j = a.j + 1
    GROUP BY 1, 2
),
best{i} AS MATERIALIZED (SELECT a, b, c FROM p{i} ORDER BY c DESC, a, b LIMIT 1),
w{i + 1} AS MATERIALIZED (
    SELECT replace(word,
                   coalesce(' ' || {a} || ' ' || {b} || ' ', chr(2)),
                   coalesce(' ' || {a} || {b} || ' ', chr(3))) AS word,
           sum(freq)::BIGINT AS freq
    FROM w{i} GROUP BY 1
)""")
    sel = "\nUNION ALL\n".join(
        f"SELECT {i}::BIGINT AS rank, a AS lhs, b AS rhs, c AS pair_count "
        f"FROM best{i}"
        for i in range(1, BPE_MERGES + 1)
    )
    return "".join(parts) + "\n" + sel


QUERIES["bpe_merges"] = (q_bpe_merges, _sql_bpe_merges())


# --------------------------------------------------------------------------
# n-gram novelty (first-occurrence attribution of duplicated shingles)


def q_ngram_novelty(sf_dir: str):
    """See curation.ngram_novelty_ds."""
    from .curation import ngram_novelty_ds

    return ngram_novelty_ds(sf_dir)


def _sql_ngram_novelty() -> str:
    from .curation import (
        NOVELTY_WINDOW,
        SUBSTR_CLONE_EVERY,
        SUBSTR_CLONE_OFFSET,
    )

    w = NOVELTY_WINDOW
    return f"""
WITH aug AS (
    SELECT doc_id, text FROM documents
    UNION ALL
    SELECT doc_id + {SUBSTR_CLONE_OFFSET}, text FROM documents
    WHERE doc_id % {SUBSTR_CLONE_EVERY} = 0
),
filt AS (
    SELECT doc_id,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM aug
),
win AS (
    SELECT DISTINCT doc_id,
           unnest(list_transform(range(1, len(toks) - {w - 2}),
                                 j -> array_to_string(toks[j:j + {w - 1}], ' ')))
               AS sh
    FROM filt
    WHERE len(toks) >= {w}
),
firsts AS (SELECT sh, min(doc_id) AS d0 FROM win GROUP BY sh),
nov AS (SELECT d0 AS doc_id, count(*)::BIGINT AS n_novel FROM firsts GROUP BY 1),
dist AS (SELECT doc_id, count(*)::BIGINT AS n_distinct FROM win GROUP BY 1)
SELECT a.doc_id,
       coalesce(d.n_distinct, 0)::BIGINT AS n_distinct,
       coalesce(n.n_novel, 0)::BIGINT AS n_novel,
       round(coalesce(n.n_novel, 0)
             / greatest(coalesce(d.n_distinct, 0), 1)::DOUBLE, 6)
           AS novelty_frac
FROM aug a
LEFT JOIN dist d ON a.doc_id = d.doc_id
LEFT JOIN nov n ON a.doc_id = n.doc_id
"""


QUERIES["ngram_novelty"] = (q_ngram_novelty, _sql_ngram_novelty())


# --------------------------------------------------------------------------
# Mann-Whitney AUC of the token-count signal vs the lang label


def q_auc_signal(sf_dir: str):
    """See curation.auc_signal_df."""
    from .curation import auc_signal_df

    return auc_signal_df(sf_dir)


def _sql_auc_signal() -> str:
    from .curation import AUC_POS_LANG

    return f"""
WITH filt AS (
    SELECT doc_id,
           len(list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                           x -> len(x) <= 15)) AS score,
           (lang = '{AUC_POS_LANG}')::BIGINT AS pos
    FROM documents
),
s AS (
    SELECT score,
           sum(pos)::BIGINT AS p,
           (count(*) - sum(pos))::BIGINT AS n
    FROM filt GROUP BY 1
),
cum AS (
    SELECT score, p, n,
           coalesce(sum(n) OVER (ORDER BY score
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS nb
    FROM s
)
SELECT sum(p)::BIGINT AS n_pos,
       sum(n)::BIGINT AS n_neg,
       (2 * sum(p * nb) + sum(p * n))::BIGINT AS u2,
       round((2 * sum(p * nb) + sum(p * n))
             / greatest(2 * sum(p) * sum(n), 1)::DOUBLE, 6) AS auc
FROM cum
"""


QUERIES["auc_signal"] = (q_auc_signal, _sql_auc_signal())


# --------------------------------------------------------------------------
# Zipf rank-frequency slope over the top vocabulary


def q_zipf_slope(sf_dir: str):
    """See curation.zipf_slope_df."""
    from .curation import zipf_slope_df

    return zipf_slope_df(sf_dir)


def _sql_zipf_slope() -> str:
    from .curation import ZIPF_VOCAB

    return f"""
WITH {_SQL_TOKS_LIST},
words AS (
    SELECT term, count(*)::BIGINT AS c
    FROM (SELECT unnest(toks) AS term FROM filt)
    GROUP BY 1 ORDER BY c DESC, term LIMIT {ZIPF_VOCAB}
),
rk AS (
    SELECT c, row_number() OVER (ORDER BY c DESC, term) AS r
    FROM words
),
fp AS (
    SELECT CAST(round(log2(r >> sr) * 1000000000) AS HUGEINT)
               + sr::HUGEINT * 1000000000 AS x,
           CAST(round(log2(c >> sc) * 1000000000) AS HUGEINT)
               + sc::HUGEINT * 1000000000 AS y
    FROM (SELECT r, c,
                 greatest(length(bin(r))::BIGINT - 16, 0) AS sr,
                 greatest(length(bin(c))::BIGINT - 16, 0) AS sc
          FROM rk)
),
m AS (
    SELECT count(*)::HUGEINT AS n, sum(x) AS sx, sum(y) AS sy,
           sum(x*x) AS sxx, sum(y*y) AS syy, sum(x*y) AS sxy
    FROM fp
)
SELECT CAST(n AS BIGINT) AS n_terms,
       CASE WHEN n < 2 OR (n*sxx - sx*sx) = 0 THEN 0.0
            ELSE round(CAST(n*sxy - sx*sy AS DOUBLE)
                       / CAST(n*sxx - sx*sx AS DOUBLE), 6)
       END AS slope,
       CASE WHEN n < 2 OR (n*sxx - sx*sx) = 0 OR (n*syy - sy*sy) = 0 THEN 0.0
            ELSE round((CAST(n*sxy - sx*sy AS DOUBLE)
                        * CAST(n*sxy - sx*sy AS DOUBLE))
                       / (CAST(n*sxx - sx*sx AS DOUBLE)
                          * CAST(n*syy - sy*sy AS DOUBLE)), 6)
       END AS r2
FROM m
"""


QUERIES["zipf_slope"] = (q_zipf_slope, _sql_zipf_slope())


# --------------------------------------------------------------------------
# impact-ordered postings (quantized BM25 impact precompute)


def q_impact_postings(sf_dir: str):
    """See curation.impact_postings_ds."""
    from .curation import impact_postings_ds

    return impact_postings_ds(sf_dir)


def _sql_impact_postings() -> str:
    from .curation import IMPACT_SCALE

    return f"""
WITH {_SQL_TOKS_LIST},
tok AS (SELECT doc_id, unnest(toks) AS term FROM filt),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM tok GROUP BY 1, 2),
dl AS (SELECT doc_id, sum(tf)::BIGINT AS dl FROM tf GROUP BY 1),
g AS (
    SELECT greatest(count(*), 1)::BIGINT AS n,
           coalesce(sum(dl), 0)::BIGINT AS sumdl
    FROM (SELECT doc_id FROM documents) d
    LEFT JOIN dl USING (doc_id)
),
lf AS (
    SELECT n, sumdl,
           CAST(round(log2(n >> sn) * 1000000000) AS HUGEINT)
               + sn::HUGEINT * 1000000000 AS ln_fp
    FROM (SELECT *, greatest(length(bin(n))::BIGINT - 16, 0) AS sn FROM g)
),
dfc AS (
    SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1
),
dff AS (
    SELECT term, df,
           CAST(round(log2(df >> sd) * 1000000000) AS HUGEINT)
               + sd::HUGEINT * 1000000000 AS ldf_fp
    FROM (SELECT *, greatest(length(bin(df))::BIGINT - 16, 0) AS sd FROM dfc)
),
imp AS (
    SELECT tf.term, tf.doc_id, tf.tf, dff.df,
           ((lf.ln_fp - dff.ldf_fp) // 1000000)
               * (22::HUGEINT * tf.tf * lf.sumdl)
               // greatest(10::HUGEINT * tf.tf * lf.sumdl
                           + 3::HUGEINT * lf.sumdl
                           + 9::HUGEINT * dl.dl * lf.n, 1) AS impact_h
    FROM tf
    JOIN dl USING (doc_id)
    JOIN dff USING (term)
    CROSS JOIN lf
)
SELECT term, doc_id, tf, df,
       CAST(impact_h AS BIGINT) AS impact_fp,
       round(CAST(impact_h AS BIGINT) / {IMPACT_SCALE}.0, 6) AS impact
FROM imp
"""


QUERIES["impact_postings"] = (q_impact_postings, _sql_impact_postings())


# --------------------------------------------------------------------------
# static index pruning (Carmel et al., SIGIR 2001): keep only the top
# ceil(df/2) postings of each query term's list by (impact desc, doc asc)
# and rank on the pruned lists — the classic serve-from-a-smaller-index
# trade.  Entirely integer: the impact is impact_postings' fixed-point
# BM25, the prune rank and the doc-level sum are int64, so both engines
# agree bit-for-bit.

PRUNE_TOP_K = 10


def q_static_prune_rank(sf_dir: str):
    """Top-``PRUNE_TOP_K`` docs by summed pruned impact (columns
    ``rank, doc_id, sum_impact``; order sum desc, doc asc).

    Shape: impact_postings' one term-sharded exchange, a bounded
    3-term filter, per-term prune (query terms are a bounded set, so
    the Ray groupby is over <= |query| keys), then a doc-hash-sharded
    sum with per-shard partial top-k — only shard winners reach the
    driver."""
    import pandas as pd

    from .curation import impact_postings_ds
    from .dedup import _sharded_groupby

    posts = impact_postings_ds(sf_dir)
    qset = pa.array(list(BM25_QUERY_TERMS), pa.string())

    def filt(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["term"], value_set=qset))

    qp = posts.map_batches(filt, batch_format="pyarrow")

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["impact_fp", "doc_id"], ascending=[False, True], kind="mergesort"
        )
        keep = np.arange(len(g)) < (int(g["df"].iloc[0]) + 1) // 2
        return g.loc[keep, ["doc_id", "impact_fp"]]

    pruned = qp.groupby("term").map_groups(prune, batch_format="pandas")

    def shard_sum(g: pd.DataFrame) -> pd.DataFrame:
        s = (
            g.groupby("doc_id")["impact_fp"].sum().reset_index()
            .rename(columns={"impact_fp": "sum_impact"})
        )
        return s.sort_values(
            ["sum_impact", "doc_id"], ascending=[False, True]
        ).head(PRUNE_TOP_K)

    parts = _sharded_groupby(pruned, ["doc_id"], shard_sum).to_pandas()
    cols = ["rank", "doc_id", "sum_impact"]
    if not len(parts):
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in cols})
    top = (
        parts.sort_values(["sum_impact", "doc_id"], ascending=[False, True])
        .head(PRUNE_TOP_K)
        .reset_index(drop=True)
    )
    top.insert(0, "rank", np.arange(1, len(top) + 1, dtype=np.int64))
    return top[cols].astype("int64")


def _sql_static_prune_rank() -> str:
    terms = ", ".join(f"'{t}'" for t in BM25_QUERY_TERMS)
    return f"""
WITH posts AS MATERIALIZED ({_sql_impact_postings()}),
qp AS (SELECT * FROM posts WHERE term IN ({terms})),
pruned AS (
    SELECT doc_id, impact_fp FROM (
        SELECT *, row_number() OVER (
            PARTITION BY term ORDER BY impact_fp DESC, doc_id) AS rn
        FROM qp
    ) WHERE rn <= (df + 1) // 2
),
sums AS (
    SELECT doc_id, sum(impact_fp)::BIGINT AS sum_impact
    FROM pruned GROUP BY 1
)
SELECT rank, doc_id, sum_impact FROM (
    SELECT row_number() OVER (
        ORDER BY sum_impact DESC, doc_id)::BIGINT AS rank,
        doc_id, sum_impact
    FROM sums
) WHERE rank <= {PRUNE_TOP_K}
"""


QUERIES["static_prune_rank"] = (q_static_prune_rank, _sql_static_prune_rank())


# --------------------------------------------------------------------------
# BPE apply: vocabulary segmentation fertility under the learned merges


def q_bpe_apply(sf_dir: str):
    """See curation.bpe_apply_df."""
    from .curation import bpe_apply_df

    return bpe_apply_df(sf_dir)


def _sql_bpe_apply() -> str:
    from .curation import BPE_MAX_WORDS, BPE_MERGES

    parts = [
        f"""WITH {_SQL_TOKS_LIST},
words AS MATERIALIZED (
    SELECT term AS w, count(*)::BIGINT AS c
    FROM (SELECT unnest(toks) AS term FROM filt)
    GROUP BY 1 ORDER BY c DESC, w LIMIT {BPE_MAX_WORDS}
),
w1 AS MATERIALIZED (
    SELECT ' ' || array_to_string(
               [substr(w, x, 1) FOR x IN range(1, length(w) + 1)], ' ')
           || ' ' AS word,
           sum(c)::BIGINT AS freq
    FROM words GROUP BY 1
),
z1 AS MATERIALIZED (
    SELECT w AS term, c AS freq,
           ' ' || array_to_string(
               [substr(w, x, 1) FOR x IN range(1, length(w) + 1)], ' ')
           || ' ' AS sp
    FROM words
)"""
    ]
    for i in range(1, BPE_MERGES + 1):
        a, b = f"(SELECT a FROM best{i})", f"(SELECT b FROM best{i})"
        pat = f"coalesce(' ' || {a} || ' ' || {b} || ' ', chr(2))"
        rep = f"coalesce(' ' || {a} || {b} || ' ', chr(3))"
        parts.append(f""",
x{i} AS MATERIALIZED (
    SELECT word, freq, unnest(syms) AS s,
           unnest(range(1, len(syms) + 1)) AS j
    FROM (SELECT word, freq, string_split(trim(word), ' ') AS syms FROM w{i})
),
p{i} AS (
    SELECT a.s AS a, b.s AS b, sum(a.freq)::BIGINT AS c
    FROM x{i} a JOIN x{i} b ON b.word = a.word AND b.j = a.j + 1
    GROUP BY 1, 2
),
best{i} AS MATERIALIZED (SELECT a, b, c FROM p{i} ORDER BY c DESC, a, b LIMIT 1),
w{i + 1} AS MATERIALIZED (
    SELECT replace(word, {pat}, {rep}) AS word,
           sum(freq)::BIGINT AS freq
    FROM w{i} GROUP BY 1
),
z{i + 1} AS MATERIALIZED (
    SELECT term, freq, replace(sp, {pat}, {rep}) AS sp FROM z{i}
)""")
    parts.append(f"""
SELECT term, freq,
       len(string_split(trim(sp), ' '))::BIGINT AS n_tokens
FROM z{BPE_MERGES + 1}""")
    return "".join(parts)


QUERIES["bpe_apply"] = (q_bpe_apply, _sql_bpe_apply())


# --------------------------------------------------------------------------
# time-decayed user activity score: exponential half-life-per-day decay
# kept EXACTLY integer (contribution = DECAY_UNIT >> age_days, capped),
# so the per-user sum is order-independent on both engines — the shape
# every "recency-weighted engagement" feature pipeline needs, without
# the float-pow nondeterminism.

DECAY_UNIT = 1_000_000
DECAY_MAX_SHIFT = 62
_US_PER_DAY = 86_400_000_000


def q_decayed_user_score(sf_dir: str):
    """Per-user recency-decayed activity: each event contributes
    ``DECAY_UNIT >> min(age_days, 62)`` where ``age_days`` is the
    calendar-day difference to the corpus max timestamp (DuckDB
    ``date_diff('day', ...)`` == epoch-day subtraction for UTC us
    timestamps).  Columns: ``user_id, n_events, score``.

    Shape: one max-ts scalar pass, per-batch vectorized shift + partial
    per-user sums, one user-sharded exchange."""
    import pandas as pd

    from .dedup import _sharded_groupby

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["ts", "user_id"])

    mx = ds.max("ts")
    if mx is None:
        return pd.DataFrame(
            {"user_id": pd.Series([], dtype="int64"),
             "n_events": pd.Series([], dtype="int64"),
             "score": pd.Series([], dtype="int64")}
        )
    import datetime as _dt

    if isinstance(mx, _dt.datetime):
        max_us = int(mx.replace(tzinfo=_dt.timezone.utc).timestamp() * 1e6) \
            if mx.tzinfo is None else int(mx.timestamp() * 1e6)
    else:
        max_us = int(mx)
    max_day = max_us // _US_PER_DAY

    def partial(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = us // _US_PER_DAY
        age = np.minimum(max_day - day, DECAY_MAX_SHIFT).astype(np.int64)
        contrib = np.int64(DECAY_UNIT) >> age
        df = pd.DataFrame(
            {"user_id": batch["user_id"].to_numpy(zero_copy_only=False),
             "n_events": np.int64(1), "score": contrib}
        )
        g = df.groupby("user_id", as_index=False).sum()
        return pa.Table.from_pandas(
            g.astype({"user_id": "int64", "n_events": "int64",
                      "score": "int64"}),
            preserve_index=False,
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("user_id", as_index=False).sum()
        return out.astype(
            {"user_id": "int64", "n_events": "int64", "score": "int64"}
        )

    out_schema = pa.schema(
        [("user_id", pa.int64()), ("n_events", pa.int64()),
         ("score", pa.int64())]
    )
    return _sharded_groupby(parts, ["user_id"], merge, empty_schema=out_schema)


def _sql_decayed_user_score() -> str:
    return f"""
WITH mx AS (
    SELECT (epoch_us(max(ts)) // {_US_PER_DAY}) AS max_day FROM events
)
SELECT user_id,
       count(*)::BIGINT AS n_events,
       sum({DECAY_UNIT} >> least(mx.max_day - epoch_us(ts) // {_US_PER_DAY},
                                 {DECAY_MAX_SHIFT}))::BIGINT AS score
FROM events CROSS JOIN mx
GROUP BY user_id
"""


QUERIES["decayed_user_score"] = (q_decayed_user_score, _sql_decayed_user_score())


# --------------------------------------------------------------------------
# kNN classifier eval: leave-one-out majority vote over quantized
# embeddings for a bounded eval subset.  The scalable shape is
# broadcast-the-EVAL-set / stream-the-neighbors: the eval rows (a fixed
# prefix of vec_ids) ship once via ray.put, every embeddings batch
# computes exact integer squared distances against them and emits a
# per-batch partial top-(K+1) per eval vector — <= |eval|*(K+1) rows per
# batch to a bounded driver merge.  All distances/votes are integers
# (round(x*1024) grid, same as coreset_sample) so both engines agree.

KNN_CLS_EVAL_N = 64  # eval subset: vec_id < 64
KNN_CLS_K = 5


def q_knn_classify(sf_dir: str):
    """Per-eval-vector kNN prediction: columns ``vec_id, true_label,
    pred_label, correct`` (neighbor order (d2 asc, vec_id asc), self
    excluded; vote ties break to the smallest label)."""
    import pandas as pd

    from ..functions.rounding import round_half_away as _rha

    path = os.path.join(sf_dir, "embeddings.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["vec_id", "embedding", "label"])
    ev = ds.filter(expr=f"vec_id < {KNN_CLS_EVAL_N}").take_all()
    cols = ["vec_id", "true_label", "pred_label", "correct"]
    if not ev:
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in cols})
    ev.sort(key=lambda r: int(r["vec_id"]))
    eids = np.array([int(r["vec_id"]) for r in ev], np.int64)
    elab = np.array([int(r["label"]) for r in ev], np.int64)
    eq = _rha(
        np.stack([np.asarray(r["embedding"], np.float64) for r in ev])
        * CORESET_GRID,
        0,
    )
    eref = ray.put(eq)
    k1 = KNN_CLS_K + 1  # keep one extra slot: self may be among the k+1

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"eval_id": pa.array([], pa.int64()),
             "nbr_id": pa.array([], pa.int64()),
             "nbr_label": pa.array([], pa.int64()),
             "d2": pa.array([], pa.int64())}
        )
        if batch.num_rows == 0:
            return empty
        ids, q = _quant_embeddings(batch)
        lab = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        e = ray.get(eref)
        # exact in float64: |xq| <= ~2^11, d <= 2^10 keeps every product
        # and sum far below 2^53
        cross = e @ q.T
        d2 = (
            (e * e).sum(axis=1)[:, None]
            + (q * q).sum(axis=1)[None, :]
            - 2.0 * cross
        ).astype(np.int64)
        take = min(k1, d2.shape[1])
        # per eval row: top-take under (d2 asc, vec_id asc)
        # loud domain guard (not assert: stripped under -O, silently
        # corrupting neighbor tie-breaks — round-4 ADVICE item 3)
        if ids.max() >= (1 << 24) or d2.max() >= (1 << 38):
            raise ValueError(
                "knn_classify key composition overflow: needs vec_id < 2^24 "
                f"and squared distance < 2^38, got max id {int(ids.max())}, "
                f"max d2 {int(d2.max())}"
            )
        key = d2 * np.int64(1 << 24) + ids[None, :]
        part = np.argpartition(key, take - 1, axis=1)[:, :take]
        rows_e, rows_n, rows_l, rows_d = [], [], [], []
        for i in range(len(eids)):
            sel = part[i]
            rows_e.append(np.full(take, eids[i], np.int64))
            rows_n.append(ids[sel])
            rows_l.append(lab[sel])
            rows_d.append(d2[i, sel])
        return pa.table(
            {"eval_id": pa.array(np.concatenate(rows_e), pa.int64()),
             "nbr_id": pa.array(np.concatenate(rows_n), pa.int64()),
             "nbr_label": pa.array(np.concatenate(rows_l), pa.int64()),
             "d2": pa.array(np.concatenate(rows_d), pa.int64())}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = []
    for i, eid in enumerate(eids):
        g = parts[(parts["eval_id"] == eid) & (parts["nbr_id"] != eid)]
        g = g.sort_values(["d2", "nbr_id"]).head(KNN_CLS_K)
        votes = (
            g.groupby("nbr_label").size().reset_index(name="cnt")
            .sort_values(["cnt", "nbr_label"], ascending=[False, True])
        )
        pred = int(votes["nbr_label"].iloc[0])
        out.append(
            {"vec_id": int(eid), "true_label": int(elab[i]),
             "pred_label": pred, "correct": int(pred == elab[i])}
        )
    return pd.DataFrame(out, columns=cols).astype("int64")


def q_knn_outliers(sf_dir: str):
    """kNN-distance anomaly scores (Ramaswamy et al. 2000): for each
    eval vector, the exact integer squared distance to its
    ``KNN_CLS_K``-th nearest neighbor (self excluded) — the classic
    density-based outlier signal for embedding-space data curation.
    Same broadcast-eval / stream-neighbors shape as ``knn_classify``.
    Columns ``vec_id, d2_k`` (int64)."""
    import pandas as pd

    from ..functions.rounding import round_half_away as _rha

    path = os.path.join(sf_dir, "embeddings.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["vec_id", "embedding", "label"])
    ev = ds.filter(expr=f"vec_id < {KNN_CLS_EVAL_N}").take_all()
    cols = ["vec_id", "d2_k"]
    if not ev:
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in cols})
    ev.sort(key=lambda r: int(r["vec_id"]))
    eids = np.array([int(r["vec_id"]) for r in ev], np.int64)
    eq = _rha(
        np.stack([np.asarray(r["embedding"], np.float64) for r in ev])
        * CORESET_GRID,
        0,
    )
    eref = ray.put(eq)
    k1 = KNN_CLS_K + 1

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table({"eval_id": pa.array([], pa.int64()),
                          "nbr_id": pa.array([], pa.int64()),
                          "d2": pa.array([], pa.int64())})
        if batch.num_rows == 0:
            return empty
        ids, q = _quant_embeddings(batch)
        e = ray.get(eref)
        cross = e @ q.T
        d2 = (
            (e * e).sum(axis=1)[:, None]
            + (q * q).sum(axis=1)[None, :]
            - 2.0 * cross
        ).astype(np.int64)
        take = min(k1, d2.shape[1])
        part = np.argpartition(d2, take - 1, axis=1)[:, :take]
        rows_e, rows_n, rows_d = [], [], []
        for i in range(len(eids)):
            sel = part[i]
            rows_e.append(np.full(take, eids[i], np.int64))
            rows_n.append(ids[sel])
            rows_d.append(d2[i, sel])
        return pa.table(
            {"eval_id": pa.array(np.concatenate(rows_e), pa.int64()),
             "nbr_id": pa.array(np.concatenate(rows_n), pa.int64()),
             "d2": pa.array(np.concatenate(rows_d), pa.int64())}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = []
    for eid in eids:
        g = parts[(parts["eval_id"] == eid) & (parts["nbr_id"] != eid)]
        g = g.sort_values(["d2", "nbr_id"]).head(KNN_CLS_K)
        if len(g) == KNN_CLS_K:
            out.append({"vec_id": int(eid), "d2_k": int(g["d2"].iloc[-1])})
    return pd.DataFrame(out, columns=cols).astype("int64")


def _sql_knn_outliers() -> str:
    g = CORESET_GRID
    return f"""
WITH e AS MATERIALIZED (
    SELECT vec_id,
           generate_subscripts(CAST(embedding AS DOUBLE[]), 1) AS dim,
           CAST(round(unnest(CAST(embedding AS DOUBLE[])) * {g}) AS BIGINT)
               AS xq
    FROM embeddings
),
d2 AS (
    SELECT a.vec_id AS ia, b.vec_id AS ib,
           sum((a.xq - b.xq) * (a.xq - b.xq))::BIGINT AS d2
    FROM e a JOIN e b USING (dim)
    WHERE a.vec_id < {KNN_CLS_EVAL_N} AND b.vec_id <> a.vec_id
    GROUP BY 1, 2
),
nn AS (
    SELECT ia, d2,
           row_number() OVER (PARTITION BY ia ORDER BY d2, ib) AS rn,
           count(*) OVER (PARTITION BY ia) AS n_nbrs
    FROM d2
)
SELECT ia AS vec_id, d2 AS d2_k
FROM nn WHERE rn = {KNN_CLS_K} AND n_nbrs >= {KNN_CLS_K}
"""


def _sql_knn_classify() -> str:
    g = CORESET_GRID
    return f"""
WITH e AS MATERIALIZED (
    SELECT vec_id, label::BIGINT AS label,
           generate_subscripts(CAST(embedding AS DOUBLE[]), 1) AS dim,
           CAST(round(unnest(CAST(embedding AS DOUBLE[])) * {g}) AS BIGINT)
               AS xq
    FROM embeddings
),
d2 AS (
    SELECT a.vec_id AS ia, b.vec_id AS ib,
           sum((a.xq - b.xq) * (a.xq - b.xq))::BIGINT AS d2
    FROM e a JOIN e b USING (dim)
    WHERE a.vec_id < {KNN_CLS_EVAL_N} AND b.vec_id <> a.vec_id
    GROUP BY 1, 2
),
nn AS (
    SELECT ia, ib, d2,
           row_number() OVER (PARTITION BY ia ORDER BY d2, ib) AS rn
    FROM d2
),
lab AS (SELECT DISTINCT vec_id, label FROM e),
votes AS (
    SELECT nn.ia, l.label, count(*)::BIGINT AS cnt
    FROM nn JOIN lab l ON l.vec_id = nn.ib
    WHERE nn.rn <= {KNN_CLS_K}
    GROUP BY 1, 2
),
pred AS (
    SELECT ia AS vec_id, label AS pred_label,
           row_number() OVER (PARTITION BY ia ORDER BY cnt DESC, label) AS rp
    FROM votes
)
SELECT t.vec_id, t.label AS true_label, p.pred_label,
       (t.label = p.pred_label)::BIGINT AS correct
FROM lab t JOIN pred p USING (vec_id)
WHERE p.rp = 1 AND t.vec_id < {KNN_CLS_EVAL_N}
"""


# --------------------------------------------------------------------------
# coreset sampling: exact farthest-first traversal (Gonzalez k-center)
# over the embeddings, on integer-quantized coordinates so every
# distance — and therefore the argmax — is exact on both engines.

CORESET_K = 8
CORESET_GRID = 1024  # power of 2: x*1024 is an EXACT double scaling

QUERIES["knn_classify"] = (q_knn_classify, _sql_knn_classify())
QUERIES["knn_outliers"] = (q_knn_outliers, _sql_knn_outliers())


def _quant_embeddings(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    from ..functions.rounding import round_half_away as _rha

    emb = batch["embedding"].combine_chunks()
    mat = np.asarray(emb.values.to_numpy(zero_copy_only=False), np.float64)
    mat = mat.reshape(len(batch), -1)
    q = _rha(mat * CORESET_GRID, 0).astype(np.int64)
    ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    return ids, q


def q_coreset_sample(sf_dir: str):
    """Farthest-first traversal: seed = min vec_id, then K-1 rounds of
    "the point maximizing its min quantized-L2 distance to the chosen
    set" (ties: vec_id asc).  Columns: ``rank, vec_id, d2`` (d2 = exact
    integer squared distance to the nearest earlier center; 0 for the
    seed).  The 2-approximation guarantee of Gonzalez (1985) carries
    over unchanged — quantization only redefines the metric, identically
    on both engines.

    Shape: K passes, each a broadcast of the <=K chosen centers
    (``ray.put`` once per round) and a per-batch vectorized argmax that
    emits ONE candidate row per batch — driver reduce is O(K * n_batches).
    The declared cost of exact k-center is the K scans; the sampled /
    composable alternative at 10^12 vectors is seeding via ann_lsh
    bucket representatives, same per-round shape."""
    import pandas as pd

    path = os.path.join(sf_dir, "embeddings.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["vec_id", "embedding"])
    seed_id = ds.min("vec_id")
    if seed_id is None:
        return pd.DataFrame(
            {"rank": pd.Series([], dtype="int64"),
             "vec_id": pd.Series([], dtype="int64"),
             "d2": pd.Series([], dtype="int64")}
        )
    seed_id = int(seed_id)
    srow = ds.filter(expr=f"vec_id == {seed_id}").take(1)[0]
    from ..functions.rounding import round_half_away as _rha

    seed_q = _rha(
        np.asarray(srow["embedding"], np.float64) * CORESET_GRID, 0
    ).astype(np.int64)
    center_ids = [seed_id]
    center_q = [seed_q]
    rows = [(1, seed_id, 0)]
    for it in range(2, CORESET_K + 1):
        cref = ray.put(np.stack(center_q))
        cids = np.array(center_ids, np.int64)

        def best(batch: pa.Table, cref=cref, cids=cids) -> pa.Table:
            empty = pa.table(
                {"vec_id": pa.array([], pa.int64()),
                 "d2": pa.array([], pa.int64()),
                 "q": pa.array([], pa.list_(pa.int64()))}
            )
            if batch.num_rows == 0:
                return empty
            ids, q = _quant_embeddings(batch)
            keep = ~np.isin(ids, cids)
            if not keep.any():
                return empty
            ids, q = ids[keep], q[keep]
            C = ray.get(cref)
            diff = q[:, None, :] - C[None, :, :]
            mind = np.einsum("nkd,nkd->nk", diff, diff).min(axis=1)
            i = np.lexsort((ids, -mind))[0]
            return pa.table(
                {"vec_id": pa.array([int(ids[i])], pa.int64()),
                 "d2": pa.array([int(mind[i])], pa.int64()),
                 "q": pa.array([q[i].tolist()], pa.list_(pa.int64()))}
            )

        cand = ds.map_batches(best, batch_format="pyarrow").to_pandas()
        if not len(cand):
            break
        cand = cand.sort_values(["d2", "vec_id"],
                                ascending=[False, True]).iloc[0]
        center_ids.append(int(cand["vec_id"]))
        center_q.append(np.asarray(list(cand["q"]), np.int64))
        rows.append((it, int(cand["vec_id"]), int(cand["d2"])))
    return pd.DataFrame(rows, columns=["rank", "vec_id", "d2"]).astype(
        {"rank": "int64", "vec_id": "int64", "d2": "int64"}
    )


def _sql_coreset_sample() -> str:
    g = CORESET_GRID
    d2 = ("list_sum(list_transform(range(1, len(e.q) + 1), "
          "j -> (e.q[j] - c.q[j]) * (e.q[j] - c.q[j])))")
    parts = [f"""
WITH e AS MATERIALIZED (
    SELECT vec_id,
           [CAST(round(x * {g}) AS BIGINT) FOR x IN CAST(embedding AS DOUBLE[])]
               AS q
    FROM embeddings
),
c1 AS MATERIALIZED (SELECT vec_id, q FROM e ORDER BY vec_id LIMIT 1),
cc1 AS MATERIALIZED (SELECT vec_id, q FROM c1)"""]
    for i in range(1, CORESET_K):
        parts.append(f""",
d{i} AS MATERIALIZED (
    SELECT e.vec_id, min({d2}) AS mind
    FROM e CROSS JOIN cc{i} c
    WHERE e.vec_id NOT IN (SELECT vec_id FROM cc{i})
    GROUP BY e.vec_id
),
c{i + 1} AS MATERIALIZED (
    SELECT d.vec_id, e.q, d.mind
    FROM d{i} d JOIN e ON d.vec_id = e.vec_id
    ORDER BY d.mind DESC, d.vec_id LIMIT 1
),
cc{i + 1} AS MATERIALIZED (
    SELECT vec_id, q FROM cc{i}
    UNION ALL SELECT vec_id, q FROM c{i + 1}
)""")
    sel = ["SELECT 1::BIGINT AS rank, vec_id, 0::BIGINT AS d2 FROM c1"]
    sel += [
        f"SELECT {i + 1}::BIGINT AS rank, vec_id, mind::BIGINT AS d2 FROM c{i + 1}"
        for i in range(1, CORESET_K)
    ]
    return "".join(parts) + "\n" + "\nUNION ALL\n".join(sel)


QUERIES["coreset_sample"] = (q_coreset_sample, _sql_coreset_sample())


# --------------------------------------------------------------------------
# per-label embedding diversity: mean pairwise squared distance WITHOUT
# pairs — the moment identity sum_{i<j}|qi-qj|^2 = n*sum|q|^2 - |sum q|^2
# turns an O(n^2) statistic into two distributed integer sums.


def q_label_diversity(sf_dir: str):
    """Columns: ``label, n_vecs, mean_d2`` — the intra-class diversity
    diagnostic (collapsed/duplicated classes show tiny mean_d2).
    Coordinates quantized exactly as coreset_sample (round(x*1024), an
    exact double scaling), so all moments are exact integers; the mean
    is the only float, rounded identically on both engines.

    Shape: per-batch label-grouped partials (n, per-dim sums, sum of
    squares — |labels| x (d+1) rows per task), driver combine in Python
    ints (no overflow at any scale; the SQL mirror is HUGEINT)."""
    import pandas as pd

    path = os.path.join(sf_dir, "embeddings.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["vec_id", "label", "embedding"])

    def partial(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {"label": pa.array([], pa.int64()),
             "dim": pa.array([], pa.int64()),
             "v": pa.array([], pa.int64()),
             "n": pa.array([], pa.int64())}
        )
        if b.num_rows == 0:
            return empty
        _ids, q = _quant_embeddings(b)
        d = q.shape[1]
        labels = b["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(labels, kind="stable")
        ul, starts = np.unique(labels[order], return_index=True)
        qsum = np.add.reduceat(q[order], starts, axis=0)
        ss = np.add.reduceat((q * q).sum(axis=1)[order], starts)
        n = np.diff(np.append(starts, len(labels))).astype(np.int64)
        nl = len(ul)
        # dim rows carry per-dim sums; the dim=0 row carries (ss, n)
        return pa.table(
            {
                "label": pa.array(
                    np.concatenate([np.repeat(ul, d), ul]), pa.int64()),
                "dim": pa.array(
                    np.concatenate(
                        [np.tile(np.arange(1, d + 1, dtype=np.int64), nl),
                         np.zeros(nl, np.int64)]), pa.int64()),
                "v": pa.array(
                    np.concatenate([qsum.ravel(), ss]), pa.int64()),
                "n": pa.array(
                    np.concatenate([np.zeros(nl * d, np.int64), n]),
                    pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    from ..functions.rounding import round_half_away

    if not len(parts):
        return pd.DataFrame(
            {"label": pd.Series([], dtype="int64"),
             "n_vecs": pd.Series([], dtype="int64"),
             "mean_d2": pd.Series([], dtype="float64")}
        )
    rows = []
    for label, g in parts.groupby("label"):
        summary = g[g["dim"] == 0]
        n = int(summary["n"].astype(object).sum())
        ss = int(summary["v"].astype(object).sum())
        s2 = sum(
            int(sv) ** 2
            for _dim, sv in g[g["dim"] > 0].groupby("dim")["v"]
            .apply(lambda x: x.astype(object).sum()).items()
        )
        num = n * ss - s2
        mean = 0.0 if n < 2 else float(
            round_half_away(np.array([2.0 * float(num)
                                      / float(n * (n - 1))]), 6)[0])
        rows.append((int(label), n, mean))
    return pd.DataFrame(rows, columns=["label", "n_vecs", "mean_d2"]).astype(
        {"label": "int64", "n_vecs": "int64"}
    )


def _sql_label_diversity() -> str:
    g = CORESET_GRID
    return f"""
WITH u AS (
    SELECT label::BIGINT AS label, vec_id,
           generate_subscripts(embedding, 1)::BIGINT AS dim,
           CAST(round(unnest(CAST(embedding AS DOUBLE[])) * {g}) AS HUGEINT)
               AS q
    FROM embeddings
),
pd AS (SELECT label, dim, sum(q) AS s FROM u GROUP BY 1, 2),
pl AS (
    SELECT label, count(DISTINCT vec_id)::HUGEINT AS n, sum(q * q) AS ss
    FROM u GROUP BY 1
),
s2 AS (SELECT label, sum(s * s) AS s2 FROM pd GROUP BY 1)
SELECT pl.label,
       CAST(pl.n AS BIGINT) AS n_vecs,
       CASE WHEN pl.n < 2 THEN 0.0
            ELSE round(2 * CAST(pl.n * pl.ss - s2.s2 AS DOUBLE)
                       / CAST(pl.n * (pl.n - 1) AS DOUBLE), 6)
       END AS mean_d2
FROM pl JOIN s2 USING (label)
"""


QUERIES["label_diversity"] = (q_label_diversity, _sql_label_diversity())


# --------------------------------------------------------------------------
# hourly burst factor per event type: peak-to-mean ratio over hour
# buckets kept integer (x1000 floor) so the fuzz gate can bit-compare.


def q_event_bursts(sf_dir: str):
    """Columns: ``event_type, n_hours, max_hour, total, burst_x1000``
    where ``burst_x1000 = 1000 * max_hour * n_hours // total`` — the
    peak-hour count over the mean per-active-hour count, floor-scaled.
    NULL event types are excluded on both engines.

    Shape: per-batch (type, hour) partial counts, one type+hour-sharded
    exchange, tiny per-type reduce (types are bounded)."""
    import pandas as pd

    from .dedup import _sharded_groupby

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["ts", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "hour": pc.cast(
                    pc.divide(batch["ts"].cast(pa.int64()), 3_600_000_000),
                    pa.int64(),
                ),
            }
        ).filter(pc.is_valid(batch["event_type"]))
        g = t.group_by(["event_type", "hour"]).aggregate([([], "count_all")])
        # integer shard key from the type string (internal: never output)
        types = g["event_type"].to_pylist()
        tkey = np.array(
            [int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")
             >> 1 for s in types],
            np.int64,
        ) if types else np.zeros(0, np.int64)
        return pa.table(
            {
                "event_type": g["event_type"],
                "hour": g["hour"],
                "c": g["count_all"].cast(pa.int64()),
                "tkey": pa.array(tkey, pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def reduce_hours(g: pd.DataFrame) -> pd.DataFrame:
        hh = g.groupby(["event_type", "hour"], as_index=False)["c"].sum()
        out = hh.groupby("event_type", as_index=False).agg(
            n_hours=("hour", "size"), max_hour=("c", "max"), total=("c", "sum")
        )
        out["burst_x1000"] = (
            1000 * out["max_hour"].astype("int64")
            * out["n_hours"].astype("int64")
        ) // out["total"].astype("int64")
        return out.astype(
            {"n_hours": "int64", "max_hour": "int64", "total": "int64",
             "burst_x1000": "int64"}
        )

    out_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n_hours", pa.int64()),
            ("max_hour", pa.int64()),
            ("total", pa.int64()),
            ("burst_x1000", pa.int64()),
        ]
    )
    def reduce_drop(g: pd.DataFrame) -> pd.DataFrame:
        return reduce_hours(g.drop(columns=["tkey"]))

    # shard on the type hash only: a type's hours must co-locate for the
    # max/size reduce (types are bounded; hours within a type are small)
    return _sharded_groupby(parts, ["tkey"], reduce_drop,
                            empty_schema=out_schema)


def _sql_event_bursts() -> str:
    return """
WITH h AS (
    SELECT event_type, epoch_us(ts) // 3600000000 AS hour,
           count(*)::BIGINT AS c
    FROM events WHERE event_type IS NOT NULL
    GROUP BY 1, 2
)
SELECT event_type,
       count(*)::BIGINT AS n_hours,
       max(c)::BIGINT AS max_hour,
       sum(c)::BIGINT AS total,
       (1000 * max(c) * count(*)) // sum(c) AS burst_x1000
FROM h GROUP BY 1
"""


QUERIES["event_bursts"] = (q_event_bursts, _sql_event_bursts())


# --------------------------------------------------------------------------
# MMR rerank (Carbonell & Goldstein 1998): greedy top-m balancing
# relevance against redundancy, lambda = 0.5 so 2*MMR = rel - maxdiv
# stays an exact integer on the quantized grid.

MMR_CANDIDATES = 20
MMR_SELECT = 5


def q_mmr_rerank(sf_dir: str):
    """Columns: ``step, vec_id, rel, maxdiv, mmr_x2`` — query = the
    min-vec_id embedding; candidates = top-``MMR_CANDIDATES`` by exact
    integer dot product (quantized as coreset_sample); then
    ``MMR_SELECT`` greedy picks maximizing ``rel - max_dot_to_selected``
    (ties vec_id asc).

    Shape: ONE distributed scan with per-batch partial top-C under the
    total order (rel desc, vec_id asc) — the greedy runs on <= C rows at
    the driver with exact ints.  C and m are constants, so the driver
    data is O(C), independent of N."""
    import pandas as pd

    empty = pd.DataFrame(
        {c: pd.Series([], dtype="int64")
         for c in ["step", "vec_id", "rel", "maxdiv", "mmr_x2"]}
    )
    path = os.path.join(sf_dir, "embeddings.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["vec_id", "embedding"])
    qid = ds.min("vec_id")
    if qid is None:
        return empty
    qid = int(qid)
    from ..functions.rounding import round_half_away as _rha

    qrow = ds.filter(expr=f"vec_id == {qid}").take(1)[0]
    qv = _rha(np.asarray(qrow["embedding"], np.float64) * CORESET_GRID,
              0).astype(np.int64)
    qref = ray.put(qv)

    def topc(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"vec_id": pa.array([], pa.int64()),
                 "rel": pa.array([], pa.int64()),
                 "q": pa.array([], pa.list_(pa.int64()))}
            )
        ids, q = _quant_embeddings(batch)
        keep = ids != qid
        ids, q = ids[keep], q[keep]
        rel = q @ ray.get(qref)
        order = np.lexsort((ids, -rel))[:MMR_CANDIDATES]
        return pa.table(
            {"vec_id": pa.array(ids[order], pa.int64()),
             "rel": pa.array(rel[order], pa.int64()),
             "q": pa.array([q[i].tolist() for i in order],
                           pa.list_(pa.int64()))}
        )

    cand = ds.map_batches(topc, batch_format="pyarrow").to_pandas()
    if not len(cand):
        return empty
    cand = cand.sort_values(["rel", "vec_id"],
                            ascending=[False, True]).head(MMR_CANDIDATES)
    ids = cand["vec_id"].to_numpy(np.int64)
    rel = cand["rel"].to_numpy(np.int64)
    Q = np.stack([np.asarray(list(v), np.int64) for v in cand["q"]])
    chosen: list[int] = []
    rows = []
    for step in range(1, MMR_SELECT + 1):
        if len(chosen) >= len(ids):
            break
        if chosen:
            maxdiv = (Q @ Q[chosen].T).max(axis=1)
        else:
            maxdiv = np.zeros(len(ids), np.int64)
        key = rel - maxdiv
        mask = np.ones(len(ids), bool)
        mask[chosen] = False
        idxs = np.flatnonzero(mask)
        i = idxs[np.lexsort((ids[idxs], -key[idxs]))[0]]
        rows.append((step, int(ids[i]), int(rel[i]), int(maxdiv[i]),
                     int(key[i])))
        chosen.append(int(i))
    return pd.DataFrame(
        rows, columns=["step", "vec_id", "rel", "maxdiv", "mmr_x2"]
    ).astype({c: "int64" for c in ["step", "vec_id", "rel", "maxdiv",
                                   "mmr_x2"]})


def _sql_mmr_rerank() -> str:
    g = CORESET_GRID

    def dot(a: str, b: str) -> str:
        return (f"list_sum(list_transform(range(1, len({a}) + 1), "
                f"j -> {a}[j] * {b}[j]))")

    parts = [f"""
WITH e AS MATERIALIZED (
    SELECT vec_id,
           [CAST(round(x * {g}) AS BIGINT) FOR x IN CAST(embedding AS DOUBLE[])]
               AS q
    FROM embeddings
),
qv AS MATERIALIZED (SELECT vec_id, q FROM e ORDER BY vec_id LIMIT 1),
cand AS MATERIALIZED (
    SELECT e.vec_id, e.q, {dot('e.q', 'qv.q')} AS rel
    FROM e CROSS JOIN qv WHERE e.vec_id != qv.vec_id
    ORDER BY rel DESC, e.vec_id LIMIT {MMR_CANDIDATES}
),
s1 AS MATERIALIZED (
    SELECT vec_id, q, rel, 0::BIGINT AS maxdiv
    FROM cand ORDER BY rel DESC, vec_id LIMIT 1
),
ss1 AS MATERIALIZED (SELECT vec_id, q FROM s1)"""]
    for i in range(2, MMR_SELECT + 1):
        parts.append(f""",
d{i} AS MATERIALIZED (
    SELECT c.vec_id, max({dot('c.q', 's.q')}) AS maxdiv
    FROM cand c CROSS JOIN ss{i - 1} s
    WHERE c.vec_id NOT IN (SELECT vec_id FROM ss{i - 1})
    GROUP BY c.vec_id
),
s{i} AS MATERIALIZED (
    SELECT c.vec_id, c.q, c.rel, d.maxdiv
    FROM d{i} d JOIN cand c ON d.vec_id = c.vec_id
    ORDER BY c.rel - d.maxdiv DESC, c.vec_id LIMIT 1
),
ss{i} AS MATERIALIZED (
    SELECT vec_id, q FROM ss{i - 1} UNION ALL SELECT vec_id, q FROM s{i}
)""")
    sel = "\nUNION ALL\n".join(
        f"SELECT {i}::BIGINT AS step, vec_id, rel::BIGINT AS rel, "
        f"maxdiv::BIGINT AS maxdiv, (rel - maxdiv)::BIGINT AS mmr_x2 FROM s{i}"
        for i in range(1, MMR_SELECT + 1)
    )
    return "".join(parts) + "\n" + sel


QUERIES["mmr_rerank"] = (q_mmr_rerank, _sql_mmr_rerank())


# --------------------------------------------------------------------------
# per-source exclusive vocabulary (data-valuation diagnostic)


def q_vocab_uniqueness(sf_dir: str):
    """See curation.vocab_uniqueness_df."""
    from .curation import vocab_uniqueness_df

    return vocab_uniqueness_df(sf_dir)


_SQL_VOCAB_UNIQUENESS = """
WITH filt AS (
    SELECT source,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM documents
),
pair AS (SELECT DISTINCT source, unnest(toks) AS term FROM filt),
t AS (SELECT term, count(DISTINCT source) AS ns FROM pair GROUP BY 1),
agg AS (
    SELECT p.source, count(*)::BIGINT AS n_terms,
           sum((t.ns = 1)::BIGINT)::BIGINT AS n_exclusive
    FROM pair p JOIN t USING (term) GROUP BY 1
)
SELECT d.source,
       coalesce(a.n_terms, 0)::BIGINT AS n_terms,
       coalesce(a.n_exclusive, 0)::BIGINT AS n_exclusive
FROM (SELECT DISTINCT source FROM documents) d
LEFT JOIN agg a USING (source)
"""


QUERIES["vocab_uniqueness"] = (q_vocab_uniqueness, _SQL_VOCAB_UNIQUENESS)


# --------------------------------------------------------------------------
# cross-source duplicate contamination matrix: unordered doc pairs with
# identical text, counted per (source_a <= source_b) cell in CLOSED FORM
# from per-(hash, source) counts — never materializing the O(n^2) pairs
# of a hot duplicate group.

DUPMX_CLONE_EVERY = 100
DUPMX_CLONE_SRC = "dupsrc"


def q_dup_source_matrix(sf_dir: str):
    """Columns: ``src_a, src_b, n_pairs`` (src_a <= src_b; same-source
    cell = C(c,2) within each duplicate group, cross cell = c_a*c_b).
    Uses a deterministic sf augmentation (clone every
    ``DUPMX_CLONE_EVERY``-th doc under source '``dupsrc``', mirrored in
    the SQL) because the synthetic corpus has no natural exact dups.

    Shape: md5 off the Arrow buffer per batch, hash-sharded counts per
    (digest, source), closed-form pair combinatorics in-shard, bounded
    (|sources|^2) driver result."""
    import pandas as pd

    from ..functions.tokenize import _string_buffers
    from .dedup import _sharded_groupby

    def add_hash(batch: pa.Table) -> pa.Table:
        # deterministic augmentation, mirrored in SQL
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = ids % DUPMX_CLONE_EVERY == 0
        clones = batch.filter(pa.array(m))
        texts = pa.concat_arrays(
            [batch["text"].combine_chunks(), clones["text"].combine_chunks()]
        )
        src = pa.concat_arrays(
            [batch["source"].combine_chunks().cast(pa.string()),
             pa.array([DUPMX_CLONE_SRC] * clones.num_rows, pa.string())]
        ) if "source" in batch.column_names else None
        data, offsets = _string_buffers(texts)
        mv = memoryview(data)
        digests = [
            hashlib.md5(mv[offsets[i]: offsets[i + 1]]).digest()
            for i in range(len(texts))
        ]
        return pa.table(
            {
                "m": pa.array([d.hex() for d in digests], pa.string()),
                "source": src,
                "hk": pa.array(
                    np.array([int.from_bytes(d[:8], "little") >> 1
                              for d in digests], np.int64), pa.int64()),
            }
        )

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["doc_id", "text", "source"])
    hs = ds.map_batches(add_hash, batch_format="pyarrow", zero_copy_batch=True)

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["m", "source"], as_index=False).size()
        c.columns = ["m", "source", "c"]
        j = c.merge(c, on="m", suffixes=("_a", "_b"))
        j = j[j["source_a"] <= j["source_b"]]
        same = j["source_a"] == j["source_b"]
        np_ = np.where(
            same,
            j["c_a"].to_numpy(np.int64) * (j["c_a"].to_numpy(np.int64) - 1) // 2,
            j["c_a"].to_numpy(np.int64) * j["c_b"].to_numpy(np.int64),
        )
        j = j.assign(n_pairs=np_)
        j = j[j["n_pairs"] > 0]
        out = j.groupby(["source_a", "source_b"], as_index=False)["n_pairs"].sum()
        out.columns = ["src_a", "src_b", "n_pairs"]
        return out.astype({"n_pairs": "int64"})

    part_schema = pa.schema(
        [("src_a", pa.utf8()), ("src_b", pa.utf8()), ("n_pairs", pa.int64())]
    )
    parts = _sharded_groupby(hs, ["hk"], per_shard,
                             empty_schema=part_schema).to_pandas()
    if not len(parts):
        return pd.DataFrame(
            {"src_a": pd.Series([], dtype=object),
             "src_b": pd.Series([], dtype=object),
             "n_pairs": pd.Series([], dtype="int64")}
        )
    return parts.groupby(["src_a", "src_b"], as_index=False)["n_pairs"].sum(
    ).astype({"n_pairs": "int64"})


_SQL_DUP_SOURCE_MATRIX = f"""
WITH aug AS (
    SELECT text, source FROM documents
    UNION ALL
    SELECT text, '{DUPMX_CLONE_SRC}' FROM documents
    WHERE doc_id % {DUPMX_CLONE_EVERY} = 0
),
c AS (
    SELECT md5(text) AS m, source, count(*)::BIGINT AS c
    FROM aug GROUP BY 1, 2
),
p AS (
    SELECT a.source AS src_a, b.source AS src_b,
           CASE WHEN a.source < b.source THEN a.c * b.c
                ELSE a.c * (a.c - 1) // 2 END AS np
    FROM c a JOIN c b ON a.m = b.m AND a.source <= b.source
)
SELECT src_a, src_b, sum(np)::BIGINT AS n_pairs
FROM p WHERE np > 0 GROUP BY 1, 2
"""


QUERIES["dup_source_matrix"] = (q_dup_source_matrix, _SQL_DUP_SOURCE_MATRIX)


# --------------------------------------------------------------------------
# readability (integer Flesch proxy)


def q_readability(sf_dir: str):
    """See curation.readability_ds."""
    from .curation import readability_ds

    return readability_ds(sf_dir)


_SQL_READABILITY = """
WITH s AS (
    SELECT doc_id,
           len(list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                           x -> len(x) <= 15))::BIGINT AS n_words,
           len(regexp_extract_all(text, '[.!?]+'))::BIGINT AS n_sents,
           len(regexp_extract_all(lower(text), '[aeiou]+'))::BIGINT AS n_vg
    FROM documents
)
SELECT doc_id, n_words, n_sents, n_vg AS n_vowel_groups,
       (206835 - (1015 * n_words) // greatest(n_sents, 1)
               - (84600 * n_vg) // greatest(n_words, 1))::BIGINT AS fre_x1000
FROM s
"""


QUERIES["readability"] = (q_readability, _SQL_READABILITY)


# --------------------------------------------------------------------------
# exact pairwise source-vocabulary Jaccard


def q_source_jaccard(sf_dir: str):
    """See curation.source_jaccard_df."""
    from .curation import source_jaccard_df

    return source_jaccard_df(sf_dir)


_SQL_SOURCE_JACCARD = """
WITH filt AS (
    SELECT source,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM documents
),
pair AS (SELECT DISTINCT source, unnest(toks) AS term FROM filt),
x AS (
    SELECT a.source AS src_a, b.source AS src_b, count(*)::BIGINT AS inter
    FROM pair a JOIN pair b ON a.term = b.term AND a.source < b.source
    GROUP BY 1, 2
),
sz AS (SELECT source, count(*)::BIGINT AS n FROM pair GROUP BY 1)
SELECT x.src_a, x.src_b, x.inter,
       (za.n + zb.n - x.inter)::BIGINT AS union_n,
       ((1000000 * x.inter) // (za.n + zb.n - x.inter))::BIGINT
           AS jaccard_x1e6
FROM x
JOIN sz za ON za.source = x.src_a
JOIN sz zb ON zb.source = x.src_b
"""


QUERIES["source_jaccard"] = (q_source_jaccard, _SQL_SOURCE_JACCARD)


# --------------------------------------------------------------------------
# vocabulary drift (G-test between corpus halves)


def q_vocab_drift(sf_dir: str):
    """See curation.vocab_drift_df."""
    from .curation import vocab_drift_df

    return vocab_drift_df(sf_dir)


def _sql_vocab_drift() -> str:
    from .curation import DRIFT_TOP_K

    return f"""
WITH filt AS (
    SELECT doc_id,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM documents
),
tok AS (SELECT doc_id % 2 AS par, unnest(toks) AS term FROM filt),
c AS (
    SELECT term,
           sum((par = 0)::BIGINT)::BIGINT AS a,
           sum((par = 1)::BIGINT)::BIGINT AS b
    FROM tok GROUP BY 1
),
tot AS (
    SELECT coalesce(sum(a), 0)::BIGINT AS te,
           coalesce(sum(b), 0)::BIGINT AS tn
    FROM c
),
kv AS (
    SELECT term, a, b,
           unnest([a, b, te - a, tn - b, te + tn,
                   a + b, te + tn - a - b, te, tn]) AS k,
           unnest([1, 1, 1, 1, 1, -1, -1, -1, -1]) AS sgn
    FROM c CROSS JOIN tot
),
sterm AS (
    SELECT term, a, b, sgn,
           CASE WHEN k <= 1 THEN 0::HUGEINT ELSE
               k::HUGEINT * (CAST(round(log2(k >> s) * 1000000000) AS HUGEINT)
                             + s::HUGEINT * 1000000000)
           END AS sk
    FROM (SELECT *, greatest(length(bin(k))::BIGINT - 16, 0) AS s FROM kv)
),
g AS (
    SELECT term, any_value(a) AS n_even, any_value(b) AS n_odd,
           CAST(2 * sum(sgn * sk) AS BIGINT) AS g_fp
    FROM sterm GROUP BY term
)
SELECT term, n_even::BIGINT AS n_even, n_odd::BIGINT AS n_odd, g_fp,
       round(g_fp / 1000000000.0, 6) AS g, rk::BIGINT AS rank
FROM (
    SELECT *, row_number() OVER (ORDER BY g_fp DESC, term) AS rk FROM g
)
WHERE rk <= {DRIFT_TOP_K}
"""


QUERIES["vocab_drift"] = (q_vocab_drift, _sql_vocab_drift())


# --------------------------------------------------------------------------
# percolation (reverse search: stored queries vs the document stream)


def q_percolate(sf_dir: str):
    """See ranking.percolate_df."""
    from .ranking import percolate_df

    return percolate_df(sf_dir)


def _sql_percolate() -> str:
    from .ranking import sql_percolate

    return sql_percolate()


QUERIES["percolate"] = (q_percolate, _sql_percolate())


# --------------------------------------------------------------------------
# NDCG ranking evaluation


def q_ndcg_eval(sf_dir: str):
    """See ranking.ndcg_eval_df."""
    from .ranking import ndcg_eval_df

    return ndcg_eval_df(sf_dir)


def _sql_ndcg_eval() -> str:
    from .ranking import sql_ndcg_eval

    return sql_ndcg_eval()


QUERIES["ndcg_eval"] = (q_ndcg_eval, _sql_ndcg_eval())


# --------------------------------------------------------------------------
# query clarity (query-performance prediction over the QL top-R set)


def q_query_clarity(sf_dir: str):
    """See ranking.query_clarity_df."""
    from .ranking import query_clarity_df

    return query_clarity_df(sf_dir)


def _sql_query_clarity() -> str:
    from .ranking import sql_query_clarity

    return sql_query_clarity()


QUERIES["query_clarity"] = (q_query_clarity, _sql_query_clarity())


# --------------------------------------------------------------------------
# BM25F field-boosted ranking (title = first positions, weighted)


def q_bm25f_fielded(sf_dir: str):
    """See ranking.bm25f_df."""
    from .ranking import bm25f_df

    return bm25f_df(sf_dir)


def _sql_bm25f_fielded() -> str:
    from .ranking import sql_bm25f

    return sql_bm25f()


QUERIES["bm25f_fielded"] = (q_bm25f_fielded, _sql_bm25f_fielded())


# --------------------------------------------------------------------------
# MAP@K / MRR ranking evaluation (binary relevance)


def q_map_mrr_eval(sf_dir: str):
    """See ranking.map_mrr_eval_df."""
    from .ranking import map_mrr_eval_df

    return map_mrr_eval_df(sf_dir)


def _sql_map_mrr_eval() -> str:
    from .ranking import sql_map_mrr_eval

    return sql_map_mrr_eval()


QUERIES["map_mrr_eval"] = (q_map_mrr_eval, _sql_map_mrr_eval())


# --------------------------------------------------------------------------
# S-stemmer vocabulary folding (top stems by df after plural stripping)


def q_stem_terms(sf_dir: str):
    """See curation.stem_terms_df."""
    from .curation import stem_terms_df

    return stem_terms_df(sf_dir)


def _sql_stem_terms() -> str:
    from .curation import sql_stem_terms

    return sql_stem_terms()


QUERIES["stem_terms"] = (q_stem_terms, _sql_stem_terms())


# --------------------------------------------------------------------------
# asymmetric containment join (quote / sub-document near-dup)


def q_containment_pairs(sf_dir: str):
    """See curation.containment_pairs_df."""
    from .curation import containment_pairs_df

    return containment_pairs_df(sf_dir)


def _sql_containment_pairs() -> str:
    from .curation import sql_containment_pairs

    return sql_containment_pairs()


QUERIES["containment_pairs"] = (q_containment_pairs, _sql_containment_pairs())


# --------------------------------------------------------------------------
# content-defined chunking (FastCDC-family) + duplicated-chunk counts


def q_cdc_chunks(sf_dir: str):
    """See curation.cdc_chunks_ds."""
    from .curation import cdc_chunks_ds

    return cdc_chunks_ds(sf_dir)


def _sql_cdc_chunks() -> str:
    from .curation import sql_cdc_chunks

    return sql_cdc_chunks()


QUERIES["cdc_chunks"] = (q_cdc_chunks, _sql_cdc_chunks())


# --------------------------------------------------------------------------
# BFS hop distances over the term co-occurrence graph


def q_term_bfs(sf_dir: str):
    """See curation.term_bfs_df."""
    from .curation import term_bfs_df

    return term_bfs_df(sf_dir)


def _sql_term_bfs() -> str:
    from .curation import BFS_TOP_VOCAB

    return f"""
WITH RECURSIVE {_SQL_TOKS_LIST},
tok AS (SELECT DISTINCT doc_id, unnest(toks) AS term FROM filt),
dfc AS (SELECT term, count(*)::BIGINT AS df FROM tok GROUP BY 1),
topv AS (SELECT term FROM dfc ORDER BY df DESC, term LIMIT {BFS_TOP_VOCAB}),
tv AS (SELECT t.doc_id, t.term FROM tok t JOIN topv USING (term)),
edges AS (
    SELECT DISTINCT a.term AS src, b.term AS dst
    FROM tv a JOIN tv b ON a.doc_id = b.doc_id AND a.term <> b.term
),
degs AS (
    SELECT t.term, count(e.dst)::BIGINT AS deg
    FROM topv t LEFT JOIN edges e ON e.src = t.term
    GROUP BY 1
),
src AS (
    SELECT term FROM dfc ORDER BY df DESC, term LIMIT 1
),
bfs AS (
    SELECT term, 0 AS d FROM src
    UNION
    SELECT e.dst, b.d + 1
    FROM bfs b JOIN edges e ON e.src = b.term
    WHERE b.d < {BFS_TOP_VOCAB}
),
md AS (SELECT term, min(d)::BIGINT AS dist FROM bfs GROUP BY 1)
SELECT degs.term, degs.deg, coalesce(md.dist, -1)::BIGINT AS dist
FROM degs LEFT JOIN md USING (term)
"""


QUERIES["term_bfs"] = (q_term_bfs, _sql_term_bfs())


# --------------------------------------------------------------------------
# one-way ANOVA F (fixed-point) of customer account balance across
# market segments — completes the hypothesis-test family (KS, MWU,
# OLS/corr, now variance decomposition).  Per-group floor divisions are
# applied IDENTICALLY on both engines (all operands non-negative after
# the greatest(ssb, 0) clamp, so DuckDB truncation == Python floor).


def q_anova_acctbal(sf_dir: str):
    """Per segment: exact integer moments (n, s_cents, q_cents2) plus
    the shared fixed-point between/within sums of squares and
    F*1e6 = 1e6·ssb·(N−k) // (ssw·(k−1)); moments combine on the
    driver as Python ints (a 100-TB sum of squared cents overflows
    int64), groups are the bounded 5-segment domain."""
    import pandas as pd

    path = os.path.join(sf_dir, "customer.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["c_mktsegment", "c_acctbal"])

    def partial(b: pa.Table) -> pa.Table:
        x = round_half_away(
            b["c_acctbal"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        t = pa.table({
            "seg": b["c_mktsegment"],
            "x": pa.array(x, pa.int64()),
            "xx": pa.array(x * x, pa.int64()),
        })
        g = t.group_by(["seg"]).aggregate(
            [("x", "count"), ("x", "sum"), ("xx", "sum")]
        )
        return pa.table({
            "seg": g["seg"],
            "n": g["x_count"].cast(pa.int64()),
            "s": g["x_sum"].cast(pa.int64()),
            "q": g["xx_sum"].cast(pa.int64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    groups = {}
    for seg, grp in parts.groupby("seg"):
        groups[seg] = (
            int(grp["n"].sum()),
            sum(int(v) for v in grp["s"]),
            sum(int(v) for v in grp["q"]),
        )
    k = len(groups)
    nn = sum(n for n, _s, _q in groups.values())
    ss = sum(s for _n, s, _q in groups.values())
    qq = sum(q for _n, _s, q in groups.values())
    sb = sum((s * s) // n for n, s, _q in groups.values() if n)
    ssb = max(sb - (ss * ss) // nn, 0) if nn else 0
    ssw = qq - sb
    f_x1e6 = (
        (1_000_000 * ssb * (nn - k)) // (ssw * (k - 1))
        if ssw > 0 and k > 1 and nn > k else 0
    )
    rows = [
        {"c_mktsegment": seg, "n": n, "s_cents": s, "q_cents2": q,
         "ssb_fp": ssb, "ssw_fp": ssw, "f_x1e6": f_x1e6}
        for seg, (n, s, q) in sorted(groups.items())
    ]
    out = pd.DataFrame(rows)
    for c in out.columns:
        if c != "c_mktsegment":
            out[c] = out[c].astype("int64")
    return out


SQL_ANOVA_ACCTBAL = """
WITH q AS (
    SELECT c_mktsegment AS seg,
           CAST(round(c_acctbal * 100) AS HUGEINT) AS x
    FROM customer
),
m AS (
    SELECT seg, count(*)::HUGEINT AS n, sum(x) AS s, sum(x*x) AS qq
    FROM q GROUP BY 1
),
t AS (
    SELECT count(*)::HUGEINT AS k, sum(n) AS nn, sum(s) AS ss,
           sum(qq) AS sqq, sum((s*s) // n) AS sb
    FROM m
),
f AS (
    SELECT k, nn,
           greatest(sb - (ss*ss) // nn, 0) AS ssb,
           (sqq - sb) AS ssw
    FROM t
)
SELECT m.seg AS c_mktsegment, m.n::BIGINT AS n, m.s::BIGINT AS s_cents,
       m.qq::BIGINT AS q_cents2, f.ssb::BIGINT AS ssb_fp,
       f.ssw::BIGINT AS ssw_fp,
       (CASE WHEN f.ssw > 0 AND f.k > 1 AND f.nn > f.k
             THEN (1000000 * f.ssb * (f.nn - f.k)) // (f.ssw * (f.k - 1))
             ELSE 0 END)::BIGINT AS f_x1e6
FROM m, f
ORDER BY 1
"""

QUERIES["anova_acctbal"] = (q_anova_acctbal, SQL_ANOVA_ACCTBAL)


# --------------------------------------------------------------------------
# chi-square independence test of the (lang, source) contingency table
# (bounded 3x4 domain).  Per-cell statistic in pure integers:
# chi2_cell_fp = 1e6 * (N*O - R*C)^2 // (N * R * C); every operand is
# non-negative, so DuckDB // == Python //.


def q_chi2_lang_source(sf_dir: str):
    """Per cell: observed count, row/col totals, and the fixed-point
    cell contribution; chi2_x1e6 (the table statistic) repeats on every
    row.  One streaming count pass — the contingency table is
    domain-bounded, so partials are tiny and combine as Python ints."""
    import pandas as pd

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["lang", "source"])

    def partial(b: pa.Table) -> pa.Table:
        g = pa.table({"lang": b["lang"], "source": b["source"]}).group_by(
            ["lang", "source"]).aggregate([([], "count_all")])
        return pa.table({
            "lang": g["lang"], "source": g["source"],
            "n": g["count_all"].cast(pa.int64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    obs = parts.groupby(["lang", "source"])["n"].sum()
    cells = {kk: int(v) for kk, v in obs.items()}
    nn = sum(cells.values())
    rtot, ctot = {}, {}
    for (lg, sc), v in cells.items():
        rtot[lg] = rtot.get(lg, 0) + v
        ctot[sc] = ctot.get(sc, 0) + v
    contribs = {}
    for (lg, sc), o in cells.items():
        r, c = rtot[lg], ctot[sc]
        d = nn * o - r * c
        contribs[(lg, sc)] = (1_000_000 * d * d) // (nn * r * c)
    chi2 = sum(contribs.values())
    rows = [
        {"lang": lg, "source": sc, "n": cells[(lg, sc)],
         "row_total": rtot[lg], "col_total": ctot[sc],
         "cell_fp": contribs[(lg, sc)], "chi2_x1e6": chi2}
        for (lg, sc) in sorted(cells)
    ]
    out = pd.DataFrame(rows)
    for c in out.columns:
        if c not in ("lang", "source"):
            out[c] = out[c].astype("int64")
    return out


SQL_CHI2_LANG_SOURCE = """
WITH o AS (
    SELECT lang, source, count(*)::HUGEINT AS n
    FROM documents GROUP BY 1, 2
),
r AS (SELECT lang, sum(n) AS rt FROM o GROUP BY 1),
c AS (SELECT source, sum(n) AS ct FROM o GROUP BY 1),
t AS (SELECT sum(n) AS nn FROM o),
cell AS (
    SELECT o.lang, o.source, o.n, r.rt, c.ct,
           (1000000 * (t.nn*o.n - r.rt*c.ct) * (t.nn*o.n - r.rt*c.ct))
               // (t.nn * r.rt * c.ct) AS fp
    FROM o JOIN r USING (lang) JOIN c USING (source), t
)
SELECT lang, source, n::BIGINT AS n, rt::BIGINT AS row_total,
       ct::BIGINT AS col_total, fp::BIGINT AS cell_fp,
       (SELECT sum(fp) FROM cell)::BIGINT AS chi2_x1e6
FROM cell
ORDER BY 1, 2
"""

QUERIES["chi2_lang_source"] = (q_chi2_lang_source, SQL_CHI2_LANG_SOURCE)


# --------------------------------------------------------------------------
# per-source KL divergence vs corpus unigram distribution


def q_source_kl(sf_dir: str):
    """See curation.source_kl_df."""
    from .curation import source_kl_df

    return source_kl_df(sf_dir)


_SQL_SOURCE_KL = """
WITH filt AS (
    SELECT source,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM documents
),
tok AS (SELECT source, unnest(toks) AS term FROM filt),
cs AS (SELECT term, source, count(*)::BIGINT AS c FROM tok GROUP BY 1, 2),
cww AS (SELECT term, sum(c)::BIGINT AS w FROM cs GROUP BY 1),
lgc AS (
    SELECT term, source, c,
           CAST(round(log2(c >> s) * 1000000000) AS BIGINT)
               + s * 1000000000 AS lg_c
    FROM (SELECT *, greatest(length(bin(c))::BIGINT - 16, 0) AS s FROM cs)
),
lgw AS (
    SELECT term,
           CAST(round(log2(w >> s) * 1000000000) AS BIGINT)
               + s * 1000000000 AS lg_w
    FROM (SELECT *, greatest(length(bin(w))::BIGINT - 16, 0) AS s FROM cww)
),
p AS (
    SELECT source,
           sum(CAST(c AS HUGEINT) * (lg_c - lg_w)) AS p,
           sum(c)::BIGINT AS t
    FROM lgc JOIN lgw USING (term)
    GROUP BY 1
),
tot AS (SELECT sum(t)::BIGINT AS tt FROM p),
lgt AS (
    SELECT CAST(round(log2(tt >> s) * 1000000000) AS BIGINT)
               + s * 1000000000 AS lg_t
    FROM (SELECT tt, greatest(length(bin(tt))::BIGINT - 16, 0) AS s FROM tot)
),
lgts AS (
    SELECT source, t, p,
           CAST(round(log2(t >> s) * 1000000000) AS BIGINT)
               + s * 1000000000 AS lg_ts
    FROM (SELECT *, greatest(length(bin(t))::BIGINT - 16, 0) AS s FROM p)
)
SELECT source, t AS n_tokens,
       CAST(p + CAST(t AS HUGEINT) * (lg_t - lg_ts) AS BIGINT) AS kl_fp,
       round(CAST(p + CAST(t AS HUGEINT) * (lg_t - lg_ts) AS BIGINT)
             / (t * 1000000000.0), 6) AS kl
FROM lgts CROSS JOIN lgt
"""


QUERIES["source_kl"] = (q_source_kl, _SQL_SOURCE_KL)


# --------------------------------------------------------------------------
# corpus-wide line-level exact dedup (C4/CCNet paragraph dedup)


def q_line_dedup(sf_dir: str):
    """See curation.line_dedup_ds."""
    from .curation import line_dedup_ds

    return line_dedup_ds(sf_dir)


_SQL_LINE_DEDUP = """
WITH l AS (
    SELECT doc_id, unnest(string_split(text, chr(10))) AS line,
           unnest(range(1, len(string_split(text, chr(10))) + 1)) AS idx
    FROM documents
),
nl AS (SELECT * FROM l WHERE len(line) > 0),
r AS (
    SELECT doc_id,
           row_number() OVER (PARTITION BY line ORDER BY doc_id, idx) AS rk
    FROM nl
)
SELECT doc_id, count(*)::BIGINT AS n_lines,
       sum((rk = 1)::BIGINT)::BIGINT AS n_kept,
       (count(*) - sum((rk = 1)::BIGINT))::BIGINT AS n_removed
FROM r GROUP BY 1
"""


QUERIES["line_dedup"] = (q_line_dedup, _SQL_LINE_DEDUP)


# --------------------------------------------------------------------------
# crawl-snapshot diff (content-hash full-outer classify)


def q_snapshot_diff(sf_dir: str):
    """See curation.snapshot_diff_df."""
    from .curation import snapshot_diff_df

    return snapshot_diff_df(sf_dir)


_SQL_SNAPSHOT_DIFF = """
WITH old AS (SELECT doc_id, md5(text) AS h FROM documents),
new_base AS (
    SELECT doc_id,
           CASE WHEN doc_id % 89 = 0 THEN text || ' v2' ELSE text END AS text
    FROM documents WHERE doc_id % 97 <> 0
),
new_add AS (
    SELECT doc_id + 10000000 AS doc_id, text || ' new' AS text
    FROM documents WHERE doc_id % 101 = 0
),
nw AS (
    SELECT doc_id, md5(text) AS h
    FROM (SELECT * FROM new_base UNION ALL SELECT * FROM new_add)
),
j AS (
    SELECT coalesce(o.doc_id, n.doc_id) AS doc_id,
           CASE WHEN o.doc_id IS NULL THEN 'added'
                WHEN n.doc_id IS NULL THEN 'removed'
                WHEN o.h <> n.h THEN 'changed'
                ELSE 'unchanged' END AS status
    FROM old o FULL OUTER JOIN nw n ON o.doc_id = n.doc_id
)
SELECT status, count(*)::BIGINT AS n_docs,
       min(doc_id)::BIGINT AS min_doc_id,
       max(doc_id)::BIGINT AS max_doc_id
FROM j GROUP BY 1
"""


QUERIES["snapshot_diff"] = (q_snapshot_diff, _SQL_SNAPSHOT_DIFF)


# --------------------------------------------------------------------------
# integer k-means (Lloyd) over quantized embeddings — the SemDeDup-style
# clustering primitive.  Coordinates quantized exactly as coreset_sample
# (round(x*1024)); every distance, assignment (ties: cid asc) and
# centroid update (TRUNCATING integer division — DuckDB `//` truncates
# toward zero while numpy floors, so the engine matches DuckDB with
# sign(s)*(|s|//n)) is exact integer arithmetic, so the unrolled-CTE SQL
# is hash-exact.  Empty clusters drop out of the next iteration on both
# engines.

KMEANS_K = 4
KMEANS_ITERS = 2


def _kmeans_partials(ds, cent: np.ndarray, cids: np.ndarray):
    """One assignment scan: per-batch per-cid partials in long form
    (j=1..d per-dim sums; j=0 count; j=-1 inertia)."""
    cref = ray.put(cent)

    def part(b: pa.Table, cref=cref, cid_arr=cids) -> pa.Table:
        empty = pa.table(
            {"cid": pa.array([], pa.int64()),
             "j": pa.array([], pa.int64()),
             "v": pa.array([], pa.int64())}
        )
        if b.num_rows == 0:
            return empty
        _ids, q = _quant_embeddings(b)
        C = ray.get(cref)
        diff = q[:, None, :] - C[None, :, :]
        d2 = np.einsum("nkd,nkd->nk", diff, diff)
        a = np.argmin(d2, axis=1)  # first min == smallest cid (ties asc)
        mind = d2[np.arange(len(q)), a]
        acid = cid_arr[a]
        order = np.argsort(acid, kind="stable")
        uc, starts = np.unique(acid[order], return_index=True)
        qsum = np.add.reduceat(q[order], starts, axis=0)
        isum = np.add.reduceat(mind[order], starts)
        n = np.diff(np.append(starts, len(acid))).astype(np.int64)
        d = q.shape[1]
        nl = len(uc)
        return pa.table(
            {"cid": pa.array(
                np.concatenate([np.repeat(uc, d), uc, uc]), pa.int64()),
             "j": pa.array(
                 np.concatenate(
                     [np.tile(np.arange(1, d + 1, dtype=np.int64), nl),
                      np.zeros(nl, np.int64),
                      np.full(nl, -1, np.int64)]), pa.int64()),
             "v": pa.array(
                 np.concatenate([qsum.ravel(), n, isum]), pa.int64())}
        )

    p = ds.map_batches(part, batch_format="pyarrow",
                       zero_copy_batch=True).to_pandas()
    if not len(p):
        return p
    return p.groupby(["cid", "j"], as_index=False)["v"].sum()


def _kmeans_fit(ds) -> tuple[np.ndarray, np.ndarray] | None:
    """Fit ``KMEANS_ITERS`` Lloyd iterations from the K-smallest-vec_id
    seeds; returns (centroids, cids) or None on an empty table.  One
    bounded candidate scan + one assignment scan per iteration."""

    def init_cand(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {"vec_id": pa.array([], pa.int64()),
             "q": pa.array([], pa.list_(pa.int64()))}
        )
        if b.num_rows == 0:
            return empty
        ids, q = _quant_embeddings(b)
        sel = np.argsort(ids, kind="stable")[:KMEANS_K]
        return pa.table(
            {"vec_id": pa.array(ids[sel], pa.int64()),
             "q": pa.array([r.tolist() for r in q[sel]],
                           pa.list_(pa.int64()))}
        )

    cand = ds.map_batches(init_cand, batch_format="pyarrow",
                          zero_copy_batch=True).to_pandas()
    if not len(cand):
        return None
    cand = cand.sort_values("vec_id", kind="mergesort").head(KMEANS_K)
    cent = np.stack([np.asarray(v, np.int64) for v in cand["q"]])
    cids = np.arange(1, len(cent) + 1, dtype=np.int64)

    for _t in range(KMEANS_ITERS):
        agg = _kmeans_partials(ds, cent, cids)
        counts = agg[agg["j"] == 0].set_index("cid")["v"]
        live = counts[counts > 0].index.to_numpy(np.int64)
        live.sort()
        dims = agg[agg["j"] >= 1]
        piv = dims.pivot_table(index="cid", columns="j", values="v",
                               aggfunc="sum").loc[live]
        s = piv.to_numpy(np.int64)
        n = counts.loc[live].to_numpy(np.int64)[:, None]
        cent = np.sign(s) * (np.abs(s) // n)  # truncating division
        cids = live
    return cent, cids


def q_kmeans_embed(sf_dir: str):
    """``cid, n_vecs, inertia, centroid_l1`` after ``KMEANS_ITERS`` Lloyd
    iterations from the K-smallest-vec_id seeds (cid = 1-based seed rank).

    Shape: ITERS+2 streaming scans (seed candidates, one per iteration,
    final stats), centroids broadcast once per scan via ``ray.put``,
    per-batch exact-integer einsum assignment emitting K*(d+2) partial
    rows per task, bounded driver combine.  The declared cost is the
    scans — at 10^12 vectors seed via ann_lsh representatives and fold
    iterations, same per-scan shape."""
    import pandas as pd

    path = os.path.join(sf_dir, "embeddings.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["vec_id", "embedding"])
    cols = ["cid", "n_vecs", "inertia", "centroid_l1"]

    def _empty() -> pd.DataFrame:
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in cols})

    fit = _kmeans_fit(ds)
    if fit is None:
        return _empty()
    cent, cids = fit

    agg = _kmeans_partials(ds, cent, cids)
    counts = agg[agg["j"] == 0].set_index("cid")["v"]
    inertia = agg[agg["j"] == -1].set_index("cid")["v"]
    live = counts[counts > 0].index.to_numpy(np.int64)
    live.sort()
    l1 = {int(c): int(np.abs(cent[i]).sum()) for i, c in enumerate(cids)}
    out = pd.DataFrame(
        {"cid": live,
         "n_vecs": counts.loc[live].to_numpy(np.int64),
         "inertia": inertia.loc[live].to_numpy(np.int64),
         "centroid_l1": np.array([l1[int(c)] for c in live], np.int64)}
    )
    return out.astype({c: "int64" for c in cols})[cols]


def _sql_kmeans_embed() -> str:
    g = CORESET_GRID
    d2 = ("list_sum(list_transform(range(1, len(e.q) + 1), "
          "j -> (e.q[j] - c.q[j]) * (e.q[j] - c.q[j])))")
    parts = [f"""
WITH e AS MATERIALIZED (
    SELECT vec_id,
           [CAST(round(x * {g}) AS BIGINT) FOR x IN CAST(embedding AS DOUBLE[])]
               AS q
    FROM embeddings
),
lng AS MATERIALIZED (
    SELECT vec_id, unnest(q) AS v, unnest(range(1, len(q) + 1)) AS j FROM e
),
cent1 AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY vec_id) AS cid, q
    FROM (SELECT vec_id, q FROM e ORDER BY vec_id LIMIT {KMEANS_K})
)"""]
    for t in range(1, KMEANS_ITERS + 1):
        parts.append(f""",
a{t} AS MATERIALIZED (
    SELECT vec_id, cid, d2 FROM (
        SELECT e.vec_id, c.cid, {d2} AS d2,
               row_number() OVER (PARTITION BY e.vec_id
                                  ORDER BY {d2}, c.cid) AS rk
        FROM e CROSS JOIN cent{t} c
    ) WHERE rk = 1
),
cent{t + 1} AS MATERIALIZED (
    SELECT cid, list(cv ORDER BY j) AS q
    FROM (
        SELECT a.cid, l.j, (sum(l.v) // count(*))::BIGINT AS cv
        FROM a{t} a JOIN lng l USING (vec_id)
        GROUP BY 1, 2
    ) GROUP BY cid
)""")
    f = KMEANS_ITERS + 1
    parts.append(f""",
af AS MATERIALIZED (
    SELECT vec_id, cid, d2 FROM (
        SELECT e.vec_id, c.cid, {d2} AS d2,
               row_number() OVER (PARTITION BY e.vec_id
                                  ORDER BY {d2}, c.cid) AS rk
        FROM e CROSS JOIN cent{f} c
    ) WHERE rk = 1
)
SELECT c.cid::BIGINT AS cid, count(*)::BIGINT AS n_vecs,
       sum(af.d2)::BIGINT AS inertia,
       any_value(list_sum(list_transform(c.q, x -> abs(x))))::BIGINT
           AS centroid_l1
FROM af JOIN cent{f} c USING (cid)
GROUP BY c.cid""")
    return "".join(parts)


QUERIES["kmeans_embed"] = (q_kmeans_embed, _sql_kmeans_embed())


# --------------------------------------------------------------------------
# pseudo-relevance-feedback query expansion


def q_prf_expand(sf_dir: str):
    """See ranking.prf_expand_df."""
    from .ranking import prf_expand_df

    return prf_expand_df(sf_dir)


def _sql_prf_expand() -> str:
    from .ranking import sql_prf_expand

    return sql_prf_expand()


QUERIES["prf_expand"] = (q_prf_expand, _sql_prf_expand())


# --------------------------------------------------------------------------
# SemDeDup: near-duplicate pairs WITHIN k-means clusters — the published
# semantic-dedup recipe (cluster first, then per-cluster pairwise cosine).
# Exactness at the threshold without sqrt: a pair qualifies iff dot > 0
# and 10000*dot^2 >= 9801*|a|^2*|b|^2  (cos >= 0.99 exactly, squared
# form; products exceed int64 so the engine checks with Python ints and
# the SQL with HUGEINT).  The sf tables have no 0.99-cosine pairs, so the
# input is the same deterministic dup-every-100th augmentation as
# embedding_neardup_srp, replicated in the SQL.

SEMDEDUP_T_NUM = 9801  # t^2 * 10^4 for t = 0.99
SEMDEDUP_T_DEN = 10000


def _semdedup_aug(ds):
    def aug(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        mask = pa.array(ids % EMB_AUG_EVERY == 0)
        dup = b.filter(mask)
        dup = dup.set_column(
            dup.schema.get_field_index("vec_id"),
            "vec_id",
            pc.add(dup["vec_id"], EMB_AUG_OFFSET),
        )
        return pa.concat_tables([b, dup])

    return ds.map_batches(aug, batch_format="pyarrow")


def q_semdedup_pairs(sf_dir: str):
    """``cid, vec_a, vec_b, dot, na2, nb2`` for same-cluster pairs with
    quantized cosine >= 0.99 (exact squared-form integer test).

    Shape: the kmeans_embed fit (ITERS+1 broadcast scans) over the
    augmented table, one assignment pass emitting (vec_id, cid, q), one
    cid-sharded exchange doing the per-cluster pairwise check (int64
    Gram matmul + float prefilter with margin, Python-int exact test
    only near the boundary).  Per-cluster quadratic is the SemDeDup
    contract — K scales with N so cluster size stays bounded."""
    import pandas as pd

    from .dedup import _sharded_groupby

    path = os.path.join(sf_dir, "embeddings.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = _semdedup_aug(
        read_parquet_sized(path, columns=["vec_id", "embedding"]))
    cols = ["cid", "vec_a", "vec_b", "dot", "na2", "nb2"]

    def _empty() -> pd.DataFrame:
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in cols})

    fit = _kmeans_fit(ds)
    if fit is None:
        return _empty()
    cent, cids = fit
    cref = ray.put(cent)

    def assign(b: pa.Table, cref=cref, cid_arr=cids) -> pa.Table:
        empty = pa.table(
            {"vec_id": pa.array([], pa.int64()),
             "cid": pa.array([], pa.int64()),
             "q": pa.array([], pa.list_(pa.int64()))}
        )
        if b.num_rows == 0:
            return empty
        ids, q = _quant_embeddings(b)
        C = ray.get(cref)
        diff = q[:, None, :] - C[None, :, :]
        d2 = np.einsum("nkd,nkd->nk", diff, diff)
        a = np.argmin(d2, axis=1)
        return pa.table(
            {"vec_id": pa.array(ids, pa.int64()),
             "cid": pa.array(cid_arr[a], pa.int64()),
             "q": pa.array([r.tolist() for r in q], pa.list_(pa.int64()))}
        )

    rows = ds.map_batches(assign, batch_format="pyarrow",
                          zero_copy_batch=True)

    def per_cluster(g: pd.DataFrame) -> pd.DataFrame:
        out = {c: [] for c in cols}
        for cid, grp in g.groupby("cid"):
            ids = grp["vec_id"].to_numpy(np.int64)
            Q = np.stack([np.asarray(v, np.int64) for v in grp["q"]])
            order = np.argsort(ids, kind="stable")
            ids, Q = ids[order], Q[order]
            G = Q @ Q.T
            n2 = np.diag(G).copy()
            # float prefilter with margin; exact Python-int test after
            fG = G.astype(np.float64)
            fn2 = n2.astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                approx = (fG * fG * SEMDEDUP_T_DEN
                          - SEMDEDUP_T_NUM * fn2[:, None] * fn2[None, :])
            iu = np.triu_indices(len(ids), k=1)
            cand = np.where((G[iu] > 0) & (approx[iu] > -1e6))[0]
            for c in cand:
                i, j = int(iu[0][c]), int(iu[1][c])
                dot, na2, nb2 = int(G[i, j]), int(n2[i]), int(n2[j])
                if SEMDEDUP_T_DEN * dot * dot >= SEMDEDUP_T_NUM * na2 * nb2:
                    out["cid"].append(int(cid))
                    out["vec_a"].append(int(ids[i]))
                    out["vec_b"].append(int(ids[j]))
                    out["dot"].append(dot)
                    out["na2"].append(na2)
                    out["nb2"].append(nb2)
        return pd.DataFrame(out).astype({c: "int64" for c in cols})

    part_schema = pa.schema([(c, pa.int64()) for c in cols])
    pairs = _sharded_groupby(rows, ["cid"], per_cluster,
                             empty_schema=part_schema).to_pandas()
    if not len(pairs):
        return _empty()
    return pairs.astype({c: "int64" for c in cols})[cols]


def _sql_semdedup_pairs() -> str:
    g = CORESET_GRID
    d2 = ("list_sum(list_transform(range(1, len(e.q) + 1), "
          "j -> (e.q[j] - c.q[j]) * (e.q[j] - c.q[j])))")
    parts = [f"""
WITH aug AS (
    SELECT vec_id, embedding FROM embeddings
    UNION ALL
    SELECT vec_id + {EMB_AUG_OFFSET} AS vec_id, embedding
    FROM embeddings WHERE vec_id % {EMB_AUG_EVERY} = 0
),
e AS MATERIALIZED (
    SELECT vec_id,
           [CAST(round(x * {g}) AS BIGINT) FOR x IN CAST(embedding AS DOUBLE[])]
               AS q
    FROM aug
),
lng AS MATERIALIZED (
    SELECT vec_id, unnest(q) AS v, unnest(range(1, len(q) + 1)) AS j FROM e
),
cent1 AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY vec_id) AS cid, q
    FROM (SELECT vec_id, q FROM e ORDER BY vec_id LIMIT {KMEANS_K})
)"""]
    for t in range(1, KMEANS_ITERS + 1):
        parts.append(f""",
a{t} AS MATERIALIZED (
    SELECT vec_id, cid FROM (
        SELECT e.vec_id, c.cid,
               row_number() OVER (PARTITION BY e.vec_id
                                  ORDER BY {d2}, c.cid) AS rk
        FROM e CROSS JOIN cent{t} c
    ) WHERE rk = 1
),
cent{t + 1} AS MATERIALIZED (
    SELECT cid, list(cv ORDER BY j) AS q
    FROM (
        SELECT a.cid, l.j, (sum(l.v) // count(*))::BIGINT AS cv
        FROM a{t} a JOIN lng l USING (vec_id)
        GROUP BY 1, 2
    ) GROUP BY cid
)""")
    f = KMEANS_ITERS + 1
    parts.append(f""",
af AS MATERIALIZED (
    SELECT vec_id, cid FROM (
        SELECT e.vec_id, c.cid,
               row_number() OVER (PARTITION BY e.vec_id
                                  ORDER BY {d2}, c.cid) AS rk
        FROM e CROSS JOIN cent{f} c
    ) WHERE rk = 1
),
n2 AS MATERIALIZED (
    SELECT vec_id, list_sum(list_transform(q, x -> x * x))::BIGINT AS nn
    FROM e
)
SELECT a.cid::BIGINT AS cid, a.vec_id AS vec_a, b.vec_id AS vec_b,
       list_sum(list_transform(range(1, len(ea.q) + 1),
                               j -> ea.q[j] * eb.q[j]))::BIGINT AS dot,
       na.nn AS na2, nb.nn AS nb2
FROM af a
JOIN af b ON a.cid = b.cid AND a.vec_id < b.vec_id
JOIN e ea ON ea.vec_id = a.vec_id
JOIN e eb ON eb.vec_id = b.vec_id
JOIN n2 na ON na.vec_id = a.vec_id
JOIN n2 nb ON nb.vec_id = b.vec_id
WHERE list_sum(list_transform(range(1, len(ea.q) + 1),
                              j -> ea.q[j] * eb.q[j])) > 0
  AND {SEMDEDUP_T_DEN} * CAST(list_sum(list_transform(range(1, len(ea.q) + 1),
                              j -> ea.q[j] * eb.q[j])) AS HUGEINT)
      * list_sum(list_transform(range(1, len(ea.q) + 1),
                                j -> ea.q[j] * eb.q[j]))
      >= {SEMDEDUP_T_NUM} * CAST(na.nn AS HUGEINT) * nb.nn
"""
)
    return "".join(parts)


QUERIES["semdedup_pairs"] = (q_semdedup_pairs, _sql_semdedup_pairs())


# --------------------------------------------------------------------------
# Hill tail-index estimator over term frequencies


def q_tail_index(sf_dir: str):
    """See curation.tail_index_df."""
    from .curation import tail_index_df

    return tail_index_df(sf_dir)


def _sql_tail_index() -> str:
    from .curation import TAIL_K

    return f"""
WITH filt AS (
    SELECT doc_id,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM documents
),
tok AS (SELECT doc_id, unnest(toks) AS term FROM filt),
cnt AS (SELECT term, count(*)::BIGINT AS c FROM tok GROUP BY 1),
top AS (
    SELECT c, row_number() OVER (ORDER BY c DESC, term) AS rk
    FROM cnt QUALIFY rk <= {TAIL_K}
),
lg AS (
    SELECT rk,
           CAST(round(log2(c >> s) * 1000000000) AS BIGINT)
               + s * 1000000000 AS lg, c
    FROM (SELECT *, greatest(length(bin(c))::BIGINT - 16, 0) AS s FROM top)
),
agg AS (
    SELECT count(*)::BIGINT AS k,
           coalesce(min(c), 0)::BIGINT AS c_min,
           coalesce(sum(CASE WHEN rk < (SELECT count(*) FROM lg)
                             THEN lg END), 0)::BIGINT AS s_head,
           coalesce(max(CASE WHEN rk = (SELECT count(*) FROM lg)
                             THEN lg END), 0)::BIGINT AS lg_min
    FROM lg
)
SELECT k AS n_terms, c_min,
       (s_head - (k - 1) * lg_min)::BIGINT AS hill_fp,
       CASE WHEN k >= 2 AND s_head - (k - 1) * lg_min > 0
            THEN round(((k - 1) * 1000000000)::DOUBLE
                       / (s_head - (k - 1) * lg_min)::DOUBLE, 6)
            ELSE 0.0 END AS alpha
FROM agg
"""


QUERIES["tail_index"] = (q_tail_index, _sql_tail_index())


# --------------------------------------------------------------------------
# funnel conversion-latency quantiles (funnel x exact-order-stat engines)

FUNNEL_LAT_QS = [0.5, 0.9, 0.99]


def q_funnel_latency(sf_dir: str):
    """(q, value): exact quantile_disc of the view->purchase conversion
    latency (t_last - t_first, epoch microseconds; exact in float64) over
    users completing the whole funnel.  Composition: the funnel_stages
    bucketed exchange feeds the histogram-refinement exact-quantile
    engine — no global sort at any scale."""
    from .quantiles import exact_quantiles_disc
    from .temporal import funnel_stages

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["user_id", "ts", "event_type"])
    out = funnel_stages(
        ev, key="user_id", ts="ts", type_col="event_type",
        stages=FUNNEL_STAGES)
    n = len(FUNNEL_STAGES)

    def deltas(b: pa.Table) -> pa.Table:
        stage = b["stage"].to_numpy(zero_copy_only=False)
        keep = stage == n
        t1 = b["t1_us"].to_numpy(zero_copy_only=False)[keep]
        tn = b[f"t{n}_us"].to_numpy(zero_copy_only=False)[keep]
        return pa.table(
            {"d": pa.array((tn - t1).astype(np.float64), pa.float64())}
        )

    dds = out.map_batches(deltas, batch_format="pyarrow")
    return exact_quantiles_disc(dds, "d", FUNNEL_LAT_QS)


def _sql_funnel_latency() -> str:
    base = _sql_events_funnel()
    # reuse the funnel CTE chain verbatim; wrap it to extract deltas
    sels = [
        f"SELECT {q} AS q, quantile_disc(d, {q}) AS value FROM deltas"
        for q in FUNNEL_LAT_QS
    ]
    names = FUNNEL_STAGES
    k = len(names)
    return f"""
WITH f AS ({base}),
deltas AS (
    SELECT (t{k}_us - t1_us)::DOUBLE AS d FROM f WHERE stage = {k}
)
{" UNION ALL ".join(sels)}
"""


QUERIES["funnel_latency"] = (q_funnel_latency, _sql_funnel_latency())


# --------------------------------------------------------------------------
# cluster labeling: top terms per k-means cluster (embeddings ⋈ documents)

CLUSTER_TOP_TERMS_K = 5


def q_cluster_top_terms(sf_dir: str):
    """``cid, term, c, rank`` — the top-``CLUSTER_TOP_TERMS_K`` terms
    (total occurrences, ties term asc) of the documents whose embedding
    (vec_id = doc_id) lands in each k-means cluster: the cluster-labeling
    step of a SemDeDup/data-map pipeline.

    Shape: kmeans fit (bounded scans) + assignment pass on embeddings,
    per-batch (doc, term, c) Arrow partials on documents, ONE
    doc-sharded exchange stitching cid onto term rows (both sides
    co-locate by id), ONE term-sharded exchange with per-shard per-cid
    top-K candidates (a (cid, term) group lives in one shard), bounded
    driver merge."""
    import pandas as pd

    from .curation import _batch_tokens
    from .dedup import _sharded_groupby

    epath = os.path.join(sf_dir, "embeddings.parquet") if os.path.isdir(sf_dir) else sf_dir
    eds = read_parquet_sized(epath, columns=["vec_id", "embedding"])
    cols = ["cid", "term", "c", "rank"]

    def _empty() -> pd.DataFrame:
        return pd.DataFrame({c: pd.Series(
            [], dtype=object if c == "term" else "int64") for c in cols})

    fit = _kmeans_fit(eds)
    if fit is None:
        return _empty()
    cent, cids = fit
    cref = ray.put(cent)

    def assign(b: pa.Table, cref=cref, cid_arr=cids) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "cid": pa.array([], pa.int64()),
             "term": pa.array([], pa.utf8()),
             "c": pa.array([], pa.int64())}
        )
        if b.num_rows == 0:
            return empty
        ids, q = _quant_embeddings(b)
        C = ray.get(cref)
        diff = q[:, None, :] - C[None, :, :]
        d2 = np.einsum("nkd,nkd->nk", diff, diff)
        a = np.argmin(d2, axis=1)
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "cid": pa.array(cid_arr[a], pa.int64()),
             "term": pa.array([""] * len(ids), pa.utf8()),
             "c": pa.array(np.zeros(len(ids), np.int64), pa.int64())}
        )

    aside = eds.map_batches(assign, batch_format="pyarrow",
                            zero_copy_batch=True)

    dpath = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    docs = read_parquet_sized(dpath, columns=["doc_id", "text"])

    def term_partials(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "cid": pa.array([], pa.int64()),
             "term": pa.array([], pa.utf8()),
             "c": pa.array([], pa.int64())}
        )
        toks, token_doc, _ri, _h1, _h2 = _batch_tokens(b)
        if not len(toks):
            return empty
        t = pa.table(
            {"doc_id": pa.array(token_doc, pa.int64()), "term": toks}
        )
        g = t.group_by(["doc_id", "term"]).aggregate([([], "count_all")])
        n = g.num_rows
        return pa.table(
            {"doc_id": g["doc_id"],
             "cid": pa.array(np.full(n, -1, np.int64), pa.int64()),
             "term": g["term"],
             "c": g["count_all"].cast(pa.int64())}
        )

    tside = docs.map_batches(term_partials, batch_format="pyarrow",
                             zero_copy_batch=True)
    both = aside.union(tside)

    def stitch(g: pd.DataFrame) -> pd.DataFrame:
        a = g[g["cid"] >= 0][["doc_id", "cid"]]
        t = g[g["cid"] < 0][["doc_id", "term", "c"]]
        j = t.merge(a, on="doc_id", how="inner")
        out = j.groupby(["cid", "term"], as_index=False)["c"].sum()
        return out.astype({"cid": "int64", "c": "int64"})

    part_schema = pa.schema(
        [("cid", pa.int64()), ("term", pa.utf8()), ("c", pa.int64())]
    )
    ct = _sharded_groupby(both, ["doc_id"], stitch,
                          empty_schema=part_schema)

    def add_th(b: pa.Table) -> pa.Table:
        # shard by a hash of the term string (cheap: python hash is NOT
        # stable across workers — reuse the span-hash on the term bytes)
        from ..functions.tokenize import _span_hashes, _string_buffers

        t = b["term"]
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        data, offs = _string_buffers(t)
        lens = np.diff(offs).astype(np.int64)
        h1, _h2 = _span_hashes(
            data, offs[:-1].astype(np.int64), np.minimum(lens, 16))
        return b.append_column(
            "th", pa.array(h1.view(np.int64), pa.int64()))

    ct = ct.map_batches(add_th, batch_format="pyarrow")

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(["cid", "term"], as_index=False)["c"].sum()
        s = s.sort_values(["cid", "c", "term"],
                          ascending=[True, False, True], kind="mergesort")
        return s.groupby("cid", as_index=False).head(CLUSTER_TOP_TERMS_K)

    cand = _sharded_groupby(ct, ["th"], per_shard,
                            empty_schema=part_schema).to_pandas()
    if not len(cand):
        return _empty()
    cand = cand[cand["cid"] >= 0]
    top = cand.sort_values(["cid", "c", "term"],
                           ascending=[True, False, True],
                           kind="mergesort").groupby(
        "cid", as_index=False).head(CLUSTER_TOP_TERMS_K)
    top = top.reset_index(drop=True)
    top["rank"] = top.groupby("cid").cumcount() + 1
    return top.astype({"cid": "int64", "c": "int64", "rank": "int64"})[cols]


def _sql_cluster_top_terms() -> str:
    g = CORESET_GRID
    d2 = ("list_sum(list_transform(range(1, len(e.q) + 1), "
          "j -> (e.q[j] - c.q[j]) * (e.q[j] - c.q[j])))")
    parts = [f"""
WITH e AS MATERIALIZED (
    SELECT vec_id,
           [CAST(round(x * {g}) AS BIGINT) FOR x IN CAST(embedding AS DOUBLE[])]
               AS q
    FROM embeddings
),
lng AS MATERIALIZED (
    SELECT vec_id, unnest(q) AS v, unnest(range(1, len(q) + 1)) AS j FROM e
),
cent1 AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY vec_id) AS cid, q
    FROM (SELECT vec_id, q FROM e ORDER BY vec_id LIMIT {KMEANS_K})
)"""]
    for t in range(1, KMEANS_ITERS + 1):
        parts.append(f""",
a{t} AS MATERIALIZED (
    SELECT vec_id, cid FROM (
        SELECT e.vec_id, c.cid,
               row_number() OVER (PARTITION BY e.vec_id
                                  ORDER BY {d2}, c.cid) AS rk
        FROM e CROSS JOIN cent{t} c
    ) WHERE rk = 1
),
cent{t + 1} AS MATERIALIZED (
    SELECT cid, list(cv ORDER BY j) AS q
    FROM (
        SELECT a.cid, l.j, (sum(l.v) // count(*))::BIGINT AS cv
        FROM a{t} a JOIN lng l USING (vec_id)
        GROUP BY 1, 2
    ) GROUP BY cid
)""")
    f = KMEANS_ITERS + 1
    parts.append(f""",
af AS MATERIALIZED (
    SELECT vec_id, cid FROM (
        SELECT e.vec_id, c.cid,
               row_number() OVER (PARTITION BY e.vec_id
                                  ORDER BY {d2}, c.cid) AS rk
        FROM e CROSS JOIN cent{f} c
    ) WHERE rk = 1
),
filt AS (
    SELECT doc_id,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM documents
),
tok AS (SELECT doc_id, unnest(toks) AS term FROM filt),
ctc AS (
    SELECT af.cid, t.term, count(*)::BIGINT AS c
    FROM tok t JOIN af ON af.vec_id = t.doc_id
    GROUP BY 1, 2
)
SELECT cid::BIGINT AS cid, term, c, rk::BIGINT AS rank
FROM (
    SELECT *, row_number() OVER (
        PARTITION BY cid ORDER BY c DESC, term) AS rk
    FROM ctc
)
WHERE rk <= {CLUSTER_TOP_TERMS_K}""")
    return "".join(parts)


QUERIES["cluster_top_terms"] = (q_cluster_top_terms, _sql_cluster_top_terms())


# --------------------------------------------------------------------------
# CUSUM changepoint over hourly event counts


def q_events_cusum(sf_dir: str):
    """See temporal.cusum_hourly."""
    from .temporal import cusum_hourly

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["ts"])
    return cusum_hourly(ev)


_SQL_EVENTS_CUSUM = """
WITH RECURSIVE hc AS (
    SELECT epoch_us(ts) // 3600000000 AS h, count(*)::BIGINT AS c
    FROM events GROUP BY 1
),
o AS (
    SELECT h, c, row_number() OVER (ORDER BY h) AS rn,
           count(*) OVER () AS n, sum(c) OVER ()::BIGINT AS t
    FROM hc
),
rec AS (
    SELECT rn, h, greatest(0, n * c - t)::BIGINT AS s, n, t
    FROM o WHERE rn = 1
    UNION ALL
    SELECT o.rn, o.h, greatest(0, rec.s + o.n * o.c - o.t)::BIGINT, o.n, o.t
    FROM rec JOIN o ON o.rn = rec.rn + 1
),
mx AS (
    SELECT s, h FROM rec ORDER BY s DESC, rn ASC LIMIT 1
)
SELECT coalesce((SELECT max(n) FROM o), 0)::BIGINT AS n_hours,
       coalesce((SELECT max(t) FROM o), 0)::BIGINT AS total,
       coalesce((SELECT s FROM mx), 0)::BIGINT AS max_cusum,
       CASE WHEN coalesce((SELECT s FROM mx), 0) > 0
            THEN (SELECT h FROM mx) ELSE -1 END::BIGINT AS peak_hour
"""


QUERIES["events_cusum"] = (q_events_cusum, _SQL_EVENTS_CUSUM)


def q_events_acf(sf_dir: str):
    """Autocorrelation of the hourly event-count series at lags 1..6
    (temporal.acf_hourly): exact integer moments, qty_discount_corr-
    style bit-identical float payload."""
    from .temporal import acf_hourly

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    return acf_hourly(read_parquet_sized(path, columns=["ts"]))


def q_events_ewma(sf_dir: str):
    """Fixed-point EWMA smoothing of the hourly event-count series
    (temporal.ewma_hourly): all-integer recurrence, recursive-CTE
    oracle."""
    from .temporal import ewma_hourly

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    return ewma_hourly(read_parquet_sized(path, columns=["ts"]))


from .temporal import SQL_ACF_HOURLY as _SQL_ACF  # noqa: E402
from .temporal import SQL_EWMA_HOURLY as _SQL_EWMA  # noqa: E402

QUERIES["events_acf"] = (q_events_acf, _SQL_ACF)
QUERIES["events_ewma"] = (q_events_ewma, _SQL_EWMA)


def q_events_seasonality(sf_dir: str):
    """Hour-of-day seasonality profile (temporal.seasonality_hod):
    integer mean events/hour per hod slot."""
    from .temporal import seasonality_hod

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    return seasonality_hod(read_parquet_sized(path, columns=["ts"]))


from .temporal import SQL_SEASONALITY_HOD as _SQL_SEASON  # noqa: E402

QUERIES["events_seasonality"] = (q_events_seasonality, _SQL_SEASON)


def q_events_trend_mk(sf_dir: str):
    """Mann-Kendall monotonic-trend test on hourly counts
    (temporal.mann_kendall_hourly): exact integer S + tie-adjusted
    variance, continuity-corrected z payload."""
    from .temporal import mann_kendall_hourly

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    return mann_kendall_hourly(read_parquet_sized(path, columns=["ts"]))


from .temporal import SQL_MANN_KENDALL as _SQL_MK  # noqa: E402

QUERIES["events_trend_mk"] = (q_events_trend_mk, _SQL_MK)


# --------------------------------------------------------------------------
# product-quantization codebook training (the PQ half of IVF-PQ — the
# 10^12-vector ANN path).  The 64-dim space splits into PQ_SUB contiguous
# subspaces; each gets its own integer Lloyd codebook (same arithmetic
# contract as kmeans_embed: truncating division, ties cid asc, empty
# clusters drop).  ONE scan per iteration trains ALL subspaces at once
# (the centroid sets broadcast together; per batch, one einsum per
# subspace over a slice view — scans do not multiply with PQ_SUB).

PQ_SUB = 4
PQ_K = 4
PQ_ITERS = 2


def q_pq_codebook(sf_dir: str):
    """``sub, cid, n_vecs, inertia`` per subspace codeword after
    ``PQ_ITERS`` Lloyd iterations (seeds = the K-smallest-vec_id
    subvectors; sub is 0-based, cid 1-based)."""
    import pandas as pd

    path = os.path.join(sf_dir, "embeddings.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["vec_id", "embedding"])
    cols = ["sub", "cid", "n_vecs", "inertia"]

    def _empty() -> pd.DataFrame:
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in cols})

    def init_cand(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {"vec_id": pa.array([], pa.int64()),
             "q": pa.array([], pa.list_(pa.int64()))}
        )
        if b.num_rows == 0:
            return empty
        ids, q = _quant_embeddings(b)
        sel = np.argsort(ids, kind="stable")[:PQ_K]
        return pa.table(
            {"vec_id": pa.array(ids[sel], pa.int64()),
             "q": pa.array([r.tolist() for r in q[sel]],
                           pa.list_(pa.int64()))}
        )

    cand = ds.map_batches(init_cand, batch_format="pyarrow",
                          zero_copy_batch=True).to_pandas()
    if not len(cand):
        return _empty()
    cand = cand.sort_values("vec_id", kind="mergesort").head(PQ_K)
    full = np.stack([np.asarray(v, np.int64) for v in cand["q"]])
    dim = full.shape[1]
    if dim % PQ_SUB:
        raise ValueError(f"pq_codebook: dim {dim} not divisible by {PQ_SUB}")
    w = dim // PQ_SUB
    # state per subspace: (centroids, cids)
    state = [(full[:, s * w:(s + 1) * w].copy(),
              np.arange(1, PQ_K + 1, dtype=np.int64)) for s in range(PQ_SUB)]

    def scan(state_now):
        cref = ray.put([c for c, _ in state_now])
        cidl = [cid for _, cid in state_now]

        def part(b: pa.Table, cref=cref, cidl=cidl) -> pa.Table:
            empty = pa.table(
                {"sub": pa.array([], pa.int64()),
                 "cid": pa.array([], pa.int64()),
                 "j": pa.array([], pa.int64()),
                 "v": pa.array([], pa.int64())}
            )
            if b.num_rows == 0:
                return empty
            _ids, q = _quant_embeddings(b)
            C = ray.get(cref)
            subs, cidc, jc, vc = [], [], [], []
            for s in range(PQ_SUB):
                qs = q[:, s * w:(s + 1) * w]
                diff = qs[:, None, :] - C[s][None, :, :]
                d2 = np.einsum("nkd,nkd->nk", diff, diff)
                a = np.argmin(d2, axis=1)
                mind = d2[np.arange(len(qs)), a]
                acid = cidl[s][a]
                order = np.argsort(acid, kind="stable")
                uc, starts = np.unique(acid[order], return_index=True)
                qsum = np.add.reduceat(qs[order], starts, axis=0)
                isum = np.add.reduceat(mind[order], starts)
                n = np.diff(np.append(starts, len(acid))).astype(np.int64)
                nl = len(uc)
                subs.append(np.full(nl * (w + 2), s, np.int64))
                cidc.append(np.concatenate([np.repeat(uc, w), uc, uc]))
                jc.append(np.concatenate(
                    [np.tile(np.arange(1, w + 1, dtype=np.int64), nl),
                     np.zeros(nl, np.int64), np.full(nl, -1, np.int64)]))
                vc.append(np.concatenate([qsum.ravel(), n, isum]))
            return pa.table(
                {"sub": pa.array(np.concatenate(subs), pa.int64()),
                 "cid": pa.array(np.concatenate(cidc), pa.int64()),
                 "j": pa.array(np.concatenate(jc), pa.int64()),
                 "v": pa.array(np.concatenate(vc), pa.int64())}
            )

        p = ds.map_batches(part, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
        return p.groupby(["sub", "cid", "j"], as_index=False)["v"].sum()

    for _t in range(PQ_ITERS):
        agg = scan(state)
        new_state = []
        for s in range(PQ_SUB):
            a = agg[agg["sub"] == s]
            counts = a[a["j"] == 0].set_index("cid")["v"]
            live = counts[counts > 0].index.to_numpy(np.int64)
            live.sort()
            piv = a[a["j"] >= 1].pivot_table(
                index="cid", columns="j", values="v",
                aggfunc="sum").loc[live]
            sm = piv.to_numpy(np.int64)
            n = counts.loc[live].to_numpy(np.int64)[:, None]
            new_state.append(
                (np.sign(sm) * (np.abs(sm) // n), live))
        state = new_state

    agg = scan(state)
    rows = []
    for s in range(PQ_SUB):
        a = agg[agg["sub"] == s]
        counts = a[a["j"] == 0].set_index("cid")["v"]
        inertia = a[a["j"] == -1].set_index("cid")["v"]
        live = counts[counts > 0].index.to_numpy(np.int64)
        live.sort()
        for c in live:
            rows.append({"sub": s, "cid": int(c),
                         "n_vecs": int(counts.loc[c]),
                         "inertia": int(inertia.loc[c])})
    if not rows:
        return _empty()
    return pd.DataFrame(rows).astype({c: "int64" for c in cols})[cols]


def _sql_pq_codebook() -> str:
    g = CORESET_GRID
    blocks = [f"""
WITH e0 AS MATERIALIZED (
    SELECT vec_id,
           [CAST(round(x * {g}) AS BIGINT) FOR x IN CAST(embedding AS DOUBLE[])]
               AS qf
    FROM embeddings
)"""]
    sels = []
    # DuckDB list slicing is 1-based inclusive: qf[a:b]
    # subspace width is derived from the data (len(qf) // PQ_SUB)
    for s in range(PQ_SUB):
        a = f"(len(e0.qf) // {PQ_SUB}) * {s} + 1"
        b = f"(len(e0.qf) // {PQ_SUB}) * {s + 1}"
        d2 = ("list_sum(list_transform(range(1, len(e.q) + 1), "
              "j -> (e.q[j] - c.q[j]) * (e.q[j] - c.q[j])))")
        blocks.append(f""",
e_{s} AS MATERIALIZED (
    SELECT vec_id, qf[{a}:{b}] AS q FROM e0
),
lng_{s} AS MATERIALIZED (
    SELECT vec_id, unnest(q) AS v, unnest(range(1, len(q) + 1)) AS j
    FROM e_{s}
),
cent_{s}_1 AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY vec_id) AS cid, q
    FROM (SELECT vec_id, q FROM e_{s} ORDER BY vec_id LIMIT {PQ_K})
)""")
        for t in range(1, PQ_ITERS + 1):
            blocks.append(f""",
a_{s}_{t} AS MATERIALIZED (
    SELECT vec_id, cid FROM (
        SELECT e.vec_id, c.cid,
               row_number() OVER (PARTITION BY e.vec_id
                                  ORDER BY {d2}, c.cid) AS rk
        FROM e_{s} e CROSS JOIN cent_{s}_{t} c
    ) WHERE rk = 1
),
cent_{s}_{t + 1} AS MATERIALIZED (
    SELECT cid, list(cv ORDER BY j) AS q
    FROM (
        SELECT a.cid, l.j, (sum(l.v) // count(*))::BIGINT AS cv
        FROM a_{s}_{t} a JOIN lng_{s} l USING (vec_id)
        GROUP BY 1, 2
    ) GROUP BY cid
)""")
        f = PQ_ITERS + 1
        blocks.append(f""",
af_{s} AS MATERIALIZED (
    SELECT vec_id, cid, d2 FROM (
        SELECT e.vec_id, c.cid, {d2} AS d2,
               row_number() OVER (PARTITION BY e.vec_id
                                  ORDER BY {d2}, c.cid) AS rk
        FROM e_{s} e CROSS JOIN cent_{s}_{f} c
    ) WHERE rk = 1
)""")
        sels.append(
            f"SELECT {s}::BIGINT AS sub, cid::BIGINT AS cid, "
            f"count(*)::BIGINT AS n_vecs, sum(d2)::BIGINT AS inertia "
            f"FROM af_{s} GROUP BY cid"
        )
    return "".join(blocks) + "\n" + "\nUNION ALL\n".join(sels)


QUERIES["pq_codebook"] = (q_pq_codebook, _sql_pq_codebook())


# --------------------------------------------------------------------------
# per-user robust (median/MAD) value outliers


def q_user_value_outliers(sf_dir: str):
    """See temporal.user_value_outliers_df."""
    from .temporal import user_value_outliers_df

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["user_id", "value"])
    return user_value_outliers_df(ev)


_SQL_USER_VALUE_OUTLIERS = """
WITH q AS (
    SELECT user_id, CAST(round(value * 100) AS BIGINT) AS v FROM events
),
med AS (
    SELECT user_id, count(*)::BIGINT AS n,
           quantile_disc(v, 0.5)::BIGINT AS med_cents
    FROM q GROUP BY 1
),
d AS (
    SELECT q.user_id, abs(q.v - med.med_cents)::BIGINT AS av
    FROM q JOIN med USING (user_id)
),
mad AS (
    SELECT user_id, quantile_disc(av, 0.5)::BIGINT AS mad_cents
    FROM d GROUP BY 1
),
outl AS (
    SELECT d.user_id, sum((d.av > 3 * mad.mad_cents)::BIGINT)::BIGINT AS c
    FROM d JOIN mad USING (user_id)
    WHERE mad.mad_cents > 0 GROUP BY 1
)
SELECT med.user_id, med.n, med.med_cents, mad.mad_cents,
       coalesce(outl.c, 0)::BIGINT AS n_outliers
FROM med JOIN mad USING (user_id) LEFT JOIN outl USING (user_id)
"""


QUERIES["user_value_outliers"] = (
    q_user_value_outliers, _SQL_USER_VALUE_OUTLIERS)


# --------------------------------------------------------------------------
# SAX symbolization of the global event-value series


def q_value_sax(sf_dir: str):
    """See temporal.value_sax_ds."""
    from .temporal import value_sax_ds

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["ts", "event_id", "value"])
    return value_sax_ds(ev)


def _sql_value_sax() -> str:
    from .temporal import SAX_W

    return f"""
WITH q AS (
    SELECT epoch_us(ts) AS us, event_id,
           CAST(round(value * 100) AS BIGINT) AS v
    FROM events
),
bp AS (
    SELECT quantile_disc(v, 0.25)::BIGINT AS b1,
           quantile_disc(v, 0.5)::BIGINT AS b2,
           quantile_disc(v, 0.75)::BIGINT AS b3
    FROM q
),
r AS (
    SELECT v,
           (row_number() OVER (ORDER BY us, event_id) - 1) // {SAX_W} AS win
    FROM q
),
w AS (SELECT win, count(*)::BIGINT AS n, sum(v)::BIGINT AS s FROM r GROUP BY 1)
SELECT win, n, (s // n)::BIGINT AS paa_cents,
       (CASE WHEN s // n <= b1 THEN 0
             WHEN s // n <= b2 THEN 1
             WHEN s // n <= b3 THEN 2 ELSE 3 END)::BIGINT AS symbol
FROM w CROSS JOIN bp
"""


QUERIES["value_sax"] = (q_value_sax, _sql_value_sax())


# --------------------------------------------------------------------------
# TPC-H Q13 shape: customer order-count distribution (count-of-counts)


def q_custdist(sf_dir: str):
    """(c_count, custdist): how many customers placed exactly c_count
    orders, INCLUDING zero-order customers (the left-join leg).

    Shape: per-batch order partials (o_custkey, n) — then ONE
    custkey-sharded exchange joining the partial counts to the customer
    side in-shard (both sides co-locate), then a bounded count-of-counts
    combine (distinct c_count values are tiny)."""
    import pandas as pd

    from .dedup import _sharded_groupby

    base = sf_dir if os.path.isdir(sf_dir) else os.path.dirname(sf_dir)
    orders = read_parquet_sized(
        os.path.join(base, "orders.parquet"), columns=["o_custkey"])
    cust = read_parquet_sized(
        os.path.join(base, "customer.parquet"), columns=["c_custkey"])

    def o_part(b: pa.Table) -> pa.Table:
        k = b["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        uk, c = np.unique(k, return_counts=True)
        return pa.table(
            {"k": pa.array(uk, pa.int64()),
             "n": pa.array(c.astype(np.int64), pa.int64()),
             "side": pa.array(np.zeros(len(uk), np.int64), pa.int64())}
        )

    def c_part(b: pa.Table) -> pa.Table:
        k = pc.cast(b["c_custkey"], pa.int64())
        return pa.table(
            {"k": k,
             "n": pa.array(np.zeros(b.num_rows, np.int64), pa.int64()),
             "side": pa.array(np.ones(b.num_rows, np.int64), pa.int64())}
        )

    both = orders.map_batches(o_part, batch_format="pyarrow").union(
        cust.map_batches(c_part, batch_format="pyarrow"))

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        oc = g[g["side"] == 0].groupby("k")["n"].sum()
        ck = g.loc[g["side"] == 1, "k"]
        cnt = ck.map(oc).fillna(0).astype("int64")
        out = cnt.value_counts().rename_axis("c_count").reset_index(
            name="custdist")
        return out.astype({"c_count": "int64", "custdist": "int64"})

    part_schema = pa.schema(
        [("c_count", pa.int64()), ("custdist", pa.int64())]
    )
    parts = _sharded_groupby(both, ["k"], per_shard,
                             empty_schema=part_schema).to_pandas()
    cols = ["c_count", "custdist"]
    if not len(parts):
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in cols})
    out = parts.groupby("c_count", as_index=False)["custdist"].sum()
    return out.astype({"c_count": "int64", "custdist": "int64"})[cols]


_SQL_CUSTDIST = """
WITH co AS (
    SELECT c.c_custkey, count(o.o_custkey)::BIGINT AS c_count
    FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
    GROUP BY 1
)
SELECT c_count, count(*)::BIGINT AS custdist FROM co GROUP BY 1
"""


QUERIES["custdist"] = (q_custdist, _SQL_CUSTDIST)


# --------------------------------------------------------------------------
# TPC-H Q22 shape: above-average balances with no orders, by nation.
# The "above average" comparison is EXACT integer algebra:
# cents_i * N_pos > SUM_pos_cents  <=>  bal_i > avg(bal where bal > 0)
# — no float threshold, so the boundary can never disagree.


RICH_AUG_EVERY = 10
RICH_AUG_OFFSET = 1_000_000


def q_rich_inactive(sf_dir: str):
    """(n_name, n_cust, sum_bal_cents) for customers whose balance
    exceeds the average POSITIVE balance and who placed no orders.

    The synthetic customer table is fully active (every customer has
    orders), so the input is augmented with deterministic no-order
    clones (every ``RICH_AUG_EVERY``-th customer, key + 1e6, balance
    doubled IN THE CENTS DOMAIN so no second float rounding), replicated
    in the SQL — the embedding_neardup_srp precedent."""
    import pandas as pd

    from .dedup import _sharded_groupby

    base = sf_dir if os.path.isdir(sf_dir) else os.path.dirname(sf_dir)
    cust = read_parquet_sized(
        os.path.join(base, "customer.parquet"),
        columns=["c_custkey", "c_nationkey", "c_acctbal"])
    orders = read_parquet_sized(
        os.path.join(base, "orders.parquet"), columns=["o_custkey"])
    nation = read_parquet_sized(
        os.path.join(base, "nation.parquet"),
        columns=["n_nationkey", "n_name"]).to_pandas()
    nmap = dict(zip(nation["n_nationkey"].astype("int64"),
                    nation["n_name"]))

    from ..functions.rounding import round_half_away

    def cents(b: pa.Table) -> pa.Table:
        v = b["c_acctbal"].to_numpy(zero_copy_only=False).astype(np.float64)
        vc = round_half_away(v * 100.0, 0).astype(np.int64)
        k = b["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        nat = b["c_nationkey"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        am = k % RICH_AUG_EVERY == 0
        k = np.concatenate([k, k[am] + RICH_AUG_OFFSET])
        nat = np.concatenate([nat, nat[am]])
        vc = np.concatenate([vc, 2 * vc[am]])
        return pa.table(
            {"k": pa.array(k, pa.int64()),
             "nat": pa.array(nat, pa.int64()),
             "cents": pa.array(vc, pa.int64()),
             "side": pa.array(np.zeros(len(k), np.int64), pa.int64())}
        )

    cds = cust.map_batches(cents, batch_format="pyarrow")

    # global positive-balance moments (two scalars)
    def pos_mom(b: pa.Table) -> pa.Table:
        v = b["cents"].to_numpy(zero_copy_only=False)
        p = v[v > 0]
        return pa.table(
            {"s": pa.array([int(p.sum())], pa.int64()),
             "n": pa.array([len(p)], pa.int64())}
        )

    mom = cds.map_batches(pos_mom, batch_format="pyarrow").to_pandas()
    s_pos = int(mom["s"].sum()) if len(mom) else 0
    n_pos = int(mom["n"].sum()) if len(mom) else 0
    cols = ["n_name", "n_cust", "sum_bal_cents"]
    if n_pos == 0:
        return pd.DataFrame(
            {c: pd.Series([], dtype=object if c == "n_name" else "int64")
             for c in cols})

    def o_keys(b: pa.Table) -> pa.Table:
        k = b["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        uk = np.unique(k)
        z = np.zeros(len(uk), np.int64)
        return pa.table(
            {"k": pa.array(uk, pa.int64()),
             "nat": pa.array(z, pa.int64()),
             "cents": pa.array(z, pa.int64()),
             "side": pa.array(np.ones(len(uk), np.int64), pa.int64())}
        )

    both = cds.union(orders.map_batches(o_keys, batch_format="pyarrow"))

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        has_order = set(g.loc[g["side"] == 1, "k"].tolist())
        c = g[g["side"] == 0]
        keep = (~c["k"].isin(has_order)) & (
            c["cents"].to_numpy(np.int64) * n_pos > s_pos)
        sel = c[keep]
        out = sel.groupby("nat", as_index=False).agg(
            n_cust=("k", "size"), sum_bal_cents=("cents", "sum"))
        return out.astype({"nat": "int64", "n_cust": "int64",
                           "sum_bal_cents": "int64"})

    part_schema = pa.schema(
        [("nat", pa.int64()), ("n_cust", pa.int64()),
         ("sum_bal_cents", pa.int64())]
    )
    parts = _sharded_groupby(both, ["k"], per_shard,
                             empty_schema=part_schema).to_pandas()
    if not len(parts):
        return pd.DataFrame(
            {c: pd.Series([], dtype=object if c == "n_name" else "int64")
             for c in cols})
    out = parts.groupby("nat", as_index=False).agg(
        n_cust=("n_cust", "sum"), sum_bal_cents=("sum_bal_cents", "sum"))
    out["n_name"] = out["nat"].map(nmap)
    return out.astype(
        {"n_cust": "int64", "sum_bal_cents": "int64"})[cols]


_SQL_RICH_INACTIVE = f"""
WITH c0 AS (
    SELECT c_custkey, c_nationkey,
           CAST(round(c_acctbal * 100) AS BIGINT) AS cents
    FROM customer
),
c AS (
    SELECT * FROM c0
    UNION ALL
    SELECT c_custkey + {RICH_AUG_OFFSET}, c_nationkey, 2 * cents
    FROM c0 WHERE c_custkey % {RICH_AUG_EVERY} = 0
),
mom AS (
    SELECT sum(cents)::BIGINT AS s, count(*)::BIGINT AS n
    FROM c WHERE cents > 0
),
sel AS (
    SELECT c.c_nationkey, c.cents
    FROM c CROSS JOIN mom
    WHERE c.cents * mom.n > mom.s
      AND NOT EXISTS (SELECT 1 FROM orders o
                      WHERE o.o_custkey = c.c_custkey)
)
SELECT n.n_name, count(*)::BIGINT AS n_cust,
       sum(sel.cents)::BIGINT AS sum_bal_cents
FROM sel JOIN nation n ON n.n_nationkey = sel.c_nationkey
GROUP BY 1
"""


QUERIES["rich_inactive"] = (q_rich_inactive, _SQL_RICH_INACTIVE)


# --------------------------------------------------------------------------
# power-iteration PCA direction over the embedding second-moment (Gram)
# matrix — distributed linear algebra on exact integers.  The ONLY
# distributed work is the d x d second-moment matrix (fixed 4096-row
# partials per batch); the 3 matvec iterations run on the driver /
# in chained CTEs.  Magnitude control keeps everything in int64: the
# Gram matrix pre-scales to < 2^26 and each iterate rescales to < 2^20
# via ARITHMETIC right-shifts (numpy >> and DuckDB >> both floor, so
# the two engines agree on negatives; bitlen = length(bin(x)) on ints).

PCA_ITERS = 3
_PCA_C_BITS = 26
_PCA_V_BITS = 20


def _bitlen(x: int) -> int:
    return int(x).bit_length()


def q_embed_pca_power(sf_dir: str):
    """(j, v): the dominant second-moment direction after ``PCA_ITERS``
    integer power iterations from the all-ones start (j is the 1-based
    dimension; v the fixed-point component)."""
    import pandas as pd

    path = os.path.join(sf_dir, "embeddings.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["vec_id", "embedding"])

    def gram(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {"r": pa.array([], pa.int64()), "c": pa.array([], pa.int64()),
             "w": pa.array([], pa.int64())}
        )
        if b.num_rows == 0:
            return empty
        _ids, q = _quant_embeddings(b)
        C = q.T @ q  # (d, d) int64; |entry| <= n_batch * 2^20
        d = C.shape[0]
        rr, cc = np.meshgrid(np.arange(1, d + 1, dtype=np.int64),
                             np.arange(1, d + 1, dtype=np.int64),
                             indexing="ij")
        return pa.table(
            {"r": pa.array(rr.ravel(), pa.int64()),
             "c": pa.array(cc.ravel(), pa.int64()),
             "w": pa.array(C.ravel(), pa.int64())}
        )

    parts = ds.map_batches(gram, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    cols = ["j", "v"]
    if not len(parts):
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in cols})
    g = parts.groupby(["r", "c"], as_index=False)["w"].sum()
    d = int(g["r"].max())
    C = np.zeros((d, d), np.int64)
    C[g["r"].to_numpy(np.int64) - 1, g["c"].to_numpy(np.int64) - 1] = \
        g["w"].to_numpy(np.int64)
    mx = int(np.abs(C).max())
    sc = max(0, _bitlen(mx) - _PCA_C_BITS)
    C = C >> sc  # arithmetic shift, matches DuckDB >>
    v = np.ones(d, np.int64)
    for _t in range(PCA_ITERS):
        w = C @ v
        mw = int(np.abs(w).max())
        st = max(0, _bitlen(mw) - _PCA_V_BITS)
        v = w >> st
    return pd.DataFrame(
        {"j": np.arange(1, d + 1, dtype=np.int64), "v": v}
    ).astype({"j": "int64", "v": "int64"})


def _sql_embed_pca_power() -> str:
    g = CORESET_GRID
    parts = [f"""
WITH e AS MATERIALIZED (
    SELECT vec_id,
           [CAST(round(x * {g}) AS BIGINT) FOR x IN CAST(embedding AS DOUBLE[])]
               AS q
    FROM embeddings
),
lng AS MATERIALIZED (
    SELECT vec_id, unnest(q) AS v, unnest(range(1, len(q) + 1)) AS j FROM e
),
g0 AS MATERIALIZED (
    SELECT a.j AS r, b.j AS c, sum(a.v * b.v)::BIGINT AS w
    FROM lng a JOIN lng b USING (vec_id)
    GROUP BY 1, 2
),
sc AS (
    SELECT greatest(length(bin(max(abs(w))))::BIGINT - {_PCA_C_BITS}, 0) AS s
    FROM g0
),
cm AS MATERIALIZED (
    SELECT r, c, (w >> (SELECT s FROM sc))::BIGINT AS w FROM g0
),
v0 AS (SELECT unnest(range(1, (SELECT max(r) FROM cm) + 1)) AS j,
              1::BIGINT AS v)"""]
    for t in range(1, PCA_ITERS + 1):
        parts.append(f""",
w{t} AS MATERIALIZED (
    SELECT cm.r AS j, sum(cm.w * v.v)::BIGINT AS w
    FROM cm JOIN v{t - 1} v ON v.j = cm.c
    GROUP BY 1
),
s{t} AS (
    SELECT greatest(length(bin(max(abs(w))))::BIGINT - {_PCA_V_BITS}, 0) AS s
    FROM w{t}
),
v{t} AS MATERIALIZED (
    SELECT j, (w >> (SELECT s FROM s{t}))::BIGINT AS v FROM w{t}
)""")
    parts.append(f"""
SELECT j::BIGINT AS j, v FROM v{PCA_ITERS}""")
    return "".join(parts)


QUERIES["embed_pca_power"] = (q_embed_pca_power, _sql_embed_pca_power())


# --------------------------------------------------------------------------
# TPC-H Q4 shape: order-priority count of orders with a late-shipped line
# (EXISTS lineitem with l_shipdate > o_orderdate).  The EXISTS collapses
# per batch to one (orderkey, max shipdate) partial, so the exchange
# moves one row per (batch, orderkey) instead of every lineitem.


def q_order_priority_ct(sf_dir: str):
    """(o_orderpriority, n_orders) — NULL priorities form their own
    group (SQL GROUP BY semantics; pandas needs dropna=False)."""
    import pandas as pd

    from .dedup import _sharded_groupby

    base = sf_dir if os.path.isdir(sf_dir) else os.path.dirname(sf_dir)
    orders = read_parquet_sized(
        os.path.join(base, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    li = read_parquet_sized(
        os.path.join(base, "lineitem.parquet"),
        columns=["l_orderkey", "l_shipdate"])

    def o_part(b: pa.Table) -> pa.Table:
        return pa.table(
            {"k": pc.cast(b["o_orderkey"], pa.int64()),
             "t": pc.cast(b["o_orderdate"], pa.int64()),
             "prio": pc.cast(b["o_orderpriority"], pa.string()),
             "side": pa.array(np.zeros(b.num_rows, np.int64), pa.int64())}
        )

    def l_part(b: pa.Table) -> pa.Table:
        k = b["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pc.cast(b["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        uk, starts = np.unique(k[order], return_index=True)
        mx = np.maximum.reduceat(t[order], starts)
        return pa.table(
            {"k": pa.array(uk, pa.int64()),
             "t": pa.array(mx, pa.int64()),
             "prio": pa.array([None] * len(uk), pa.string()),
             "side": pa.array(np.ones(len(uk), np.int64), pa.int64())}
        )

    both = orders.map_batches(o_part, batch_format="pyarrow").union(
        li.map_batches(l_part, batch_format="pyarrow"))

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        lmax = g[g["side"] == 1].groupby("k")["t"].max()
        o = g[g["side"] == 0]
        ship = o["k"].map(lmax)
        keep = ship.notna() & (ship > o["t"])
        out = o[keep].groupby("prio", dropna=False, as_index=False).size()
        out.columns = ["o_orderpriority", "n_orders"]
        return out.astype({"n_orders": "int64"})

    part_schema = pa.schema(
        [("o_orderpriority", pa.string()), ("n_orders", pa.int64())]
    )
    parts = _sharded_groupby(both, ["k"], per_shard,
                             empty_schema=part_schema).to_pandas()
    cols = ["o_orderpriority", "n_orders"]
    if not len(parts):
        return pd.DataFrame(
            {c: pd.Series([], dtype=object if c == cols[0] else "int64")
             for c in cols})
    out = parts.groupby("o_orderpriority", dropna=False,
                        as_index=False)["n_orders"].sum()
    # pandas' dropna=False NULL group key is NaN; the driver compares the
    # stringified column against DuckDB's None — normalize
    p = out["o_orderpriority"]
    out["o_orderpriority"] = p.astype(object).where(p.notna(), None)
    return out.astype({"n_orders": "int64"})[cols]


_SQL_ORDER_PRIORITY_CT = """
SELECT o.o_orderpriority, count(*)::BIGINT AS n_orders
FROM orders o
WHERE EXISTS (
    SELECT 1 FROM lineitem l
    WHERE l.l_orderkey = o.o_orderkey AND l.l_shipdate > o.o_orderdate
)
GROUP BY 1
"""


QUERIES["order_priority_ct"] = (q_order_priority_ct, _SQL_ORDER_PRIORITY_CT)


# --------------------------------------------------------------------------
# MOSS plagiarism pairs over winnowed fingerprints


def q_moss_pairs(sf_dir: str):
    """See curation.moss_pairs_df."""
    from .curation import moss_pairs_df

    return moss_pairs_df(sf_dir)


def _sql_moss_pairs() -> str:
    from .curation import MOSS_FP_CAP, MOSS_MIN_SHARED

    base = _sql_winnow_fingerprints()
    return f"""
WITH wfp AS (
    SELECT DISTINCT doc_id, fp FROM ({base})
),
capped AS (
    SELECT doc_id, fp FROM (
        SELECT *, row_number() OVER (PARTITION BY fp ORDER BY doc_id) AS rk
        FROM wfp
    ) WHERE rk <= {MOSS_FP_CAP}
),
pairs AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*)::BIGINT AS n_shared
    FROM capped a JOIN capped b ON a.fp = b.fp AND a.doc_id < b.doc_id
    GROUP BY 1, 2
)
SELECT doc_a, doc_b, n_shared FROM pairs WHERE n_shared >= {MOSS_MIN_SHARED}
"""


QUERIES["moss_pairs"] = (q_moss_pairs, _sql_moss_pairs())


# --------------------------------------------------------------------------
# term burstiness (Church & Gale variance-to-mean over all docs)


def q_term_burstiness(sf_dir: str):
    """See curation.term_burstiness_df."""
    from .curation import term_burstiness_df

    return term_burstiness_df(sf_dir)


def _sql_term_burstiness() -> str:
    from .curation import BURST_V

    return f"""
WITH filt AS (
    SELECT doc_id,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM documents
),
nd AS (SELECT count(*)::HUGEINT AS n FROM documents),
tok AS (SELECT doc_id, unnest(toks) AS term FROM filt),
tf AS (SELECT term, doc_id, count(*)::BIGINT AS c FROM tok GROUP BY 1, 2),
agg AS (
    SELECT term, count(*)::BIGINT AS df, sum(c)::BIGINT AS s1,
           sum(c * c)::BIGINT AS s2
    FROM tf GROUP BY 1
),
top AS (
    SELECT * FROM (
        SELECT *, row_number() OVER (ORDER BY s1 DESC, term) AS rk
        FROM agg
    ) WHERE rk <= {BURST_V}
)
SELECT term, df, s1, s2,
       CAST((1000000::HUGEINT * (nd.n * s2 - s1::HUGEINT * s1))
            // (nd.n * s1) AS BIGINT) AS vmr_x1e6
FROM top CROSS JOIN nd
"""


QUERIES["term_burstiness"] = (q_term_burstiness, _sql_term_burstiness())


# --------------------------------------------------------------------------
# exact two-sample KS test on doc length (src0 vs rest)


def q_length_ks(sf_dir: str):
    """See curation.length_ks_df."""
    from .curation import length_ks_df

    return length_ks_df(sf_dir)


def _sql_length_ks() -> str:
    from .curation import KS_GROUP_SOURCE

    return f"""
WITH g AS (
    SELECT n_chars AS v,
           (source = '{KS_GROUP_SOURCE}')::BIGINT AS grp
    FROM documents
),
n AS (
    SELECT sum(grp)::BIGINT AS na, sum(1 - grp)::BIGINT AS nb FROM g
),
c AS (
    SELECT v, sum(grp)::BIGINT AS ca, sum(1 - grp)::BIGINT AS cb
    FROM g GROUP BY 1
),
cum AS (
    SELECT v, sum(ca) OVER (ORDER BY v)::BIGINT AS cca,
           sum(cb) OVER (ORDER BY v)::BIGINT AS ccb
    FROM c
),
d AS (
    SELECT v, abs(n.nb * cca - n.na * ccb)::BIGINT AS dd
    FROM cum CROSS JOIN n
),
best AS (SELECT dd, v FROM d ORDER BY dd DESC, v ASC LIMIT 1)
SELECT n.na AS n_a, n.nb AS n_b, best.dd AS ks_num,
       ((1000000 * best.dd) // (n.na * n.nb))::BIGINT AS ks_x1e6,
       best.v::BIGINT AS arg_value
FROM best CROSS JOIN n
WHERE n.na > 0 AND n.nb > 0
"""


QUERIES["length_ks"] = (q_length_ks, _sql_length_ks())


# --------------------------------------------------------------------------
# per-language G-test feature selection


def q_lang_feature_terms(sf_dir: str):
    """See curation.lang_feature_terms_df."""
    from .curation import lang_feature_terms_df

    return lang_feature_terms_df(sf_dir)


def _sql_lang_feature_terms() -> str:
    from .curation import FEAT_TOP_K

    return f"""
WITH filt AS (
    SELECT doc_id, lang,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM documents
),
nl AS (SELECT lang, count(*)::BIGINT AS n FROM documents GROUP BY 1),
nt AS (SELECT count(*)::BIGINT AS n FROM documents),
tok AS (SELECT doc_id, lang, unnest(toks) AS term FROM filt),
td AS (SELECT DISTINCT term, doc_id, lang FROM tok),
dfl AS (SELECT term, lang, count(*)::BIGINT AS a FROM td GROUP BY 1, 2),
tt AS (SELECT term, sum(a)::BIGINT AS t FROM dfl GROUP BY 1),
cells AS (
    SELECT dfl.term, dfl.lang, dfl.a,
           nl.n - dfl.a AS b, tt.t - dfl.a AS c,
           nt.n - nl.n - (tt.t - dfl.a) AS d, nt.n AS n
    FROM dfl JOIN tt USING (term) JOIN nl USING (lang) CROSS JOIN nt
),
kv AS (
    SELECT term, lang, a, c,
           unnest([a, b, c, d, n, a + b, c + d, a + c, b + d]) AS k,
           unnest([1, 1, 1, 1, 1, -1, -1, -1, -1]) AS sgn
    FROM cells
),
sterm AS (
    SELECT term, lang, a, c, sgn,
           CASE WHEN k <= 1 THEN 0::HUGEINT ELSE
               k::HUGEINT * (CAST(round(log2(k >> s) * 1000000000) AS HUGEINT)
                             + s::HUGEINT * 1000000000)
           END AS sk
    FROM (SELECT *, greatest(length(bin(k))::BIGINT - 16, 0) AS s FROM kv)
),
g AS (
    SELECT term, lang, any_value(a) AS df_in, any_value(c) AS df_out,
           CAST(2 * sum(sgn * sk) AS BIGINT) AS g_fp
    FROM sterm GROUP BY term, lang
)
SELECT lang, term, df_in::BIGINT AS df_in, df_out::BIGINT AS df_out, g_fp,
       rk::BIGINT AS rank
FROM (
    SELECT *, row_number() OVER (
        PARTITION BY lang ORDER BY g_fp DESC, term) AS rk
    FROM g
)
WHERE rk <= {FEAT_TOP_K}
"""


QUERIES["lang_feature_terms"] = (
    q_lang_feature_terms, _sql_lang_feature_terms())


# --------------------------------------------------------------------------
# lexical richness + source-mixture concentration


def q_hapax_ratio(sf_dir: str):
    """See curation.hapax_ratio_df."""
    from .curation import hapax_ratio_df

    return hapax_ratio_df(sf_dir)


_SQL_HAPAX_RATIO = """
WITH filt AS (
    SELECT doc_id,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM documents
),
tok AS (SELECT unnest(toks) AS term FROM filt),
c AS (SELECT term, count(*)::BIGINT AS c FROM tok GROUP BY 1)
SELECT count(*)::BIGINT AS n_terms,
       coalesce(sum((c = 1)::BIGINT), 0)::BIGINT AS n_hapax,
       coalesce(sum((c = 2)::BIGINT), 0)::BIGINT AS n_dis,
       CASE WHEN count(*) > 0
            THEN (1000000 * coalesce(sum((c = 1)::BIGINT), 0)) // count(*)
            ELSE 0 END::BIGINT AS hapax_x1e6
FROM c
"""


QUERIES["hapax_ratio"] = (q_hapax_ratio, _SQL_HAPAX_RATIO)


def q_source_gini(sf_dir: str):
    """See curation.source_gini_df."""
    from .curation import source_gini_df

    return source_gini_df(sf_dir)


_SQL_SOURCE_GINI = """
WITH filt AS (
    SELECT source,
           list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> len(x) <= 15) AS toks
    FROM documents
),
tok AS (SELECT source, unnest(toks) AS term FROM filt),
m AS (SELECT source, count(*)::BIGINT AS t FROM tok GROUP BY 1),
r AS (
    SELECT t, row_number() OVER (ORDER BY t ASC, source ASC)::BIGINT AS i,
           count(*) OVER ()::BIGINT AS n, sum(t) OVER ()::BIGINT AS total
    FROM m
)
SELECT coalesce(any_value(n), 0)::BIGINT AS n_sources,
       coalesce(any_value(total), 0)::BIGINT AS total_tokens,
       coalesce(sum((2 * i - n - 1) * t), 0)::BIGINT AS gini_num,
       CASE WHEN coalesce(any_value(total), 0) > 0
            THEN (1000000 * sum((2 * i - n - 1) * t))
                 // (any_value(n) * any_value(total))
            ELSE 0 END::BIGINT AS gini_x1e6
FROM r
"""


QUERIES["source_gini"] = (q_source_gini, _SQL_SOURCE_GINI)


# --------------------------------------------------------------------------
# Deequ-style data-validation suite (constraint checks as a pipeline gate)


def q_validation_suite(sf_dir: str):
    """See validate.validation_suite_df."""
    from .validate import validation_suite_df

    return validation_suite_df(sf_dir)


_SQL_VALIDATION_SUITE = """
WITH checks AS (
    SELECT 'doc_id_unique' AS check_name, 'documents' AS tbl,
           (count(*) - count(DISTINCT doc_id))::BIGINT AS metric
    FROM documents
    UNION ALL
    SELECT 'text_nonnull', 'documents',
           coalesce(sum((text IS NULL)::BIGINT), 0)::BIGINT
    FROM documents
    UNION ALL
    SELECT 'lang_domain', 'documents',
           coalesce(sum((lang IS NULL OR lang NOT IN
                         ('en','de','fr','es','zh'))::BIGINT), 0)::BIGINT
    FROM documents
    UNION ALL
    SELECT 'orders_custkey_fk', 'orders',
           coalesce(sum((NOT EXISTS (
               SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey
           ))::BIGINT), 0)::BIGINT
    FROM orders o
    UNION ALL
    SELECT 'orderstatus_domain', 'orders',
           coalesce(sum((o_orderstatus IS NULL OR o_orderstatus NOT IN
                         ('F','O','P'))::BIGINT), 0)::BIGINT
    FROM orders
    UNION ALL
    SELECT 'lineitem_orderkey_fk', 'lineitem',
           coalesce(sum((NOT EXISTS (
               SELECT 1 FROM orders o WHERE o.o_orderkey = l.l_orderkey
           ))::BIGINT), 0)::BIGINT
    FROM lineitem l
    UNION ALL
    SELECT 'quantity_range', 'lineitem',
           coalesce(sum((l_quantity IS NULL OR l_quantity < 1
                         OR l_quantity > 50)::BIGINT), 0)::BIGINT
    FROM lineitem
    UNION ALL
    SELECT 'acctbal_range', 'customer',
           coalesce(sum((c_acctbal IS NULL OR c_acctbal < -1000
                         OR c_acctbal > 10000)::BIGINT), 0)::BIGINT
    FROM customer
    UNION ALL
    SELECT 'events_ts_bounds', 'events',
           coalesce(sum((ts IS NULL
                         OR ts < TIMESTAMP '2024-01-01'
                         OR ts >= TIMESTAMP '2025-01-01')::BIGINT),
                    0)::BIGINT
    FROM events
    UNION ALL
    SELECT 'embedding_dim', 'embeddings',
           coalesce(sum((embedding IS NULL OR len(embedding) <>
               (SELECT len(embedding) AS l FROM embeddings
                WHERE embedding IS NOT NULL
                GROUP BY 1 ORDER BY count(*) DESC, l ASC
                LIMIT 1))::BIGINT),
                    0)::BIGINT
    FROM embeddings
)
SELECT check_name, tbl, metric,
       (CASE WHEN metric = 0 THEN 1 ELSE 0 END)::BIGINT AS passed
FROM checks
"""


QUERIES["validation_suite"] = (q_validation_suite, _SQL_VALIDATION_SUITE)


def q_k_anonymity(sf_dir: str):
    """See validate.k_anonymity_df."""
    from .validate import k_anonymity_df

    return k_anonymity_df(sf_dir)


_SQL_K_ANONYMITY = """
WITH g0 AS (
    SELECT lang, source, count(*)::BIGINT AS c FROM documents GROUP BY 1, 2
),
rel0 AS (SELECT lang, source, c FROM g0 WHERE c >= 5),
fail0 AS (SELECT lang, source, c FROM g0 WHERE c < 5),
g1 AS (SELECT lang, sum(c)::BIGINT AS c FROM fail0 GROUP BY 1),
rel1 AS (SELECT lang, '*' AS source, c FROM g1 WHERE c >= 5),
sup AS (SELECT coalesce(sum(c), 0)::BIGINT AS c FROM g1 WHERE c < 5)
SELECT lang, source, c AS cnt, 0::BIGINT AS lvl FROM rel0
UNION ALL
SELECT lang, source, c, 1::BIGINT FROM rel1
UNION ALL
SELECT '*', '*', c, 2::BIGINT FROM sup WHERE c > 0
"""


QUERIES["k_anonymity"] = (q_k_anonymity, _SQL_K_ANONYMITY)


# --------------------------------------------------------------------------
# market-basket association rules (brand co-occurrence within orders)


def q_assoc_rules(sf_dir: str):
    """See basket.assoc_rules_df."""
    from .basket import assoc_rules_df

    return assoc_rules_df(sf_dir)


_SQL_ASSOC_RULES = """
WITH b AS (
    SELECT DISTINCT l_orderkey, p_brand
    FROM lineitem JOIN part ON l_partkey = p_partkey
),
nb AS (SELECT count(DISTINCT l_orderkey)::BIGINT AS n FROM b),
item AS (SELECT p_brand, count(*)::BIGINT AS c FROM b GROUP BY 1),
pair AS (
    SELECT b1.p_brand AS a, b2.p_brand AS cons, count(*)::BIGINT AS c
    FROM b b1 JOIN b b2
      ON b1.l_orderkey = b2.l_orderkey AND b1.p_brand <> b2.p_brand
    GROUP BY 1, 2
)
SELECT pair.a AS antecedent, pair.cons AS consequent,
       pair.c AS pair_cnt, ia.c AS ante_cnt, ic.c AS cons_cnt,
       ((1000000 * pair.c) // ia.c)::BIGINT AS conf_x1e6,
       ((1000000 * pair.c * nb.n) // (ia.c * ic.c))::BIGINT AS lift_x1e6
FROM pair
JOIN item ia ON ia.p_brand = pair.a
JOIN item ic ON ic.p_brand = pair.cons
CROSS JOIN nb
WHERE pair.c >= 20
"""


QUERIES["assoc_rules"] = (q_assoc_rules, _SQL_ASSOC_RULES)


def q_copurchase_pairs(sf_dir: str):
    """See basket.copurchase_pairs_df: top-k co-purchased part pairs
    (item-item co-occurrence, the recommender-candidate primitive)."""
    from .basket import copurchase_pairs_df

    return copurchase_pairs_df(sf_dir)


def _sql_copurchase() -> str:
    from .basket import SQL_COPURCHASE

    return SQL_COPURCHASE


QUERIES["copurchase_pairs"] = (q_copurchase_pairs, _sql_copurchase())


def q_frequent_triples(sf_dir: str):
    """See basket.frequent_triples_df: Apriori depth-3 brand itemsets."""
    from .basket import frequent_triples_df

    return frequent_triples_df(sf_dir)


def _sql_triples() -> str:
    from .basket import SQL_FREQUENT_TRIPLES

    return SQL_FREQUENT_TRIPLES


QUERIES["frequent_triples"] = (q_frequent_triples, _sql_triples())


def q_benford_digits(sf_dir: str):
    """See validate.benford_digits_df: leading-digit Benford profile of
    order totals (integer //10 digit extraction, exact ppm shares)."""
    from .validate import benford_digits_df

    return benford_digits_df(sf_dir)


def _sql_benford() -> str:
    from .validate import sql_benford_digits

    return sql_benford_digits()


QUERIES["benford_digits"] = (q_benford_digits, _sql_benford())


def q_did_you_mean(sf_dir: str):
    """See ranking.did_you_mean_df: Levenshtein<=1 spell suggestions
    over the index lexicon ranked by (distance, df desc, term)."""
    from .ranking import did_you_mean_df

    return did_you_mean_df(sf_dir)


def _sql_dym() -> str:
    from .ranking import sql_did_you_mean

    return sql_did_you_mean()


QUERIES["did_you_mean"] = (q_did_you_mean, _sql_dym())


def q_rbo_rankings(sf_dir: str):
    """See ranking.rbo_rankings_df: fixed-point rank-biased overlap
    between the tf ranking and the length-normalized impact ranking of
    the top-df term's posting list."""
    from .ranking import rbo_rankings_df

    return rbo_rankings_df(sf_dir)


def _sql_rbo() -> str:
    from .ranking import sql_rbo_rankings

    return sql_rbo_rankings()


QUERIES["rbo_rankings"] = (q_rbo_rankings, _sql_rbo())


# --------------------------------------------------------------------------
# TPC-H relational tier (tpch.py): Q1/Q3/Q6/Q7/Q8/Q10/Q14/Q15/Q17/Q18/Q19
# literal shapes plus slim-schema adaptations of Q2/Q9/Q12/Q21 (no
# partsupp / shipmode / receiptdate columns in the synthetic schema:
# offers come from lineitem min-price, cost from p_retailprice, lateness
# from shipdate-orderdate; see each docstring).  Q4 is order_priority_ct,
# Q5 is revenue_by_nation, Q13 is custdist, Q22 is rich_inactive;
# Q11/Q16/Q20 are partsupp-only and have no faithful adaptation.

from .tpch import (  # noqa: E402
    SQL_Q1, SQL_Q2, SQL_Q3, SQL_Q6, SQL_Q7, SQL_Q8, SQL_Q9, SQL_Q10,
    SQL_Q11, SQL_Q12, SQL_Q14, SQL_Q15, SQL_Q16, SQL_Q17, SQL_Q18,
    SQL_Q19, SQL_Q20, SQL_Q21,
    q1_pricing_summary, q2_min_offer, q3_unshipped, q6_forecast_revenue,
    q7_volume_shipping, q8_market_share, q9_product_profit,
    q10_returned_items, q11_important_parts, q12_latency_class,
    q14_promo_revenue, q15_top_supplier, q16_part_supplier_cnt,
    q17_small_qty_revenue, q18_large_orders, q19_disjunctive,
    q20_excess_suppliers, q21_late_supplier,
)

QUERIES["tpch_q1_pricing"] = (q1_pricing_summary, SQL_Q1)
QUERIES["tpch_q3_unshipped"] = (q3_unshipped, SQL_Q3)
QUERIES["tpch_q6_forecast"] = (q6_forecast_revenue, SQL_Q6)
QUERIES["tpch_q7_volume"] = (q7_volume_shipping, SQL_Q7)
QUERIES["tpch_q8_market_share"] = (q8_market_share, SQL_Q8)
QUERIES["tpch_q10_returns"] = (q10_returned_items, SQL_Q10)
QUERIES["tpch_q14_promo"] = (q14_promo_revenue, SQL_Q14)
QUERIES["tpch_q15_top_supplier"] = (q15_top_supplier, SQL_Q15)
QUERIES["tpch_q17_small_qty"] = (q17_small_qty_revenue, SQL_Q17)
QUERIES["tpch_q18_large_orders"] = (q18_large_orders, SQL_Q18)
QUERIES["tpch_q19_disjunctive"] = (q19_disjunctive, SQL_Q19)
QUERIES["tpch_q2_min_offer"] = (q2_min_offer, SQL_Q2)
QUERIES["tpch_q9_profit"] = (q9_product_profit, SQL_Q9)
QUERIES["tpch_q12_latency"] = (q12_latency_class, SQL_Q12)
QUERIES["tpch_q21_late_supplier"] = (q21_late_supplier, SQL_Q21)
QUERIES["tpch_q11_important_parts"] = (q11_important_parts, SQL_Q11)
QUERIES["tpch_q16_supplier_cnt"] = (q16_part_supplier_cnt, SQL_Q16)
QUERIES["tpch_q20_excess_suppliers"] = (q20_excess_suppliers, SQL_Q20)


# --------------------------------------------------------------------------
# fuzzy record-linkage: Levenshtein<=1 similarity join via FastSS
# deletion-neighborhood blocking (strsim.py)

from .strsim import SQL_EDIT1_PAIRS, edit1_pairs  # noqa: E402

QUERIES["edit1_name_pairs"] = (edit1_pairs, SQL_EDIT1_PAIRS)


def q_soundex_blocking(sf_dir: str):
    """See strsim.soundex_blocking_df: simplified-Soundex phonetic keys
    + block sizes over the record-linkage name table."""
    from .strsim import soundex_blocking_df

    return soundex_blocking_df(sf_dir)


def _sql_soundex() -> str:
    from .strsim import SQL_SOUNDEX_BLOCKING

    return SQL_SOUNDEX_BLOCKING


QUERIES["soundex_blocking"] = (q_soundex_blocking, _sql_soundex())


# --------------------------------------------------------------------------
# graph-structure tier (graphops.py): k-core decomposition + Adamic-Adar
# link prediction over the PMI-positive term association graph


def q_term_kcore(sf_dir: str):
    """See graphops.term_kcore_df: k-core numbers of the vocabulary in
    the PMI-positive association graph (recursive-peel SQL pairing)."""
    from .graphops import term_kcore_df

    return term_kcore_df(sf_dir)


def _sql_term_kcore() -> str:
    from .graphops import sql_term_kcore

    return sql_term_kcore()


QUERIES["term_kcore"] = (q_term_kcore, _sql_term_kcore())


def q_link_prediction_aa(sf_dir: str):
    """See graphops.link_prediction_aa_df: top-k missing-edge candidates
    by fixed-point Adamic-Adar score."""
    from .graphops import link_prediction_aa_df

    return link_prediction_aa_df(sf_dir)


def _sql_link_prediction_aa() -> str:
    from .graphops import sql_link_prediction_aa

    return sql_link_prediction_aa()


QUERIES["link_prediction_aa"] = (q_link_prediction_aa, _sql_link_prediction_aa())


# --------------------------------------------------------------------------
# supervised-ML tier (classify.py): multinomial Naive Bayes language
# classifier — distributed fit on the deterministic train split,
# broadcast model, streaming held-out scoring; confusion matrix is the
# hash-compared result


def q_nb_lang_confusion(sf_dir: str):
    """See classify.nb_lang_confusion_df."""
    from .classify import nb_lang_confusion_df

    return nb_lang_confusion_df(sf_dir)


def _sql_nb_lang_confusion() -> str:
    from .classify import sql_nb_lang_confusion

    return sql_nb_lang_confusion()


QUERIES["nb_lang_confusion"] = (q_nb_lang_confusion, _sql_nb_lang_confusion())


# --------------------------------------------------------------------------
# DBSCAN over quantized embeddings — density clustering with DETERMINISTIC
# border assignment (classic DBSCAN borders are scan-order-dependent; here
# a border joins the MIN cluster label among its core neighbors, and a
# cluster's label is the MIN vec_id of its core component — documented
# deviation that makes the op engine-independent and SQL-pairable)

DBSCAN_EPS2 = 1_400_000  # on the CORESET_GRID-quantized integer L2 metric
DBSCAN_MINPTS = 4        # neighborhood count INCLUDING the point itself
DBSCAN_MAX_BROADCAST = 500_000


def q_dbscan_embed(sf_dir: str):
    """``vec_id, role, cluster`` — DBSCAN(eps2, minPts) on the
    CORESET_GRID-quantized embeddings: ``core`` points have >= minPts
    neighbors at integer squared distance <= eps2 (self included),
    clusters are connected components of the core-core eps-graph
    labeled by min vec_id, ``border`` points attach to the min label
    among their core neighbors, ``noise`` gets cluster -1.

    Exactness: coordinates quantized as coreset_sample (round(x*1024)),
    so every distance is an exact integer on both engines; the float64
    matmul used for speed is exact (|q| < 2^13 -> every intermediate
    < 2^53).  Component labels are min-vec_id (order-free).

    Shape: TWO streaming scans against a broadcast quantized matrix
    (``ray.put`` once) — scan 1 counts neighbors per point (core
    flags), scan 2 emits core-core edges + border->core pairs; the
    driver reduce is union-find over the (declared-quadratic) eps-graph
    edges.  The loud ``DBSCAN_MAX_BROADCAST`` bound marks where the
    SRP-banded prefilter (dedup.embedding_dedup_pairs) must replace the
    broadcast — same two-scan shape over banded candidate pairs."""
    import pandas as pd

    path = os.path.join(sf_dir, "embeddings.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["vec_id", "embedding"])
    cols = ["vec_id", "role", "cluster"]

    def _empty() -> pd.DataFrame:
        return pd.DataFrame(
            {"vec_id": pd.Series([], dtype="int64"),
             "role": pd.Series([], dtype=object),
             "cluster": pd.Series([], dtype="int64")}
        )[cols]

    n = ds.count()
    if n == 0:
        return _empty()
    if n > DBSCAN_MAX_BROADCAST:
        raise RuntimeError(
            f"dbscan_embed: {n} vectors exceed the "
            f"{DBSCAN_MAX_BROADCAST}-row broadcast bound — use the "
            "SRP-banded pair path (dedup.embedding_dedup_pairs) to "
            "generate the eps-graph instead"
        )

    def collect_q(b: pa.Table) -> pa.Table:
        ids, q = _quant_embeddings(b)
        return pa.table(
            {"vec_id": pa.array(ids, pa.int64()),
             "q": pa.array([r.tolist() for r in q], pa.list_(pa.int64()))}
        )

    allq = ds.map_batches(
        collect_q, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    ids = allq["vec_id"].to_numpy().astype(np.int64)
    mat = np.stack([np.asarray(v, np.int64) for v in allq["q"]])
    order = np.argsort(ids, kind="stable")
    ids, mat = ids[order], mat[order]
    matf = mat.astype(np.float64)
    sq = (matf * matf).sum(axis=1)
    ref = ray.put((ids, matf, sq))

    def _d2(qb: np.ndarray, matf: np.ndarray, sq: np.ndarray) -> np.ndarray:
        qf = qb.astype(np.float64)
        return (qf * qf).sum(axis=1)[:, None] + sq[None, :] - 2.0 * (qf @ matf.T)

    def count_nbrs(b: pa.Table, ref=ref) -> pa.Table:
        bids, qb = _quant_embeddings(b)
        gids, gmat, gsq = ray.get(ref)
        nbr = _d2(qb, gmat, gsq) <= DBSCAN_EPS2
        return pa.table(
            {"vec_id": pa.array(bids, pa.int64()),
             "is_core": pa.array(
                 nbr.sum(axis=1) >= DBSCAN_MINPTS, pa.bool_())}
        )

    flags = ds.map_batches(
        count_nbrs, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas().sort_values("vec_id", kind="mergesort")
    core_ids = flags.loc[flags["is_core"], "vec_id"].to_numpy(np.int64)
    core_mask_global = np.isin(ids, core_ids)
    cref = ray.put(core_mask_global)

    def emit_pairs(b: pa.Table, ref=ref, cref=cref) -> pa.Table:
        """kind 0 rows: core-core edges (a < b); kind 1 rows: EVERY
        (border, core-neighbor) pair — the min LABEL reduce needs all
        of them (label(min neighbor id) != min(neighbor labels))."""
        bids, qb = _quant_embeddings(b)
        gids, gmat, gsq = ray.get(ref)
        gcore = ray.get(cref)
        nbr = _d2(qb, gmat, gsq) <= DBSCAN_EPS2
        pos = np.searchsorted(gids, bids)
        nbr[np.arange(len(bids)), pos] = False  # drop self
        row_core = gcore[pos]
        hit = nbr & gcore[None, :]
        ri, ci = np.nonzero(hit)
        a = bids[ri]
        bcol = gids[ci]
        is_edge = row_core[ri]
        keep = (~is_edge) | (a < bcol)  # edges once (a<b); borders all
        return pa.table(
            {"kind": pa.array(
                np.where(is_edge[keep], 0, 1).astype(np.int8), pa.int8()),
             "a": pa.array(a[keep], pa.int64()),
             "b": pa.array(bcol[keep], pa.int64())}
        )

    pairs = ds.map_batches(
        emit_pairs, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    edges = pairs[pairs["kind"] == 0]
    borders = pairs[pairs["kind"] == 1]

    # union-find over core-core edges; component label = min vec_id
    parent = np.arange(len(core_ids), dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ea = np.searchsorted(core_ids, edges["a"].to_numpy(np.int64))
    eb = np.searchsorted(core_ids, edges["b"].to_numpy(np.int64))
    for i, j in zip(ea, eb):
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    roots = np.array([find(i) for i in range(len(core_ids))], np.int64)
    lbl = (
        pd.Series(core_ids).groupby(roots).transform("min").to_numpy(np.int64)
        if len(core_ids)
        else np.zeros(0, np.int64)
    )

    cluster = np.full(len(ids), -1, np.int64)
    role = np.full(len(ids), "noise", dtype=object)
    cpos = np.searchsorted(ids, core_ids)
    cluster[cpos] = lbl
    role[cpos] = "core"
    if len(borders):
        blab = borders.copy()
        blab["lbl"] = lbl[np.searchsorted(core_ids, blab["b"].to_numpy(np.int64))]
        bmin = blab.groupby("a", as_index=False)["lbl"].min()
        bpos = np.searchsorted(ids, bmin["a"].to_numpy(np.int64))
        cluster[bpos] = bmin["lbl"].to_numpy(np.int64)
        role[bpos] = "border"
    out = pd.DataFrame({"vec_id": ids, "role": role, "cluster": cluster})
    return out.astype({"vec_id": "int64", "cluster": "int64"})[cols]


def _sql_dbscan_embed() -> str:
    g = CORESET_GRID
    d2 = ("list_sum(list_transform(range(1, len(a.q) + 1), "
          "j -> (a.q[j] - b.q[j]) * (a.q[j] - b.q[j])))")
    return f"""
WITH RECURSIVE e AS MATERIALIZED (
    SELECT vec_id,
           [CAST(round(x * {g}) AS BIGINT) FOR x IN CAST(embedding AS DOUBLE[])]
               AS q
    FROM embeddings
),
nbr AS MATERIALIZED (
    SELECT a.vec_id AS u, b.vec_id AS v
    FROM e a JOIN e b ON {d2} <= {DBSCAN_EPS2}
),
cnt AS (SELECT u AS vec_id, count(*)::BIGINT AS c FROM nbr GROUP BY 1),
core AS MATERIALIZED (
    SELECT vec_id FROM cnt WHERE c >= {DBSCAN_MINPTS}
),
cedges AS MATERIALIZED (
    SELECT n.u AS a, n.v AS b
    FROM nbr n
    JOIN core x ON x.vec_id = n.u
    JOIN core y ON y.vec_id = n.v
    WHERE n.u <> n.v
),
reach(node, r) AS (
    SELECT vec_id, vec_id FROM core
    UNION
    SELECT reach.node, c.b FROM reach JOIN cedges c ON c.a = reach.r
),
lbl AS (SELECT node AS vec_id, min(r)::BIGINT AS cluster
        FROM reach GROUP BY 1),
border AS (
    SELECT n.u AS vec_id, min(l.cluster)::BIGINT AS cluster
    FROM nbr n
    JOIN lbl l ON l.vec_id = n.v
    WHERE n.u != n.v AND n.u NOT IN (SELECT vec_id FROM core)
    GROUP BY 1
)
SELECT e.vec_id,
       CASE WHEN l.vec_id IS NOT NULL THEN 'core'
            WHEN b.vec_id IS NOT NULL THEN 'border'
            ELSE 'noise' END AS role,
       coalesce(l.cluster, b.cluster, -1)::BIGINT AS cluster
FROM e
LEFT JOIN lbl l USING (vec_id)
LEFT JOIN border b USING (vec_id)
"""


QUERIES["dbscan_embed"] = (q_dbscan_embed, _sql_dbscan_embed())


def q_events_xcorr(sf_dir: str):
    """Lagged cross-correlation of click vs purchase hourly counts on a
    dense hour grid.  See temporal.xcorr_hourly (exact integer moments,
    one float Pearson expression per lag)."""
    from .temporal import xcorr_hourly

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["ts", "event_type"])
    return xcorr_hourly(ev)


def _sql_events_xcorr() -> str:
    from .temporal import sql_xcorr_hourly

    return sql_xcorr_hourly()


QUERIES["events_xcorr"] = (q_events_xcorr, _sql_events_xcorr())


def q_events_changepoint(sf_dir: str):
    """Best mean-shift split points of the hourly event-count series
    (binary-segmentation step): integer-scaled between-segment score.
    See temporal.changepoint_hourly."""
    from .temporal import changepoint_hourly

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["ts"])
    return changepoint_hourly(ev)


def _sql_events_changepoint() -> str:
    from .temporal import SQL_CHANGEPOINT

    return SQL_CHANGEPOINT


QUERIES["events_changepoint"] = (q_events_changepoint, _sql_events_changepoint())


def q_events_haar(sf_dir: str):
    """Unnormalized Haar wavelet detail-energy spectrum of the hourly
    count series (1024-slot fixed grid, 10 levels, all-integer).  See
    temporal.haar_hourly."""
    from .temporal import haar_hourly

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["ts"])
    return haar_hourly(ev)


def _sql_events_haar() -> str:
    from .temporal import sql_haar_hourly

    return sql_haar_hourly()


QUERIES["events_haar"] = (q_events_haar, _sql_events_haar())


def q_f2_sketch(sf_dir: str):
    """AMS F2 (second frequency moment) sketch of the user_id stream
    plus the exact F2.  See distinct.f2_sketch (AMS 1996)."""
    from .distinct import f2_sketch

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["user_id"])
    return f2_sketch(ev)


def _sql_f2_sketch() -> str:
    from .distinct import sql_f2_sketch

    return sql_f2_sketch()


QUERIES["f2_sketch"] = (q_f2_sketch, _sql_f2_sketch())


def q_decision_stump(sf_dir: str):
    """Depth-1 CART split of l_quantity predicting l_returnflag='R'
    (quantized weighted Gini, integer rank key).  See
    classify.decision_stump."""
    from .classify import decision_stump

    path = os.path.join(sf_dir, "lineitem.parquet") if os.path.isdir(sf_dir) else sf_dir
    li = read_parquet_sized(path, columns=["l_quantity", "l_returnflag"])
    return decision_stump(li)


def _sql_decision_stump() -> str:
    from .classify import SQL_DECISION_STUMP

    return SQL_DECISION_STUMP


QUERIES["decision_stump"] = (q_decision_stump, _sql_decision_stump())


def q_bootstrap_mean_ci(sf_dir: str):
    """Deterministic hash-resampled bootstrap of mean doc length with
    95% CI order stats.  See validate.bootstrap_mean_ci."""
    from .validate import bootstrap_mean_ci

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    docs = read_parquet_sized(path, columns=["doc_id", "n_chars"])
    return bootstrap_mean_ci(docs)


def _sql_bootstrap() -> str:
    from .validate import sql_bootstrap_mean_ci

    return sql_bootstrap_mean_ci()


QUERIES["bootstrap_mean_ci"] = (q_bootstrap_mean_ci, _sql_bootstrap())


def q_kaplan_meier(sf_dir: str):
    """Kaplan-Meier survival curve over user lifetimes (7-day censor
    horizon, sequential fixed-point product).  See
    temporal.kaplan_meier."""
    from .temporal import kaplan_meier

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["user_id", "ts"])
    return kaplan_meier(ev)


def _sql_km() -> str:
    from .temporal import SQL_KAPLAN_MEIER

    return SQL_KAPLAN_MEIER


QUERIES["kaplan_meier"] = (q_kaplan_meier, _sql_km())


def q_markov_entropy(sf_dir: str):
    """Conditional next-event entropy H(next|current) per event type,
    exact fixed-point integers.  See temporal.markov_entropy."""
    from .temporal import markov_entropy

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["user_id", "ts", "event_type", "event_id"])
    return markov_entropy(ev)


def _sql_markov_entropy() -> str:
    from .temporal import SQL_MARKOV_ENTROPY

    return SQL_MARKOV_ENTROPY


QUERIES["markov_entropy"] = (q_markov_entropy, _sql_markov_entropy())


def q_table_profile(sf_dir: str):
    """Column profiling (n/nulls/exact ndv/min/max) of orders with
    canonical int64 keys.  See validate.table_profile."""
    from .validate import table_profile

    path = os.path.join(sf_dir, "orders.parquet") if os.path.isdir(sf_dir) else sf_dir
    orders = read_parquet_sized(
        path,
        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate",
                 "o_orderstatus", "o_orderpriority"],
    )
    return table_profile(orders)


def _sql_table_profile() -> str:
    from .validate import sql_table_profile

    return sql_table_profile()


QUERIES["table_profile"] = (q_table_profile, _sql_table_profile())


# --- Rendezvous (highest-random-weight) shard assignment -------------------
# The cluster-layout primitive behind the sharded query tier: each doc
# goes to argmax_s hash(doc, s) — adding/removing a shard moves only
# 1/S of the keys (Thaler & Ravishankar 1998, public algorithm).  Odd
# multipliers < 2^61 keep the DuckDB HUGEINT replication of the mod-2^64
# multiply-shift exact; ties (never observed, but defined) break to the
# smallest shard id in both engines.

HRW_SHARDS = 16
HRW_A = tuple(
    ((0x9E3779B97F4A7C15 * (s + 101)) % (1 << 61)) | 1
    for s in range(HRW_SHARDS)
)
HRW_B = tuple(
    (0xBF58476D1CE4E5B9 * (s + 101)) % (1 << 62) for s in range(HRW_SHARDS)
)


def q_shard_assignment(sf_dir: str):
    """Per-shard doc counts + id range under rendezvous hashing: rows
    ``(shard, n_docs, min_doc, max_doc)``.  One streaming pass emitting
    16-row partials; no shuffle."""
    import pandas as pd

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    docs = read_parquet_sized(path, columns=["doc_id"])
    a = np.array(HRW_A, np.uint64)[:, None]
    b = np.array(HRW_B, np.uint64)[:, None]

    def partial(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch["doc_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        u = ids.astype(np.uint64)[None, :]
        with np.errstate(over="ignore"):
            h = u * a + b
        shard = np.argmax(h, axis=0).astype(np.int64)  # first max = min s
        out_s, out_n, out_mn, out_mx = [], [], [], []
        for s in np.unique(shard):
            sel = ids[shard == s]
            out_s.append(int(s))
            out_n.append(len(sel))
            out_mn.append(int(sel.min()))
            out_mx.append(int(sel.max()))
        return pa.table(
            {"shard": pa.array(out_s, pa.int64()),
             "n": pa.array(out_n, pa.int64()),
             "mn": pa.array(out_mn, pa.int64()),
             "mx": pa.array(out_mx, pa.int64())}
        )

    parts = docs.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    if not len(parts):
        return pd.DataFrame(
            columns=["shard", "n_docs", "min_doc", "max_doc"]
        ).astype({c: "int64" for c in
                  ("shard", "n_docs", "min_doc", "max_doc")})
    agg = parts.groupby("shard", as_index=False).agg(
        n_docs=("n", "sum"), min_doc=("mn", "min"), max_doc=("mx", "max")
    )
    agg = agg.sort_values("shard").reset_index(drop=True)
    return agg.astype({c: "int64" for c in agg.columns})


def _sql_shard_assignment() -> str:
    m64 = 1 << 64
    rows = ", ".join(
        f"({s}, {HRW_A[s]}::HUGEINT, {HRW_B[s]}::HUGEINT)"
        for s in range(HRW_SHARDS)
    )
    return f"""
WITH params(s, a, b) AS (VALUES {rows}),
h AS (
    SELECT d.doc_id, p.s,
           ((d.doc_id::HUGEINT * p.a + p.b) % {m64}) AS hv
    FROM documents d CROSS JOIN params p
),
pick AS (
    SELECT doc_id, s,
           row_number() OVER (
               PARTITION BY doc_id ORDER BY hv DESC, s ASC
           ) AS rn
    FROM h
)
SELECT s::BIGINT AS shard, count(*)::BIGINT AS n_docs,
       min(doc_id)::BIGINT AS min_doc, max(doc_id)::BIGINT AS max_doc
FROM pick WHERE rn = 1
GROUP BY s ORDER BY s
"""


QUERIES["shard_assignment"] = (q_shard_assignment, _sql_shard_assignment())


def q_boilerplate_lines(sf_dir: str):
    """Per-source boilerplate line detection (>=10% doc share, per-doc
    distinct, deterministic footer augmentation).  See
    curation.boilerplate_lines_df."""
    from .curation import boilerplate_lines_df

    return boilerplate_lines_df(sf_dir)


def _sql_boilerplate() -> str:
    from .curation import SQL_BOILERPLATE

    return SQL_BOILERPLATE


QUERIES["boilerplate_lines"] = (q_boilerplate_lines, _sql_boilerplate())


def q_trimmed_mean_price(sf_dir: str):
    """Fixed-k trimmed mean retail price per brand (robust location,
    bounded per-block candidate shipping).  See
    quantiles.trimmed_mean_by_brand."""
    from .quantiles import trimmed_mean_by_brand

    path = os.path.join(sf_dir, "part.parquet") if os.path.isdir(sf_dir) else sf_dir
    part = read_parquet_sized(
        path, columns=["p_brand", "p_retailprice", "p_partkey"])
    return trimmed_mean_by_brand(part)


def _sql_trimmed_mean() -> str:
    from .quantiles import SQL_TRIMMED_MEAN

    return SQL_TRIMMED_MEAN


QUERIES["trimmed_mean_price"] = (q_trimmed_mean_price, _sql_trimmed_mean())


def q_isotonic_hourly(sf_dir: str):
    """Quantized isotonic (monotone) regression of hour-of-day counts
    via the minimax closed form.  See temporal.isotonic_hourly."""
    from .temporal import isotonic_hourly

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    ev = read_parquet_sized(path, columns=["ts"])
    return isotonic_hourly(ev)


def _sql_isotonic() -> str:
    from .temporal import SQL_ISOTONIC

    return SQL_ISOTONIC


QUERIES["isotonic_hourly"] = (q_isotonic_hourly, _sql_isotonic())


def q_source_set_cover(sf_dir: str):
    """Greedy vocabulary set cover over sources (bitmask-count shape,
    exact integer greedy).  See curation.source_set_cover_df."""
    from .curation import source_set_cover_df

    return source_set_cover_df(sf_dir)


def _sql_set_cover() -> str:
    from .curation import sql_source_set_cover

    return sql_source_set_cover()


QUERIES["source_set_cover"] = (q_source_set_cover, _sql_set_cover())


def q_c4_line_filter(sf_dir: str):
    """C4-style line-level cleaning signals (terminal punctuation /
    min-words / javascript line rules; brace + lorem-ipsum page rules).
    See curation.c4_line_filter_ds."""
    from .curation import c4_line_filter_ds

    return c4_line_filter_ds(sf_dir)


def _sql_c4() -> str:
    from .curation import sql_c4_line_filter

    return sql_c4_line_filter()


QUERIES["c4_line_filter"] = (q_c4_line_filter, _sql_c4())


def q_events_holt(sf_dir: str):
    """Fixed-point Holt linear-trend smoothing of the hourly event-count
    series (temporal.holt_hourly): power-of-two shift recurrence so the
    negative trend accumulator floors identically on both engines."""
    from .temporal import holt_hourly

    path = os.path.join(sf_dir, "events.parquet") if os.path.isdir(sf_dir) else sf_dir
    return holt_hourly(read_parquet_sized(path, columns=["ts"]))


def _sql_holt() -> str:
    from .temporal import SQL_HOLT_HOURLY

    return SQL_HOLT_HOURLY


QUERIES["events_holt"] = (q_events_holt, _sql_holt())


def q_source_quality_eb(sf_dir: str):
    """Empirical-Bayes shrunk per-source mean document length
    (hierarchical pooling, exact rational fixed point).  See
    curation.source_quality_eb_df."""
    from .curation import source_quality_eb_df

    return source_quality_eb_df(sf_dir)


def _sql_source_eb() -> str:
    from .curation import sql_source_quality_eb

    return sql_source_quality_eb()


QUERIES["source_quality_eb"] = (q_source_quality_eb, _sql_source_eb())


def q_ql_dirichlet(sf_dir: str):
    """Dirichlet-smoothed query-likelihood top-k retrieval (the second
    classical ranking model next to BM25), exact int64 scores via the
    shifted fixed-point log2.  See ranking.ql_dirichlet_df."""
    from .ranking import ql_dirichlet_df

    return ql_dirichlet_df(sf_dir)


def _sql_ql() -> str:
    from .ranking import sql_ql_dirichlet

    return sql_ql_dirichlet()


QUERIES["ql_dirichlet"] = (q_ql_dirichlet, _sql_ql())


# --------------------------------------------------------------------------
# Contrastive negative sampling (training-pair construction): K
# deterministic negatives per anchor doc, drawn by stepping through the
# deterministic-shuffle rank space — uniform-looking, reproducible on
# any cluster size, no RNG.  same_source flags in-domain negatives (a
# contrastive trainer usually wants them excluded or down-weighted).

NEG_K = 3
NEG_EVERY = 10     # anchors: doc_id % NEG_EVERY == 0
NEG_STEP = 48271   # MINSTD multiplier as the rank-space stride


def q_negative_sampling(sf_dir: str):
    """(anchor_id, j, neg_id, same_source) pairs, j = 1..NEG_K.

    neg_rank_j = (r + j*STEP) % N over the injective multiply-hash rank
    r (0-based; the deterministic_shuffle order), bumped by +1 on a
    self-collision and dropped if still self (N == 1).

    Shape (100 TB): the rank assignment is the two-level
    histogram-exchange of deterministic_shuffle (fixed-size partials,
    one bucketed exchange); negatives resolve with ONE partitioned hash
    join of (N*K/EVERY) requests against the N-row rank table — no
    broadcast of the corpus, no driver materialization."""
    import pandas as pd

    from .dedup import _join_partitions, _sharded_groupby
    from .joins import partitioned_hash_join

    path = os.path.join(sf_dir, "documents.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(path, columns=["doc_id", "source"])

    def add_salt(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).view(np.uint64)
        with np.errstate(over="ignore"):
            salt = ids * np.uint64(SHUFFLE_MULT)
        bucket = (salt >> np.uint64(64 - SHUFFLE_BUCKET_BITS)).astype(np.int64)
        biased = (salt - np.uint64(1 << 63)).view(np.int64)
        return pa.table({
            "doc_id": b["doc_id"].cast(pa.int64()),
            "source": b["source"],
            "bucket": pa.array(bucket, pa.int64()),
            "salt_b": pa.array(biased, pa.int64()),
        })

    salted = ds.map_batches(add_salt, batch_format="pyarrow",
                            zero_copy_batch=True)

    def bucket_counts(b: pa.Table) -> pa.Table:
        g = b.group_by(["bucket"]).aggregate([([], "count_all")])
        return pa.table(
            {"bucket": g["bucket"], "c": g["count_all"].cast(pa.int64())}
        )

    parts = salted.map_batches(bucket_counts, batch_format="pyarrow").to_pandas()
    out_cols = ["anchor_id", "j", "neg_id", "same_source"]
    if not len(parts):
        return pd.DataFrame(columns=out_cols).astype("int64")
    hist = parts.groupby("bucket", as_index=False)["c"].sum()
    hist = hist.sort_values("bucket", kind="mergesort")
    n_total = int(hist["c"].sum())
    base = dict(
        zip(hist["bucket"], (hist["c"].cumsum() - hist["c"]).astype("int64"))
    )
    base_ref = ray.put(base)

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        b = ray.get(base_ref)
        g = g.sort_values(["bucket", "salt_b"], kind="mergesort")
        local = g.groupby("bucket").cumcount().to_numpy()
        pos = g["bucket"].map(b).to_numpy(dtype=np.int64) + local  # 0-based
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(),
            "source": g["source"].to_numpy(),
            "pos": pos.astype(np.int64),
        })

    rschema = pa.schema([("doc_id", pa.int64()), ("source", pa.utf8()),
                         ("pos", pa.int64())])
    ranked = _sharded_groupby(salted, ["bucket"], assign,
                              empty_schema=rschema)

    def requests(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ids % NEG_EVERY == 0
        a_id = np.repeat(ids[keep], NEG_K)
        r = np.repeat(
            b["pos"].to_numpy(zero_copy_only=False)[keep], NEG_K
        ).astype(np.int64)
        src = np.repeat(
            b["source"].to_numpy(zero_copy_only=False)[keep], NEG_K)
        j = np.tile(np.arange(1, NEG_K + 1, dtype=np.int64), int(keep.sum()))
        nr = (r + j * NEG_STEP) % n_total
        nr = np.where(nr == r, (r + j * NEG_STEP + 1) % n_total, nr)
        ok = nr != r
        return pa.table({
            "anchor_id": pa.array(a_id[ok], pa.int64()),
            "j": pa.array(j[ok], pa.int64()),
            "a_source": pa.array(src[ok], pa.string()),
            "nr": pa.array(nr[ok], pa.int64()),
        })

    req = ranked.map_batches(requests, batch_format="pyarrow",
                             zero_copy_batch=True)
    joined = partitioned_hash_join(
        req, ranked, left_on="nr", right_on="pos",
        num_partitions=_join_partitions(n_total),
    )

    def finish(b: pa.Table) -> pa.Table:
        same = pc.cast(pc.equal(b["a_source"], b["source"]), pa.int64())
        return pa.table({
            "anchor_id": b["anchor_id"],
            "j": b["j"],
            "neg_id": b["doc_id"],
            "same_source": same,
        })

    return joined.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


SQL_NEGATIVE_SAMPLING = f"""
WITH r AS (
    SELECT doc_id, source,
           row_number() OVER (
               ORDER BY (doc_id::HUGEINT * {SHUFFLE_MULT})
                        % 18446744073709551616
           ) - 1 AS pos
    FROM documents
),
n AS (SELECT count(*)::BIGINT AS n FROM documents),
js(j) AS (VALUES {", ".join(f"({j})" for j in range(1, NEG_K + 1))}),
req AS (
    SELECT a.doc_id AS anchor_id, js.j, a.source AS a_source, a.pos AS r,
           CASE WHEN (a.pos + js.j * {NEG_STEP}) % n.n = a.pos
                THEN (a.pos + js.j * {NEG_STEP} + 1) % n.n
                ELSE (a.pos + js.j * {NEG_STEP}) % n.n END AS nr
    FROM r a, n, js
    WHERE a.doc_id % {NEG_EVERY} = 0
)
SELECT req.anchor_id, req.j::BIGINT AS j, t.doc_id AS neg_id,
       (t.source = req.a_source)::BIGINT AS same_source
FROM req JOIN r t ON t.pos = req.nr
WHERE req.nr != req.r
"""

QUERIES["negative_sampling"] = (q_negative_sampling, SQL_NEGATIVE_SAMPLING)


def q_trigram_backoff(sf_dir: str):
    """Per-doc trigram stupid-backoff LM score (Brants et al. 2007),
    exact-integer fixed point at all three model levels.  See
    curation.trigram_backoff_ds."""
    from .curation import trigram_backoff_ds

    return trigram_backoff_ds(sf_dir)


def _sql_trigram() -> str:
    from .curation import sql_trigram_backoff

    return sql_trigram_backoff()


QUERIES["trigram_backoff"] = (q_trigram_backoff, _sql_trigram())


# --------------------------------------------------------------------------
# RFM customer segmentation (recency / frequency / monetary quartile
# codes) — the classic curation-adjacent analytics op, exact on both
# engines: per-row cents via round-half-away, epoch-day recency (no
# date_diff semantics risk), quartile thresholds via the exact
# order-statistics machinery (DuckDB quantile_disc semantics).

RFM_QS = [0.25, 0.5, 0.75]


def q_rfm_segments(sf_dir: str):
    """Per-customer ``(custkey, r_days, f_orders, m_cents, r_code,
    f_code, m_code, rfm)`` with quartile codes 1..4 (value <= q1 -> 1,
    ... > q3 -> 4).

    Shape (100 TB): per-batch order partials -> ONE custkey-sharded
    exchange builds the customer table (max date / count / cents sum
    combine associatively); the three quartile thresholds come from
    quantiles.exact_quantiles_disc (histogram refinement, fixed-size
    driver state); coding is a streaming map with 9 scalar thresholds
    in the closure."""
    import pandas as pd

    from .dedup import _sharded_groupby
    from .quantiles import exact_quantiles_disc
    from .tpch import _cents

    path = os.path.join(sf_dir, "orders.parquet") if os.path.isdir(sf_dir) else sf_dir
    ds = read_parquet_sized(
        path, columns=["o_custkey", "o_orderdate", "o_totalprice"])

    DAY_US = 86_400_000_000

    def partial(b: pa.Table) -> pa.Table:
        cents = _cents(
            b["o_totalprice"].to_numpy(zero_copy_only=False).astype(
                np.float64))
        t = pa.table({
            "ck": b["o_custkey"].cast(pa.int64()),
            "d": pc.cast(b["o_orderdate"], pa.int64()),
            "m": pa.array(cents, pa.int64()),
        })
        g = t.group_by("ck").aggregate(
            [("d", "max"), ("m", "sum"), ([], "count_all")])
        return pa.table({
            "ck": g["ck"],
            "dmax": g["d_max"],
            "m": pc.cast(g["m_sum"], pa.int64()),
            "f": pc.cast(g["count_all"], pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("ck", as_index=False).agg(
            dmax=("dmax", "max"), m=("m", "sum"), f=("f", "sum"))
        for c in ("dmax", "m", "f"):
            out[c] = out[c].astype("int64")
        return out

    cschema = pa.schema([("ck", pa.int64()), ("dmax", pa.int64()),
                         ("m", pa.int64()), ("f", pa.int64())])
    cust = _sharded_groupby(partials, ["ck"], combine,
                            empty_schema=cschema)

    # anchor: global max order date (tiny partial aggregate)
    mx = partials.map_batches(
        lambda b: pa.table({"d": pa.array(
            [int(b["dmax"].to_numpy(zero_copy_only=False).max())
             if b.num_rows else -(1 << 62)], pa.int64())}),
        batch_format="pyarrow").to_pandas()
    if not len(mx) or not len(cust.take(1)):
        return pd.DataFrame(columns=[
            "custkey", "r_days", "f_orders", "m_cents", "r_code",
            "f_code", "m_code", "rfm"]).astype("int64")
    anchor_day = int(mx["d"].max()) // DAY_US

    def add_r(b: pa.Table) -> pa.Table:
        d = b["dmax"].to_numpy(zero_copy_only=False)
        r = anchor_day - d // DAY_US
        return b.append_column("r_days", pa.array(r, pa.int64()))

    cust = cust.map_batches(add_r, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()

    thr = {}
    for col in ("r_days", "f", "m"):
        qdf = exact_quantiles_disc(cust, col, RFM_QS)
        thr[col] = [int(v) for v in qdf["value"]]

    def code(v: np.ndarray, t: list[int]) -> np.ndarray:
        return (1 + (v > t[0]).astype(np.int64) + (v > t[1])
                + (v > t[2])).astype(np.int64)

    def finish(b: pa.Table) -> pa.Table:
        r = b["r_days"].to_numpy(zero_copy_only=False)
        f = b["f"].to_numpy(zero_copy_only=False)
        m = b["m"].to_numpy(zero_copy_only=False)
        rc = code(r, thr["r_days"])
        fc = code(f, thr["f"])
        mc = code(m, thr["m"])
        return pa.table({
            "custkey": b["ck"],
            "r_days": b["r_days"],
            "f_orders": pa.array(f, pa.int64()),
            "m_cents": pa.array(m, pa.int64()),
            "r_code": pa.array(rc, pa.int64()),
            "f_code": pa.array(fc, pa.int64()),
            "m_code": pa.array(mc, pa.int64()),
            "rfm": pa.array(rc * 100 + fc * 10 + mc, pa.int64()),
        })

    return cust.map_batches(finish, batch_format="pyarrow",
                            zero_copy_batch=True)


SQL_RFM_SEGMENTS = f"""
WITH cust AS (
    SELECT o_custkey AS custkey,
           max(epoch_us(o_orderdate) // 86400000000) AS dmax,
           count(*)::BIGINT AS f_orders,
           sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT AS m_cents
    FROM orders GROUP BY 1
),
withr AS (
    SELECT custkey, (SELECT max(dmax) FROM cust) - dmax AS r_days,
           f_orders, m_cents
    FROM cust
),
q AS (
    SELECT quantile_disc(r_days, {RFM_QS}) AS rq,
           quantile_disc(f_orders, {RFM_QS}) AS fq,
           quantile_disc(m_cents, {RFM_QS}) AS mq
    FROM withr
)
SELECT custkey, r_days::BIGINT AS r_days, f_orders, m_cents,
       (1 + (r_days > rq[1])::INT + (r_days > rq[2])::INT
          + (r_days > rq[3])::INT)::BIGINT AS r_code,
       (1 + (f_orders > fq[1])::INT + (f_orders > fq[2])::INT
          + (f_orders > fq[3])::INT)::BIGINT AS f_code,
       (1 + (m_cents > mq[1])::INT + (m_cents > mq[2])::INT
          + (m_cents > mq[3])::INT)::BIGINT AS m_code,
       ((1 + (r_days > rq[1])::INT + (r_days > rq[2])::INT
           + (r_days > rq[3])::INT) * 100
        + (1 + (f_orders > fq[1])::INT + (f_orders > fq[2])::INT
             + (f_orders > fq[3])::INT) * 10
        + (1 + (m_cents > mq[1])::INT + (m_cents > mq[2])::INT
             + (m_cents > mq[3])::INT))::BIGINT AS rfm
FROM withr, q
"""

QUERIES["rfm_segments"] = (q_rfm_segments, SQL_RFM_SEGMENTS)

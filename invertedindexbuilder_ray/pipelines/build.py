"""Index build: the reference's 4-phase external-memory pipeline, Ray-Data-first.

Reference lifecycle (SURVEY.md §3.1): parse -> spill runs -> sort ->
k-way merge -> final compressed build.  Here the spill/sort/merge
machinery disappears into Ray Data's streaming executor and one
term-keyed shuffle:

    source (doc_id, url, text, dl)
      -> map_batches(TokenizePostings, actor pool)   # postings + doc rows,
                                                     # partition = fnv(term) % P
      -> hive-partitioned checkpoint parquet         # THE shuffle (map side);
                                                     # resume: skip the parse
      -> one job (encode_index), one task per partition directory:
           partition p  -> posting blob + lexicon parquet + metrics
           partition -1 -> docs parquet + global stats (N, sum_dl, max_doc_id)
      -> manifest.json

Posting bytes are the reference format and need no corpus statistics,
so the docs table and its stats come out of the same job as the
encode.  The job reads a list of inputs, each an index directory or a
tokenized checkpoint: a build passes its own checkpoint, a merge
(pipelines/merge.py) the input indexes, and ``extend_index`` the base
index plus the delta's checkpoint, which it deletes after the commit.
So only a build leaves ``postings_ckpt/`` in its output.

Every partition's outputs are written atomically; a rerun of the same
build skips completed partitions (and, with the checkpoint intact, never
re-parses the corpus).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray.data as rd

from ..functions import hashing
from ..functions.tokenize import tokenize_to_postings
from ..stages import compress
from ..state import manifest as mf
from ..state.manifest import IndexManifest

CKPT_DIR = "postings_ckpt"
DOCS_DIR = "docs"
LEXICON_DIR = "lexicon"
POSTINGS_DIR = "postings"
PARTS_META_DIR = "parts_meta"


DOC_ROWS_PARTITION = -1  # hive partition holding the doc-table rows


def elapsed_s(t0: float, digits: int = 3) -> float:
    """Seconds since ``t0``, cut (never rounded up) to ``digits`` decimals,
    so the recorded phases never add up to more than the wall they split."""
    scale = 10**digits
    return math.floor((time.perf_counter() - t0) * scale) / scale


class TokenizePostings:
    """Actor-pool stage: (doc_id, url, text, dl) batches -> combined rows.

    Emits posting rows ``(term, doc_id, tf, partition)`` plus one doc
    row per document (``term = null``, ``partition = -1``) carrying
    ``(doc_id, dl, url)`` — a single output stream so the corpus is
    scanned exactly once.  ``partition = fnv(term) % P`` is assigned
    HERE, before the checkpoint, so the checkpoint write doubles as the
    shuffle: it is hive-partitioned on this column and each index
    partition is then built from its own directory with no groupby
    operator at all (a map-side shuffle through the filesystem — the
    same layout a multi-node build would use on shared storage).
    """

    def __init__(self, num_partitions: int):
        self.num_partitions = num_partitions

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        terms, p_docs, p_tfs = tokenize_to_postings(batch["text"], doc_ids, drop_trailing=True)
        n_p = len(p_docs)
        n_d = batch.num_rows
        part = hashing.term_partition(terms, self.num_partitions).astype(np.int32)
        term_col = pa.concat_arrays([terms, pa.nulls(n_d, pa.string())])
        doc_col = pa.array(np.concatenate([p_docs, doc_ids]), pa.int64())
        tf_col = pa.concat_arrays(
            [pa.array(p_tfs, pa.int32()), pa.nulls(n_d, pa.int32())]
        )
        dl_col = pa.concat_arrays(
            [pa.nulls(n_p, pa.int64()),
             pa.array(batch["dl"].to_numpy(zero_copy_only=False), pa.int64())]
        )
        url_col = pa.concat_arrays(
            [pa.nulls(n_p, pa.string()), batch["url"].combine_chunks()]
        )
        part_col = pa.array(
            np.concatenate(
                [part, np.full(n_d, DOC_ROWS_PARTITION, dtype=np.int32)]
            ),
            pa.int32(),
        )
        return pa.table(
            {
                "term": term_col,
                "doc_id": doc_col,
                "tf": tf_col,
                "dl": dl_col,
                "url": url_col,
                "partition": part_col,
            }
        )


def drop_ids(t: pa.Table, dead: np.ndarray) -> pa.Table:
    """Rows of ``t`` whose ``doc_id`` is not in the sorted array ``dead``."""
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    if not len(dead) or not len(ids):
        return t
    pos = np.minimum(np.searchsorted(dead, ids), len(dead) - 1)
    return t.filter(pa.array(dead[pos] != ids))


DOCS_SCHEMA = pa.schema([("doc_id", pa.int64()), ("dl", pa.int64()), ("url", pa.string())])
POSTING_SCHEMA = pa.schema([("term", pa.string()), ("doc_id", pa.int64()), ("tf", pa.int32())])


def _is_index(src: str) -> bool:  # else a tokenized checkpoint
    return os.path.exists(os.path.join(src, mf.MANIFEST_NAME))


def _partition_posting_rows(src: str, pid: int, doc_offset: int,
                            dead: np.ndarray) -> pa.Table:
    """Partition ``pid`` of the input ``src`` as (term, doc_id, tf) rows:
    a checkpoint's ``partition=<pid>`` rows, or an index's lists decoded
    with one ``compress.decode_partition``; the docs in the sorted local
    ids ``dead`` dropped, the rest shifted by ``doc_offset``.  Segments of
    a term come back as separate runs; the caller's sort stitches them."""
    if not _is_index(src):
        part = os.path.join(src, f"partition={pid}")
        rows = (pads.dataset(part).to_table(columns=POSTING_SCHEMA.names)
                if os.path.isdir(part) else POSTING_SCHEMA.empty_table())
    else:
        lex = pq.read_table(os.path.join(src, LEXICON_DIR, f"part-{pid:05d}.parquet"),
                            columns=["term", "seg_df", "offset", "nbytes"])
        if lex.num_rows:
            list_of, docs, tfs = compress.decode_partition(
                np.memmap(os.path.join(src, POSTINGS_DIR, f"part-{pid:05d}.bin"),
                          dtype=np.uint8, mode="r"),
                lex["offset"].to_numpy(), lex["nbytes"].to_numpy(),
                lex["seg_df"].to_numpy(),
            )
        else:
            list_of = docs = tfs = np.empty(0, np.int64)
        rows = pa.table([lex["term"].take(pa.array(list_of)), pa.array(docs),
                         pa.array(tfs.astype(np.int32))], schema=POSTING_SCHEMA)
    rows = drop_ids(rows, dead)
    if not doc_offset:
        return rows
    return rows.set_column(1, "doc_id", pa.array(rows["doc_id"].to_numpy() + doc_offset))


class BuildPartition:
    """One task of the encode job: item ``pid`` builds index partition
    ``pid``, item ``DOC_ROWS_PARTITION`` writes the docs table.

    ``inputs`` names where the rows come from: ``(src, doc_id offset,
    sorted dead local ids)`` per input, ``src`` an index directory or a
    tokenized checkpoint.  Partition ``pid`` of every input is read
    (``_partition_posting_rows``: a checkpoint's rows as they are, an
    index's lists decoded) and each input's doc rows (an index's docs
    table, a checkpoint's ``partition=-1``) are read, tombstones dropped
    and ids shifted, with nothing written between.

    A partition sorts its postings by (term, doc_id), encodes every
    term's list (compress.encode_term_lists — the bytes need no corpus
    statistics), writes the posting blob + per-partition lexicon parquet
    atomically, and returns one metrics row.  If this partition's
    outputs already exist (resume), encoding is skipped entirely.

    The docs item streams its sources through one parquet writer and
    returns the corpus stats (n_docs, sum_dl, max_doc_id), which its
    ``_SUCCESS`` marker keeps for a resume.  If an input's surviving ids
    meet an earlier input's, it stops and reports them instead.
    """

    def __init__(
        self, out_dir: str, inputs: list[tuple[str, int, np.ndarray]],
        segment_max_postings: int = 1_000_000, resume: bool = True, ckpt_token: str = "",
    ):
        self.out_dir = out_dir
        self.inputs = inputs
        self.segment_max_postings = segment_max_postings
        self.resume = resume
        self.ckpt_token = ckpt_token

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for pid in batch["pid"].to_pylist():
            meta = self._write_docs() if pid == DOC_ROWS_PARTITION else self._build_one(int(pid))
            out.append(pa.table({"partition": [pid], "metrics": [json.dumps(meta)]}))
        return pa.concat_tables(out)

    def _write_docs(self) -> dict:
        t0 = time.perf_counter()
        docs_dir = os.path.join(self.out_dir, DOCS_DIR)
        stats = {}
        if self.resume and mf.is_complete(docs_dir):
            with open(mf.marker_path(docs_dir)) as f:
                stats = json.load(f)
        if "n_docs" not in stats:
            sources = [(os.path.join(d, DOCS_DIR if _is_index(d)
                                     else f"partition={DOC_ROWS_PARTITION}"), off, dead)
                       for d, off, dead in self.inputs]
            shutil.rmtree(docs_dir, ignore_errors=True)
            os.makedirs(docs_dir)
            n = sum_dl = 0
            top = -1
            seen = np.empty(0, np.int64)  # earlier inputs' ids, when several
            with pq.ParquetWriter(os.path.join(docs_dir, "part-00000.parquet"),
                                  DOCS_SCHEMA) as w:
                for src, offset, dead in sources:
                    if not os.path.isdir(src):  # every doc filtered out
                        continue
                    mine = []
                    for b in pads.dataset(src).to_batches(columns=DOCS_SCHEMA.names):
                        t = drop_ids(pa.Table.from_batches([b]), dead).cast(DOCS_SCHEMA)
                        ids = t["doc_id"].to_numpy() + offset
                        w.write_table(t.set_column(0, "doc_id", pa.array(ids)))
                        n += len(ids)
                        sum_dl += int(t["dl"].to_numpy().sum())
                        top = max(top, int(ids.max(initial=-1)))
                        mine.append(ids)
                    if len(sources) > 1 and mine:
                        mine = np.concatenate(mine)
                        clash = np.intersect1d(mine, seen)
                        if len(clash):  # encode_index raises it, unwrapped
                            return {"overlap": clash[:10].tolist(), "source": src}
                        seen = np.union1d(seen, mine)
            stats = {"fingerprint": self.ckpt_token, "n_docs": n, "sum_dl": sum_dl,
                     "max_doc_id": top + 1}
            mf.mark_complete(docs_dir, stats)
        return {"n_docs": stats["n_docs"], "sum_dl": stats["sum_dl"],
                "max_doc_id": stats["max_doc_id"],
                "wall_s": elapsed_s(t0, 4)}

    def _build_one(self, pid: int) -> dict:
        t0 = time.perf_counter()
        blob_path = os.path.join(self.out_dir, POSTINGS_DIR, f"part-{pid:05d}.bin")
        lex_path = os.path.join(self.out_dir, LEXICON_DIR, f"part-{pid:05d}.parquet")
        meta_path = os.path.join(self.out_dir, PARTS_META_DIR, f"part-{pid:05d}.json")
        # Resume skip: only when asked to resume AND the existing outputs were
        # built from the SAME checkpoint (token = input fingerprint) by code
        # writing the same format — a ``resume=False`` build always re-encodes
        # (stale-output fix, ADVICE r1).
        if (
            self.resume
            and os.path.exists(meta_path)
            and os.path.exists(blob_path)
            and os.path.exists(lex_path)
        ):
            with open(meta_path) as f:
                meta = json.load(f)
            # the token gate only binds when this build knows its fingerprint;
            # fingerprint-less resumes keep trusting existing outputs
            if meta.get("format_version") == mf.FORMAT_VERSION and (
                not self.ckpt_token or meta.get("ckpt_token", "") == self.ckpt_token
            ):
                meta["skipped"] = True
                return meta

        tbl = pa.concat_tables([_partition_posting_rows(d, pid, off, dead)
                                for d, off, dead in self.inputs])
        tbl = tbl.sort_by([("term", "ascending"), ("doc_id", "ascending")])
        doc_ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
        tfs = tbl["tf"].to_numpy(zero_copy_only=False)
        # term runs via dictionary encoding (codes appear in sorted order)
        dict_arr = pc.dictionary_encode(tbl["term"].combine_chunks())
        term_df = np.bincount(np.asarray(dict_arr.indices), minlength=len(dict_arr.dictionary))
        term_of, seg_no, seg_starts = _segment_cuts(term_df, self.segment_max_postings)

        enc = compress.encode_term_lists(seg_starts, doc_ids, tfs)
        mf.atomic_write_bytes(blob_path, enc.blob)
        lex_tbl = pa.table(
            {
                "term": dict_arr.dictionary.take(pa.array(term_of)),
                "df": pa.array(term_df[term_of], pa.int64()),
                "seg": pa.array(seg_no, pa.int32()),
                "seg_df": pa.array(enc.dfs, pa.int64()),
                "first_doc": pa.array(doc_ids[seg_starts[:-1]], pa.int64()),
                "partition": pa.array(np.full(len(term_of), pid), pa.int32()),
                "offset": pa.array(enc.offsets, pa.int64()),
                "nbytes": pa.array(enc.nbytes, pa.int64()),
            }
        )
        os.makedirs(os.path.dirname(lex_path), exist_ok=True)
        tmp = lex_path + ".tmp"
        pq.write_table(lex_tbl, tmp)
        os.replace(tmp, lex_path)
        meta = {
            "partition": pid,
            "rows": int(len(doc_ids)),
            "n_terms": int(len(term_of)),
            "blob_bytes": int(len(enc.blob)),
            "wall_s": elapsed_s(t0, 4),
            "skipped": False,
            "ckpt_token": self.ckpt_token,
            "format_version": mf.FORMAT_VERSION,
        }
        mf.atomic_write_json(meta_path, meta)
        return meta


def _segment_cuts(term_df: np.ndarray, smax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Heavy-hitter split of consecutive term runs with ``term_df``
    postings -> (term of each segment, its number within the term,
    posting offsets delimiting the segments).

    A term with df > ``smax`` is cut into n = ceil(df / smax) doc-range
    segments of ceil(df / n) postings (the last one shorter), each an
    independent list (its own delta base and skip tables) in the
    reference format.  The reader stitches segments in doc order, so no
    worker ever needs a whole hot list in memory; the lexicon's ``df``
    keeps the TERM-TOTAL df for BM25's idf."""
    term_start = np.cumsum(term_df) - term_df
    n_segs = -(-term_df // smax)
    size = -(-term_df // n_segs)
    term_of = np.repeat(np.arange(len(term_df)), n_segs)
    seg_no = np.arange(len(term_of)) - (np.cumsum(n_segs) - n_segs)[term_of]
    seg_end = np.minimum(term_start[term_of] + (seg_no + 1) * size[term_of],
                         (term_start + term_df)[term_of])
    return term_of, seg_no, np.concatenate([[0], seg_end])


def _check_segment_max(smax: int) -> None:
    if smax < 1:
        raise ValueError(f"segment_max_postings must be >= 1, got {smax}")


def encode_index(
    out_dir: str,
    num_partitions: int,
    inputs: list[tuple[str, int, np.ndarray]],
    fingerprint: str,
    phase_s: dict[str, float],
    encode_phase: str,
    stats: dict,
    *,
    resume: bool,
    segment_max_postings: int = 1_000_000,
) -> IndexManifest:
    """The encode job shared by build and merge, then the manifest commit.

    One Ray Data job runs every partition plus the docs-table item
    (``BuildPartition``), reading ``inputs``.  ``phase_s`` gains
    ``docs_and_stats`` (the docs task's own seconds) and
    ``encode_phase`` (the job's wall minus those), so the phases still
    add up to the wall.  ``stats`` joins the manifest's stats, beside
    ``encode_partition_s`` (p50 and max of the partitions this call
    encoded; resumed ones are left out)."""
    _check_segment_max(segment_max_postings)
    t0 = time.perf_counter()
    docs_dir = os.path.join(out_dir, DOCS_DIR)
    if not resume:
        # fresh write into a possibly non-empty out_dir: drop every stale
        # artifact so nothing is appended to or served from a previous run
        for sub in (DOCS_DIR, POSTINGS_DIR, LEXICON_DIR, PARTS_META_DIR):
            shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
    # Stale-resume guard: resuming into an out_dir whose docs table came
    # from DIFFERENT inputs must fail loudly, not silently serve it under a
    # manifest claiming the new inputs.  (Partitions carry the fingerprint
    # in their parts_meta token and re-encode on a mismatch.)
    if fingerprint and mf.is_complete(docs_dir):
        try:
            with open(mf.marker_path(docs_dir)) as f:
                prev = json.load(f).get("fingerprint", "")
        except (OSError, ValueError):
            prev = ""
        if prev and prev != fingerprint:
            raise ValueError(
                f"resume requested at {out_dir} but its docs table came from "
                f"different inputs (fingerprint {prev!r} != {fingerprint!r}); "
                "use a fresh out_dir or resume=False"
            )
    builder = BuildPartition(
        out_dir, inputs, segment_max_postings, resume=resume, ckpt_token=fingerprint,
    )
    rows = (
        rd.from_items([{"pid": p} for p in range(DOC_ROWS_PARTITION, num_partitions)])
        .map_batches(builder, batch_format="pyarrow", batch_size=1)
        .take_all()
    )
    partitions = {str(r["partition"]): json.loads(r["metrics"]) for r in rows}
    docs = partitions.pop(str(DOC_ROWS_PARTITION))
    if "overlap" in docs:
        raise ValueError(
            f"inputs overlap in doc ids {docs['overlap']} (first clash at "
            f"{docs['source']}); give them disjoint ids or offset_doc_ids=True")
    phase_s["docs_and_stats"] = docs["wall_s"]
    phase_s[encode_phase] = elapsed_s(t0 + docs["wall_s"])  # the job minus the docs task

    n_docs, sum_dl = docs["n_docs"], docs["sum_dl"]
    walls = [p["wall_s"] for p in partitions.values() if not p.get("skipped")]
    man = IndexManifest(
        n_docs=n_docs,
        sum_dl=sum_dl,
        d_avr=(sum_dl / (n_docs - 1)) if n_docs > 1 else float(sum_dl),  # quirk Q6
        max_doc_id=docs["max_doc_id"],
        num_partitions=num_partitions,
        input_fingerprint=fingerprint,
        partitions=partitions,
        stats={
            "total_postings": sum(p.get("rows", 0) for p in partitions.values()),
            "distinct_terms": sum(p.get("n_terms", 0) for p in partitions.values()),
            "index_bytes": sum(p.get("blob_bytes", 0) for p in partitions.values()),
            "encode_partition_s": {"p50": float(np.median(walls)) if walls else 0.0,
                                   "max": max(walls, default=0.0)},
            **stats,
            "phase_seconds": phase_s,
        },
    )
    man.save(out_dir)
    return man


def _fingerprint(source: str | list[str] | rd.Dataset) -> str:
    if isinstance(source, rd.Dataset):
        # Schema alone would let two same-shaped corpora satisfy a stale
        # resume (round-3 verdict).  Fold in row count and an ORDER-
        # INDEPENDENT content hash (wraparound sum of per-row hashes —
        # Ray block arrival order is not deterministic, so an order-
        # sensitive sample would false-alarm on legitimate resumes).
        # This is one streaming pass over the Dataset; path-backed
        # callers use the cheap stat() branch below, and callers that
        # cannot afford a pass may pass their own input_fingerprint.
        import pandas as pd

        def h(batch: pa.Table) -> pa.Table:
            hv = pd.util.hash_pandas_object(
                batch.to_pandas(), index=False
            ).to_numpy()
            with np.errstate(over="ignore"):
                s = np.uint64(hv.view(np.uint64).sum())
            return pa.table(
                {
                    "n": pa.array([batch.num_rows], pa.int64()),
                    "h": pa.array([int(s)], pa.uint64()),
                }
            )

        parts = source.map_batches(h, batch_format="pyarrow").take_all()
        n = sum(p["n"] for p in parts)
        tot = 0
        for p in parts:
            tot = (tot + int(p["h"])) & ((1 << 64) - 1)
        return f"dataset:{source.schema()}:n={n}:h={tot:016x}"
    paths = source if isinstance(source, list) else [source]
    parts = []
    for p in paths:
        try:
            st = os.stat(p)
            parts.append(f"{p}:{st.st_size}:{int(st.st_mtime)}")
        except OSError:
            parts.append(p)
    return ";".join(parts)


def tokenize_to_ckpt(source_ds: rd.Dataset, out_dir: str, num_partitions: int,
                     input_fingerprint: str = "", *, resume: bool) -> str:
    """Phase 1: parse/tokenize ``source_ds`` into ``out_dir``'s checkpoint
    and return its token, a fresh ``uuid4`` hex kept in its ``_SUCCESS``.
    The write IS the shuffle: rows land in partition=<fnv(term)%P>/ dirs
    (doc rows in partition=-1/), so the encode reads each partition from
    its own directory with zero groupby.  Skipped wholesale on resume —
    but only for the SAME input: resuming over a different corpus must
    fail loudly, not silently serve a stale index."""
    ckpt = os.path.join(out_dir, CKPT_DIR)
    if resume and mf.is_complete(ckpt):
        try:
            with open(mf.marker_path(ckpt)) as f:
                marker = json.load(f)
        except (OSError, ValueError):
            marker = {}
        prev = marker.get("fingerprint", "")
        if input_fingerprint and prev and prev != input_fingerprint:
            raise ValueError(
                f"resume requested at {out_dir} but the checkpoint was built from a "
                f"different input (fingerprint {prev!r} != {input_fingerprint!r}); "
                "use a fresh out_dir or resume=False"
            )
        return marker.get("token", "")
    # write_parquet APPENDS into an existing directory; a checkpoint dir
    # without its _SUCCESS marker is an interrupted write — wipe it or a
    # resumed build would index every row twice (ADVICE r1).  The docs
    # table is derived from the checkpoint, so it goes too; encode_index
    # drops the rest of a non-resumed out_dir.
    for sub in (CKPT_DIR, DOCS_DIR):
        shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
    combined = source_ds.map_batches(
        TokenizePostings(num_partitions), batch_format="pyarrow", zero_copy_batch=True
    )
    # The read -> tokenize -> hive-write chain fuses into single tasks, so
    # postings NEVER cross the object store (which is a serial ~160 MB/s
    # resource in this sandbox).  Each task emits one file per partition
    # value; source row groups should therefore be sized so the task
    # count stays a small multiple of the worker count.
    combined.write_parquet(ckpt, partition_cols=["partition"])
    token = uuid.uuid4().hex
    mf.mark_complete(ckpt, {"fingerprint": input_fingerprint, "token": token})
    return token


def build_index(
    source_ds: rd.Dataset,
    out_dir: str,
    *,
    num_partitions: int = 16,
    resume: bool = True,
    input_fingerprint: str = "",
    segment_max_postings: int = 1_000_000,
) -> IndexManifest:
    """Build a full index at ``out_dir`` from a (doc_id, url, text, dl) Dataset.

    ``source_ds`` comes from ``sources.webpages.load_webpages`` (quirk-
    faithful doc_ids) or ``sources.documents.load_documents``.
    """
    _check_segment_max(segment_max_postings)
    t0 = time.perf_counter()
    tokenize_to_ckpt(source_ds, out_dir, num_partitions, input_fingerprint, resume=resume)
    phase_s = {"parse_tokenize_ckpt": elapsed_s(t0)}

    # ---- Phase 2: one job encodes every partition directory and writes
    # the docs table from the doc rows (partition=-1) beside them
    return encode_index(
        out_dir, num_partitions, [(os.path.join(out_dir, CKPT_DIR), 0, np.empty(0, np.int64))],
        input_fingerprint, phase_s, "shuffle_and_encode", {},
        resume=resume, segment_max_postings=segment_max_postings,
    )

"""The four workloads.  Each takes a ``Ctx`` and returns a ``Result``.

Every workload is a closed loop with one client in one process: the next
op starts when the previous one returned.  Set-up (index builds, engine
opens) is measured as ``setup_s``; the ops after it are the measured
section.  Each is measured three ways (``Timing``): CPU time of the run's
processes (``cpu.py``), that CPU time at the yardstick's reference speed
(``yardstick.py``), which is what the metrics report, and wall time.
Output checks run after the measured section.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import checks, yardstick
from .cpu import RunCPU
from .inputs import SCALES, corpus_files
from .trace import QUERY_KERNELS, Tracer, instrument

K = 10
PARTITIONS = 4
YARD_N = 4               # yardstick samples right before and after an op
YARD_PERIOD_S = 0.2      # seconds between two yardstick samples during an op
YARD_EVERY = 50          # queries between two yardstick samples in a pass
MODE_IDS = {"and": 0, "or": 1, "andnot": 2, "cnf": 3, "msm": 4}
now = time.perf_counter


@dataclass
class Timing:
    scaled_s: float    # cpu_s at the yardstick's reference speed
    cpu_s: float       # CPU seconds of the run's processes
    wall_s: float


@dataclass
class Ctx:
    run_dir: str
    paths: dict
    seconds: float
    scale: str
    tr: Tracer
    traced: bool
    cpu: RunCPU = field(default_factory=RunCPU)
    ray_init_s: float = 0.0

    @contextlib.contextmanager
    def op(self, into: list):
        """Measure the block as one op and append its ``Timing`` to
        ``into``.  Dirty pages are flushed first (an index just written
        would otherwise be written back during the op), the collector runs
        before the op and stays off during it, and the yardstick is timed
        right before it, in a thread alongside it, and right after it;
        the thread's own CPU time is taken out of the op's."""
        os.sync()
        gc.collect()
        before = [yardstick.sample() for _ in range(YARD_N)]
        gc.disable()
        sampler = yardstick.Sampler(YARD_PERIOD_S)
        c0, w0 = self.cpu.now(rescan=True), now()
        sampler.start()
        try:
            yield
        finally:
            during = sampler.stop()
            wall = now() - w0
            cpu = self.cpu.now(rescan=True) - c0 - sampler.cpu_s
            gc.enable()
        after = [yardstick.sample() for _ in range(YARD_N)]
        into.append(Timing(cpu * yardstick.speed(before + during + after), cpu, wall))

    @property
    def cfg(self) -> dict:
        return SCALES[self.scale]

    def out(self, name: str) -> str:
        return os.path.join(self.run_dir, "out", name)


@dataclass
class Result:
    setup: Timing
    ops: list                  # a Timing per timed op
    rss_kb: int
    disk_bytes: int
    input_bytes: int
    attempted: int
    failed: int
    layers: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    stream_len: int = 0


def vm_hwm_kb(status: str = "/proc/self/status") -> int:
    with open(status) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def text_bytes(files: list[str]) -> int:
    return sum(
        pc.sum(pc.binary_length(pc.cast(pq.read_table(p, columns=["text"])["text"],
                                         pa.binary()))).as_py() or 0
        for p in files
    )


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


# ---------------------------------------------------------------- build layer
def build_webpages(ctx: Ctx, files: list[str], out_dir: str) -> tuple:
    """load_webpages + build_index into an empty dir with an empty plan
    cache, so every build pays the doc-id prepass.  Returns (manifest,
    wall seconds, plan seconds)."""
    from invertedindexbuilder_ray.pipelines.build import build_index
    from invertedindexbuilder_ray.sources.webpages import load_webpages

    plan_cache = out_dir + ".plan"
    shutil.rmtree(out_dir, ignore_errors=True)
    shutil.rmtree(plan_cache, ignore_errors=True)
    os.environ["IIB_PLAN_CACHE_DIR"] = plan_cache
    tr = ctx.tr
    t0 = now()
    with tr.span("sources.webpages.plan"):
        ds = load_webpages(files)
    t1 = now()
    with tr.span("pipelines.build"):
        man = build_index(ds, out_dir, num_partitions=PARTITIONS)
        t = t1
        for name, s in man.stats.get("phase_seconds", {}).items():
            tr.record(f"pipelines.build.{name}", t, t + s)
            t += s
    t2 = now()
    return man, t2 - t0, t1 - t0


def build_layers(man, wall: float, plan: float, ckpt_dir: str) -> dict:
    ph = man.stats.get("phase_seconds", {})
    return {
        "sources.webpages.plan_s": plan,
        "pipelines.build.parse_tokenize_ckpt_s": ph.get("parse_tokenize_ckpt", 0.0),
        "pipelines.build.docs_and_stats_s": ph.get("docs_and_stats", 0.0),
        "pipelines.build.shuffle_and_encode_s": ph.get("shuffle_and_encode", 0.0),
        "pipelines.build.unattributed_s": wall - plan - sum(ph.values()),
        "pipelines.build.postings": man.stats.get("total_postings", 0),
        "pipelines.build.distinct_terms": man.stats.get("distinct_terms", 0),
        "pipelines.build.index_bytes": man.stats.get("index_bytes", 0),
        "pipelines.build.ckpt_bytes": checks.tree_bytes(ckpt_dir),
    }


def median_layers(samples: list[dict]) -> dict:
    return {k: median([s[k] for s in samples]) for k in samples[0]} if samples else {}


def run_build(ctx: Ctx) -> Result:
    from invertedindexbuilder_ray.pipelines.build import CKPT_DIR

    files = corpus_files(ctx.paths["corpus"])
    setup: list = []
    with ctx.op(setup):
        build_webpages(ctx, files, ctx.out("cold"))

    mans, ops, samples = [], [], []
    while len(ops) < ctx.cfg["min_builds"] or sum(t.wall_s for t in ops) < ctx.seconds:
        d = ctx.out(f"b{len(ops)}")
        with ctx.op(ops):
            man, wall, plan = build_webpages(ctx, files, d)
        mans.append(man)
        samples.append(build_layers(man, wall, plan, os.path.join(d, CKPT_DIR)))
    last = ctx.out(f"b{len(ops) - 1}")

    rss = vm_hwm_kb()
    want = checks.build_counts(ctx.paths["corpus"])
    problems = []
    for man in mans:
        got = {"n_docs": man.n_docs,
               "distinct_terms": man.stats.get("distinct_terms"),
               "total_postings": man.stats.get("total_postings")}
        if got != want:
            problems.append({"build": "timed", "got": got, "want": want})

    layers = median_layers(samples)
    if ctx.traced:
        from invertedindexbuilder_ray.functions.tokenize import tokenize_to_postings

        tbl = pa.concat_tables(pq.read_table(p, columns=["text"]) for p in files)
        texts = tbl["text"].combine_chunks()
        gc.collect()
        t = now()
        with ctx.tr.span("functions.tokenize"):
            _, _, tfs = tokenize_to_postings(texts, np.arange(len(texts)))
        layers["functions.tokenize.tokens_per_s"] = int(tfs.sum()) / (now() - t)
    return Result(setup[0], ops, rss, checks.tree_bytes(last),
                  text_bytes(files), len(mans), len(problems), layers, problems)


# ---------------------------------------------------------------- query layers
def _hits(res) -> list:
    return [(h["doc_id"], h["score"]) for h in res]


def timed_passes(ctx: Ctx, stream: list, ask) -> tuple[list, list, int]:
    """One untimed warm pass, then whole timed passes over ``stream``
    until both the sample floor and ``--seconds`` of wall time are met.
    Each pass is scaled by the yardstick samples taken before it and
    every YARD_EVERY queries in it.  Returns (a Timing per query, warm
    results, ops whose replay differed)."""
    warm = [ask(q) for q in stream]
    ops, differ = [], 0
    while len(ops) < ctx.cfg["min_samples"] or sum(t.wall_s for t in ops) < ctx.seconds:
        got, cpu, wall = [], [], []
        os.sync()
        gc.collect()
        yard = [yardstick.sample()]
        gc.disable()
        ctx.cpu.now(rescan=True)
        try:
            for i, q in enumerate(stream):
                c0, w0 = ctx.cpu.now(), now()
                got.append(ask(q))
                wall.append(now() - w0)
                cpu.append(ctx.cpu.now() - c0)
                if i % YARD_EVERY == YARD_EVERY - 1:
                    yard.append(yardstick.sample())
        finally:
            gc.enable()
        speed = yardstick.speed(yard)
        ops += [Timing(c * speed, c, w) for c, w in zip(cpu, wall)]
        differ += sum(a != b for a, b in zip(got, warm))
    return ops, warm, differ


def query_layers(tr: Tracer) -> dict:
    """Per-query means over every traced query."""
    st, c = tr.self_times(), tr.counts
    n = sum(c[f"queries.{m}"] for m in QUERY_KERNELS.values()) or 1
    opens = sum(1 for s in tr.spans if s[2] == "state.reader.open") or 1
    out = {
        "state.reader.open_s": st.get("state.reader.open", 0.0) / opens,
        "state.reader.lexicon_terms": c["state.reader.lexicon_terms"],
        "state.reader.lookup_us": 1e6 * st.get("state.reader.lookup", 0.0) / (c["lookups"] or 1),
        "state.reader.decode_ms": 1e3 * st.get("state.reader.decode", 0.0) / n,
        "state.reader.postings_decoded": c["postings"] / n,
        "state.reader.blocks_decoded": c["blocks"] / n,
        "pipelines.query.parse_us": 1e6 * st.get("pipelines.query.parse", 0.0) / n,
        "pipelines.query.url_us": 1e6 * st.get("pipelines.query.url", 0.0) / n,
    }
    for m in QUERY_KERNELS.values():
        qn = c[f"queries.{m}"] or 1
        cand = c[f"cand.{m}"]
        out[f"pipelines.query.kernel_ms.{m}"] = 1e3 * st.get(f"pipelines.query.kernel.{m}", 0.0) / qn
        out[f"pipelines.query.candidates.{m}"] = cand / qn
        out[f"pipelines.query.results_per_candidate.{m}"] = c[f"results.{m}"] / cand if cand else 0.0
    return out


def decode_rate(reader, stream: list) -> float:
    """Postings per second of bulk-decoding every posting list the
    stream's terms name."""
    from invertedindexbuilder_ray.oracle import tokenize

    terms = {t for q in stream for t in tokenize(q["q"].replace(";", " ") + " ")}
    lists = [c for t in sorted(terms) if (c := reader.open_list(t)) is not None]
    gc.collect()
    n, t = 0, now()
    for c in lists:
        n += len(c.decode_all_remaining()[0])
    return n / (now() - t)


def run_query(ctx: Ctx) -> Result:
    from invertedindexbuilder_ray.pipelines.query import QueryEngine

    with open(ctx.paths["stream"]) as f:
        stream = json.load(f)
    files = corpus_files(ctx.paths["corpus"])
    idx = ctx.out("index")

    def ask(eng, q):
        return _hits(eng.search(q["q"], K, MODE_IDS[q["mode"]],
                                neg_query=q["neg"], msm=q["msm"]))

    setup: list = []
    with ctx.op(setup):
        man, wall, plan = build_webpages(ctx, files, idx)
        eng = QueryEngine(idx)
        ask(eng, stream[0])
    layers = build_layers(man, wall, plan, os.path.join(idx, "postings_ckpt"))

    with instrument(ctx.tr, "query"):
        if ctx.traced:  # the reader's open span
            eng = QueryEngine(idx)
        ops, warm, differ = timed_passes(ctx, stream, lambda q: ask(eng, q))
    rss = vm_hwm_kb()
    if ctx.traced:
        layers.update(query_layers(ctx.tr))
        layers["stages.compress.decode_postings_per_s"] = decode_rate(eng.reader, stream)

    bad = checks.query_mismatches(ctx.paths["corpus"], stream, warm, K)
    replays = len(ops) // len(stream)
    failed = len(bad) * (1 + replays) + differ
    return Result(setup[0], ops, rss, checks.tree_bytes(idx),
                  text_bytes(files), len(stream) + len(ops), failed, layers,
                  bad + ([{"replay_mismatches": differ}] if differ else []), len(stream))


# ---------------------------------------------------------------- sharded tier
def _actor_hwm_kb(eng) -> int:
    import ray

    def hwm(_self):
        return vm_hwm_kb()

    return sum(ray.get([a.__ray_call__.remote(hwm) for a in eng.actors]))


def _close_sharded(eng) -> None:
    import ray

    for a in eng.actors:
        ray.kill(a)


def run_query_sharded(ctx: Ctx) -> Result:
    from invertedindexbuilder_ray.pipelines.query import QueryEngine
    from invertedindexbuilder_ray.pipelines.shards import ShardedEngine

    with open(ctx.paths["stream"]) as f:
        stream = json.load(f)
    files = corpus_files(ctx.paths["corpus"])
    half = len(files) // 2
    dirs = [ctx.out("shard0"), ctx.out("shard1")]

    def ask(eng, q):
        return [tuple(x) for x in eng.search(q["q"], K, MODE_IDS[q["mode"]])]

    samples, setup = [], []
    with ctx.op(setup):
        for d, part in zip(dirs, (files[:half], files[half:])):
            man, wall, plan = build_webpages(ctx, part, d)
            samples.append(build_layers(man, wall, plan, os.path.join(d, "postings_ckpt")))
        eng = ShardedEngine(dirs, offset_doc_ids=True)
        ask(eng, stream[0])
    layers = {k: sum(s[k] for s in samples) for k in samples[0]}

    with instrument(ctx.tr, "shards"):
        ops, warm, differ = timed_passes(ctx, stream, lambda q: ask(eng, q))
    rss = vm_hwm_kb() + _actor_hwm_kb(eng)
    _close_sharded(eng)
    if ctx.traced:
        c, n = ctx.tr.counts, ctx.tr.counts["shards.queries"] or 1
        layers.update({
            "pipelines.shards.df_prepass_ms": 1e3 * c["shards.prepass_s"] / n,
            "pipelines.shards.shard_search_ms_max": 1e3 * c["shards.max_s"] / n,
            "pipelines.shards.shard_search_ms_sum": 1e3 * c["shards.sum_s"] / n,
            "pipelines.shards.gather_ms": 1e3 * c["shards.gather_s"] / n,
            "pipelines.shards.df_cache_hit_ratio": c["shards.df_hits"] / (c["shards.terms"] or 1),
            "pipelines.shards.rpcs_per_query": c["shards.rpcs"] / n,
        })

    # reference: one monolithic total-order engine over the unsplit corpus;
    # in a traced run its kernels give the total-order query-layer numbers
    ref_dir = ctx.out("reference")
    build_webpages(ctx, files, ref_dir)
    qtr = Tracer() if ctx.traced else ctx.tr
    with instrument(qtr, "query"):
        ref = QueryEngine(ref_dir, conformance=False, total_order_topk=True)
        want = [_hits(ref.search(q["q"], K, MODE_IDS[q["mode"]])) for q in stream]
    if ctx.traced:
        layers.update(query_layers(qtr))
        ctx.tr.absorb(qtr)
    bad = [
        {"i": i, "query": q, "got": g[:3], "want": w[:3]}
        for i, (q, g, w) in enumerate(zip(stream, warm, want))
        if not checks.same_ranking(g, w)
    ]
    replays = len(ops) // len(stream)
    failed = len(bad) * (1 + replays) + differ
    return Result(setup[0], ops, rss,
                  sum(checks.tree_bytes(d) for d in dirs), text_bytes(files),
                  len(stream) + len(ops), failed, layers,
                  bad + ([{"replay_mismatches": differ}] if differ else []), len(stream))


# ---------------------------------------------------------------- ingest chain
def run_ingest(ctx: Ctx) -> Result:
    import ray.data as rd

    from invertedindexbuilder_ray.pipelines.build import build_index
    from invertedindexbuilder_ray.pipelines.dedup import minhash_signature_ckpt
    from invertedindexbuilder_ray.pipelines.ingest import ingest_delta
    from invertedindexbuilder_ray.pipelines.query import QueryEngine
    from invertedindexbuilder_ray.sources.documents import load_documents

    root = ctx.paths["ingest"]
    base_src = os.path.join(root, "base")
    with open(os.path.join(root, "chain.json")) as f:
        chain = json.load(f)
    deltas = [pq.read_table(os.path.join(root, d["file"])) for d in chain]
    base_idx = ctx.out("base")

    setup: list = []
    with ctx.op(setup):
        with ctx.tr.span("pipelines.build"):
            man = build_index(load_documents(base_src), base_idx, num_partitions=PARTITIONS)
        minhash_signature_ckpt(base_src)
    layers = build_layers(man, setup[0].wall_s, 0.0, os.path.join(base_idx, "postings_ckpt"))
    layers["pipelines.build.unattributed_s"] = 0.0

    cur, fp, n_docs = base_idx, "", man.n_docs
    ops, reports, problems = [], [], []
    with instrument(ctx.tr, "ingest"):
        for i, tbl in enumerate(deltas):
            ds = rd.from_arrow(tbl)
            out = ctx.out(f"ingest{i}")
            with ctx.op(ops), ctx.tr.span("pipelines.ingest"):
                rep = ingest_delta(cur, base_src, ds, out, corpus_fingerprint=fp)
            reports.append(rep)
            want_n = n_docs + rep["n_delta"] - rep["n_dropped"]
            if rep["manifest"].n_docs != want_n or rep["dropped_ids"] != chain[i]["planted"]:
                problems.append({"delta": i, "n_docs": rep["manifest"].n_docs,
                                 "want_n_docs": want_n, "dropped": rep["dropped_ids"],
                                 "planted": chain[i]["planted"]})
            cur, fp, n_docs = out, rep["corpus_fingerprint"], rep["manifest"].n_docs

    survivors = [(i, d) for i, c in enumerate(chain) for d in c["ids"]
                 if d not in set(reports[i]["dropped_ids"])]
    rss = vm_hwm_kb()
    eng = QueryEngine(cur)

    failed_ops = {p["delta"] for p in problems}
    for i, d in survivors:
        if d not in {h["doc_id"] for h in eng.search(f"n{d}", K, 0)}:
            failed_ops.add(i)
            problems.append({"delta": i, "survivor_not_found": d})
    for i, rep in enumerate(reports):
        for d in rep["dropped_ids"]:
            if eng.search(f"n{d}", K, 0):
                failed_ops.add(i)
                problems.append({"delta": i, "dropped_but_found": d})

    text = {d: t for tbl in deltas for d, t in zip(tbl["doc_id"].to_pylist(),
                                                   tbl["text"].to_pylist())}
    kept_bytes = sum(len(text[d].encode()) for _, d in survivors)
    input_bytes = text_bytes([os.path.join(base_src, "documents.parquet")]) + kept_bytes
    if ctx.traced:
        st, n = ctx.tr.self_times(), len(ops)
        tot = ctx.tr.totals()
        delta_bytes = sum(len(t.encode()) for t in text.values())
        written = sum(checks.tree_bytes(ctx.out(f"ingest{i}")) +
                      checks.tree_bytes(ctx.out(f"ingest{i}") + ".delta") for i in range(n))
        layers.update({
            "pipelines.dedup.sketch_s": tot.get("pipelines.dedup.sketch", 0.0) / n,
            "pipelines.dedup.pairs_s": tot.get("pipelines.dedup.pairs", 0.0) / n,
            "pipelines.dedup.pairs": sum(r["n_pairs"] for r in reports) / n,
            "pipelines.merge.extend_s": tot.get("pipelines.merge.extend", 0.0) / n,
            "pipelines.merge.bytes_rewritten_per_delta_byte": written / delta_bytes,
            "pipelines.ingest.roll_s": st.get("pipelines.ingest", 0.0) / n,
            "pipelines.ingest.dropped_ratio":
                sum(r["n_dropped"] for r in reports) / sum(r["n_delta"] for r in reports),
        })
    return Result(setup[0], ops, rss, checks.tree_bytes(cur), input_bytes,
                  len(ops), len(failed_ops), layers, problems)


RUN = {"build": run_build, "query": run_query, "query-sharded": run_query_sharded,
       "ingest": run_ingest}

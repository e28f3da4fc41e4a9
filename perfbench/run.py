#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload query --seed 1 --seconds 4 --trace 0

Workloads: build, query, query-sharded, ingest (see README.md).  With
``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the same run is made with span wrappers installed and the
result carries the per-layer metrics.  The run is pinned to one core;
its timings are CPU time of the run's processes (``cpu.py``) scaled to the
yardstick's reference speed (``yardstick.py``).  A ``# host`` line before
the result describes the machine and carries the unscaled CPU and wall
figures.  All files go
under ``.perfbench/`` in the checkout; the run's outputs are wiped when
it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, ROOT)
from perfbench.inputs import MODES  # noqa: E402  (the generator only; no program import)
# Ray puts unix sockets under its temp dir; past this length they do not fit
RAY_TMP_MAX = 40
# one CPU whatever the host has, so hosts with different core counts compare
RAY_CPUS = 1
# after ray.init, wait (at most SETTLE_MAX_S) until the new session's
# processes use under SETTLE_SHARE of the core, so worker start-up does
# not land in set-up
SETTLE_SHARE, SETTLE_WINDOW_S, SETTLE_MAX_S = 0.05, 0.25, 15.0

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "rss_mb": "MB",
    "disk_bytes_per_input_byte": "ratio",
}

PER_LAYER = {
    "ray.init_s": "s",
    "sources.webpages.plan_s": "s",
    "pipelines.build.parse_tokenize_ckpt_s": "s",
    "pipelines.build.docs_and_stats_s": "s",
    "pipelines.build.shuffle_and_encode_s": "s",
    "pipelines.build.unattributed_s": "s",
    "pipelines.build.postings": "count",
    "pipelines.build.distinct_terms": "count",
    "pipelines.build.index_bytes": "bytes",
    "pipelines.build.ckpt_bytes": "bytes",
    "functions.tokenize.tokens_per_s": "tokens/s",
    "stages.compress.decode_postings_per_s": "postings/s",
    "state.reader.open_s": "s",
    "state.reader.lexicon_terms": "count",
    "state.reader.lookup_us": "us",
    "state.reader.decode_ms": "ms",
    "state.reader.postings_decoded": "count",
    "state.reader.blocks_decoded": "count",
    "pipelines.query.parse_us": "us",
    "pipelines.query.url_us": "us",
    **{f"pipelines.query.kernel_ms.{m}": "ms" for m in MODES},
    **{f"pipelines.query.candidates.{m}": "count" for m in MODES},
    **{f"pipelines.query.results_per_candidate.{m}": "ratio" for m in MODES},
    "pipelines.shards.df_prepass_ms": "ms",
    "pipelines.shards.shard_search_ms_max": "ms",
    "pipelines.shards.shard_search_ms_sum": "ms",
    "pipelines.shards.gather_ms": "ms",
    "pipelines.shards.df_cache_hit_ratio": "ratio",
    "pipelines.shards.rpcs_per_query": "count",
    "pipelines.dedup.sketch_s": "s",
    "pipelines.dedup.pairs_s": "s",
    "pipelines.dedup.pairs": "count",
    "pipelines.merge.extend_s": "s",
    "pipelines.merge.bytes_rewritten_per_delta_byte": "ratio",
    "pipelines.ingest.roll_s": "s",
    "pipelines.ingest.dropped_ratio": "ratio",
}


def host_block(cores: int, pinned: int) -> dict:
    import numpy
    import pyarrow
    import ray

    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "ray_num_cpus": RAY_CPUS,
        "cores": cores,
        "pinned_to": pinned,
        "mem_total_gb": round(mem_kb / 2**20, 1),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def op_latencies_ms(res, kind: str) -> list[float]:
    """One latency per op; for a query stream replayed in whole passes,
    one per distinct query: its median over the passes."""
    lat = [1e3 * getattr(t, kind) for t in res.ops]
    n = res.stream_len
    return [statistics.median(lat[i::n]) for i in range(n)] if n else lat


def tail(lat_ms: list[float]) -> float:
    """p95 when at least ten latencies lie beyond it (>= 200 of them),
    else the slowest."""
    import numpy as np

    return float(np.percentile(lat_ms, 95)) if len(lat_ms) >= 200 else max(lat_ms)


def end_to_end(res, kind: str = "scaled_s") -> dict:
    """The metrics from one kind of ``workloads.Timing``: ``scaled_s``
    (reported), ``cpu_s`` or ``wall_s``."""
    lat_ms = op_latencies_ms(res, kind)
    return {
        "setup_s": getattr(res.setup, kind),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail(lat_ms),
        "ops_per_s": 1e3 * len(lat_ms) / sum(lat_ms),
        "rss_mb": res.rss_kb / 1024,
        "disk_bytes_per_input_byte": res.disk_bytes / res.input_bytes,
    }


def start_ray(run_dir: str, cpu) -> float:
    """ray.init, then wait until the new session is idle.  Returns the
    wall seconds of both."""
    import logging

    import ray

    kw = dict(num_cpus=RAY_CPUS, include_dashboard=False, logging_level="ERROR",
              log_to_driver=False, object_store_memory=512 * 2**20)
    tmp = os.path.join(run_dir, "ray")
    if len(tmp) <= RAY_TMP_MAX:
        kw["_temp_dir"] = tmp
    t = time.perf_counter()
    ray.init(**kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    used = cpu.now(rescan=True)
    while time.perf_counter() - t < SETTLE_MAX_S:
        time.sleep(SETTLE_WINDOW_S)
        used, before = cpu.now(rescan=True), used
        if used - before < SETTLE_SHARE * SETTLE_WINDOW_S:
            break
    return time.perf_counter() - t


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["build", "query", "query-sharded", "ingest"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full",
                    help="input size; tiny is for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "invertedindexbuilder_ray")):
        print(f"perfbench: no invertedindexbuilder_ray package under {ROOT}", file=sys.stderr)
        return 2
    from perfbench import cpu, workloads
    from perfbench.trace import NullTracer, Tracer

    cores, pinned = cpu.pin()
    # every process the run starts, and every process those start, ends
    # before this one does (cpu.stop_descendants)
    cpu.adopt_orphans()

    run_dir = os.path.join(WORK, "run")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # Ray workers import the package from the checkout; every cache the
    # program keeps points into this run's own (empty) dir
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ["IIB_PLAN_CACHE_DIR"] = os.path.join(run_dir, "plan")
    os.environ["IIB_SIG_CKPT_DIR"] = os.path.join(run_dir, "sig_ckpt")

    # inputs are made in a child process, so they never show in peak RSS
    made = subprocess.run(
        [sys.executable, "-m", "perfbench.inputs", args.workload, str(args.seed),
         args.scale, os.path.join(WORK, "cache")],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    paths = json.loads(made.stdout.splitlines()[-1])

    import ray

    host = host_block(cores, pinned)
    tr = Tracer() if args.trace else NullTracer()
    ctx = workloads.Ctx(run_dir, paths, args.seconds, args.scale, tr, bool(args.trace))
    t_run = time.perf_counter()
    try:
        ctx.ray_init_s = start_ray(run_dir, ctx.cpu)
        res = workloads.RUN[args.workload](ctx)
    finally:
        try:
            ray.shutdown()
        finally:
            cpu.stop_descendants()
            shutil.rmtree(run_dir, ignore_errors=True)
    run_s = time.perf_counter() - t_run

    e2e = end_to_end(res)
    side = {"host": host, "workload": args.workload, "seed": args.seed,
            "ray.init_s": ctx.ray_init_s, "run_s": run_s, "ops": len(res.ops),
            "first_ops": [vars(t) for t in res.ops[:8]],
            "end_to_end_cpu": end_to_end(res, "cpu_s"),
            "end_to_end_wall": end_to_end(res, "wall_s"),
            "problems": res.problems[:20]}
    if args.trace:
        side["end_to_end_traced"] = e2e
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        tr.dump(os.path.join(WORK, "traces", f"{args.workload}-s{args.seed}.json"),
                wall_s=run_s)
        layers = {"ray.init_s": ctx.ray_init_s, **res.layers}
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": float(e2e[k]), "unit": u} for k, u in END_TO_END.items()}
    print("# host " + json.dumps(side, default=str))
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

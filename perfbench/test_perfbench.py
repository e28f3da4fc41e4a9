"""The benchmark's own tests (tiny inputs; about three minutes on one core).

    python3 -m pytest perfbench/test_perfbench.py -q -p no:cacheprovider
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import cpu, inputs, yardstick  # noqa: E402
from perfbench.cpu import RunCPU  # noqa: E402
from perfbench.run import END_TO_END, PER_LAYER, WORK  # noqa: E402

WORKLOADS = ["build", "query", "query-sharded", "ingest"]

# layers each workload must give a non-zero reading for in a traced run
TRACED = {
    "build": ["ray.init_s", "sources.webpages.plan_s",
              "pipelines.build.parse_tokenize_ckpt_s", "pipelines.build.docs_and_stats_s",
              "pipelines.build.shuffle_and_encode_s", "pipelines.build.postings",
              "pipelines.build.ckpt_bytes", "functions.tokenize.tokens_per_s"],
    "query": ["state.reader.open_s", "state.reader.lexicon_terms", "state.reader.lookup_us",
              "state.reader.decode_ms", "state.reader.postings_decoded",
              "pipelines.query.parse_us", "pipelines.query.url_us",
              "stages.compress.decode_postings_per_s"]
             + [f"pipelines.query.{m}.{k}" for m in ("kernel_ms", "candidates")
                for k in ("and", "or", "andnot", "cnf", "msm")],
    "query-sharded": ["pipelines.shards.df_prepass_ms", "pipelines.shards.shard_search_ms_max",
                      "pipelines.shards.shard_search_ms_sum", "pipelines.shards.gather_ms",
                      "pipelines.shards.df_cache_hit_ratio", "pipelines.shards.rpcs_per_query",
                      "pipelines.query.kernel_ms.and", "pipelines.query.kernel_ms.or",
                      "pipelines.query.kernel_ms.cnf"],
    "ingest": ["pipelines.dedup.sketch_s", "pipelines.dedup.pairs_s", "pipelines.dedup.pairs",
               "pipelines.merge.extend_s", "pipelines.merge.bytes_rewritten_per_delta_byte",
               "pipelines.ingest.roll_s", "pipelines.ingest.dropped_ratio"],
}


def run(workload: str, trace: int, seed: int = 5) -> dict:
    # processes the run leaves behind are handed to this one when it exits
    cpu.adopt_orphans()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    left = cpu.descendants(os.getpid())[1:]
    cpu.stop_descendants()
    assert not left, f"processes outlived the run: {left}"
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload):
    res = run(workload, trace=0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values()), res["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace(workload):
    res = run(workload, trace=1)
    assert res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == PER_LAYER
    zero = [k for k in TRACED[workload] if not res["metrics"][k]["value"] > 0]
    assert not zero, zero
    with open(os.path.join(WORK, "traces", f"{workload}-s5.json")) as f:
        trace = json.load(f)
    self_s = trace["self_s"]
    # build phases come from the manifest, rounded to the millisecond
    assert all(v >= -2e-3 for v in self_s.values()), self_s
    assert sum(self_s.values()) <= trace["wall_s"]


def test_inputs_are_a_function_of_the_seed(tmp_path):
    def make(seed, name):
        out = {}
        for w in WORKLOADS:
            out.update(inputs.prepare(w, seed, "tiny", str(tmp_path / name)))
        return out

    def files(path):
        if os.path.isfile(path):
            return {"": path}
        return {os.path.relpath(os.path.join(d, f), path): os.path.join(d, f)
                for d, _, fs in os.walk(path) for f in fs}

    a, b, c = make(7, "a"), make(7, "b"), make(8, "c")
    for key in ("corpus", "stream", "ingest"):
        fa, fb, fc = files(a[key]), files(b[key]), files(c[key])
        assert fa.keys() == fb.keys() == fc.keys() and fa, key
        for name in fa:
            assert filecmp.cmp(fa[name], fb[name], shallow=False), (key, name)
        same = [n for n in fa if n != "_DONE"
                and filecmp.cmp(fa[n], fc[n], shallow=False)]
        assert not same, (key, same)


def test_stream_shape():
    s = inputs.make_stream(3, 200, inputs.MODES)
    assert len({(q["mode"], q["q"], q["neg"], q["msm"]) for q in s}) == 200
    assert {q["mode"] for q in s} == set(inputs.MODES)
    assert all(q["neg"] for q in s if q["mode"] == "andnot")
    assert any(";" in q["q"] for q in s if q["mode"] == "cnf")


def test_run_cpu_counts_child_processes():
    clock = RunCPU()
    t0 = clock.now(rescan=True)
    child = subprocess.Popen([sys.executable, "-c",
                              "import time\nt = time.process_time()\n"
                              "while time.process_time() - t < 0.3: pass\n"
                              "time.sleep(1)"])
    time.sleep(0.8)
    used = clock.now(rescan=True) - t0
    child.wait()
    assert 0.25 < used < 0.6, used


def test_yardstick_speed_is_reference_over_measured():
    at_ref = [dict(yardstick.REF_S)] * 3
    half_speed = [{k: 2 * v for k, v in yardstick.REF_S.items()}] * 3
    assert abs(yardstick.speed(at_ref) - 1) < 1e-12
    assert abs(yardstick.speed(half_speed) - 0.5) < 1e-12
    assert set(yardstick.sample()) == set(yardstick.REF_S)

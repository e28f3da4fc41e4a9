"""Seeded benchmark inputs: a webpages corpus, query streams, an ingest chain.

Every file is a pure function of (input name, seed, scale).  Files are
cached under the benchmark's work dir, keyed by those three, so input
generation never lands inside a measurement.  Generation runs in a child
process (``python3 -m perfbench.inputs``, started by ``run.py``) so the
driver's peak RSS never includes it.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SCALES = {
    # docs: webpages corpus rows (build, query, query-sharded)
    # queries: distinct queries per stream; min_samples: timed queries per run
    # ingest_base / delta_docs / deltas: documents-schema ingest chain
    "full": dict(docs=30_000, files=4, queries=200, min_samples=800,
                 min_builds=3, ingest_base=1_500,
                 delta_docs=75, deltas=2),
    "tiny": dict(docs=1_500, files=2, queries=25, min_samples=50,
                 min_builds=2, ingest_base=400,
                 delta_docs=40, deltas=2),
}

VOCAB = 50_000            # make_webpages_bulk's default vocabulary size
MODES = ("and", "or", "andnot", "cnf", "msm")
SHARDED_MODES = ("and", "or", "cnf")   # what ShardedEngine.search can express
ZIPF_SHARE, UNIFORM_SHARE = 0.70, 0.25  # remaining term slots: missing terms
NEAR_DUP_CORPUS, NEAR_DUP_DELTA = 0.10, 0.05  # share of each delta


def term_name(rank: int) -> str:
    """The corpus generator's word for a vocabulary rank."""
    return f"w{rank}" if rank % 7 else f"w{rank}x9"


def zipf_cdf(vocab: int = VOCAB) -> np.ndarray:
    """The word distribution ``corpus.make_webpages_bulk`` draws from."""
    ranks = np.arange(1, vocab + 1, dtype=np.float64)
    probs = 1.0 / (ranks + 2.7) ** 1.07
    return np.cumsum(probs / probs.sum())


def _done(path: str) -> bool:
    return os.path.exists(os.path.join(path, "_DONE"))


def _finish(tmp: str, path: str) -> str:
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        f.write("ok")
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    return path


def write_corpus(path: str, seed: int, scale: str) -> str:
    """Webpages parquet files (one row group each) in corpus order."""
    if _done(path):
        return path
    from invertedindexbuilder_ray.corpus import make_webpages_bulk

    cfg = SCALES[scale]
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    tbl = make_webpages_bulk(cfg["docs"], seed)
    per = -(-cfg["docs"] // cfg["files"])
    for i in range(cfg["files"]):
        part = tbl.slice(i * per, per)
        pq.write_table(part, os.path.join(tmp, f"part-{i:03d}.parquet"),
                       row_group_size=part.num_rows)
    return _finish(tmp, path)


def corpus_files(path: str) -> list[str]:
    return sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
    )


def make_stream(seed: int, n: int, modes: tuple[str, ...]) -> list[dict]:
    """``n`` distinct queries of 1-4 terms, modes in equal shares.

    Term slots are 70% drawn by the corpus Zipf, 25% uniform over the
    vocabulary and 5% missing from it.  Zipf draws are stratified: the
    Zipf CDF is cut into one equal-probability stratum per Zipf slot.
    Which slot holds which class and which stratum is a fixed layout; the
    seed only picks the point inside each stratum and the uniform terms.
    So every seed gets the same shape of hot and tail terms per query,
    and the stream's cost moves little from seed to seed.
    """
    layout = np.random.default_rng(0)
    rng = np.random.default_rng([seed, 1])
    cdf = zipf_cdf()
    shapes = [(modes[i % len(modes)], 1 + (i // len(modes)) % 4) for i in range(n)]
    slots = sum(nt + (m == "andnot") for m, nt in shapes)
    n_zipf = round(slots * ZIPF_SHARE)
    n_unif = round(slots * UNIFORM_SHARE)
    classes = np.repeat([0, 1, 2], [n_zipf, n_unif, slots - n_zipf - n_unif])
    classes = classes[layout.permutation(slots)]
    u = (layout.permutation(n_zipf) + rng.random(n_zipf)) / n_zipf
    zipf = iter(np.searchsorted(cdf, u).tolist())
    unif = iter(rng.integers(0, VOCAB, n_unif).tolist())
    words = [
        term_name(next(zipf)) if c == 0
        else term_name(next(unif)) if c == 1
        else f"missing{seed % 1000}x{j}"
        for j, c in enumerate(classes)
    ]
    out, seen, pos = [], set(), 0
    for mode, nt in shapes:
        terms = words[pos:pos + nt]
        pos += nt
        q = {"mode": mode, "q": " ".join(terms), "neg": "", "msm": 1}
        if mode == "andnot":
            q["neg"] = words[pos]
            pos += 1
        elif mode == "cnf" and nt > 1:
            h = nt // 2
            q["q"] = " ".join(terms[:h]) + "; " + " ".join(terms[h:])
        elif mode == "msm":
            q["msm"] = max(1, nt // 2)
        key = (q["mode"], q["q"], q["neg"], q["msm"])
        if key in seen:  # keep queries distinct: widen the duplicate by one term
            q["q"] += f" {term_name(int(rng.integers(0, VOCAB)))}"
            key = (q["mode"], q["q"], q["neg"], q["msm"])
        seen.add(key)
        out.append(q)
    return out


def write_stream(path: str, seed: int, scale: str, modes: tuple[str, ...]) -> str:
    if not os.path.exists(path):
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(make_stream(seed, SCALES[scale]["queries"], modes), f)
        os.replace(tmp, path)
    return path


def _random_texts(rng, n: int, cdf: np.ndarray, lo: int, hi: int) -> list[str]:
    lens = rng.integers(lo, hi + 1, n)
    ranks = np.searchsorted(cdf, rng.random(int(lens.sum())))
    out, p = [], 0
    for m in lens:
        out.append(" ".join(term_name(int(r)) for r in ranks[p:p + m]) + ".")
        p += m
    return out


def write_ingest(path: str, seed: int, scale: str) -> str:
    """A documents-schema base corpus plus a chain of seeded deltas.

    Every doc starts with a token unique to its id (``n<id>``), so a
    survivor is findable by a one-term query.  Each delta holds a fixed
    share of near-duplicates (the unique token prepended to a copy) of
    corpus docs and of earlier delta docs; ``chain.json`` lists them.
    Delta ids continue after every id handed out before, so they always
    start at or after the chained index's ``max_doc_id``.
    """
    if _done(path):
        return path
    cfg = SCALES[scale]
    rng = np.random.default_rng([seed, 2])
    cdf = zipf_cdf()
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "base"))
    n_base = cfg["ingest_base"]
    base = [f"n{i} {t}" for i, t in enumerate(_random_texts(rng, n_base, cdf, 20, 60))]
    pq.write_table(
        pa.table({"doc_id": pa.array(np.arange(n_base), pa.int64()),
                  "text": pa.array(base, pa.string())}),
        os.path.join(tmp, "base", "documents.parquet"),
    )
    texts = dict(enumerate(base))
    chain, next_id = [], n_base
    for d in range(cfg["deltas"]):
        m = cfg["delta_docs"]
        ids = list(range(next_id, next_id + m))
        n_c = round(m * NEAR_DUP_CORPUS)
        n_d = round(m * NEAR_DUP_DELTA)
        kinds = ["corpus"] * n_c + ["delta"] * n_d + ["novel"] * (m - n_c - n_d)
        kinds = [kinds[j] for j in rng.permutation(m)]
        novel = iter(_random_texts(rng, m, cdf, 20, 60))
        rows, planted = [], []
        for i, kind in zip(ids, kinds):
            if kind == "corpus":
                src = int(rng.integers(0, n_base))
            elif kind == "delta":
                earlier = [j for j in texts if n_base <= j < i]
                src = earlier[int(rng.integers(0, len(earlier)))] if earlier else -1
            else:
                src = -1
            if src >= 0:
                planted.append(i)
                text = f"n{i} {texts[src]}"
            else:
                text = f"n{i} {next(novel)}"
            texts[i] = text
            rows.append(text)
        pq.write_table(
            pa.table({
                "doc_id": pa.array(ids, pa.int64()),
                "url": pa.array([f"doc:{i}" for i in ids], pa.string()),
                "text": pa.array(rows, pa.string()),
                "dl": pa.array([len(t.encode()) for t in rows], pa.int64()),
            }),
            os.path.join(tmp, f"delta-{d:02d}.parquet"),
        )
        chain.append({"file": f"delta-{d:02d}.parquet", "ids": ids, "planted": planted})
        next_id += m
    with open(os.path.join(tmp, "chain.json"), "w") as f:
        json.dump(chain, f)
    return _finish(tmp, path)


def prepare(workload: str, seed: int, scale: str, cache: str) -> dict:
    """Generate (or reuse) the inputs ``workload`` needs; returns their paths."""
    import hashlib

    # the key folds in this generator and the sizes, so changing either
    # never reuses old files
    with open(__file__, "rb") as f:
        digest = hashlib.md5(f.read() + scale.encode()).hexdigest()[:8]
    d = os.path.join(cache, f"{scale}-{digest}-s{seed}")
    os.makedirs(d, exist_ok=True)
    out = {}
    if workload in ("build", "query", "query-sharded"):
        out["corpus"] = write_corpus(os.path.join(d, "corpus"), seed, scale)
    if workload == "query":
        out["stream"] = write_stream(os.path.join(d, "stream.json"), seed, scale, MODES)
    if workload == "query-sharded":
        out["stream"] = write_stream(
            os.path.join(d, "stream-sharded.json"), seed, scale, SHARDED_MODES
        )
    if workload == "ingest":
        out["ingest"] = write_ingest(os.path.join(d, "ingest"), seed, scale)
    return out


if __name__ == "__main__":
    import sys

    workload, seed, scale, cache = sys.argv[1:]
    print(json.dumps(prepare(workload, int(seed), scale, cache)))

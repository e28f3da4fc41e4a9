"""Delta dedup by probing frozen band-key runs (``minhash_pairs_delta``)
against its oracle: ``minhash_dedup_pairs`` over corpus ∪ delta, filtered
to the pairs that touch the delta.

The corpora are built from crafted signatures, not text, so a test
decides which docs share a bucket:

* every band of a signature is drawn from a small, skewed pool of band
  patterns, so buckets are shared and pairs have varied ``n_bands``;
* some patterns have a twin with different values whose band hash agrees
  with the original's in the low 58 bits only — the two land on one
  int64 band key (``hash * 64 + band`` wraps), a band-key collision;
* one band-0 pattern is held by more than ``MAX_BUCKET`` docs, with the
  truncation cut falling among the delta docs;
* delta-only patterns give pairs with no corpus side.

The oracle's sketch step is replaced by the crafted table (the driver
builds that dataset, so the patch holds); banding, bucketing,
truncation and verification run the all-to-all path in Ray workers.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from invertedindexbuilder_ray.functions.hashing import _FNV_OFFSET, _FNV_PRIME

NUM_PERM, BANDS = 32, 8
R = NUM_PERM // BANDS
M64 = (1 << 64) - 1
PINV = pow(int(_FNV_PRIME), -1, 1 << 64)


def _band_hash(vals) -> int:
    h = int(_FNV_OFFSET)
    for v in vals:
        h = ((h ^ int(v)) * int(_FNV_PRIME)) & M64
    return h


def _twin(vals, rng) -> list[int]:
    """Band values != ``vals`` whose FNV band hash differs from theirs
    only in the top 6 bits (so ``hash * 64`` is the same int64)."""
    head = [int(x) for x in rng.integers(1, 1 << 62, R - 1)]
    h = int(_FNV_OFFSET)
    for v in head:
        h = ((h ^ v) * int(_FNV_PRIME)) & M64
    target = _band_hash(vals) ^ (int(rng.integers(1, 64)) << 58)
    last = ((target * PINV) & M64) ^ h
    out = head + [last]
    assert _band_hash(out) != _band_hash(vals)
    assert (_band_hash(out) * 64) & M64 == (_band_hash(vals) * 64) & M64
    return out


class Crafter:
    """Signatures as (n, NUM_PERM) uint64 rows chosen band by band from
    per-band pattern pools."""

    def __init__(self, seed: int, pool: int = 12):
        self.rng = np.random.default_rng(seed)
        self.pools = [
            [list(self.rng.integers(1, 1 << 62, R)) for _ in range(pool)]
            for _ in range(BANDS)
        ]
        for b in range(BANDS):  # colliding twins of the first two patterns
            self.pools[b] += [_twin(self.pools[b][0], self.rng),
                              _twin(self.pools[b][1], self.rng)]
        self.hot = list(self.rng.integers(1, 1 << 62, R))

    def fresh(self) -> list[int]:
        return [int(x) for x in self.rng.integers(1, 1 << 62, R)]

    def sigs(self, n: int, *, p_pool: float = 0.5, hot: int = 0,
             pools=None) -> np.ndarray:
        pools = pools or self.pools
        out = np.empty((n, NUM_PERM), np.uint64)
        for i in range(n):
            for b in range(BANDS):
                if b == 0 and i < hot:
                    vals = self.hot
                elif self.rng.random() < p_pool:
                    pool = pools[b]
                    j = min(int(self.rng.zipf(1.6)) - 1, len(pool) - 1)
                    vals = pool[j]
                else:
                    vals = self.fresh()
                out[i, b * R:(b + 1) * R] = np.asarray(vals, np.uint64)
        return out


def _table(ids, mat) -> pa.Table:
    mat = np.ascontiguousarray(mat, np.uint64)
    n = len(ids)
    offs = (np.arange(n + 1, dtype=np.int32) * NUM_PERM * 8).tobytes()
    sig = pa.Array.from_buffers(
        pa.binary(), n, [None, pa.py_buffer(offs), pa.py_buffer(mat.tobytes())]
    )
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "sig": sig})


@pytest.fixture()
def ckpt_root(tmp_path, monkeypatch):
    root = str(tmp_path / "sig_ckpt")
    monkeypatch.setenv("IIB_SIG_CKPT_DIR", root)
    return root


@pytest.fixture()
def oracle(monkeypatch):
    """Pairs of ``minhash_dedup_pairs`` over a crafted signature table,
    restricted to pairs with a side in ``delta_ids``."""
    from invertedindexbuilder_ray.pipelines import dedup

    monkeypatch.setattr(dedup, "minhash_signature_ds", lambda src, **kw: src)

    def run(sigs: pa.Table, delta_ids, threshold: float):
        full = dedup.minhash_dedup_pairs(
            rd.from_arrow(sigs), num_perm=NUM_PERM, bands=BANDS,
            threshold=threshold, sig_ckpt=False,
        ).to_pandas()
        d = np.asarray(delta_ids, np.int64)
        hit = np.isin(full.doc_a, d) | np.isin(full.doc_b, d)
        return _canon(full[hit])

    return run


def _canon(df):
    cols = ["doc_a", "doc_b", "est_jaccard", "n_bands"]
    if len(df.columns) == 0:  # Ray's to_pandas of zero rows drops the columns
        df = pd.DataFrame({c: np.empty(0, np.float64 if c == "est_jaccard" else np.int64) for c in cols})
    return (
        df[cols]
        .astype({"doc_a": "int64", "doc_b": "int64", "n_bands": "int64"})
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    )


def _probe(fp, delta: pa.Table, threshold: float, ckpt_root, stats=None):
    from invertedindexbuilder_ray.pipelines import dedup

    dummy = rd.from_items([{"doc_id": 0}])  # never read: the ckpt exists
    out = dedup.minhash_pairs_delta(
        dummy, None, num_perm=NUM_PERM, bands=BANDS, threshold=threshold,
        corpus_fingerprint=fp, ckpt_root=ckpt_root,
        delta_sigs=rd.from_arrow(delta), probe_stats=stats,
    )
    assert isinstance(out, rd.Dataset)
    return _canon(out.to_pandas())


def _write_ckpt(fp, sigs: pa.Table, ckpt_root) -> str:
    from invertedindexbuilder_ray.pipelines import dedup

    return dedup._write_sig_ckpt(
        rd.from_arrow(sigs), fp, num_perm=NUM_PERM, k=3, ckpt_root=ckpt_root
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_probe_matches_full_union(ray_session, ckpt_root, oracle, seed):
    """Threshold 0 keeps every candidate, so it checks candidate
    generation and ``n_bands`` exactly; 0.5 checks the verify."""
    from invertedindexbuilder_ray.pipelines import dedup

    cr = Crafter(seed)
    n_corpus, n_delta, hot_corpus, hot_delta = 400, 60, 240, 40
    assert hot_corpus < dedup.MAX_BUCKET < hot_corpus + hot_delta
    cmat = cr.sigs(n_corpus, hot=hot_corpus)
    corpus = _table(np.arange(n_corpus), cmat)
    # delta: hot and pool docs, clones and half-clones of corpus docs, and
    # a delta-only block whose patterns no corpus doc has
    dmat = cr.sigs(n_delta, hot=hot_delta)
    src = cr.rng.integers(0, n_corpus, 10)
    dmat[40:45] = cmat[src[:5]]
    dmat[45:50, : NUM_PERM // 2] = cmat[src[5:], : NUM_PERM // 2]
    own = [[cr.fresh() for _ in range(3)] for _ in range(BANDS)]
    dmat[50:60] = cr.sigs(10, p_pool=1.0, pools=own)
    delta_ids = np.arange(n_delta) + 10_000
    delta = _table(delta_ids, dmat)
    fp = f"crafted-{seed}"
    _write_ckpt(fp, corpus, ckpt_root)

    both = pa.concat_tables([corpus, delta])
    for threshold in (0.0, 0.5):
        stats: dict = {}
        got = _probe(fp, delta, threshold, ckpt_root, stats)
        want = oracle(both, delta_ids, threshold)
        assert len(want) > 0
        pd_eq(got, want)
        assert stats["candidates"] >= stats["verified"] == len(got)
    # the threshold-0 set holds every candidate: check it covers the cases
    allp = oracle(both, delta_ids, 0.0)
    assert ((allp.doc_a >= 10_050) & (allp.doc_b >= 10_050)).any()  # delta-only
    assert (allp.doc_a < n_corpus).any()  # delta-vs-corpus


def pd_eq(got, want):
    assert got.equals(want), (got.merge(want, how="outer", indicator=True)
                              .query("_merge != 'both'"))


def test_probe_empty_delta_and_no_hits(ray_session, ckpt_root, oracle):
    """An empty delta and a delta sharing no band key find no pairs and
    read no corpus rows."""
    cr = Crafter(7)
    corpus = _table(np.arange(200), cr.sigs(200))
    fp = "crafted-empty"
    _write_ckpt(fp, corpus, ckpt_root)

    stats: dict = {}
    empty = _table(np.empty(0, np.int64), np.empty((0, NUM_PERM), np.uint64))
    assert len(_probe(fp, empty, 0.0, ckpt_root, stats)) == 0
    assert stats["delta_keys"] == 0 and stats["candidates"] == 0

    lonely = _table(np.arange(5) + 1000,
                    cr.sigs(5, p_pool=0.0))  # all-fresh bands: no key shared
    stats = {}
    assert len(_probe(fp, lonely, 0.0, ckpt_root, stats)) == 0
    assert stats["corpus_rows"] == 0 and stats["delta_keys"] == 5 * BANDS
    assert len(oracle(pa.concat_tables([corpus, lonely]), np.arange(5) + 1000, 0.0)) == 0


def test_roll_chain_matches_oracle_and_bounds_runs(ray_session, ckpt_root, oracle):
    """Four chained deltas: each step's pairs equal the full-union oracle
    over corpus + every earlier survivor; the roll keeps
    ≤ ⌊log2 deltas⌋ + 2 band runs."""
    from invertedindexbuilder_ray.pipelines import dedup

    cr = Crafter(11)
    umat = cr.sigs(150)
    corpus = _table(np.arange(150), umat)
    fp = "crafted-chain"
    ckpt = _write_ckpt(fp, corpus, ckpt_root)
    union = corpus
    next_id = 1000
    for step, n in enumerate([40, 31, 37, 24], start=1):
        ids = np.arange(n) + next_id
        next_id += n + 100
        mat = cr.sigs(n)
        # clones of the newest docs: from step 2 on, earlier survivors
        mat[:3] = umat[-3:]
        delta = _table(ids, mat)
        got = _probe(fp, delta, 0.5, ckpt_root)
        want = oracle(pa.concat_tables([union, delta]), ids, 0.5)
        assert len(want) >= 3
        pd_eq(got, want)
        dead = np.unique(got.doc_b.to_numpy())
        keep = ~np.isin(ids, dead)
        survivors = delta.filter(pa.array(keep))
        umat = np.concatenate([umat, mat[keep]])
        fp = f"{fp}+{step}"
        ckpt = dedup._roll_sig_ckpt(
            ckpt, fp, survivors, num_perm=NUM_PERM, k=3, bands=BANDS,
            ckpt_root=ckpt_root,
        )
        union = pa.concat_tables([union, survivors])
        runs = dedup._band_runs(ckpt, bands=BANDS, num_perm=NUM_PERM)
        assert len(runs) <= math.floor(math.log2(step)) + 2, (step, runs)
        # the runs hold exactly the rolled corpus's band keys
        rows = np.concatenate([np.load(p) for p in runs], axis=1)
        assert rows.shape[1] == union.num_rows * BANDS
        assert sorted(dedup._sig_table(ckpt)["doc_id"].to_pylist()) == sorted(
            union["doc_id"].to_pylist()
        )
    assert len(os.listdir(ckpt_root)) == 5


def test_verify_join_leg_matches_broadcast(ray_session, oracle, monkeypatch):
    """Both legs of ``_verify_minhash_pairs`` verify through ``_verified``:
    the partitioned-join leg (signature tables above the broadcast bound)
    returns the broadcast leg's pairs."""
    from invertedindexbuilder_ray.pipelines import dedup

    cr = Crafter(5)
    mat = cr.sigs(300, p_pool=0.9)
    mat[200:] = mat[:100]  # clones: pairs above any threshold
    sigs = _table(np.arange(300), mat)
    ids = np.arange(300)
    bcast = oracle(sigs, ids, 0.5)
    monkeypatch.setattr(dedup, "BROADCAST_SIGS_MAX", 0)
    joined = oracle(sigs, ids, 0.5)
    assert len(bcast) >= 100
    pd_eq(joined, bcast)

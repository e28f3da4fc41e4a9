"""Spans and counters recorded from the benchmark's side of each layer boundary.

A traced run wraps the program's layer entry points (``instrument``) with
span recorders for the duration of the run and restores them afterwards;
no program file changes.  A missing entry point fails the traced run
(``AttributeError``): a layer never reads 0 because its target moved.

Spans live in memory and are written out when the run ends.  A layer's
self time is its span time minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []       # [id, parent, name, t0, t1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.mode = ""                    # query mode of the enclosing kernel
        self.selecting = False            # inside top-k selection

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1] if self._stack else -1, name,
                           time.perf_counter(), None])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][4] = time.perf_counter()

    def record(self, name: str, t0: float, t1: float) -> None:
        """A span measured elsewhere, placed under the current span."""
        self.spans.append([len(self.spans), self._stack[-1] if self._stack else -1,
                           name, t0, t1])

    def absorb(self, other: "Tracer") -> None:
        """Append another tracer's spans (ids shifted) and counts."""
        base = len(self.spans)
        for sid, parent, name, t0, t1 in other.spans:
            self.spans.append([sid + base, parent + base if parent >= 0 else -1,
                               name, t0, t1])
        self.counts.update(other.counts)

    def inside(self, name: str) -> bool:
        return any(self.spans[s][2] == name for s in self._stack)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, t0, t1 in self.spans:
            out[name] += (t1 - t0) - child[sid]
        return dict(out)

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for _, _, name, t0, t1 in self.spans:
            out[name] += t1 - t0
        return dict(out)

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "self_s": self.self_times(), **extra}, f)


class NullTracer(Tracer):
    """Untraced runs: spans cost one generator frame and record nothing."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def record(self, name: str, t0: float, t1: float) -> None:
        pass

    def count(self, name: str, n: float = 1) -> None:
        pass


def _patch(undo: list, owner, attr: str, make) -> None:
    orig = getattr(owner, attr)
    setattr(owner, attr, make(orig))
    undo.append((owner, attr, orig))


def _timed(tr: Tracer, name: str, after=None):
    def make(fn):
        @functools.wraps(fn)
        def w(*a, **kw):
            with tr.span(name):
                out = fn(*a, **kw)
            if after is not None:
                after(a, out)
            return out
        return w
    return make


QUERY_KERNELS = {"conjunctive": "and", "disjunctive": "or", "and_not": "andnot",
                 "cnf": "cnf", "min_should_match": "msm"}


def _query_layers(tr: Tracer, undo: list) -> None:
    """Reader and query-engine entry points of the in-process engine."""
    from invertedindexbuilder_ray.pipelines import query as q
    from invertedindexbuilder_ray.state import reader as r

    def lexicon(a, _out):
        tr.counts["state.reader.lexicon_terms"] = len(a[0].lexicon)

    _patch(undo, r.IndexReader, "__init__", _timed(tr, "state.reader.open", lexicon))
    _patch(undo, r.IndexReader, "open_list",
           _timed(tr, "state.reader.lookup", lambda a, o: tr.count("lookups")))
    _patch(undo, r.IndexReader, "url", _timed(tr, "pipelines.query.url"))

    block = 128

    def decoded(n: int) -> None:
        tr.count("postings", n)
        tr.count("blocks", math.ceil(n / block))

    cur = r.PostingCursor
    _patch(undo, cur, "decode_all_remaining",
           _timed(tr, "state.reader.decode", lambda a, o: decoded(len(o[0]))))
    _patch(undo, cur, "_load_block",
           _timed(tr, "state.reader.decode", lambda a, o: decoded(len(a[0]._docs))))
    _patch(undo, cur, "preload",
           _timed(tr, "state.reader.decode", lambda a, o: decoded(len(a[0]._docs))))
    _patch(undo, r.SegmentedCursor, "decode_all_remaining",
           _timed(tr, "state.reader.decode"))

    def parse(fn):
        @functools.wraps(fn)
        def w(*a, **kw):
            if tr.inside("pipelines.query.parse"):
                return fn(*a, **kw)
            with tr.span("pipelines.query.parse"):
                return fn(*a, **kw)
        return w

    _patch(undo, q.QueryEngine, "parse_query", parse)
    _patch(undo, q.QueryEngine, "parse_cnf", parse)

    def candidates(pos):
        # top-k selection sees every scored candidate: count them once,
        # at the outermost selection call inside a kernel
        def make(fn):
            @functools.wraps(fn)
            def w(*a, **kw):
                if tr.selecting:
                    return fn(*a, **kw)
                tr.count(f"cand.{tr.mode}", len(a[pos]))
                tr.selecting = True
                try:
                    return fn(*a, **kw)
                finally:
                    tr.selecting = False
            return w
        return make

    def heap_candidate(fn):
        @functools.wraps(fn)
        def w(*a, **kw):
            if not tr.selecting:
                tr.count(f"cand.{tr.mode}")
            return fn(*a, **kw)
        return w

    def kernel(mode):
        def make(fn):
            @functools.wraps(fn)
            def w(*a, **kw):
                tr.mode = mode
                inner: list = []
                # posting-at-a-time paths hand candidates straight to the
                # heap: count those only inside a kernel call
                _patch(inner, q, "_to_rank_heap", heap_candidate)
                _patch(inner, q, "_total_topk", candidates(0))
                try:
                    with tr.span(f"pipelines.query.kernel.{mode}"):
                        out = fn(*a, **kw)
                finally:
                    for owner, attr, orig in reversed(inner):
                        setattr(owner, attr, orig)
                tr.count(f"queries.{mode}")
                tr.count(f"results.{mode}", len(out))
                return out
            return w
        return make

    _patch(undo, q.QueryEngine, "_topk", candidates(1))
    for meth, mode in QUERY_KERNELS.items():
        _patch(undo, q.QueryEngine, meth, kernel(mode))


def _shard_layers(tr: Tracer, undo: list) -> None:
    """Driver side of the scatter-gather tier: every ``ray.get`` inside one
    sharded call is a round of RPCs; with two rounds the first is the df
    prepass.  Shard replies are timed as they land (``ray.wait``)."""
    import ray

    from invertedindexbuilder_ray.pipelines import shards

    def search_terms(fn):
        @functools.wraps(fn)
        def w(self, terms, *a, **kw):
            flat = {t for g in terms for t in (g if isinstance(g, list) else [g])}
            tr.count("shards.terms", len(flat))
            tr.count("shards.df_hits", sum(t in self._df_cache for t in flat))
            rounds: list[tuple[float, list[float], int]] = []
            real_get = ray.get

            def get(refs, *ga, **gkw):
                if not isinstance(refs, list):
                    return real_get(refs, *ga, **gkw)
                t0 = time.perf_counter()
                pending, landed = list(refs), []
                while pending:
                    _, pending = ray.wait(pending, num_returns=1)
                    landed.append(time.perf_counter() - t0)
                rounds.append((t0, landed, len(refs)))
                return real_get(refs, *ga, **gkw)

            ray.get = get
            t_call = time.perf_counter()
            try:
                with tr.span("pipelines.shards.search"):
                    out = fn(self, terms, *a, **kw)
                    for i, (t0, landed, _) in enumerate(rounds):
                        name = "df_prepass" if i < len(rounds) - 1 else "scatter"
                        tr.record(f"pipelines.shards.{name}", t0, t0 + max(landed, default=0.0))
            finally:
                ray.get = real_get
            call = time.perf_counter() - t_call
            prepass = sum(max(r[1], default=0.0) for r in rounds[:-1])
            last = rounds[-1][1] if rounds else []
            tr.count("shards.queries")
            tr.count("shards.prepass_s", prepass)
            tr.count("shards.max_s", max(last, default=0.0))
            tr.count("shards.sum_s", sum(last))
            tr.count("shards.gather_s", call - prepass - max(last, default=0.0))
            tr.count("shards.rpcs", sum(n for _, _, n in rounds))
            return out
        return w

    _patch(undo, shards.ShardedEngine, "search_terms", search_terms)


def _ingest_layers(tr: Tracer, undo: list) -> None:
    """The calls ``ingest_delta`` makes into dedup and merge.  The dataset
    ones are materialized inside the span, as ``ingest_delta`` does right
    after the call, so the span holds their execution."""
    from invertedindexbuilder_ray.pipelines import ingest

    def materialized(name):
        def make(fn):
            @functools.wraps(fn)
            def w(*a, **kw):
                with tr.span(name):
                    return fn(*a, **kw).materialize()
            return w
        return make

    _patch(undo, ingest, "minhash_signature_ds", materialized("pipelines.dedup.sketch"))
    _patch(undo, ingest, "minhash_pairs_delta", materialized("pipelines.dedup.pairs"))
    _patch(undo, ingest, "extend_index", _timed(tr, "pipelines.merge.extend"))


@contextlib.contextmanager
def instrument(tr: Tracer, *layers: str):
    """Install span wrappers on the named layers ("query", "shards",
    "ingest") for the duration of the block."""
    undo: list = []
    table = {"query": _query_layers, "shards": _shard_layers, "ingest": _ingest_layers}
    try:
        if not isinstance(tr, NullTracer):
            for name in layers:
                table[name](tr, undo)
        yield tr
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

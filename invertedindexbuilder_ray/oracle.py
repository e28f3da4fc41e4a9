"""Pure-Python executable specification of the reference engine.

This is the *oracle* from SURVEY.md §5: a deliberately slow, obviously
correct model of the verified reference semantics (quirks Q1-Q9, Q-C,
Q-T — /root/reference/src/main.c, src/query.c, src/inverted_list.c, see
SURVEY.md §8 for file:line evidence).  Tests compare the Ray engine's
output against this module; it must never import Ray.

Defects D1-D6 of the reference are intentionally NOT modeled (they are
bugs, not semantics); conjunctive search is modeled in the reference's
*destructive-cursor* mode (quirk Q-C, verified bit-identical to the
patched binary) plus a ``correct`` mode with textbook intersection.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

K1 = 1.2
B = 0.75
MAX_TOKEN_LEN = 15

_TOKEN_RE = re.compile(rb"[A-Za-z0-9]+")


def tokenize(text: str | bytes, *, drop_trailing: bool = True) -> list[str]:
    """Reference tokenizer (quirks Q1-Q3) over one document's text."""
    data = text.encode("utf-8") if isinstance(text, str) else text
    out = []
    for m in _TOKEN_RE.finditer(data):
        if drop_trailing and m.end() == len(data):
            continue  # Q1: run reaching end of region is dropped
        if m.end() - m.start() > MAX_TOKEN_LEN:
            continue  # Q2: overlong runs dropped whole
        out.append(m.group().lower().decode("ascii"))
    return out


def doc_len(url: str, text: str) -> int:
    """Quirk Q5: BM25 document length in bytes, URL line included."""
    return len(url.encode("utf-8")) + 1 + len(text.encode("utf-8"))


@dataclass
class OracleIndex:
    """In-memory model index: postings, doc table, global stats."""

    n_docs: int = 0
    sum_dl: int = 0
    doc_lens: dict[int, int] = field(default_factory=dict)
    urls: dict[int, str] = field(default_factory=dict)
    postings: dict[str, list[tuple[int, int]]] = field(default_factory=dict)

    @property
    def max_doc_id(self) -> int:
        """Exhaustion sentinel: one past the largest doc_id (== N when dense)."""
        return (max(self.doc_lens) + 1) if self.doc_lens else 0

    @property
    def d_avr(self) -> float:
        # quirk Q6: average divides by N-1 (src/query.c:48)
        return self.sum_dl / (self.n_docs - 1) if self.n_docs > 1 else float(self.sum_dl)

    def bm25(self, tf: int, df: int, dl: int) -> float:
        # quirk Q7: log2 idf, may go negative, no floor (src/query.c:80-86)
        idf = math.log2((self.n_docs - df + 0.5) / (df + 0.5))
        return idf * (K1 + 1) * tf / (K1 * ((1 - B) + B * dl / self.d_avr) + tf)


def build_index(rows: list[dict], *, text_only_docs: bool = False) -> OracleIndex:
    """Build the model index from webpage rows ``{url, text}``.

    Quirk Q4: a row whose url does not start with ``'h'`` is skipped and
    consumes no doc_id.  With ``text_only_docs`` (the `documents`-table
    adapter) rows are ``{doc_id, text}``: no URL filter, ``dl`` is the
    text byte length, and the provided doc_id is used verbatim.
    """
    idx = OracleIndex()
    for row in rows:
        if text_only_docs:
            did = int(row["doc_id"])
            dl = len(row["text"].encode("utf-8"))
            url = str(did)
        else:
            url = row["url"]
            if not url or url[0] != "h":
                continue  # Q4
            did = idx.n_docs
            dl = doc_len(url, row["text"])
        idx.n_docs += 1
        idx.sum_dl += dl
        idx.doc_lens[did] = dl
        idx.urls[did] = url
        for term in tokenize(row["text"]):
            plist = idx.postings.setdefault(term, [])
            if plist and plist[-1][0] == did:
                plist[-1] = (did, plist[-1][1] + 1)
            else:
                plist.append((did, 1))
    if text_only_docs:
        # provided doc_ids may arrive in any order; posting lists must ascend
        for term, plist in idx.postings.items():
            idx.postings[term] = sorted(plist)
    return idx


SNIPPET_LENGTH = 512


def generate_snippet(text: str, terms: list[str]) -> str:
    """Reference snippet semantics (src/query.c:175-229), text-column based.

    512-byte windows, stride 512, over the body (the reference scans after
    the URL line; our input IS the body).  A window's score counts tokens
    (terminated inside the window, len <= 15) equal to any query term.
    ``max_score`` is never updated in the reference, so the LAST window
    with score > 0 wins; windows shorter than 512 bytes are never scanned
    (the loop guard requires a full window).  Returns "" if no window
    scores.
    """
    data = text.encode("utf-8")
    term_set = set(terms)
    snippet = b""
    for start in range(0, len(data), SNIPPET_LENGTH):
        if start + SNIPPET_LENGTH >= len(data):
            break
        window = data[start : start + SNIPPET_LENGTH]
        score = sum(1 for tok in tokenize(window) if tok in term_set)
        if score > 0:
            snippet = window[: SNIPPET_LENGTH - 1]
    return snippet.decode("utf-8", errors="replace")


class _Cursor:
    """Forward-only destructive posting stream (quirk Q-C).

    ``next_geq(k)`` pops postings until one with doc >= k is found,
    returns its doc and remembers its tf; the cursor has then advanced
    PAST the returned posting (src/inverted_list.c:36-77).  At
    exhaustion it returns ``max_doc_id`` (intended bound; defect D2 not
    modeled).
    """

    def __init__(self, plist: list[tuple[int, int]], max_doc_id: int):
        self.plist = plist
        self.pos = 0
        self.max_doc_id = max_doc_id
        self.curr_freq = 0
        self.length = len(plist)  # df, used as ft in scoring

    def next_geq(self, k: int) -> int:
        while self.pos < len(self.plist):
            doc, tf = self.plist[self.pos]
            self.pos += 1
            if doc >= k:
                self.curr_freq = tf
                return doc
        return self.max_doc_id


class _RefHeap:
    """Bit-faithful model of the reference min-heap (src/heap.c:39-88).

    Needed so top-k TIE ordering matches the binary exactly (quirk Q-T):
    sift-up on insert moves parents down only while ``new < parent``
    (strict); delete replaces root with the last element and sifts down
    with strict ``<``.
    """

    def __init__(self):
        self.elem: list[tuple[float, int]] = []  # (key, doc_id)

    @property
    def size(self) -> int:
        return len(self.elem)

    def insert(self, key: float, doc_id: int) -> None:
        self.elem.append((key, doc_id))
        i = len(self.elem) - 1
        nd = self.elem[i]
        while i and nd[0] < self.elem[(i - 1) // 2][0]:
            self.elem[i] = self.elem[(i - 1) // 2]
            i = (i - 1) // 2
        self.elem[i] = nd

    def delete(self) -> tuple[float, int]:
        nd = self.elem[0]
        last = self.elem.pop()
        if self.elem:
            self.elem[0] = last
            self._heapify(0)
        return nd

    def _heapify(self, i: int) -> None:
        l, r = 2 * i + 1, 2 * i + 2
        smallest = l if l < len(self.elem) and self.elem[l][0] < self.elem[i][0] else i
        if r < len(self.elem) and self.elem[r][0] < self.elem[smallest][0]:
            smallest = r
        if smallest != i:
            self.elem[i], self.elem[smallest] = self.elem[smallest], self.elem[i]
            self._heapify(smallest)


def _to_rank_heap(hp: _RefHeap, doc_id: int, score: float, limit: int) -> None:
    # strict > replacement: ties keep the incumbent (src/query.c:92-105, Q-T);
    # a heap of limit <= 0 keeps nothing (k = 0 ranks nothing)
    if limit <= 0:
        return
    if hp.size < limit:
        hp.insert(score, doc_id)
    elif hp.elem[0][0] < score:
        hp.delete()
        hp.insert(score, doc_id)


def _out_rank_heap(hp: _RefHeap) -> list[tuple[int, float]]:
    out: list[tuple[int, float]] = []
    while hp.size:
        key, doc = hp.delete()
        out.append((doc, key))
    out.reverse()
    return out


def _open_lists(idx: OracleIndex, terms: list[str]) -> list[_Cursor]:
    """Lexicon lookup + open cursors, sorted by df ascending (stable, as the
    reference's qsort degenerates to insertion sort at these sizes)."""
    lists = [
        _Cursor(idx.postings[t], idx.max_doc_id) for t in terms if t in idx.postings
    ]
    lists.sort(key=lambda c: c.length)
    return lists


def conjunctive_topk(
    idx: OracleIndex, terms: list[str], k: int, *, mode: str = "conformance"
) -> list[tuple[int, float]]:
    """Conjunctive (AND) BM25 top-k.

    ``conformance`` replicates the reference DAAT loop including the
    destructive-cursor miss quirk Q-C (src/query.c:153-174);
    ``correct`` is a textbook intersection over the same scoring.
    """
    lists = _open_lists(idx, terms)
    if not lists:
        return []
    hp = _RefHeap()
    if mode == "correct":
        docs = set(dict(lists[0].plist))
        for c in lists[1:]:
            docs &= set(dict(c.plist))
        for did in sorted(docs):
            score = sum(
                idx.bm25(dict(c.plist)[did], c.length, idx.doc_lens[did]) for c in lists
            )
            _to_rank_heap(hp, did, score, k)
        return _out_rank_heap(hp)

    max_doc = idx.max_doc_id
    did = 0
    d = 0  # persists across iterations, exactly as the reference's stale local
    while did < max_doc:
        did = lists[0].next_geq(did)
        if did >= max_doc:
            break
        matched = True
        for c in lists[1:]:
            d = c.next_geq(did)
            if d != did:
                matched = False
                break
        if not matched and d > did:
            did = d
        else:
            score = sum(idx.bm25(c.curr_freq, c.length, idx.doc_lens[did]) for c in lists)
            _to_rank_heap(hp, did, score, k)
            did += 1
    return _out_rank_heap(hp)


def disjunctive_topk(idx: OracleIndex, terms: list[str], k: int) -> list[tuple[int, float]]:
    """Disjunctive (OR) BM25 top-k with the *intended* union semantics.

    The reference's multi-term OR ranks by uninitialized memory (defect
    D6) and is unreproducible; this is the intended per-doc full-sum
    union, which matches the binary exactly in the single-term case
    (SURVEY.md §0).
    """
    lists = _open_lists(idx, terms)
    if not lists:
        return []
    scores: dict[int, float] = {}
    for c in lists:
        for did, tf in c.plist:
            scores[did] = scores.get(did, 0.0) + idx.bm25(tf, c.length, idx.doc_lens[did])
    hp = _RefHeap()
    for did in sorted(scores):  # ascending doc order, as DAAT would visit
        _to_rank_heap(hp, did, scores[did], k)
    return _out_rank_heap(hp)


def and_not_topk(
    idx: OracleIndex, pos_terms: list[str], neg_terms: list[str], k: int
) -> list[tuple[int, float]]:
    """Boolean AND-NOT top-k (an extension: the reference binary has no
    NOT operator — src/query.c:232-300 dispatches only and/or).  Docs
    matching ALL positive terms and NONE of the negative terms, scored
    on the positive terms under the correct-mode conjunction."""
    lists = _open_lists(idx, pos_terms)
    if not lists:
        return []
    docs = set(dict(lists[0].plist))
    for c in lists[1:]:
        docs &= set(dict(c.plist))
    for c in _open_lists(idx, neg_terms):
        docs -= set(dict(c.plist))
    hp = _RefHeap()
    for did in sorted(docs):
        score = sum(
            idx.bm25(dict(c.plist)[did], c.length, idx.doc_lens[did])
            for c in lists
        )
        _to_rank_heap(hp, did, score, k)
    return _out_rank_heap(hp)

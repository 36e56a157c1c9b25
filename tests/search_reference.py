"""Federated search as first written: dict/tuple posting lists walked in
Python, a web adapter whose (id, snippet, score) hits web_search dedupes,
re-sorts and re-normalizes, a CORI merge that rebuilds every result before
truncating, and resource scores from per-term probability calls on three
tokenized count models.

Kept verbatim as the reference the package code must match exactly; see test_search_oracle.py.
"""

import logging
import math
from dataclasses import replace
from typing import Callable, Optional, Sequence

from tickettriage.classify import tokenize
from tickettriage.search import (
    _POOL_LAMBDA,
    BM25_B,
    BM25_K1,
    IndexDoc,
    RankedResult,
    cori_score,
)

log = logging.getLogger(__name__)


class SearchIndex:
    """Inverted index with BM25 scoring and exact-match field filters."""

    def __init__(self, docs: Sequence[IndexDoc]):
        self.docs = list(docs)
        self.postings: dict[str, list[tuple[int, int]]] = {}
        self.doc_lens: list[int] = []
        for i, doc in enumerate(self.docs):
            toks = tokenize(doc.text)
            self.doc_lens.append(len(toks))
            tf: dict[str, int] = {}
            for t in toks:
                tf[t] = tf.get(t, 0) + 1
            for t in sorted(tf):
                self.postings.setdefault(t, []).append((i, tf[t]))
        self.avgdl = (sum(self.doc_lens) / len(self.doc_lens)) if self.docs else 0.0

    def _idf(self, term: str) -> float:
        n = len(self.postings.get(term, ()))
        return math.log((len(self.docs) - n + 0.5) / (n + 0.5) + 1.0)

    def search(self, query: str, filter_fields: Optional[dict] = None,
               limit: int = 20) -> list[RankedResult]:
        """BM25 over docs passing the filters; d min-max normalized per query."""
        if not self.docs:
            return []
        allowed = None
        if filter_fields:
            allowed = {
                i for i, doc in enumerate(self.docs)
                if all(doc.fields.get(k) == v for k, v in filter_fields.items())
            }
        scores: dict[int, float] = {}
        for term in tokenize(query):
            idf = self._idf(term)
            for i, tf in self.postings.get(term, ()):
                if allowed is not None and i not in allowed:
                    continue
                norm = BM25_K1 * (1 - BM25_B + BM25_B * self.doc_lens[i] / self.avgdl)
                scores[i] = scores.get(i, 0.0) + idf * tf * (BM25_K1 + 1) / (tf + norm)
        if not scores:
            return []
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], self.docs[kv[0]].doc_id))
        ranked = ranked[:limit]
        raw = [s for _, s in ranked]
        lo, hi = min(raw), max(raw)
        out = []
        for i, s in ranked:
            d = 1.0 if hi == lo else (s - lo) / (hi - lo)
            doc = self.docs[i]
            snippet = doc.resolution or doc.text[:160]
            out.append(RankedResult(doc.doc_id, snippet, "ticket_corpus", d,
                                    category=doc.category))
        return out


WebAdapter = Callable[[str], list[tuple[str, str, float]]]
# query -> [(doc_id, snippet, raw_score)]


class LocalWebAdapter:
    """Fixture-backed web search: BM25 over a local page corpus."""

    def __init__(self, pages: Sequence[dict]):
        # pages: {"id", "title", "body"}
        self._index = SearchIndex([
            IndexDoc(p["id"], f"{p['title']} {p['body']}", {}, resolution=p["body"])
            for p in pages
        ])

    def __call__(self, query: str) -> list[tuple[str, str, float]]:
        return [(r.doc_id, r.snippet, r.d) for r in self._index.search(query)]


def web_search(adapter: WebAdapter, query: str, limit: int = 20) -> list[RankedResult]:
    """Invoke the adapter; dedupe ids keeping the max score; min-max normalize.

    Adapter failure degrades to an empty list with a logged warning; a limit
    below 1 asks for no results and does not call the adapter.
    """
    if limit < 1:
        return []
    try:
        raw = adapter(query)
    except Exception as exc:  # degraded mode, never fatal
        log.warning("web adapter failed (%s); continuing corpus-only", exc)
        return []
    best: dict[str, tuple[str, float]] = {}
    order: list[str] = []
    for doc_id, snippet, score in raw:
        if doc_id not in best:
            order.append(doc_id)
            best[doc_id] = (snippet, score)
        elif score > best[doc_id][1]:
            best[doc_id] = (snippet, score)
    if not best:
        return []
    ranked = sorted(order, key=lambda i: (-best[i][1], i))[:limit]
    raw_scores = [best[i][1] for i in ranked]
    lo, hi = min(raw_scores), max(raw_scores)
    return [
        RankedResult(i, best[i][0], "web",
                     1.0 if hi == lo else (best[i][1] - lo) / (hi - lo))
        for i in ranked
    ]


def cori_merge(results: Sequence[RankedResult], resource_scores: dict[str, float],
               top_n: int = 5) -> list[RankedResult]:
    """Score every result with its resource's c, re-rank, truncate to top_n."""
    scored = [
        replace(r, c=resource_scores.get(r.source, 0.5),
                cori_score=cori_score(r.d, resource_scores.get(r.source, 0.5)))
        for r in results
    ]
    scored.sort(key=lambda r: (-r.cori_score, r.source, r.doc_id))
    return scored[:top_n]


class ResourceRep:
    """Unigram term distribution built from sampled resource documents."""

    def __init__(self, texts: Sequence[str]):
        counts: dict[str, int] = {}
        for text in texts:
            for tok in tokenize(text):
                counts[tok] = counts.get(tok, 0) + 1
        self.counts = counts
        self.total = sum(counts.values())

    def prob(self, term: str) -> float:
        return self.counts.get(term, 0) / self.total if self.total else 0.0


class ResourcePool:
    """The two federated resources plus their combined background model."""

    def __init__(self, corpus_texts: Sequence[str], web_texts: Sequence[str]):
        self.reps = {"ticket_corpus": ResourceRep(corpus_texts),
                     "web": ResourceRep(web_texts)}
        self.background = ResourceRep(list(corpus_texts) + list(web_texts))

    def _loglik(self, rep: ResourceRep, terms: list[str]) -> float:
        return sum(
            math.log(_POOL_LAMBDA * rep.prob(t) + (1 - _POOL_LAMBDA) * self.background.prob(t)
                     + 1e-12)
            for t in terms
        ) / len(terms)

    def resource_scores(self, query: str) -> dict[str, float]:
        """Per-query min-max normalized c in [0,1]; neutral 0.5 on empty/tied."""
        terms = tokenize(query)
        names = sorted(self.reps)
        if not terms:
            return {name: 0.5 for name in names}
        raw = {name: self._loglik(self.reps[name], terms) for name in names}
        lo, hi = min(raw.values()), max(raw.values())
        if hi - lo < 1e-12:
            return {name: 0.5 for name in names}
        return {name: (v - lo) / (hi - lo) for name, v in raw.items()}

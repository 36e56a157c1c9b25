"""Federated resolution search: a BM25 index over the ticket knowledge
corpus, a pluggable web-search adapter (default: local fixture pages), the
unigram-LM resource relevance scores, and the CORI merge
score = (d + 0.4*c*d) / 1.4 over engine-normalized d in [0,1].
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .classify import tokenize

log = logging.getLogger(__name__)

BM25_K1 = 1.2
BM25_B = 0.75


@dataclass(frozen=True)
class RankedResult:
    doc_id: str
    snippet: str
    source: str  # ticket_corpus | web
    d: float  # normalized engine score
    c: float = 0.0  # resource relevance
    cori_score: float = 0.0
    category: Optional[str] = None  # composite category, corpus docs only


@dataclass(frozen=True)
class IndexDoc:
    doc_id: str
    text: str
    fields: dict  # filterable fields: resolver_group, f1, f2, f3
    category: Optional[str] = None
    resolution: Optional[str] = None


class SearchIndex:
    """Inverted index with BM25 scoring and exact-match field filters.

    Each term keeps the ids of the docs it occurs in (int32) and its BM25
    contribution to each of them, both computed once; a query sums them with
    one bincount. Only `docs` is pickled: the arrays are rebuilt on load.
    """

    def __init__(self, docs: Sequence[IndexDoc]):
        self.docs = list(docs)
        self._build()

    def __getstate__(self) -> dict:
        return {"docs": self.docs}

    def __setstate__(self, state: dict) -> None:
        self.docs = state["docs"]
        self._build()

    def _build(self) -> None:
        n = len(self.docs)
        vocab: dict[str, int] = {}
        term_ids: list[int] = []
        doc_ids: list[int] = []
        tfs: list[int] = []
        doc_lens: list[int] = []
        for i, doc in enumerate(self.docs):
            toks = tokenize(doc.text)
            doc_lens.append(len(toks))
            for term, count in Counter(toks).items():
                term_ids.append(vocab.setdefault(term, len(vocab)))
                doc_ids.append(i)
                tfs.append(count)
        avgdl = sum(doc_lens) / n if n else 0.0
        # group postings by term; doc ids stay ascending within a term
        term_arr = np.asarray(term_ids, dtype=np.int64)
        order = np.argsort(term_arr, kind="stable")
        ids = np.asarray(doc_ids, dtype=np.int32)[order]
        tf = np.asarray(tfs, dtype=np.float64)[order]
        df = np.bincount(term_arr, minlength=len(vocab))
        # math.log per term: np.log may round differently in the last bit
        idf = np.array([math.log((n - k + 0.5) / (k + 0.5) + 1.0) for k in df.tolist()])
        # the expression order of a per-posting loop, so every contribution
        # (and, summed in query order, every score) is the same float
        dl = np.asarray(doc_lens, dtype=np.float64)[ids]
        norm = BM25_K1 * (1 - BM25_B + BM25_B * dl / avgdl)
        contrib = np.repeat(idf, df) * tf * (BM25_K1 + 1) / (tf + norm)
        bounds = np.cumsum(df)[:-1]
        self._postings = dict(zip(vocab, zip(np.split(ids, bounds),
                                             np.split(contrib, bounds))))

        # filters: per field, one code per doc; a doc without the field reads None
        self._fields: dict[str, tuple[np.ndarray, dict]] = {}
        for key in dict.fromkeys(k for doc in self.docs for k in doc.fields):
            values: dict = {}
            codes = [values.setdefault(doc.fields.get(key), len(values)) for doc in self.docs]
            self._fields[key] = (np.asarray(codes, dtype=np.int32), values)
        self._no_field = (np.zeros(n, dtype=np.int32), {None: 0})

        # ranking tie-break: equal doc ids share a rank
        rank = {doc_id: r for r, doc_id in enumerate(sorted({d.doc_id for d in self.docs}))}
        self._id_rank = np.asarray([rank[d.doc_id] for d in self.docs], dtype=np.int64)

    def _allowed(self, filter_fields: dict) -> np.ndarray:
        """Mask of the docs whose fields equal every filter value."""
        mask = np.ones(len(self.docs), dtype=bool)
        for key, value in filter_fields.items():
            codes, values = self._fields.get(key, self._no_field)
            code = values.get(value)
            if code is None:
                return np.zeros(len(self.docs), dtype=bool)
            mask &= codes == code
        return mask

    def search(self, query: str, filter_fields: Optional[dict] = None,
               limit: int = 20) -> list[RankedResult]:
        """BM25 over docs passing the filters; d min-max normalized per query.

        A limit below 1 asks for no results."""
        hits = [self._postings[t] for t in tokenize(query) if t in self._postings]
        if not hits or limit < 1:
            return []
        ids = np.concatenate([h[0] for h in hits])
        # bincount adds in input order: each score is the left-to-right sum
        # of the doc's contributions in query-token order
        scores = np.bincount(ids, np.concatenate([h[1] for h in hits]),
                             minlength=len(self.docs))
        if filter_fields:
            scores[~self._allowed(filter_fields)] = 0.0
        # every contribution is positive (idf > 0, tf >= 1), so the docs the
        # query touched are exactly those with a nonzero score
        touched = np.flatnonzero(scores)
        if limit < touched.size:  # only docs tied with the limit-th best or above can rank
            kth = np.partition(scores[touched], touched.size - limit)[touched.size - limit]
            touched = touched[scores[touched] >= kth]
        if not touched.size:
            return []
        score, rank = scores[touched], self._id_rank[touched]
        keys = [rank, -score]
        if np.unique(rank).size < rank.size:
            # docs sharing an id and a score rank in the order the query first
            # touched them; found only when ids repeat, as it scans every hit
            in_touched = np.zeros(len(self.docs), dtype=bool)
            in_touched[touched] = True
            at = np.flatnonzero(in_touched[ids])
            keys.insert(0, at[np.unique(ids[at], return_index=True)[1]])
        order = np.lexsort(keys)[:limit]
        top, raw = touched[order].tolist(), score[order].tolist()
        lo, hi = min(raw), max(raw)
        out = []
        for i, s in zip(top, raw):
            d = 1.0 if hi == lo else (s - lo) / (hi - lo)
            doc = self.docs[i]
            snippet = doc.resolution or doc.text[:160]
            out.append(RankedResult(doc.doc_id, snippet, "ticket_corpus", d,
                                    category=doc.category))
        return out


# ---------------------------------------------------------------------------
# web search adapter

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


# ---------------------------------------------------------------------------
# resource representation + CORI merge

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


_POOL_LAMBDA = 0.7  # weight of a resource's own model against the background


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


def cori_score(d: float, c: float) -> float:
    return (d + 0.4 * c * d) / 1.4


def cori_merge(results: Sequence[RankedResult], resource_scores: dict[str, float],
               top_n: int = 5) -> list[RankedResult]:
    """Score every result with its resource's c, re-rank, truncate to top_n.

    Only the top_n survivors are rebuilt with their c and cori_score.
    """
    keyed = []
    for pos, r in enumerate(results):
        c = resource_scores.get(r.source, 0.5)
        keyed.append((-cori_score(r.d, c), r.source, r.doc_id, pos, c))
    keyed.sort()
    return [replace(results[pos], c=c, cori_score=-neg)
            for neg, _, _, pos, c in keyed[:top_n]]

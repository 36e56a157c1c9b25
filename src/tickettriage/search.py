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
from .errors import ConsistencyError

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
    Doc ids must be unique: building (or loading) an index that repeats one
    raises ConsistencyError.
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
        # ranking tie-break: a doc's position among the sorted ids
        sorted_ids = sorted(d.doc_id for d in self.docs)
        for a, b in zip(sorted_ids, sorted_ids[1:]):
            if a == b:
                raise ConsistencyError(f"document id {a!r} appears more than once")
        rank = {doc_id: r for r, doc_id in enumerate(sorted_ids)}
        self._id_rank = np.asarray([rank[d.doc_id] for d in self.docs], dtype=np.int64)

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
        score = scores[touched]
        order = np.lexsort((self._id_rank[touched], -score))[:limit]
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

WebAdapter = Callable[[str], list[RankedResult]]
# query -> ranked results with source "web", d normalized per query, unique ids


class LocalWebAdapter:
    """Fixture-backed web search: BM25 over a local page corpus."""

    def __init__(self, pages: Sequence[dict]):
        # pages: {"id", "title", "body"}
        self._index = SearchIndex([
            IndexDoc(p["id"], f"{p['title']} {p['body']}", {}, resolution=p["body"])
            for p in pages
        ])

    def __call__(self, query: str) -> list[RankedResult]:
        return [replace(r, source="web") for r in self._index.search(query)]


def web_search(adapter: WebAdapter, query: str) -> list[RankedResult]:
    """The adapter's results; a failing adapter degrades to an empty list
    with a logged warning."""
    try:
        return adapter(query)
    except Exception as exc:  # degraded mode, never fatal
        log.warning("web adapter failed (%s); continuing corpus-only", exc)
        return []


# ---------------------------------------------------------------------------
# resource representation + CORI merge

_POOL_LAMBDA = 0.7  # weight of a resource's own model against the background


def _log_mix(p_resource: float, p_background: float) -> float:
    return math.log(_POOL_LAMBDA * p_resource + (1 - _POOL_LAMBDA) * p_background + 1e-12)


_UNSEEN = _log_mix(0.0, 0.0)  # a term neither resource has seen


class ResourcePool:
    """The two federated resources as unigram LMs smoothed against their
    combined background: per resource, one table of each background term's
    log(λ·p_resource + (1−λ)·p_background + 1e-12)."""

    def __init__(self, corpus_texts: Sequence[str], web_texts: Sequence[str]):
        counts = {"ticket_corpus": Counter(t for text in corpus_texts for t in tokenize(text)),
                  "web": Counter(t for text in web_texts for t in tokenize(text))}
        background = counts["ticket_corpus"] + counts["web"]
        bg_total = background.total()
        self._tables = {}  # keyed in sorted order
        for name, c in counts.items():
            total = c.total()
            self._tables[name] = {t: _log_mix(c[t] / total if total else 0.0, n / bg_total)
                                  for t, n in background.items()}

    def resource_scores(self, query: str) -> dict[str, float]:
        """CORI's c per resource: 1.0 for the resource whose mean term
        log-probability is higher, 0.0 for the other, and 0.5 for both when
        the query has no terms or the means are within 1e-12."""
        terms = tokenize(query)
        if not terms:
            return {name: 0.5 for name in self._tables}
        # mean log-probability of the terms, summed in query order
        raw = {name: sum(table.get(t, _UNSEEN) for t in terms) / len(terms)
               for name, table in self._tables.items()}
        lo, hi = min(raw.values()), max(raw.values())
        if hi - lo < 1e-12:
            return {name: 0.5 for name in self._tables}
        return {name: 1.0 if v == hi else 0.0 for name, v in raw.items()}


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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tickettriage.classify import tokenize
from tickettriage.errors import ConsistencyError
from tickettriage.search import (
    BM25_B,
    BM25_K1,
    IndexDoc,
    LocalWebAdapter,
    ResourcePool,
    SearchIndex,
    cori_merge,
    cori_score,
    RankedResult,
    web_search,
)

_WORDS = ["printer", "vpn", "outlook", "error", "driver", "timeout", "sync",
          "disk", "memory", "install", "license", "update", "network"]


def _random_docs(rng, n):
    return [
        IndexDoc(f"d{i:03d}",
                 " ".join(_WORDS[j] for j in rng.randint(0, len(_WORDS), rng.randint(3, 15))),
                 {})
        for i in range(n)
    ]


def _bm25_oracle(docs, query):
    """Direct evaluation of the scoring formula, independent of the index."""
    token_lists = [tokenize(d.text) for d in docs]
    avgdl = sum(len(t) for t in token_lists) / len(docs)
    n_docs = len(docs)
    scores = {}
    for i, toks in enumerate(token_lists):
        s = 0.0
        for term in tokenize(query):
            tf = toks.count(term)
            if tf == 0:
                continue
            df = sum(1 for t in token_lists if term in t)
            idf = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
            s += idf * tf * (BM25_K1 + 1) / (tf + BM25_K1 * (1 - BM25_B + BM25_B * len(toks) / avgdl))
        if s > 0.0:
            scores[i] = s
    return scores


def test_bm25_matches_direct_formula_on_random_queries():
    rng = np.random.RandomState(7)
    docs = _random_docs(rng, 40)
    index = SearchIndex(docs)
    for _ in range(100):
        query = " ".join(_WORDS[j] for j in rng.randint(0, len(_WORDS), rng.randint(1, 4)))
        expected = _bm25_oracle(docs, query)
        got = index.search(query, limit=len(docs))
        if not expected:
            assert got == []
            continue
        ranked = sorted(expected.items(), key=lambda kv: (-kv[1], docs[kv[0]].doc_id))
        assert [r.doc_id for r in got] == [docs[i].doc_id for i, _ in ranked]
        raw = [s for _, s in ranked]
        lo, hi = min(raw), max(raw)
        for r, (_, s) in zip(got, ranked):
            want = 1.0 if hi == lo else (s - lo) / (hi - lo)
            assert abs(r.d - want) < 1e-9


def test_search_field_filters():
    docs = [
        IndexDoc("a", "printer error", {"resolver_group": "hw"}),
        IndexDoc("b", "printer error", {"resolver_group": "sw"}),
    ]
    index = SearchIndex(docs)
    got = index.search("printer", {"resolver_group": "hw"})
    assert [r.doc_id for r in got] == ["a"]
    assert index.search("printer", {"resolver_group": "nope"}) == []


@pytest.mark.parametrize("limit", [0, -1])
def test_search_limit_below_one_returns_nothing(limit):
    docs = [IndexDoc(str(i), "printer error", {}) for i in range(3)]
    assert len(SearchIndex(docs).search("printer")) == 3
    assert SearchIndex(docs).search("printer", limit=limit) == []


def test_search_normalizes_d_into_unit_interval():
    rng = np.random.RandomState(1)
    index = SearchIndex(_random_docs(rng, 20))
    got = index.search("printer error vpn")
    assert got
    assert all(0.0 <= r.d <= 1.0 for r in got)
    assert max(r.d for r in got) == 1.0


def test_local_web_adapter_returns_matching_pages():
    pages = [{"id": "p1", "title": "VPN timeout", "body": "restart the client"},
             {"id": "p2", "title": "Printer jam", "body": "clear tray two"}]
    results = web_search(LocalWebAdapter(pages), "vpn timeout")
    assert results and results[0].doc_id == "p1"
    assert results[0].source == "web"


def test_local_web_adapter_shows_each_hit_its_own_page():
    # a page without a body still gets a non-empty snippet (its own text)
    pages = [{"id": "kb1", "title": "vpn timeout", "body": ""},
             {"id": "kb2", "title": "printer", "body": "clear the tray"}]
    results = web_search(LocalWebAdapter(pages), "vpn timeout")
    assert results[0].doc_id == "kb1" and results[0].snippet.strip() == "vpn timeout"
    # a repeated page id is refused when the adapter builds its index
    pages = [{"id": "kb1", "title": "vpn timeout", "body": "restart the client"},
             {"id": "kb1", "title": "printer", "body": "new body"}]
    with pytest.raises(ConsistencyError, match="'kb1'"):
        LocalWebAdapter(pages)


def test_web_search_returns_the_adapter_results_as_they_are():
    results = [RankedResult("y", "b", "web", 1.0), RankedResult("x", "a", "web", 0.0)]
    assert web_search(lambda query: results, "q") == results


def test_web_search_degrades_on_adapter_failure():
    def broken(query):
        raise ConnectionError("socket closed")
    assert web_search(broken, "anything") == []


def test_resource_scores_identical_resources_are_neutral():
    pool = ResourcePool(["printer error jam"], ["printer error jam"])
    scores = pool.resource_scores("printer error")
    assert scores == {"ticket_corpus": 0.5, "web": 0.5}


def test_resource_scores_favor_the_matching_resource():
    pool = ResourcePool(["printer driver jam tray"], ["vpn tunnel certificate proxy"])
    scores = pool.resource_scores("printer driver jam")
    assert scores["ticket_corpus"] == 1.0
    assert scores["web"] == 0.0


def test_resource_scores_empty_query_is_neutral():
    pool = ResourcePool(["a b c"], ["d e f"])
    assert pool.resource_scores("") == {"ticket_corpus": 0.5, "web": 0.5}


def test_cori_score_worked_examples():
    assert abs(cori_score(1.0, 1.0) - 1.0) < 1e-9
    assert abs(cori_score(0.5, 0.0) - 0.35714285714285715) < 1e-9
    assert abs(cori_score(0.8, 0.6) - 0.7085714285714285) < 1e-9


@settings(max_examples=300, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_cori_score_monotonic(d, d2, c):
    lo, hi = sorted((d, d2))
    assert cori_score(lo, c) <= cori_score(hi, c) + 1e-12
    assert cori_score(0.5, lo) <= cori_score(0.5, hi) + 1e-12


def test_cori_merge_ranks_and_truncates():
    results = [
        RankedResult("c1", "s", "ticket_corpus", d=0.9),
        RankedResult("w1", "s", "web", d=1.0),
        RankedResult("c2", "s", "ticket_corpus", d=0.1),
    ]
    merged = cori_merge(results, {"ticket_corpus": 1.0, "web": 0.0}, top_n=2)
    assert len(merged) == 2
    # corpus doc gets the c boost: (0.9 + 0.36)/1.4 = 0.9 vs web (1.0)/1.4
    assert merged[0].doc_id == "c1"
    assert merged[1].doc_id == "w1"
    assert all(m.cori_score == cori_score(m.d, m.c) for m in merged)


def test_cori_merge_tie_break_is_deterministic():
    results = [
        RankedResult("b", "s", "web", d=0.5),
        RankedResult("a", "s", "web", d=0.5),
    ]
    merged = cori_merge(results, {"web": 0.5}, top_n=5)
    assert [m.doc_id for m in merged] == ["a", "b"]

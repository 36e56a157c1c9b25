"""Old-vs-new oracle for the array-backed BM25 index, the web search, the
CORI merge and the table-backed resource scores.

search_reference.py holds the dict-based index, the web adapter and
web_search, the merge and the resource pool the package started from. On
the seeded 400-ticket corpus, with and without resolver and sub-field
filters, and on hand-built and random edge cases, the package must return
the same result lists (ids, d, snippets, categories and order) and the same
resource scores, bit for bit.
"""

import os
import pickle
import warnings

import numpy as np
import pytest

import search_reference as ref
from tickettriage.errors import ConsistencyError
from tickettriage.recommend import SUBFIELDS, load_corpus
from tickettriage.search import (IndexDoc, LocalWebAdapter, RankedResult, ResourcePool,
                                 SearchIndex, cori_merge, web_search)
from tickettriage.training import enrich_text_only


def _same_search(docs, query, filter_fields=None, limit=20):
    want = ref.SearchIndex(docs).search(query, filter_fields, limit)
    got = SearchIndex(docs).search(query, filter_fields, limit)
    assert got == want, (query, filter_fields, limit)
    return got


def test_search_matches_reference_on_seeded_corpus(bundle, corpus_dir):
    index = pickle.loads(pickle.dumps(bundle.index))  # the arrays rebuilt on load
    reference = ref.SearchIndex(bundle.index.docs)
    records = load_corpus(os.path.join(corpus_dir, "tickets.jsonl"))
    n_hits = 0
    for k, r in enumerate(records):
        query = enrich_text_only(r.text)
        other = records[(k * 7 + 3) % len(records)]
        filter_sets = (
            None,
            {"resolver_group": r.resolver_group},
            {"resolver_group": r.resolver_group,
             **{sf: getattr(r, sf) for sf in SUBFIELDS}},
            {"resolver_group": other.resolver_group, "category_f2": other.category_f2},
        )
        for filter_fields in filter_sets:
            want = reference.search(query, filter_fields)
            assert index.search(query, filter_fields) == want, (r.id, filter_fields)
            n_hits += len(want)
    assert n_hits > 20 * len(records)  # the queries do reach the corpus


def test_pickled_index_holds_only_its_docs(bundle):
    state = bundle.index.__getstate__()
    assert list(state) == ["docs"]
    assert len(pickle.dumps(bundle.index)) < len(pickle.dumps(ref.SearchIndex(bundle.index.docs)))


def test_empty_index():
    assert _same_search([], "printer error") == []


def test_all_empty_texts_score_nothing_without_warnings():
    docs = [IndexDoc("a", "", {}), IndexDoc("b", " ... ", {})]  # avgdl == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index = SearchIndex(docs)
        assert index.search("printer error") == []
        assert pickle.loads(pickle.dumps(index)).search("printer") == []


def test_query_without_known_terms():
    docs = [IndexDoc("a", "printer jam", {}), IndexDoc("b", "vpn drops", {})]
    assert _same_search(docs, "keyboard mouse") == []
    assert _same_search(docs, "") == []


def test_repeated_query_tokens_count_every_time():
    docs = [IndexDoc("a", "printer jam tray", {}), IndexDoc("b", "printer", {}),
            IndexDoc("c", "jam jam vpn", {})]
    got = _same_search(docs, "jam printer jam jam vpn printer")
    assert [r.doc_id for r in got] == ["c", "a", "b"]


def test_filter_on_a_field_no_doc_has():
    docs = [IndexDoc("a", "printer jam", {"resolver_group": "hw"}),
            IndexDoc("b", "printer error", {})]
    assert _same_search(docs, "printer", {"site": "berlin"}) == []
    # a missing field reads None, so a None filter value matches it
    assert [r.doc_id for r in _same_search(docs, "printer", {"site": None})] == ["a", "b"]
    assert [r.doc_id for r in _same_search(docs, "printer", {"resolver_group": None})] == ["b"]


def test_limit_below_hit_count_cuts_through_ties():
    docs = [IndexDoc(f"d{i}", "printer jam" if i % 2 else "printer", {}) for i in range(9)]
    for limit in (1, 3, 4, 5, 8):
        got = _same_search(docs, "printer jam", limit=limit)
        assert len(got) == limit


def test_repeated_doc_ids_are_refused():
    docs = [IndexDoc("x", "printer jam", {}, resolution="first"),
            IndexDoc("w", "printer vpn", {}, resolution="third"),
            IndexDoc("x", "vpn drop", {}, resolution="second")]
    with pytest.raises(ConsistencyError, match="'x'"):
        SearchIndex(docs)
    # unpickling rebuilds the index through the same check
    with pytest.raises(ConsistencyError, match="'x'"):
        SearchIndex.__new__(SearchIndex).__setstate__({"docs": docs})


def test_random_small_indexes_match_reference():
    rng = np.random.RandomState(11)
    words = ["printer", "vpn", "jam", "error", "drop", "disk", "sync"]
    for case in range(300):
        docs = [IndexDoc(f"d{i}",
                         " ".join(rng.choice(words, rng.randint(0, 5))),
                         {"g": str(rng.randint(2)), **({"h": "1"} if rng.rand() < 0.5 else {})},
                         resolution=f"r{i}")
                for i in range(rng.randint(1, 12))]
        query = " ".join(rng.choice(words, rng.randint(1, 6)))
        filter_fields = [None, {"g": "0"}, {"g": "1", "h": "1"}, {"h": None}][case % 4]
        _same_search(docs, query, filter_fields, limit=int(rng.randint(1, 8)))


def test_web_search_matches_reference_on_seeded_corpus(bundle, corpus_dir):
    records = load_corpus(os.path.join(corpus_dir, "tickets.jsonl"))
    adapter = LocalWebAdapter(bundle.web_pages)
    reference = ref.LocalWebAdapter(bundle.web_pages)
    n_hits = 0
    for r in records:
        query = enrich_text_only(r.text)
        want = ref.web_search(reference, query)
        assert web_search(adapter, query) == want, r.id
        n_hits += len(want)
    assert n_hits > len(records)  # the queries do reach the pages


def test_web_search_random_page_sets_match_reference():
    rng = np.random.RandomState(17)
    words = ["printer", "vpn", "jam", "error", "drop", "disk", "sync"]

    def text(most):
        return " ".join(rng.choice(words, rng.randint(0, most)))

    for _ in range(300):
        n = rng.randint(1, 30)  # above 20 pages, the limit cuts the results
        pages = [{"id": f"p{j}", "title": text(4), "body": text(6)}
                 for j in rng.permutation(n)]  # ids out of sort order
        for _ in range(3):
            query = text(6)
            assert (web_search(LocalWebAdapter(pages), query)
                    == ref.web_search(ref.LocalWebAdapter(pages), query)), (pages, query)


def _same_merge(results, resource_scores, top_n):
    want = ref.cori_merge(results, resource_scores, top_n)
    got = cori_merge(results, resource_scores, top_n)
    assert got == want
    return got


def test_cori_merge_ties_and_duplicate_ids_match_reference():
    results = [RankedResult("a", "one", "web", 0.5), RankedResult("a", "two", "web", 0.5),
               RankedResult("a", "three", "ticket_corpus", 0.5),
               RankedResult("b", "four", "web", 0.5), RankedResult("a", "five", "web", 0.5)]
    got = _same_merge(results, {"web": 0.5, "ticket_corpus": 0.5}, top_n=4)
    assert [r.snippet for r in got] == ["three", "one", "two", "five"]
    assert _same_merge(results, {}, top_n=10)[0].c == 0.5


def test_cori_merge_random_cases_match_reference():
    rng = np.random.RandomState(5)
    for _ in range(500):
        results = [RankedResult(f"d{rng.randint(3)}", f"s{i}",
                                ("web", "ticket_corpus")[rng.randint(2)],
                                float(rng.choice([0.0, 0.25, 0.5, 1.0])))
                   for i in range(rng.randint(0, 10))]
        scores = {"web": float(rng.choice([0.0, 0.5, 1.0]))}
        if rng.rand() < 0.7:
            scores["ticket_corpus"] = float(rng.choice([0.0, 0.5, 1.0]))
        _same_merge(results, scores, int(rng.randint(0, 12)))


# a query with no terms, one whose terms no resource has, one with repeats
_EDGE_QUERIES = ("", "... !!", "zzqx blorf quuxly", "printer jam printer vpn jam printer")


def _same_resource_scores(pool, corpus_texts, web_texts, queries):
    reference = ref.ResourcePool(corpus_texts, web_texts)
    for query in queries:
        assert pool.resource_scores(query) == reference.resource_scores(query), query


def test_resource_scores_match_reference_on_seeded_corpus(bundle, corpus_dir):
    records = load_corpus(os.path.join(corpus_dir, "tickets.jsonl"))
    queries = [enrich_text_only(r.text) for r in records] + list(_EDGE_QUERIES)
    corpus_texts = [d.text for d in bundle.index.docs]
    web_texts = [f"{p['title']} {p['body']}" for p in bundle.web_pages]
    assert web_texts
    # the pool the bundle built for itself
    _same_resource_scores(bundle.pool, corpus_texts, web_texts, queries)
    # a pool with no web pages
    _same_resource_scores(ResourcePool(corpus_texts, []), corpus_texts, [], queries)


def test_resource_scores_pick_one_resource_or_neither(bundle, corpus_dir):
    """c is 1.0 for the resource with the higher mean log-probability and 0.0
    for the other, or 0.5 for both on a query with no terms or a tie."""
    records = load_corpus(os.path.join(corpus_dir, "tickets.jsonl"))
    queries = [enrich_text_only(r.text) for r in records] + list(_EDGE_QUERIES)
    seen = set()
    for query in queries:
        scores = sorted(bundle.pool.resource_scores(query).values())
        assert scores in ([0.0, 1.0], [0.5, 0.5]), query
        seen.add(tuple(scores))
    assert seen == {(0.0, 1.0), (0.5, 0.5)}


def test_resource_scores_random_small_pools_match_reference():
    rng = np.random.RandomState(13)
    words = ["printer", "vpn", "jam", "error", "drop", "disk", "sync"]

    def texts():
        return [" ".join(rng.choice(words, rng.randint(0, 5))) for _ in range(rng.randint(0, 4))]

    for _ in range(300):
        corpus_texts, web_texts = texts(), texts()
        queries = [" ".join(rng.choice(words + ["unknown"], rng.randint(0, 6)))
                   for _ in range(5)]
        _same_resource_scores(ResourcePool(corpus_texts, web_texts), corpus_texts,
                              web_texts, queries + list(_EDGE_QUERIES))

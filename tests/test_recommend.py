import json
import math
import re

import numpy as np
import pytest

from tickettriage.classify import TfidfVectorizer
from tickettriage.errors import ConsistencyError, ParameterError
from tickettriage.recommend import (
    CATEGORY_SEP,
    ResolutionDB,
    TicketRecord,
    TriageCutoffs,
    TriageModels,
    compose_category,
    display_category,
    load_corpus,
    save_corpus,
    savings,
    split_head_tail,
    triage,
)
from tickettriage.search import IndexDoc, LocalWebAdapter, ResourcePool, SearchIndex


def test_compose_decompose_round_trip():
    label = compose_category("network", "vpn", "timeout")
    assert label.split(CATEGORY_SEP) == ["network", "vpn", "timeout"]
    assert display_category(label) == "network/vpn/timeout"


def test_compose_validation():
    with pytest.raises(ParameterError):
        compose_category("a", "", "c")
    with pytest.raises(ParameterError):
        compose_category("a" + CATEGORY_SEP, "b", "c")


def _record(i, cat, resolution=None):
    f1, f2, f3 = cat
    return TicketRecord(f"t{i}", f"ticket text {i}", (), "group",
                        f1, f2, f3, resolution)


def _random_corpus(rng):
    cats = [("a", "b", str(k)) for k in range(8)]
    weights = rng.dirichlet(np.ones(8))
    n = int(rng.randint(30, 120))
    picks = rng.choice(8, size=n, p=weights)
    records = [_record(i, cats[c]) for i, c in enumerate(picks)]
    db_cats = set(rng.choice(8, size=4, replace=False))
    db = ResolutionDB({compose_category(*cats[c]): f"fix {c}" for c in db_cats})
    threshold = int(rng.randint(1, 12))
    return records, db, threshold


def test_split_invariants_on_random_corpora():
    rng = np.random.RandomState(0)
    for _ in range(100):
        records, db, threshold = _random_corpus(rng)
        split = split_head_tail(records, threshold, db)
        # disjoint and exhaustive
        assert len(split.head) + len(split.tail) == len(records)
        head_ids = {r.id for r in split.head}
        assert not head_ids & {r.id for r in split.tail}
        # every head category is frequent enough AND has a curated resolution
        for cat in split.head_categories:
            assert split.histogram[cat] >= threshold
            assert db.has(cat)
        # every tail ticket's category fails at least one head condition
        for r in split.tail:
            assert split.histogram[r.category] < threshold or not db.has(r.category)
        # the partition follows the category sets exactly
        assert all(r.category in split.head_categories for r in split.head)


def test_corpus_round_trip(tmp_path):
    records = [_record(i, ("a", "b", "c"), resolution="fix") for i in range(5)]
    path = tmp_path / "tickets.jsonl"
    save_corpus(records, path)
    assert load_corpus(path) == records


_LINE = {"id": "t1", "text": "vpn drops", "resolver_group": "network",
         "category_f1": "a", "category_f2": "b", "category_f3": "c"}


def test_ticket_attachments_and_resolution_are_optional(tmp_path):
    path = tmp_path / "tickets.jsonl"
    lines = [_LINE, {**_LINE, "attachments": [], "resolution": None},
             {**_LINE, "attachments": ["scenes/a.ppm", "scenes/b.ppm"], "resolution": "fix"}]
    path.write_text("".join(json.dumps(d) + "\n" for d in lines))
    got = [(r.attachment_paths, r.resolution) for r in load_corpus(path)]
    assert got == [((), None), ((), None), (("scenes/a.ppm", "scenes/b.ppm"), "fix")]


@pytest.mark.parametrize("bad", [{"attachments": "scenes/x.ppm"}, {"attachments": None},
                                 {"attachments": ["a.ppm", 3]}, {"resolution": 5},
                                 {"resolution": ["fix"]}])
def test_ticket_attachments_and_resolution_are_typed_at_load(tmp_path, bad):
    path = tmp_path / "tickets.jsonl"
    path.write_text(json.dumps(_LINE) + "\n" + json.dumps({**_LINE, **bad}) + "\n")
    with pytest.raises(ConsistencyError,
                       match=re.escape(f"{path}:2: bad ticket: {next(iter(bad))}")):
        load_corpus(path)


# ---------------------------------------------------------------------------
# savings

def test_savings_worked_example_is_exact():
    s = savings(1_200_000, 0.9, 0.8)
    assert s.assign_hours == 54_000.0
    assert s.resolve_hours == 160_000.0
    assert s.total_hours == 214_000.0


def test_savings_zero_coverage():
    s = savings(1_000_000, 0.0, 0.0)
    assert s.total_hours == 0.0


def test_savings_coverage_validation():
    with pytest.raises(ParameterError):
        savings(1000, 1.5, 0.5)
    with pytest.raises(ParameterError):
        savings(1000, 0.5, -0.1)


@pytest.mark.parametrize("n", [-1000, -1e-9, math.nan, math.inf, -math.inf])
def test_savings_ticket_volume_validation(n):
    with pytest.raises(ParameterError, match="tickets per year"):
        savings(n, 0.9, 0.8)


# ---------------------------------------------------------------------------
# triage orchestration (stub classifiers give exact confidence control)

class _Stub:
    def __init__(self, label, conf):
        self._out = (label, conf)

    def predict(self, text):
        return self._out


def _models(resolv_conf, cat_conf, resolv="net-ops", cat=None, subfield_conf=0.9):
    cat = cat or compose_category("network", "vpn", "timeout")
    f1, f2, f3 = cat.split(CATEGORY_SEP)
    return TriageModels(
        vectorizer=TfidfVectorizer().fit(["vpn timeout"]),
        resolver_pair=(_Stub(resolv, resolv_conf), _Stub(resolv, resolv_conf)),
        category_pair=(_Stub(cat, cat_conf), _Stub(cat, cat_conf)),
        subfield_models={
            "category_f1": _Stub(f1, subfield_conf),
            "category_f2": _Stub(f2, subfield_conf),
            "category_f3": _Stub(f3, subfield_conf),
        },
    )


@pytest.fixture
def components():
    cat = compose_category("network", "vpn", "timeout")
    other = compose_category("hardware", "printer", "driver")
    docs = [
        IndexDoc("t1", "vpn tunnel timeout reconnect", {
            "resolver_group": "net-ops", "category_f1": "network",
            "category_f2": "vpn", "category_f3": "timeout"},
            category=cat, resolution="restart the vpn client"),
        IndexDoc("t2", "printer driver vpn jam", {
            "resolver_group": "hw", "category_f1": "hardware",
            "category_f2": "printer", "category_f3": "driver"},
            category=other, resolution="reinstall the driver"),
    ]
    index = SearchIndex(docs)
    pool = ResourcePool([d.text for d in docs], ["kb article about vpn timeout"])
    db = ResolutionDB({cat: "restart the vpn client"})
    adapter = LocalWebAdapter([{"id": "kb1", "title": "vpn timeout",
                                "body": "check the gateway"}])
    return cat, index, pool, db, adapter


def test_triage_short_head_path(components):
    cat, index, pool, db, adapter = components
    result = triage("vpn timeout", _models(0.9, 0.9, cat=cat), db, index,
                    adapter, pool)
    assert result.path == "short_head"
    assert result.resolver_group == "net-ops"
    assert not result.manual_queue
    assert result.problem_category == cat
    assert result.resolutions == ["restart the vpn client"]


def test_triage_confident_category_without_resolution_searches_the_tail(components):
    """Both gates confident on a category with no curated resolution: the
    ticket keeps its resolver group and gets searched suggestions."""
    cat, index, pool, db, adapter = components
    missing = compose_category("storage", "disk", "full")
    result = triage("vpn timeout", _models(0.9, 0.9, cat=missing), db, index,
                    adapter, pool)
    assert result.path == "long_tail"
    assert result.resolver_group == "net-ops"
    assert not result.manual_queue
    assert 0 < len(result.resolutions) <= 5


def test_triage_long_tail_with_resolver_filter(components):
    cat, index, pool, db, adapter = components
    result = triage("vpn timeout", _models(0.9, 0.2, cat=cat), db, index,
                    adapter, pool)
    assert result.path == "long_tail"
    assert result.resolver_group == "net-ops"
    assert not result.manual_queue
    assert result.problem_category == cat
    assert 0 < len(result.resolutions) <= 5
    # the resolver filter keeps the hardware doc out of the corpus results
    corpus_hits = [r for r in result.results if r.source == "ticket_corpus"]
    assert all(r.doc_id != "t2" for r in corpus_hits)


def test_triage_manual_queue_on_low_resolver_confidence(components):
    cat, index, pool, db, adapter = components
    result = triage("vpn timeout", _models(0.2, 0.2, cat=cat), db, index,
                    adapter, pool)
    assert result.path == "long_tail"
    assert result.resolver_group is None
    assert result.manual_queue
    assert result.resolutions  # federated suggestions still returned


def test_triage_degrades_when_web_adapter_fails(components):
    cat, index, pool, db, _ = components

    def broken(query):
        raise ConnectionError("upstream down")

    result = triage("vpn timeout", _models(0.9, 0.2, cat=cat), db, index,
                    broken, pool)
    assert result.path == "long_tail"
    assert "web_search_unavailable" in result.degraded
    assert result.resolutions  # corpus-only results still flow through


def test_triage_without_adapter_is_flagged(components):
    cat, index, pool, db, _ = components
    result = triage("vpn timeout", _models(0.9, 0.2, cat=cat), db, index,
                    None, pool)
    assert "web_search_unavailable" in result.degraded


def test_triage_relaxes_overconstraining_filters(components):
    cat, index, pool, db, adapter = components
    models = _models(0.9, 0.2, resolv="no-such-group", cat=cat)
    result = triage("vpn timeout", models, db, index, adapter, pool)
    assert "search_filters_relaxed" in result.degraded
    assert result.resolutions


def test_triage_cutoffs_respected(components):
    cat, index, pool, db, adapter = components
    cutoffs = TriageCutoffs(conf_resolv=0.95, conf_prob=0.95,
                            conf_subfield=0.6, top_n=1)
    result = triage("vpn timeout", _models(0.9, 0.9, cat=cat), db, index,
                    adapter, pool, cutoffs)
    assert result.path == "long_tail"
    assert len(result.resolutions) <= 1


def test_triage_vectorizes_each_ticket_once(bundle, monkeypatch):
    """External tracers patch these attributes; a long-tail ticket is
    transformed once and the row reaches both ensembles and all seven heads."""
    from tickettriage import classify, recommend

    calls = {}

    def count(owner, attr, key):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    count(classify.TfidfVectorizer, "transform", "transform")
    count(recommend, "ensemble_predict", "ensemble_predict")
    count(classify.TextClassifierModel, "predict", "predict")

    result = triage("Vpn drops every hour. VPN Client reported Error 789.",
                    bundle.models, bundle.resolution_db, bundle.index, None, bundle.pool,
                    TriageCutoffs(conf_prob=1.0))
    assert result.path == "long_tail"
    assert calls == {"transform": 1, "ensemble_predict": 2, "predict": 7}

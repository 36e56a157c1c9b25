import os

import pytest

from tickettriage.classify import TfidfVectorizer
from tickettriage.errors import TrainingError
from tickettriage.recommend import SUBFIELDS
from tickettriage.training import enrich_text_only, train_bundle


def test_enrich_text_only_inserts_annotations():
    out = enrich_text_only("Outlook keeps failing with Error 42 on Win10")
    assert "[<errcode> = Error 42]" in out
    assert "[<appname> = Outlook]" in out
    assert "[<os> = Windows]" in out


def test_enrich_text_only_passthrough_without_entities():
    text = "it is broken please help"
    assert enrich_text_only(text) == text


def test_train_bundle_empty_corpus(tmp_path):
    (tmp_path / "tickets.jsonl").write_text("")
    (tmp_path / "resolutions.json").write_text("{}")
    with pytest.raises(TrainingError):
        train_bundle(str(tmp_path))


def test_trained_bundle_is_complete(bundle):
    assert isinstance(bundle.models.vectorizer, TfidfVectorizer)
    assert len(bundle.models.resolver_pair) == 2
    assert len(bundle.models.category_pair) == 2
    assert set(bundle.models.subfield_models) == set(SUBFIELDS)
    assert bundle.lm is not None
    assert bundle.filter_model is not None
    assert bundle.category_model is not None
    assert bundle.web_pages
    assert 0.0 < bundle.meta["head_fraction"] < 1.0


def test_trained_classifiers_route_clear_tickets(bundle):
    text = enrich_text_only(
        "Vpn drops every hour on Windows 10. VPN Client reported Error 789.")
    label, conf = bundle.models.resolver_pair[0].predict(
        bundle.models.vectorizer.transform([text]))
    assert label == "network-ops"


def test_training_is_deterministic(corpus_dir, bundle):
    import numpy as np
    again = train_bundle(corpus_dir, seed=1)
    m1 = bundle.models.resolver_pair[0]
    m2 = again.models.resolver_pair[0]
    assert m1.classes == m2.classes
    for key in m1.params:
        assert np.array_equal(m1.params[key], m2.params[key])
    assert np.array_equal(bundle.filter_model.W1, again.filter_model.W1)


def test_bundle_holds_one_vectorizer(bundle):
    import io
    import pickle

    seen = set()

    class Pickler(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, TfidfVectorizer):
                seen.add(id(obj))
            return None

    Pickler(io.BytesIO(), protocol=4).dump(bundle)
    assert seen == {id(bundle.models.vectorizer)}

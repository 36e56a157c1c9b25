import copy
import os
import pickle

import numpy as np
import pytest

from tickettriage.bundle import FORMAT_VERSION, load_bundle, save_bundle
from tickettriage.errors import ConsistencyError
from tickettriage.evalharness import triage_records
from tickettriage.fixtures import term_dictionary, word_lm
from tickettriage.recommend import TriageCutoffs, load_corpus


def test_bundle_round_trip(bundle, tmp_path):
    path = tmp_path / "m.bin"
    save_bundle(bundle, str(path))
    loaded = load_bundle(str(path))
    assert loaded.meta == bundle.meta
    text = "Vpn drops every hour. VPN Client reported Error 789."
    assert (loaded.models.resolver_pair[0].predict(loaded.models.vectorizer.transform([text]))
            == bundle.models.resolver_pair[0].predict(bundle.models.vectorizer.transform([text])))
    # the derived components are rebuilt on load
    assert loaded.lm is word_lm() and loaded.term_dictionary is term_dictionary()
    assert loaded.pool is not bundle.pool
    assert loaded.pool.resource_scores(text) == bundle.pool.resource_scores(text)


def test_bundle_serialization_is_byte_stable(bundle, tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_bundle(bundle, str(p1))
    save_bundle(bundle, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("mode", ["text", "multimodal"])
def test_loaded_bundle_decides_like_the_trained_one(bundle, bundle_path, corpus_dir, mode):
    records = load_corpus(os.path.join(corpus_dir, "tickets.jsonl"))[:60]
    loaded = load_bundle(bundle_path)

    def rows(b):
        return [row for _, row in triage_records(corpus_dir, records, b, mode, TriageCutoffs())]

    want = rows(bundle)
    assert rows(loaded) == want
    assert {"short_head", "long_tail"} <= {row["path"] for row in want}


def _pickled_layout(root) -> dict[str, tuple[str, ...]]:
    """module.qualname of every object reachable from root's pickle state,
    with the attribute names it pickles (none for a non-dict state)."""
    found: dict[str, set] = {}
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (str, bytes, int, float, type(None), type)) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if type(obj) in (list, tuple, set, frozenset):
            stack.extend(obj)
            continue
        if type(obj) is dict:
            stack.extend(obj.items())
            continue
        cls = type(obj)
        names = found.setdefault(f"{cls.__module__}.{cls.__qualname__}", set())
        if isinstance(obj, np.ndarray) and obj.dtype != object:
            continue  # numbers only; the dtype's own class is numpy's business
        reduced = obj.__reduce_ex__(4)
        state = reduced[2] if len(reduced) > 2 else None
        if isinstance(state, dict):
            names.update(state)
            stack.extend(state.values())
        else:
            stack.extend(reduced[1])
            stack.append(state)
    return {name: tuple(sorted(attrs)) for name, attrs in found.items()}


# What a version-4 bundle pickles. A change here breaks older readers of the
# same version byte, so it comes with a new FORMAT_VERSION.
_LAYOUT_V4 = {
    "numpy.ndarray": (),
    "tickettriage.bundle.ModelBundle": (
        "category_model", "detection_params", "filter_model", "index", "meta", "models",
        "resolution_db", "web_pages"),
    "tickettriage.classify.TextClassifierModel": (
        "calib_a", "calib_b", "classes", "kind", "params"),
    "tickettriage.classify.TfidfVectorizer": ("idf", "max_features", "vocab"),
    "tickettriage.imaging.DetectionParams": (
        "canny_high", "canny_low", "gaussian_sigma", "hough_min_line_frac",
        "iou_dedup_threshold", "min_window_h", "min_window_w", "window_conf_cutoff"),
    "tickettriage.imaging.WindowCategoryModel": (
        "app_bias", "app_classes", "app_weights", "mean", "os_bias", "os_classes",
        "os_weights", "scale"),
    "tickettriage.imaging.WindowFilterModel": ("W1", "b1", "b2", "mean", "scale", "w2"),
    "tickettriage.recommend.ResolutionDB": ("entries",),
    "tickettriage.recommend.TriageModels": (
        "category_pair", "resolver_pair", "subfield_models", "vectorizer"),
    "tickettriage.search.IndexDoc": ("category", "doc_id", "fields", "resolution", "text"),
    "tickettriage.search.SearchIndex": ("docs",),
}


def test_pickled_layout_is_pinned_to_the_format_version(bundle):
    assert FORMAT_VERSION == 4
    layout = _pickled_layout(bundle)
    assert layout == _LAYOUT_V4, "the pickled layout changed: bump FORMAT_VERSION"
    data = pickle.dumps(bundle, protocol=4)
    for derived in ("WordLM", "Dictionary", "ResourcePool", "ResourceRep"):
        assert not any(name.endswith("." + derived) for name in layout), derived
        assert derived.encode() not in data, derived


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE\x01something")
    with pytest.raises(ConsistencyError):
        load_bundle(str(path))


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"TT")
    with pytest.raises(ConsistencyError):
        load_bundle(str(path))


# 1 kept one vectorizer per head, 2 pickled the index's posting lists,
# 3 pickled the LM, the term dictionary and the resource pool
@pytest.mark.parametrize("version", [1, 2, 3, 99])
def test_load_rejects_other_format_versions(bundle_path, tmp_path, version):
    data = bytearray(open(bundle_path, "rb").read())
    data[4] = version
    path = tmp_path / "m.bin"
    path.write_bytes(bytes(data))
    with pytest.raises(ConsistencyError, match=f"version {version}"):
        load_bundle(str(path))


def test_load_rejects_bundle_without_vectorizer(bundle, tmp_path):
    broken = copy.copy(bundle)
    broken.models = copy.copy(bundle.models)
    broken.models.vectorizer = None
    path = tmp_path / "m.bin"
    save_bundle(broken, str(path))
    with pytest.raises(ConsistencyError):
        load_bundle(str(path))


def test_load_rejects_models_of_the_wrong_type(bundle, tmp_path):
    broken = copy.copy(bundle)
    broken.models = bundle.resolution_db  # a package object without the heads
    path = tmp_path / "m.bin"
    save_bundle(broken, str(path))
    with pytest.raises(ConsistencyError, match="wrong type"):
        load_bundle(str(path))


# a page without title or body, and no index: the pool cannot be rebuilt
@pytest.mark.parametrize("field, value", [("web_pages", [{"id": "w1"}]), ("index", None)],
                         ids=["web_pages", "index"])
def test_load_rejects_a_payload_whose_derived_fields_cannot_be_rebuilt(bundle, tmp_path,
                                                                        field, value):
    broken = copy.copy(bundle)
    setattr(broken, field, value)
    path = tmp_path / "m.bin"
    save_bundle(broken, str(path))
    with pytest.raises(ConsistencyError, match=str(path)):
        load_bundle(str(path))

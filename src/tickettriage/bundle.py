"""Trained-model bundle serialization.

A bundle is a single file: 4-byte magic, 1 format-version byte, then a
pickle of the model objects. Loading validates the header and that every
component the triage pipeline needs is present.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from .classify import TextClassifierModel, TfidfVectorizer
from .errors import ConsistencyError
from .imaging import DetectionParams, WindowCategoryModel, WindowFilterModel
from .recommend import SUBFIELDS, ResolutionDB, TriageModels
from .search import ResourcePool, SearchIndex
from .textextract import Dictionary, WordLM

MAGIC = b"TTRG"
# 2: one tf-idf vectorizer on TriageModels, shared by all heads
# 3: the search index pickles only its docs and rebuilds its arrays on load
FORMAT_VERSION = 3


@dataclass
class ModelBundle:
    models: TriageModels
    resolution_db: ResolutionDB
    index: SearchIndex
    pool: ResourcePool
    lm: WordLM
    term_dictionary: Dictionary
    filter_model: WindowFilterModel
    category_model: WindowCategoryModel
    detection_params: DetectionParams
    web_pages: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def save_bundle(bundle: ModelBundle, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([FORMAT_VERSION]))
        pickle.dump(bundle, fh, protocol=4)


def load_bundle(path: str) -> ModelBundle:
    with open(path, "rb") as fh:
        header = fh.read(5)
        if len(header) < 5 or header[:4] != MAGIC:
            raise ConsistencyError(f"{path} is not a model bundle")
        if header[4] != FORMAT_VERSION:
            raise ConsistencyError(
                f"unsupported bundle format version {header[4]} (expected {FORMAT_VERSION})")
        bundle = pickle.load(fh)
    _validate(bundle)
    return bundle


def _validate(bundle: ModelBundle) -> None:
    if not isinstance(bundle, ModelBundle):
        raise ConsistencyError("bundle payload has the wrong type")
    if not isinstance(getattr(bundle.models, "vectorizer", None), TfidfVectorizer):
        raise ConsistencyError("bundle is missing the tf-idf vectorizer")
    for name in ("resolver_pair", "category_pair"):
        pair = getattr(bundle.models, name)
        if len(pair) != 2 or not all(isinstance(m, TextClassifierModel) for m in pair):
            raise ConsistencyError(f"bundle is missing the {name} ensemble")
    missing = [sf for sf in SUBFIELDS if sf not in bundle.models.subfield_models]
    if missing:
        raise ConsistencyError(f"bundle is missing sub-field models: {missing}")
    for attr in ("resolution_db", "index", "pool", "lm", "term_dictionary",
                 "filter_model", "category_model", "detection_params"):
        if getattr(bundle, attr, None) is None:
            raise ConsistencyError(f"bundle is missing component {attr!r}")

"""Trained-model bundle serialization.

A bundle is a single file: 4-byte magic, 1 format-version byte, then a
pickle of what training learned; the OCR LM, term dictionary and resource
pool are rebuilt on load. Loading validates the header, the payload (any
failure to read it is a ConsistencyError) and every component triage needs.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, fields

from .classify import TextClassifierModel, TfidfVectorizer
from .errors import ConsistencyError
from .fixtures import term_dictionary, word_lm
from .imaging import DetectionParams, WindowCategoryModel, WindowFilterModel
from .recommend import SUBFIELDS, ResolutionDB, TriageModels
from .search import ResourcePool, SearchIndex
from .textextract import Dictionary, WordLM

MAGIC = b"TTRG"
# 2: one tf-idf vectorizer on TriageModels, shared by all heads
# 3: the search index pickles only its docs and rebuilds its arrays on load
# 4: the LM, term dictionary and resource pool are derived, not pickled
FORMAT_VERSION = 4


@dataclass
class ModelBundle:
    models: TriageModels
    resolution_db: ResolutionDB
    index: SearchIndex
    filter_model: WindowFilterModel
    category_model: WindowCategoryModel
    detection_params: DetectionParams
    web_pages: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    lm: WordLM = field(init=False)
    term_dictionary: Dictionary = field(init=False)
    pool: ResourcePool = field(init=False)

    def __post_init__(self) -> None:
        self.lm = word_lm()
        self.term_dictionary = term_dictionary()
        self.pool = ResourcePool([d.text for d in self.index.docs],
                                 [f"{p['title']} {p['body']}" for p in self.web_pages])

    def __getstate__(self) -> dict:  # the init fields; the derived ones are rebuilt
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)  # a missing or unknown field fails the load


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
        try:
            bundle = pickle.load(fh)
        except Exception as exc:  # a truncated or corrupt payload, or a bad derived field
            raise ConsistencyError(f"{path}: unreadable bundle payload: {exc!r}") from exc
    _validate(bundle)
    return bundle


def _validate(bundle: ModelBundle) -> None:
    if not isinstance(bundle, ModelBundle) or not isinstance(bundle.models, TriageModels):
        raise ConsistencyError("bundle payload has the wrong type")
    if not isinstance(bundle.models.vectorizer, TfidfVectorizer):
        raise ConsistencyError("bundle is missing the tf-idf vectorizer")
    for name in ("resolver_pair", "category_pair"):
        pair = getattr(bundle.models, name)
        if len(pair) != 2 or not all(isinstance(m, TextClassifierModel) for m in pair):
            raise ConsistencyError(f"bundle is missing the {name} ensemble")
    missing = [sf for sf in SUBFIELDS if sf not in bundle.models.subfield_models]
    if missing:
        raise ConsistencyError(f"bundle is missing sub-field models: {missing}")
    for attr in ("resolution_db", "filter_model", "category_model", "detection_params"):
        if getattr(bundle, attr, None) is None:
            raise ConsistencyError(f"bundle is missing component {attr!r}")

"""Training orchestration: builds a complete model bundle from a generated
corpus directory (text classifiers, window models, search index, resolution
DB); the bundle itself builds its OCR LM, term dictionary and resource pool.
"""

from __future__ import annotations

import os

import numpy as np
from scipy import sparse

from .bundle import ModelBundle
from .classify import TfidfVectorizer, train_classifier
from .enrichment import extract_entities, fill_slots
from .errors import TrainingError
from .fixtures import entity_dictionaries
from .imaging import (
    DetectionParams,
    candidate_boxes,
    iou,
    train_category_model,
    train_filter_model,
    window_features,
)
from .recommend import (
    SUBFIELDS,
    ResolutionDB,
    TriageModels,
    load_corpus,
    load_web_pages,
    split_head_tail,
)
from .search import IndexDoc, SearchIndex
from .synthgen import random_scene, render_scene


def enrich_text_only(text: str) -> str:
    """Text-mode enrichment: entities from the ticket text alone."""
    entities = extract_entities(text, entity_dictionaries())
    return fill_slots(text, entities).enriched_text


def _window_training_set(seed: int):
    """Window-filter training data mined from the detectors' own candidates:
    every size-filtered candidate box is labeled by IoU against the ground
    truth, so the filter learns the exact false-positive distribution it will
    see at detection time. Ground-truth boxes are added as extra positives
    and provide the category labels. The scenes are 400 seeded renders, and
    the candidates come from the DetectionParams() that train_bundle stores."""
    params = DetectionParams()
    X, y, X_cat, app_labels, os_labels = [], [], [], [], []
    for k in range(400):
        spec = random_scene(seed * 1009 + k, n_windows=1 + k % 3, overlap="light")
        img, gt = render_scene(spec)
        gold = [r for r, _, _ in gt.boxes]
        for rect, kind, theme in gt.boxes:
            feats = window_features(img, rect)
            X.append(feats)
            y.append(1)
            X_cat.append(feats)
            app_labels.append(kind)
            os_labels.append(theme)
        seen: set = set()
        for c in candidate_boxes(img, params):
            if c.rect in seen:
                continue
            seen.add(c.rect)
            best = max((iou(c.rect, g) for g in gold), default=0.0)
            if 0.45 <= best < 0.65:
                continue  # ambiguous: neither a clean frame nor a clear miss
            X.append(window_features(img, c.rect))
            y.append(1 if best >= 0.65 else 0)
    return np.array(X), np.array(y), np.array(X_cat), app_labels, os_labels


def _tfidf_matrix(vectorizer: TfidfVectorizer, texts: list[str]) -> sparse.csr_matrix:
    """vectorizer.transform(texts) as CSR, 256 texts at a time: every head
    trains and calibrates on row slices of it, and a dense tickets x
    vocabulary matrix would stay resident through all of them."""
    return sparse.vstack([sparse.csr_matrix(vectorizer.transform(texts[i:i + 256]))
                          for i in range(0, len(texts), 256)], format="csr")


def train_bundle(corpus_dir: str, seed: int = 0) -> ModelBundle:
    """Train every pipeline component from a corpus directory."""
    corpus = load_corpus(os.path.join(corpus_dir, "tickets.jsonl"))
    if not corpus:
        raise TrainingError("empty training corpus")
    db = ResolutionDB.from_file(os.path.join(corpus_dir, "resolutions.json"))
    pages_path = os.path.join(corpus_dir, "webpages.jsonl")
    web_pages = load_web_pages(pages_path) if os.path.exists(pages_path) else []

    freq_threshold = max(2, len(corpus) // 50)
    split = split_head_tail(corpus, freq_threshold, db)

    texts = [enrich_text_only(r.text) for r in corpus]
    vectorizer = TfidfVectorizer().fit(texts)
    X = _tfidf_matrix(vectorizer, texts)
    resolver_labels = [r.resolver_group for r in corpus]
    category_labels = [r.category for r in corpus]

    resolver_pair = (
        train_classifier(X, resolver_labels, "linear_ovr_margin", seed),
        train_classifier(X, resolver_labels, "feedforward_1hidden", seed + 1),
    )
    category_pair = (
        train_classifier(X, category_labels, "linear_ovr_margin", seed + 2),
        train_classifier(X, category_labels, "feedforward_1hidden", seed + 3),
    )
    subfield_models = {
        sf: train_classifier(X, [getattr(r, sf) for r in corpus],
                             "linear_ovr_margin", seed + 4 + i)
        for i, sf in enumerate(SUBFIELDS)
    }
    models = TriageModels(vectorizer, resolver_pair, category_pair, subfield_models)

    docs = [
        IndexDoc(r.id, r.text + (" " + r.resolution if r.resolution else ""),
                 {"resolver_group": r.resolver_group, **{sf: getattr(r, sf) for sf in SUBFIELDS}},
                 category=r.category, resolution=r.resolution)
        for r in corpus
    ]
    index = SearchIndex(docs)

    Xw, yw, Xcat, app_labels, os_labels = _window_training_set(seed)
    filter_model = train_filter_model(Xw, yw, seed)
    category_model = train_category_model(Xcat, app_labels, os_labels, seed)

    return ModelBundle(
        models=models,
        resolution_db=db,
        index=index,
        filter_model=filter_model,
        category_model=category_model,
        detection_params=DetectionParams(),
        web_pages=web_pages,
        meta={"seed": seed, "n_tickets": len(corpus),
              "freq_threshold": freq_threshold,
              "head_fraction": split.head_fraction,
              "head_categories": sorted(split.head_categories)},
    )


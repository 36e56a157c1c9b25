"""Training orchestration: builds a complete model bundle from a generated
corpus directory (text classifiers, window models, search index, resolution
DB); the bundle itself builds its OCR LM, term dictionary and resource pool.

Mining the window-filter scenes is most of the cost; it runs across the CPUs
of the process's affinity, and the bundle is byte-identical for any CPU count
(see _window_training_set). A tracer that wraps the mining stages in this
process sees only the calling process's share of the scenes: perfbench's
`training.window_mining_s` times that share.
"""

from __future__ import annotations

import ctypes
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context

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


_SCENES = 400  # seeded renders mined for the window models


def _mine_scene(seed: int, k: int):
    """Rows, labels, category rows and app/OS labels mined from scene k: the
    ground-truth boxes first, then each new candidate that is not ambiguous."""
    params = DetectionParams()
    spec = random_scene(seed * 1009 + k, n_windows=1 + k % 3, overlap="light")
    img, gt = render_scene(spec)
    gold = [r for r, _, _ in gt.boxes]
    X, y, X_cat, app_labels, os_labels = [], [], [], [], []
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
    return X, y, X_cat, app_labels, os_labels


def _mine_share(seed: int, first: int, step: int) -> list:
    """_mine_scene of scenes first, first + step, ... in order."""
    return [_mine_scene(seed, k) for k in range(first, _SCENES, step)]


def _die_with(parent: int) -> None:
    """Worker initializer: the kernel kills this worker when its parent dies
    (prctl PR_SET_PDEATHSIG). Without it, a killed trainer leaves its workers
    blocked for good on their result pipes."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    if prctl(1, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:  # the parent died before the prctl
        os._exit(1)


def _window_training_set(seed: int):
    """Window-filter training data mined from the detectors' own candidates:
    every size-filtered candidate box is labeled by IoU against the ground
    truth, so the filter learns the exact false-positive distribution it will
    see at detection time. Ground-truth boxes are added as extra positives
    and provide the category labels. The scenes are 400 seeded renders, and
    the candidates come from the DetectionParams() that train_bundle stores.

    The scenes are independent, so they are mined across the n CPUs of the
    process's affinity: share j is scenes j, j + n, ... (scene cost cycles
    with k % 3). This process mines share 0 and forked workers the others;
    the rows are put back in scene order, so the result, and the bundle, are
    the same bytes for any n. With one CPU nothing is submitted and no
    process starts. A worker's exception reaches the caller as itself; a
    worker that dies raises TrainingError; a worker dies with the caller."""
    n = len(os.sched_getaffinity(0))
    try:
        # A pool needs one worker at least; it starts none until a submit. Fork:
        # workers reuse the loaded package, and the pool forks them all at the
        # first submit, before it starts its own thread.
        with ProcessPoolExecutor(max(n - 1, 1), mp_context=get_context("fork"),
                                 initializer=_die_with, initargs=(os.getpid(),)) as pool:
            futures = [pool.submit(_mine_share, seed, j, n) for j in range(1, n)]
            shares = [_mine_share(seed, 0, n)] + [f.result() for f in futures]
    except BrokenProcessPool as exc:
        raise TrainingError(f"a window-mining worker died: {exc}") from exc
    scenes = [shares[k % n][k // n] for k in range(_SCENES)]
    X, y, X_cat, app_labels, os_labels = ([v for scene in scenes for v in scene[i]]
                                          for i in range(5))
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


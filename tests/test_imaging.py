import logging
import time

import numpy as np
import pytest

from tickettriage.errors import ParameterError
from tickettriage.imaging import (
    N_FEATURES,
    CandidateBox,
    DetectionParams,
    Rect,
    blurred_gray,
    canny_edges,
    dedup,
    detect_contour_boxes,
    detect_edge_boxes,
    detect_windows,
    iou,
    size_filter,
    window_features,
)
from tickettriage.raster import GrayRaster, Raster, gaussian_blur
from tickettriage.synthgen import random_scene, render_scene


def test_rect_rejects_degenerate():
    with pytest.raises(ParameterError):
        Rect(0, 0, 0, 5)


def test_rect_geometry():
    a = Rect(0, 0, 10, 10)
    b = Rect(5, 5, 10, 10)
    assert a.area == 100
    assert a.intersection_area(b) == 25
    assert a.contains(Rect(2, 2, 3, 3))
    assert not a.contains(b)


def test_iou_known_values():
    a = Rect(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, Rect(20, 20, 5, 5)) == 0.0
    # intersection 50, union 150
    assert abs(iou(a, Rect(5, 0, 10, 10)) - 50 / 150) < 1e-12


def _oracle_dedup(boxes, threshold):
    """Independent quadratic re-implementation of greedy IoU suppression."""
    ordered = sorted(boxes, key=lambda b: (-b.rect.area, b.rect, b.source))
    kept = []
    for box in ordered:
        ok = True
        for k in kept:
            if iou(box.rect, k.rect) >= threshold:
                ok = False
        if ok:
            kept.append(box)
    return kept


def test_dedup_matches_quadratic_oracle():
    rng = np.random.RandomState(11)
    p = DetectionParams()
    for _ in range(200):
        boxes = [
            CandidateBox(Rect(int(rng.randint(0, 60)), int(rng.randint(0, 60)),
                              int(rng.randint(5, 50)), int(rng.randint(5, 50))),
                         "contour" if rng.rand() < 0.5 else "edge")
            for _ in range(rng.randint(1, 12))
        ]
        assert dedup(boxes, p, {}) == _oracle_dedup(boxes, p.iou_dedup_threshold)


def test_dedup_kept_boxes_mutually_below_threshold():
    rng = np.random.RandomState(3)
    p = DetectionParams()
    boxes = [
        CandidateBox(Rect(int(rng.randint(0, 80)), int(rng.randint(0, 80)),
                          int(rng.randint(10, 60)), int(rng.randint(10, 60))), "edge")
        for _ in range(40)
    ]
    kept = dedup(boxes, p, {})
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert iou(a.rect, b.rect) < p.iou_dedup_threshold


def test_size_filter():
    p = DetectionParams(min_window_w=40, min_window_h=30)
    small = CandidateBox(Rect(0, 0, 39, 30), "contour")
    big = CandidateBox(Rect(0, 0, 40, 30), "contour")
    assert size_filter([small, big], p) == [big]


def test_canny_blank_image_has_no_edges():
    gray = GrayRaster(np.full((40, 40), 120, dtype=np.uint8))
    edges = canny_edges(gaussian_blur(gray, 1.0), 40.0, 120.0)
    assert not edges.any()


def test_window_features_shape_and_bounds_check():
    img, _ = render_scene(random_scene(42, n_windows=1))
    f = window_features(img, Rect(5, 5, 60, 50))
    assert f.shape == (N_FEATURES,)
    with pytest.raises(ParameterError):
        window_features(img, Rect(img.width - 10, 5, 60, 50))


def test_detector_rects_lie_inside_the_image():
    """detect_windows and window-filter mining take the detectors' rects as
    they are, with no clamp: both detectors build them from pixel indices."""
    from test_screenshot_oracle import _oracle_scenes
    p = DetectionParams()
    n_rects = 0
    for name, img, _ in _oracle_scenes():
        blurred = blurred_gray(img, p)
        for c in detect_contour_boxes(blurred) + detect_edge_boxes(blurred, p):
            assert c.rect.within_image(img), (name, c)
            n_rects += 1
    assert n_rects > 300


def test_detectors_find_isolated_windows():
    """Each raw detector hits most single-window scenes; their union hits all.

    Neither raw stage is expected to be perfect on its own — that is why the
    pipeline combines them — so the per-detector bound is a majority, not 100%.
    """
    contour_hits = edge_hits = union_hits = 0
    seeds = range(1200, 1220)
    for seed in seeds:
        img, gt = render_scene(random_scene(seed, n_windows=1))
        gold = gt.boxes[0][0]
        p = DetectionParams()
        blurred = blurred_gray(img, p)
        c = any(iou(b.rect, gold) >= 0.5 for b in detect_contour_boxes(blurred))
        e = any(iou(b.rect, gold) >= 0.5 for b in detect_edge_boxes(blurred, p))
        contour_hits += c
        edge_hits += e
        union_hits += c or e
    assert union_hits == len(seeds)
    assert contour_hits >= len(seeds) // 2
    assert edge_hits >= len(seeds) // 2


def test_detection_params_validation():
    with pytest.raises(ParameterError):
        DetectionParams(iou_dedup_threshold=1.5)
    with pytest.raises(ParameterError):
        DetectionParams(min_window_w=0)


def test_full_pipeline_detects_and_categorizes(bundle):
    kind_hits = theme_hits = 0
    seeds = range(70, 110)
    for seed in seeds:
        img, gt = render_scene(random_scene(seed, n_windows=1))
        gold_rect, gold_kind, gold_theme = gt.boxes[0]
        dets = detect_windows(img, bundle.detection_params,
                              bundle.filter_model, bundle.category_model)
        assert len(dets) == 1
        d = dets[0]
        assert iou(d.rect, gold_rect) >= 0.5
        assert d.window_confidence >= bundle.detection_params.window_conf_cutoff
        kind_hits += d.app_category == gold_kind
        theme_hits += d.os_category == gold_theme
    # the category heads are statistical models, not lookups; corpus-level
    # accuracy is gated separately in the acceptance suite
    assert kind_hits >= 24
    assert theme_hits >= 26


def test_pipeline_rejects_windowless_scene(bundle):
    img = Raster(np.full((150, 200, 3), (100, 130, 150), dtype=np.uint8))
    dets = detect_windows(img, bundle.detection_params,
                          bundle.filter_model, bundle.category_model)
    assert dets == []


def test_line_dense_screenshot_skips_edge_detector(bundle, caplog):
    """Rectangle assembly grows as lines^4: a 320x240 screen ruled by 1-px
    lines every 16 px (29 h-lines x 39 v-lines) made the edge detector run
    for minutes. Past the per-axis cap it logs a warning and proposes
    nothing, so the whole pipeline stays fast."""
    arr = np.full((240, 320, 3), 235, dtype=np.uint8)
    arr[::16, :] = 40
    arr[:, ::16] = 40
    img = Raster(arr)
    p = bundle.detection_params
    t0 = time.monotonic()
    with caplog.at_level(logging.WARNING, logger="tickettriage.imaging"):
        assert detect_edge_boxes(blurred_gray(img, p), p) == []
        detect_windows(img, p, bundle.filter_model, bundle.category_model)
    assert time.monotonic() - t0 < 5.0
    assert any("line-dense" in r.getMessage() for r in caplog.records)

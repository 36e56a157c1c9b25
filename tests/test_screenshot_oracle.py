"""Old-vs-new oracle for the vectorized screenshot path.

screenshot_reference.py holds the loop-based implementations the package
started from. On seeded scenes (1-3 windows, light and heavy overlap) and on
the brightness/contrast-augmented OCR scenes of criterion 4, the package must
reproduce them exactly: candidate lists in order with their source, feature
vectors bit for bit, detect_windows output and OCR tokens.
"""

import numpy as np

import screenshot_reference as ref
from tickettriage import imaging
from tickettriage.synthgen import augment, random_scene, render_scene
from tickettriage.textextract import GlyphOcrEngine


def _oracle_scenes():
    """(name, image, ground-truth rects to OCR besides the detections)."""
    for s in range(200):
        overlap = "light" if (s // 3) % 2 == 0 else "heavy"
        img, _ = render_scene(random_scene(41000 + s, n_windows=1 + s % 3, overlap=overlap))
        yield f"scene {s}", img, set()
    for s in range(20):  # criterion 4: clean scenes and four augmentations
        img, gt = render_scene(random_scene(7000 + s, n_windows=1))
        rects = {r for r, _, _ in gt.boxes}
        yield f"ocr scene {s}", img, rects
        for op in (("brightness", 25.0), ("brightness", -25.0),
                   ("contrast", 0.85), ("contrast", 1.2)):
            yield f"ocr scene {s} {op}", augment(img, *op), rects


def test_screenshot_path_matches_reference(bundle, monkeypatch):
    p = bundle.detection_params
    # record what the detectors return inside detect_windows
    found = {}
    for name in ("detect_contour_boxes", "detect_edge_boxes"):
        def recorder(*args, _detect=getattr(imaging, name), _name=name, **kwargs):
            found[_name] = _detect(*args, **kwargs)
            return found[_name]
        monkeypatch.setattr(imaging, name, recorder)
    engine, ref_engine = GlyphOcrEngine(), ref.GlyphOcrEngine()
    most_lines = 0
    n_scenes = 0
    for name, img, gold_rects in _oracle_scenes():
        n_scenes += 1
        lines = ref.edge_lines(img, p)
        most_lines = max(most_lines, *map(len, lines))
        ref_contour = ref.detect_contour_boxes(img, p)
        ref_edge = ref.detect_edge_boxes(img, p, lines)
        detections = imaging.detect_windows(img, p, bundle.filter_model,
                                            bundle.category_model)
        assert found.pop("detect_contour_boxes") == ref_contour, name
        assert found.pop("detect_edge_boxes") == ref_edge, name
        assert detections == ref.detect_windows(img, p, bundle.filter_model,
                                                 bundle.category_model,
                                                 candidates=ref_contour + ref_edge), name

        for rect in {c.rect for c in ref_contour + ref_edge if c.rect.within_image(img)}:
            assert np.array_equal(imaging.window_features(img, rect),
                                  ref.window_features(img, rect)), (name, rect)

        for rect in gold_rects | {d.rect for d in detections}:
            assert engine(img, rect) == ref_engine(img, rect), (name, rect)
    assert n_scenes == 300
    # the line cap must never cut in on the scenes the pipeline is built for
    assert most_lines < imaging.MAX_LINES_PER_AXIS


def test_ocr_engine_matches_reference_on_damaged_text():
    """A solid block over one token (occlusion marks) and random ink over
    another (poor matches), read on the exact frame and one pixel inside."""
    ref_engine = ref.GlyphOcrEngine()
    for seed in range(40):
        rng = np.random.RandomState(seed)
        img, gt = render_scene(random_scene(seed, n_windows=1))
        rect = gt.boxes[0][0]
        tokens = [t.rect for t in gt.texts[0]]
        hidden = tokens[seed % len(tokens)]
        img.array[hidden.y:hidden.y2 + 2, hidden.x:hidden.x2] = (60, 60, 60)
        noisy = tokens[(seed + 1) % len(tokens)]
        band = img.array[noisy.y:noisy.y2, noisy.x:noisy.x2]
        band[rng.rand(*band.shape[:2]) < 0.2] = (30, 30, 30)
        for r in (rect, imaging.Rect(rect.x + 1, rect.y + 1, rect.w - 2, rect.h - 2)):
            assert GlyphOcrEngine()(img, r) == ref_engine(img, r), (seed, r)

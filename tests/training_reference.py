"""Window-filter mining as first written: one serial loop over the scenes.

Kept verbatim as the reference the package's per-scene, multi-process
mining must match exactly; see test_window_mining.py.
"""

import numpy as np

from tickettriage.imaging import DetectionParams, candidate_boxes, iou, window_features
from tickettriage.synthgen import random_scene, render_scene


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

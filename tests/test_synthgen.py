import numpy as np
import pytest

from tickettriage.errors import ParameterError
from tickettriage.imaging import Rect, iou
from tickettriage.synthgen import (
    SceneSpec,
    WindowSpec,
    augment,
    random_scene,
    render_scene,
)


def test_random_scene_is_deterministic():
    a = random_scene(99, n_windows=2)
    b = random_scene(99, n_windows=2)
    assert a == b


def test_render_is_deterministic():
    spec = random_scene(5, n_windows=3)
    img1, gt1 = render_scene(spec)
    img2, gt2 = render_scene(spec)
    assert img1 == img2
    assert gt1 == gt2


def test_ground_truth_matches_spec_order_and_rects():
    spec = random_scene(8, n_windows=3)
    _, gt = render_scene(spec)
    assert len(gt.boxes) == 3
    for w, (rect, kind, theme) in zip(spec.windows, gt.boxes):
        assert rect == w.rect
        assert kind == w.kind
        assert theme == w.theme


def test_occlusion_fraction_oracle():
    """Two hand-placed windows: occlusion equals intersection/area."""
    below = WindowSpec(Rect(10, 10, 100, 80), z=0, theme="windows",
                       kind="dialog", title="Setup", body_lines=("hello world",))
    above = WindowSpec(Rect(60, 30, 100, 80), z=1, theme="linux",
                       kind="console", title="shell", body_lines=("ls -la",))
    spec = SceneSpec(220, 160, "flat", (below, above), seed=0)
    _, gt = render_scene(spec)
    inter = below.rect.intersection_area(above.rect)
    assert abs(gt.occlusion[0] - inter / below.rect.area) < 1e-12
    assert gt.occlusion[1] == 0.0


def test_no_overlap_scenes_have_disjoint_windows():
    for seed in range(10):
        # three disjoint windows need more room than the default canvas
        spec = random_scene(seed, n_windows=3, overlap="none",
                            canvas_w=640, canvas_h=480)
        rects = [w.rect for w in spec.windows]
        for i, a in enumerate(rects):
            for b in rects[i + 1:]:
                assert a.intersection_area(b) == 0


def test_light_overlap_caps_iou_and_pairwise_coverage():
    for seed in range(10):
        spec = random_scene(seed, n_windows=3, overlap="light")
        rects = [w.rect for w in spec.windows]
        for i, a in enumerate(rects):
            for b in rects[i + 1:]:
                assert iou(a, b) <= 0.3 + 1e-12
                # each later window hides at most 35% of an earlier one
                assert b.intersection_area(a) / a.area <= 0.35 + 1e-12


def test_unknown_overlap_mode_rejected():
    with pytest.raises(ParameterError):
        random_scene(0, n_windows=1, overlap="extreme")


def test_augment_brightness_clamps():
    img, _ = render_scene(random_scene(2, n_windows=1))
    out = augment(img, "brightness", 300.0)
    assert (out.array == 255).all()


def test_augment_contrast_and_errors():
    img, _ = render_scene(random_scene(2, n_windows=1))
    out = augment(img, "contrast", 1.0)
    assert np.array_equal(out.array, img.array)
    with pytest.raises(ParameterError):
        augment(img, "contrast", -1.0)
    with pytest.raises(ParameterError):
        augment(img, "sharpen")


def test_augment_grayscale_equalizes_channels():
    img, _ = render_scene(random_scene(2, n_windows=1))
    out = augment(img, "grayscale").array
    assert np.array_equal(out[:, :, 0], out[:, :, 1])
    assert np.array_equal(out[:, :, 1], out[:, :, 2])


def test_augment_resize_scales_dimensions():
    img, _ = render_scene(random_scene(2, n_windows=1))
    out = augment(img, "resize", 2.0)
    assert out.width == img.width * 2
    assert out.height == img.height * 2

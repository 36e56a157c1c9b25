"""Deterministic synthetic screenshot generator with exact ground truth.

Scenes are rendered back-to-front with integer-only rasterization, so a
given SceneSpec always produces byte-identical pixels. Ground truth (window
boxes, per-token text rects, occlusion flags) is computed from the specs and
z-order geometry, never from the pixels, which makes the generator usable as
an oracle for the detection and OCR stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import font
from .errors import ParameterError
from .fixtures import phrase_bank
from .imaging import Rect, iou
from .raster import Raster, to_grayscale

THEMES = ("windows", "linux", "mac")
KINDS = ("dialog", "console", "browser", "explorer")

TITLE_H = 14
URLBAR_H = 10
SIDEBAR_W = 40

_THEME_STYLE = {
    "windows": {"title": (18, 86, 199), "title_text": (255, 255, 255),
                "buttons": "right", "button_colors": [(120, 130, 140), (200, 60, 60)]},
    "linux": {"title": (58, 54, 68), "title_text": (240, 240, 240),
              "buttons": "right", "button_colors": [(150, 150, 155), (220, 120, 40)]},
    "mac": {"title": (205, 206, 212), "title_text": (40, 40, 40),
            "buttons": "left", "button_colors": [(230, 90, 80), (230, 190, 60), (100, 200, 90)]},
}

_KIND_STYLE = {
    "dialog": {"body": (232, 232, 232), "text": (25, 25, 25)},
    "console": {"body": (14, 16, 18), "text": (130, 225, 130)},
    "browser": {"body": (250, 250, 250), "text": (25, 25, 25)},
    "explorer": {"body": (252, 252, 252), "text": (25, 25, 25)},
}

# two-tone frame: bright outer line, dark inner line. The 240-vs-20 step
# between them guarantees a strong edge along the full frame no matter what
# colors surround or fill the window.
_BORDER = (20, 20, 24)
_BORDER_OUTER = (238, 240, 244)

# desktop colors sit in a mid-luma band (~115-155) so every window surface
# (dark borders/console, mid titles, bright bodies) contrasts with them
_BACKGROUNDS = {
    "flat": [(150, 120, 70), (100, 130, 150), (170, 120, 160), (90, 150, 110)],
    "gradient_top": (150, 150, 170),
}


@dataclass(frozen=True)
class WindowSpec:
    rect: Rect
    z: int
    theme: str
    kind: str
    title: str
    body_lines: tuple[str, ...]
    has_buttons: bool = True


@dataclass(frozen=True)
class SceneSpec:
    canvas_w: int
    canvas_h: int
    background: str  # flat | gradient | noise
    windows: tuple[WindowSpec, ...]
    seed: int

    def __post_init__(self):
        if self.canvas_w < 64 or self.canvas_h < 64:
            raise ParameterError("canvas must be at least 64x64")
        zs = [w.z for w in self.windows]
        if len(zs) != len(set(zs)):
            raise ParameterError("window z values must be unique")


@dataclass(frozen=True)
class TokenTruth:
    token: str
    rect: Rect
    occluded: bool


@dataclass(frozen=True)
class GroundTruth:
    boxes: tuple[tuple[Rect, str, str], ...]  # (rect, kind, theme), spec order
    texts: tuple[tuple[TokenTruth, ...], ...]  # per window, spec order
    occlusion: tuple[float, ...]  # occluded area fraction per window


def _fill(canvas: np.ndarray, r: Rect, color) -> None:
    canvas[r.y:r.y2, r.x:r.x2] = color


def _draw_border(canvas: np.ndarray, r: Rect, color) -> None:
    canvas[r.y, r.x:r.x2] = color
    canvas[r.y2 - 1, r.x:r.x2] = color
    canvas[r.y:r.y2, r.x] = color
    canvas[r.y:r.y2, r.x2 - 1] = color


def _draw_background(canvas: np.ndarray, spec: SceneSpec) -> None:
    rng = np.random.RandomState(spec.seed ^ 0x5EED)
    base = _BACKGROUNDS["flat"][rng.randint(len(_BACKGROUNDS["flat"]))]
    h, w = canvas.shape[:2]
    if spec.background == "flat":
        canvas[:, :] = base
    elif spec.background == "gradient":
        top = np.array(_BACKGROUNDS["gradient_top"], dtype=np.float64)
        bottom = top * 0.78
        t = np.linspace(0.0, 1.0, h)[:, None]
        grad = top[None, :] * (1 - t) + bottom[None, :] * t
        canvas[:, :] = np.rint(grad)[:, None, :].astype(np.uint8)
    elif spec.background == "noise":
        noise = rng.randint(-8, 9, size=(h, w, 1))
        canvas[:, :] = np.clip(np.array(base)[None, None, :] + noise, 0, 255).astype(np.uint8)
    else:
        raise ParameterError(f"unknown background {spec.background!r}")

    # desktop clutter: small icons and the occasional non-rectangular shape;
    # deliberately below the window size floor so the pipeline filters them
    n_icons = rng.randint(2, 5)
    for _ in range(n_icons):
        iw, ih = 18, 14
        x = int(rng.randint(2, max(3, w - iw - 2)))
        y = int(rng.randint(2, max(3, h - ih - 2)))
        color = tuple(int(v) for v in rng.randint(90, 220, size=3))
        _fill(canvas, Rect(x, y, iw, ih), color)
        _draw_border(canvas, Rect(x, y, iw, ih), _BORDER)
    if rng.rand() < 0.4:
        radius = int(rng.randint(10, 18))
        cx = int(rng.randint(radius + 2, w - radius - 2))
        cy = int(rng.randint(radius + 2, h - radius - 2))
        yy, xx = np.ogrid[:h, :w]
        disk = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2
        canvas[disk] = tuple(int(v) for v in rng.randint(90, 220, size=3))


def _window_tokens(w: WindowSpec) -> list[tuple[str, Rect]]:
    """Token text + pixel rect for every word the renderer will draw."""
    tokens: list[tuple[str, Rect]] = []
    r = w.rect
    style = _THEME_STYLE[w.theme]

    title_x = r.x + 4 + (len(style["button_colors"]) * font.ADVANCE if style["buttons"] == "left" else 0)
    button_cells = len(style["button_colors"]) if style["buttons"] == "right" else 0
    max_title_cells = (r.w - 8) // font.ADVANCE - button_cells - (1 if button_cells else 0)
    title = _fit_text(w.title, max_title_cells)
    tokens.extend(_line_tokens(title, title_x, r.y + 4))

    bx = r.x + (SIDEBAR_W + 4 if w.kind == "explorer" else 4)
    by = r.y + TITLE_H + (URLBAR_H if w.kind == "browser" else 0) + 4
    max_cells = (r.x2 - 4 - bx) // font.ADVANCE
    bottom = r.y2 - (18 if w.kind == "dialog" and w.has_buttons else 4)
    for line in w.body_lines:
        if by + font.GLYPH_H > bottom:
            break
        tokens.extend(_line_tokens(_fit_text(line, max_cells), bx, by))
        by += font.LINE_HEIGHT
    return tokens


def _fit_text(text: str, max_cells: int) -> str:
    if max_cells <= 0:
        return ""
    return text[:max_cells]


def _line_tokens(line: str, x: int, y: int) -> list[tuple[str, Rect]]:
    tokens = []
    col = 0
    for word in line.split(" "):
        if word:
            wx = x + col * font.ADVANCE
            tokens.append((word, Rect(wx, y, len(word) * font.ADVANCE - 1, font.GLYPH_H)))
        col += len(word) + 1
    return tokens


def _render_window(canvas: np.ndarray, w: WindowSpec) -> None:
    r = w.rect
    theme = _THEME_STYLE[w.theme]
    kind = _KIND_STYLE[w.kind]

    _fill(canvas, r, kind["body"])
    _fill(canvas, Rect(r.x + 1, r.y + 1, r.w - 2, TITLE_H - 1), theme["title"])
    _draw_border(canvas, r, _BORDER_OUTER)
    _draw_border(canvas, Rect(r.x + 1, r.y + 1, r.w - 2, r.h - 2), _BORDER)
    canvas[r.y + TITLE_H, r.x + 2:r.x2 - 2] = _BORDER

    # title-bar buttons on the glyph grid so OCR cell alignment survives
    n_btn = len(theme["button_colors"])
    if theme["buttons"] == "left":
        cells = range(n_btn)
    else:
        total_cells = (r.w - 8) // font.ADVANCE
        cells = range(total_cells - n_btn, total_cells)
    for color, cell in zip(theme["button_colors"], cells):
        bx = r.x + 4 + cell * font.ADVANCE
        canvas[r.y + 5:r.y + 10, bx:bx + 5] = color

    if w.kind == "browser":
        _fill(canvas, Rect(r.x + 2, r.y + TITLE_H + 1, r.w - 4, URLBAR_H - 1), (214, 216, 220))
    if w.kind == "explorer":
        _fill(canvas, Rect(r.x + 2, r.y + TITLE_H + 1, SIDEBAR_W - 2, r.h - TITLE_H - 4), (228, 231, 238))
    if w.kind == "dialog" and w.has_buttons:
        _fill(canvas, Rect(r.x2 - 62, r.y2 - 16, 26, 12), (202, 204, 208))
        _fill(canvas, Rect(r.x2 - 32, r.y2 - 16, 26, 12), (202, 204, 208))

    clip = (r.x + 1, r.y + 1, r.x2 - 1, r.y2 - 1)
    for token, trect in _window_tokens(w):
        color = theme["title_text"] if trect.y < r.y + TITLE_H else kind["text"]
        font.render_text(canvas, trect.x, trect.y, token, color, clip=clip)


def render_scene(spec: SceneSpec) -> tuple[Raster, GroundTruth]:
    """Render a scene; returns the raster and its exact ground truth."""
    canvas_rect = Rect(0, 0, spec.canvas_w, spec.canvas_h)
    for w in spec.windows:
        if not canvas_rect.contains(w.rect):
            raise ParameterError(f"window {w.rect} outside canvas")
        if w.theme not in THEMES or w.kind not in KINDS:
            raise ParameterError(f"unknown theme/kind {w.theme}/{w.kind}")

    canvas = np.zeros((spec.canvas_h, spec.canvas_w, 3), dtype=np.uint8)
    _draw_background(canvas, spec)
    ordered = sorted(spec.windows, key=lambda w: w.z)
    for w in ordered:
        _render_window(canvas, w)

    boxes = tuple((w.rect, w.kind, w.theme) for w in spec.windows)
    texts = []
    occ_fracs = []
    for w in spec.windows:
        above = [o.rect for o in spec.windows if o.z > w.z]
        toks = tuple(
            TokenTruth(tok, trect, any(trect.intersection_area(a) > 0 for a in above))
            for tok, trect in _window_tokens(w)
        )
        texts.append(toks)
        occ_fracs.append(_occluded_fraction(w.rect, above))
    return Raster(canvas), GroundTruth(boxes, tuple(texts), tuple(occ_fracs))


def _occluded_fraction(r: Rect, above: list[Rect]) -> float:
    """Covered-area fraction via inclusion on a coarse pixel grid of the rect."""
    if not above:
        return 0.0
    mask = np.zeros((r.h, r.w), dtype=bool)
    for a in above:
        ix = max(r.x, a.x) - r.x
        iy = max(r.y, a.y) - r.y
        ix2 = min(r.x2, a.x2) - r.x
        iy2 = min(r.y2, a.y2) - r.y
        if ix2 > ix and iy2 > iy:
            mask[iy:iy2, ix:ix2] = True
    return float(mask.mean())


# ---------------------------------------------------------------------------
# random scenes

_TITLES = {
    "dialog": ["System Message", "Setup Error", "Installer", "Warning"],
    "console": ["Terminal", "Command Prompt", "bash", "Console"],
    "browser": ["Support Portal", "Knowledge Base", "Downloads", "Web Help"],
    "explorer": ["File Manager", "Documents", "Downloads Folder", "My Files"],
}

_OVERLAP_CAP = {"none": 0.0, "light": 0.3, "heavy": 0.7}


def random_scene(seed: int, n_windows: int, overlap: str = "light",
                 canvas_w: int = 320, canvas_h: int = 240) -> SceneSpec:
    """Reproducible random scene with bounded pairwise window IoU."""
    if n_windows not in (1, 2, 3):
        raise ParameterError("n_windows must be 1, 2 or 3")
    if overlap not in _OVERLAP_CAP:
        raise ParameterError(f"unknown overlap mode {overlap!r}")
    phrases = phrase_bank()
    cap = _OVERLAP_CAP[overlap]

    rng = np.random.RandomState(seed)
    placed: list[Rect] = []
    windows = []
    for i in range(n_windows):
        rect = None
        for attempt in range(300):
            shrink = min(40, attempt // 4)
            w = int(rng.randint(100 - shrink // 2, 180 - shrink))
            h = int(rng.randint(76, 130 - shrink // 2))
            x = int(rng.randint(2, canvas_w - w - 2))
            y = int(rng.randint(2, canvas_h - h - 2))
            cand = Rect(x, y, w, h)
            if overlap == "none":
                ok = all(cand.intersection_area(p) == 0 for p in placed)
            elif overlap == "light":
                # bounded IoU, and every earlier (lower-z) window keeps at
                # least 65% of its area visible under the new one
                ok = all(iou(cand, p) <= cap
                         and cand.intersection_area(p) / p.area <= 0.35
                         for p in placed)
            else:
                ok = all(iou(cand, p) <= cap for p in placed)
            if ok:
                rect = cand
                break
        if rect is None:
            raise ParameterError("could not place windows without violating overlap cap")
        placed.append(rect)
        kind = KINDS[rng.randint(len(KINDS))]
        theme = THEMES[rng.randint(len(THEMES))]
        n_lines = int(rng.randint(2, 5))
        body = tuple(phrases[rng.randint(len(phrases))] for _ in range(n_lines))
        title = _TITLES[kind][rng.randint(len(_TITLES[kind]))]
        windows.append(WindowSpec(rect, z=i, theme=theme, kind=kind,
                                  title=title, body_lines=body,
                                  has_buttons=bool(rng.rand() < 0.8)))
    background = ("flat", "gradient", "noise")[rng.randint(3)]
    return SceneSpec(canvas_w, canvas_h, background, tuple(windows), seed)


# ---------------------------------------------------------------------------
# augmentation

def augment(img: Raster, op: str, value: float | None = None) -> Raster:
    """brightness(delta) | contrast(factor) | grayscale | resize(scale)."""
    arr = img.array.astype(np.float64)
    if op == "brightness":
        out = np.clip(arr + float(value), 0, 255)
    elif op == "contrast":
        if value is None or value <= 0:
            raise ParameterError("contrast factor must be positive")
        out = np.clip((arr - 128.0) * float(value) + 128.0, 0, 255)
    elif op == "grayscale":
        luma = to_grayscale(img).array
        return Raster(np.repeat(luma[:, :, None], 3, axis=2))
    elif op == "resize":
        if value is None or value <= 0:
            raise ParameterError("resize scale must be positive")
        h = max(1, int(round(img.height * value)))
        w = max(1, int(round(img.width * value)))
        ys = np.minimum((np.arange(h) / value).astype(int), img.height - 1)
        xs = np.minimum((np.arange(w) / value).astype(int), img.width - 1)
        return Raster(img.array[np.ix_(ys, xs)])
    else:
        raise ParameterError(f"unknown augmentation {op!r}")
    return Raster(np.rint(out).astype(np.uint8))


# ---------------------------------------------------------------------------
# serialization: the scene as the JSON-ready dict a ground-truth line embeds

def scene_to_dict(spec: SceneSpec) -> dict:
    return {
        "canvas_w": spec.canvas_w,
        "canvas_h": spec.canvas_h,
        "background": spec.background,
        "seed": spec.seed,
        "windows": [
            {"x": w.rect.x, "y": w.rect.y, "w": w.rect.w, "h": w.rect.h,
             "z": w.z, "theme": w.theme, "kind": w.kind, "title": w.title,
             "body_lines": list(w.body_lines), "has_buttons": w.has_buttons}
            for w in spec.windows
        ],
    }

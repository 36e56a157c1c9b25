"""The screenshot path as first written: plain-Python loops over pixels,
line pairs and glyph cells.

Kept verbatim (apart from the marked seams) as the reference the
vectorized package code must match exactly; see test_screenshot_oracle.py.
"""

import math
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage

from tickettriage import font
from tickettriage.errors import ParameterError
from tickettriage.imaging import (
    N_FEATURES,
    CandidateBox,
    DetectionParams,
    Rect,
    WindowDetection,
    dedup,
    iou,
    size_filter,
)
from tickettriage.raster import GrayRaster, Raster, gaussian_blur, otsu_threshold
from tickettriage.textextract import OCCLUDED_MARK, OcrToken

LUMA_WEIGHTS = (0.299, 0.587, 0.114)
_MIN_COMPONENT_AREA = 80
_RECT_FILL_RATIO = 0.85
_NESTED_COVER = 0.85
_TEMPLATES: list[tuple[str, int]] = sorted(
    (ch, int("".join("1" if v else "0" for v in grid.ravel()), 2))
    for ch, grid in font.GLYPHS.items()
)
_CELL_BITS = font.GLYPH_W * font.GLYPH_H


def to_grayscale(img: Raster) -> GrayRaster:
    """Per-pixel luma round(0.299 R + 0.587 G + 0.114 B), clamped to [0, 255]."""
    rgb = img.array.astype(np.float64)
    luma = rgb[:, :, 0] * LUMA_WEIGHTS[0] + rgb[:, :, 1] * LUMA_WEIGHTS[1] + rgb[:, :, 2] * LUMA_WEIGHTS[2]
    return GrayRaster(np.clip(np.rint(luma), 0, 255).astype(np.uint8))


class BinaryRaster(GrayRaster):
    """Single-channel image restricted to {0, 255}."""

    def __init__(self, array: np.ndarray):
        super().__init__(array)
        bad = ~np.isin(self.array, (0, 255))
        if bad.any():
            raise ValueError("BinaryRaster values must be 0 or 255")


def binarize(img: GrayRaster, threshold: int) -> BinaryRaster:
    """value >= threshold -> 255, else 0."""
    return BinaryRaster(np.where(img.array >= threshold, 255, 0).astype(np.uint8))


def _trace_boundary(mask: np.ndarray) -> list[tuple[int, int]]:
    """Moore-neighbor boundary trace of the largest-context component mask."""
    ys, xs = np.nonzero(mask)
    start = (int(ys[0]), int(xs[0]))  # topmost, then leftmost
    # 8-neighborhood in clockwise order starting from west
    nbrs = [(0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1)]
    h, w = mask.shape

    def filled(p):
        return 0 <= p[0] < h and 0 <= p[1] < w and mask[p]

    boundary = [start]
    prev_dir = 0  # came from the west
    cur = start
    for _ in range(4 * mask.size):
        found = False
        for k in range(8):
            d = (prev_dir + k) % 8
            nxt = (cur[0] + nbrs[d][0], cur[1] + nbrs[d][1])
            if filled(nxt):
                boundary.append(nxt)
                cur = nxt
                prev_dir = (d + 5) % 8  # backtrack: restart search after the pixel we came from
                found = True
                break
        if not found:  # isolated pixel
            break
        if cur == start and len(boundary) > 2:
            break
    return boundary


def _rdp(points: list[tuple[int, int]], eps: float) -> list[tuple[int, int]]:
    """Ramer-Douglas-Peucker simplification of an open polyline."""
    if len(points) < 3:
        return list(points)
    p0 = np.array(points[0], dtype=np.float64)
    p1 = np.array(points[-1], dtype=np.float64)
    pts = np.array(points, dtype=np.float64)
    seg = p1 - p0
    seg_len = np.hypot(*seg)
    if seg_len == 0:
        dists = np.hypot(*(pts - p0).T)
    else:
        rel = pts - p0
        dists = np.abs(seg[0] * rel[:, 1] - seg[1] * rel[:, 0]) / seg_len
    idx = int(np.argmax(dists))
    if dists[idx] <= eps:
        return [points[0], points[-1]]
    left = _rdp(points[:idx + 1], eps)
    right = _rdp(points[idx:], eps)
    return left[:-1] + right


def _polygon_corners(boundary: list[tuple[int, int]], eps: float) -> int:
    """Vertex count of the RDP-approximated closed boundary."""
    if len(boundary) < 4:
        return len(boundary)
    pts = boundary[:-1] if boundary[0] == boundary[-1] else list(boundary)
    # split the closed curve at the point farthest from the start
    anchor = np.array(pts[0], dtype=np.float64)
    arr = np.array(pts, dtype=np.float64)
    far = int(np.argmax(((arr - anchor) ** 2).sum(axis=1)))
    if far == 0:
        return 1
    chain_a = _rdp(pts[:far + 1], eps)
    chain_b = _rdp(pts[far:] + [pts[0]], eps)
    return len(chain_a) + len(chain_b) - 2  # shared endpoints counted once


def detect_contour_boxes(img: Raster, p: DetectionParams) -> list[CandidateBox]:
    """Grayscale -> blur -> binarize -> component border tracing -> rectangle test."""
    gray = gaussian_blur(to_grayscale(img), p.gaussian_sigma)
    threshold = otsu_threshold(gray)
    binary = binarize(gray, threshold)

    boxes: list[CandidateBox] = []
    for polarity in (255, 0):
        mask = binary.array == polarity
        labels, n = ndimage.label(mask)
        if n == 0:
            continue
        slices = ndimage.find_objects(labels)
        areas = np.bincount(labels.ravel())
        for i, sl in enumerate(slices, start=1):
            if sl is None:
                continue
            h = sl[0].stop - sl[0].start
            w = sl[1].stop - sl[1].start
            area = int(areas[i])
            if area < _MIN_COMPONENT_AREA or w < 8 or h < 8:
                continue
            if w * h >= 0.9 * img.width * img.height:
                continue  # the desktop background, not a window
            if area / (w * h) < _RECT_FILL_RATIO:
                continue
            comp = labels[sl] == i
            eps = max(3.0, 0.02 * (w + h))
            if _polygon_corners(_trace_boundary(comp), eps) != 4:
                continue
            boxes.append(CandidateBox(Rect(sl[1].start, sl[0].start, w, h), "contour"))
    return boxes


def canny_edges(gray: GrayRaster, sigma: float, low: float, high: float) -> np.ndarray:
    """Canny edge map: Sobel gradients, NMS, double-threshold hysteresis."""
    g = gaussian_blur(gray, sigma).array.astype(np.float64)
    gp = np.pad(g, 1, mode="edge")
    gx = (gp[:-2, 2:] + 2 * gp[1:-1, 2:] + gp[2:, 2:]
          - gp[:-2, :-2] - 2 * gp[1:-1, :-2] - gp[2:, :-2])
    gy = (gp[2:, :-2] + 2 * gp[2:, 1:-1] + gp[2:, 2:]
          - gp[:-2, :-2] - 2 * gp[:-2, 1:-1] - gp[:-2, 2:])
    mag = np.hypot(gx, gy)

    angle = np.rad2deg(np.arctan2(gy, gx)) % 180.0
    mp = np.pad(mag, 1, mode="constant")

    def shifted(dy, dx):
        return mp[1 + dy:mp.shape[0] - 1 + dy, 1 + dx:mp.shape[1] - 1 + dx]

    nms = np.zeros_like(mag, dtype=bool)
    for lo, hi, (dy, dx) in (
        (0.0, 22.5, (0, 1)), (157.5, 180.0, (0, 1)),   # horizontal gradient -> vertical edge
        (22.5, 67.5, (1, 1)),
        (67.5, 112.5, (1, 0)),
        (112.5, 157.5, (1, -1)),
    ):
        sel = (angle >= lo) & (angle < hi)
        nms |= sel & (mag >= shifted(dy, dx)) & (mag >= shifted(-dy, -dx))

    weak = nms & (mag >= low)
    strong = weak & (mag >= high)
    if not strong.any():
        return np.zeros_like(weak)
    labels, _ = ndimage.label(weak, structure=np.ones((3, 3), dtype=int))
    keep = np.zeros(labels.max() + 1, dtype=bool)
    keep[np.unique(labels[strong])] = True
    keep[0] = False
    return keep[labels]


def _row_segments(edges: np.ndarray, min_len: int, max_gap: int = 2,
                  min_density: float = 0.8) -> list[tuple[int, int, int]]:
    """Dense horizontal edge runs per row as (y, x0, x1) with x1 inclusive."""
    segs = []
    for y in range(edges.shape[0]):
        xs = np.flatnonzero(edges[y])
        if len(xs) < min_len * min_density:
            continue
        run_start = xs[0]
        prev = xs[0]
        count = 1
        for x in xs[1:]:
            if x - prev <= max_gap + 1:
                prev = x
                count += 1
                continue
            span = prev - run_start + 1
            if span >= min_len and count / span >= min_density:
                segs.append((y, int(run_start), int(prev)))
            run_start = x
            prev = x
            count = 1
        span = prev - run_start + 1
        if span >= min_len and count / span >= min_density:
            segs.append((y, int(run_start), int(prev)))
    return segs


def _merge_lines(segs: list[tuple[int, int, int]], tol: int = 2) -> list[tuple[int, int, int]]:
    """Merge near-collinear segments (same y +/- tol, overlapping spans)."""
    merged: list[list[int]] = []
    for y, a, b in sorted(segs):
        for m in merged:
            if abs(y - m[0]) <= tol and a <= m[2] + tol and b >= m[1] - tol:
                if b - a > m[2] - m[1]:
                    m[0] = y
                m[1] = min(m[1], a)
                m[2] = max(m[2], b)
                break
        else:
            merged.append([y, a, b])
    return [tuple(m) for m in merged]


def _span_coverage(lo: int, hi: int, seg_lo: int, seg_hi: int) -> float:
    if hi <= lo:
        return 0.0
    return max(0, min(hi, seg_hi) - max(lo, seg_lo)) / (hi - lo)


def _thicken(edges: np.ndarray, axis: int) -> np.ndarray:
    """OR each edge pixel into its neighbors along one axis. NMS can place an
    edge on either side of a 1-px border, so raw runs fragment; thickening
    perpendicular to the scan direction restores contiguous lines."""
    out = edges.copy()
    if axis == 0:
        out[1:] |= edges[:-1]
        out[:-1] |= edges[1:]
    else:
        out[:, 1:] |= edges[:, :-1]
        out[:, :-1] |= edges[:, 1:]
    return out


def edge_lines(img: Raster, p: DetectionParams):
    """Seam: the first half of detect_edge_boxes, its merged line sets."""
    gray = to_grayscale(img)
    edges = canny_edges(gray, p.gaussian_sigma, p.canny_low, p.canny_high)
    min_h_len = max(8, int(p.hough_min_line_frac * img.width))
    min_v_len = max(8, int(p.hough_min_line_frac * img.height))

    hlines = _merge_lines(_row_segments(_thicken(edges, 0), min_h_len))
    vlines = [(x, y0, y1) for (x, y0, y1)
              in _merge_lines(_row_segments(_thicken(edges, 1).T, min_v_len))]
    return hlines, vlines


def detect_edge_boxes(img: Raster, p: DetectionParams, lines=None) -> list[CandidateBox]:
    """Canny edges -> horizontal/vertical line runs -> rectangle clustering."""
    hlines, vlines = lines if lines is not None else edge_lines(img, p)  # seam

    tol = 4
    scored: dict[Rect, float] = {}
    hs = sorted(hlines)
    vs = sorted(vlines)
    for i in range(len(hs)):
        y1, ax0, ax1 = hs[i]
        for j in range(i + 1, len(hs)):
            y2, bx0, bx1 = hs[j]
            if y2 - y1 < 10:
                continue
            for a in range(len(vs)):
                x1, ay0, ay1 = vs[a]
                if x1 < min(ax0, bx0) - tol:
                    continue
                for b in range(a + 1, len(vs)):
                    x2, by0, by1 = vs[b]
                    if x2 - x1 < 10:
                        continue
                    # edge-support coverage of each side of the candidate rect
                    top = _span_coverage(x1, x2, ax0, ax1)
                    bot = _span_coverage(x1, x2, bx0, bx1)
                    left = _span_coverage(y1, y2, ay0, ay1)
                    right = _span_coverage(y1, y2, by0, by1)
                    cov = (top, bot, left, right)
                    if min(cov) < 0.5 or sum(cov) / 4.0 < 0.75:
                        continue
                    rect = Rect(x1, y1, x2 - x1 + 1, y2 - y1 + 1)
                    score = sum(cov)
                    if score > scored.get(rect, 0.0):
                        scored[rect] = score

    # nearby parallel lines spawn clouds of near-identical frames; keep the
    # best-supported representative of each cloud, distinct structures stay
    boxes: list[CandidateBox] = []
    for rect in sorted(scored, key=lambda r: (-scored[r], r)):
        if all(iou(rect, kept.rect) < 0.8 for kept in boxes):
            boxes.append(CandidateBox(rect, "edge"))
    return boxes


def _side_coverage(luma: np.ndarray) -> np.ndarray:
    """Per-side fraction of boundary positions with a strong luma step within
    the outermost 6 pixel lines (candidate boxes can sit a few pixels inside
    the true frame). A real window frame scores ~1.0 on every side;
    rectangles assembled from lines of different windows do not."""
    def cov(lines: np.ndarray) -> float:
        steps = np.abs(np.diff(lines.astype(np.float64), axis=0)).max(axis=0)
        return float((steps > 100.0).mean())

    if luma.shape[0] < 6 or luma.shape[1] < 6:
        return np.zeros(4)
    return np.array([
        cov(luma[0:6, :]),           # top
        cov(luma[-6:, :][::-1]),     # bottom
        cov(luma[:, 0:6].T),         # left
        cov(luma[:, -6:].T[::-1]),   # right
    ])


def window_features(img: Raster, r: Rect) -> np.ndarray:
    """Hand-crafted features of an image crop used by the window models."""
    if not r.within_image(img):
        raise ParameterError(f"rect {r} outside image {img.width}x{img.height}")
    crop = img.array[r.y:r.y2, r.x:r.x2].astype(np.float64)
    luma = crop[:, :, 0] * 0.299 + crop[:, :, 1] * 0.587 + crop[:, :, 2] * 0.114
    h, w = luma.shape
    f = np.zeros(N_FEATURES)

    f[0] = np.clip(math.log(r.w / r.h), -2.0, 2.0)
    dx = np.abs(np.diff(luma, axis=1))
    dy = np.abs(np.diff(luma, axis=0))
    f[1] = float((dx > 25).mean() + (dy > 25).mean()) / 2.0

    # border strength: outermost line vs a line 3 px inside, per side
    if h > 6 and w > 6:
        f[2] = np.abs(luma[0] - luma[3]).mean() / 255.0
        f[3] = np.abs(luma[-1] - luma[-4]).mean() / 255.0
        f[4] = np.abs(luma[:, 0] - luma[:, 3]).mean() / 255.0
        f[5] = np.abs(luma[:, -1] - luma[:, -4]).mean() / 255.0

    # title-bar band vs upper body contrast
    if h >= 28:
        band = crop[2:12].mean(axis=(0, 1))
        body = crop[16:min(44, h - 2)].mean(axis=(0, 1))
        f[6] = np.abs(band - body).mean() / 255.0
        f[10:13] = band / 255.0
        f[13] = luma[16:min(44, h - 2)].mean() / 255.0
        # button cluster side inside the title band (mac = left)
        third = max(1, w // 3)
        f[18] = (luma[2:12, :third].mean() - luma[2:12, -third:].mean()) / 255.0

    med = np.median(luma)
    f[7] = float((np.abs(luma - med) < 10).mean())
    f[8] = luma.std() / 128.0
    f[9] = luma.mean() / 255.0
    f[14] = float((luma < 60).mean())

    if w >= 70 and h >= 40:
        strip = luma[16:-4, 3:36].mean()
        body = luma[16:-4, 44:].mean()
        f[15] = abs(strip - body) / 255.0
        f[16] = np.abs(crop[16:26].mean(axis=(0, 1)) - crop[30:40].mean(axis=(0, 1))).mean() / 255.0
    if h >= 40:
        f[17] = np.abs(luma[-16:-4].mean() - luma[16:28].mean()) / 255.0

    # frame completeness is measured on a slightly expanded crop: candidate
    # boxes may sit a pixel or two inside the true frame
    ex = 2
    ey0, ex0 = max(0, r.y - ex), max(0, r.x - ex)
    ecrop = img.array[ey0:min(img.height, r.y2 + ex),
                      ex0:min(img.width, r.x2 + ex)].astype(np.float64)
    eluma = ecrop[:, :, 0] * 0.299 + ecrop[:, :, 1] * 0.587 + ecrop[:, :, 2] * 0.114
    sides = _side_coverage(eluma)
    f[19:23] = sides
    f[23] = sides.min()

    # crossing lines: a strong step line spanning the crop through its central
    # band means the box straddles two window frames (a window whose frame
    # crossed the middle would have to cover far more of the crop than any
    # plausible occluder does)
    if h > 12 and w > 12:
        xs0, xs1 = int(0.4 * (w - 1)), max(int(0.4 * (w - 1)) + 1, int(0.6 * (w - 1)))
        ys0, ys1 = int(0.4 * (h - 1)), max(int(0.4 * (h - 1)) + 1, int(0.6 * (h - 1)))
        f[24] = float((dx[:, xs0:xs1] > 100).mean(axis=0).max())
        f[25] = float((dy[ys0:ys1, :] > 100).mean(axis=1).max())

    # title-bar separator: a horizontal step row 10-18 px below the top edge
    if h > 24 and w > 12:
        f[26] = float((np.abs(dy[10:18, :]) > 40).mean(axis=1).max())
    return f


def _clamp_rect(r: Rect, img: Raster) -> Optional[Rect]:
    x = max(0, r.x)
    y = max(0, r.y)
    x2 = min(img.width, r.x2)
    y2 = min(img.height, r.y2)
    if x2 - x < 1 or y2 - y < 1:
        return None
    return Rect(x, y, x2 - x, y2 - y)


def _suppress_nested(boxes: list[CandidateBox],
                     scores: dict[Rect, float]) -> list[CandidateBox]:
    """Drop boxes mostly inside, or mostly covering, a higher-confidence box.

    IoU suppression misses slivers and offset super-rects whose IoU with the
    kept box is below the dedup threshold; asymmetric coverage catches them.
    """
    ordered = sorted(boxes, key=lambda b: (-scores.get(b.rect, 0.0),
                                           -b.rect.area, b.rect, b.source))
    kept: list[CandidateBox] = []
    for box in ordered:
        nested = False
        for k in kept:
            inter = box.rect.intersection_area(k.rect)
            if (inter / box.rect.area >= _NESTED_COVER
                    or inter / k.rect.area >= _NESTED_COVER):
                nested = True
                break
        if not nested:
            kept.append(box)
    return kept


def detect_windows(img: Raster, p: DetectionParams, filter_model, category_model,
                   candidates=None) -> list[WindowDetection]:
    """Ensemble of both detectors -> size filter -> window filter -> dedup -> categorize."""
    if candidates is None:  # seam: the oracle passes the reference candidates
        candidates = detect_contour_boxes(img, p) + detect_edge_boxes(img, p)
    clamped = []
    for c in candidates:
        r = _clamp_rect(c.rect, img)
        if r is not None:
            clamped.append(CandidateBox(r, c.source))
    sized = size_filter(clamped, p)

    scored = []
    for c in sized:
        conf = filter_model.predict_proba(window_features(img, c.rect))
        if conf >= p.window_conf_cutoff:
            scored.append((c, conf))
    conf_by_rect = {c.rect: conf for c, conf in scored}
    survivors = dedup([c for c, _ in scored], p, scores=conf_by_rect)
    survivors = _suppress_nested(survivors, conf_by_rect)

    detections = []
    for c in survivors:
        app, osc, ca, co = category_model.predict(window_features(img, c.rect))
        detections.append(WindowDetection(
            rect=c.rect,
            window_confidence=conf_by_rect[c.rect],
            app_category=app,
            os_category=osc,
            category_confidence=min(ca, co),
        ))
    return detections


def _ink_mask(luma: np.ndarray) -> np.ndarray:
    """Pixels that differ from their row's dominant value by more than 40."""
    mask = np.zeros(luma.shape, dtype=bool)
    for y in range(luma.shape[0]):
        row = luma[y]
        dominant = np.bincount(row, minlength=256).argmax()
        mask[y] = np.abs(row.astype(np.int16) - int(dominant)) > 40
    return mask


def _bands(ink: np.ndarray, max_gap: int = 2, max_height: int = 9):
    rows = np.flatnonzero(ink.any(axis=1))
    bands = []
    start = prev = None
    for y in rows:
        if start is None:
            start = prev = y
        elif y - prev <= max_gap + 1:
            prev = y
        else:
            bands.append((start, prev))
            start = prev = y
    if start is not None:
        bands.append((start, prev))
    return [(a, b) for a, b in bands if b - a + 1 <= max_height]


def _cell_bits(ink: np.ndarray, top: int, left: int) -> int:
    h, w = ink.shape
    bits = 0
    for gy in range(font.GLYPH_H):
        y = top + gy
        for gx in range(font.GLYPH_W):
            bits <<= 1
            x = left + gx
            if 0 <= y < h and 0 <= x < w and ink[y, x]:
                bits |= 1
    return bits


def _is_decoration(bits: int) -> bool:
    """Solid full-width block of 4-6 rows: a title-bar button, not a glyph."""
    rows = [(bits >> (5 * (font.GLYPH_H - 1 - gy))) & 0b11111
            for gy in range(font.GLYPH_H)]
    full = sum(r == 0b11111 for r in rows)
    return full >= 4 and all(r in (0, 0b11111) for r in rows)


def _match_cell(bits: int) -> tuple[str, float]:
    best_char, best_mismatch = "?", _CELL_BITS
    for ch, tbits in _TEMPLATES:
        mismatch = (bits ^ tbits).bit_count()
        if mismatch < best_mismatch:
            best_char, best_mismatch = ch, mismatch
    return best_char, 1.0 - best_mismatch / _CELL_BITS


class GlyphOcrEngine:
    """Template OCR for the built-in bitmap font."""

    margin = 2  # skip window border pixels

    def __call__(self, img: Raster, r: Rect,
                 occluders: Sequence[Rect] = ()) -> list[OcrToken]:
        if not r.within_image(img):
            raise ParameterError(f"rect {r} outside image")
        m = self.margin
        if r.w <= 2 * m + font.GLYPH_W or r.h <= 2 * m + font.GLYPH_H:
            return []
        crop = img.array[r.y + m:r.y2 - m, r.x + m:r.x2 - m]
        luma = np.clip(np.rint(
            crop[:, :, 0] * 0.299 + crop[:, :, 1] * 0.587 + crop[:, :, 2] * 0.114
        ), 0, 255).astype(np.uint8)
        ink = _ink_mask(luma)

        tokens: list[OcrToken] = []
        for band_top, band_bot in _bands(ink):
            cols = np.flatnonzero(ink[band_top:band_bot + 1].any(axis=0))
            if len(cols) == 0:
                continue
            x0, x1 = int(cols[0]), int(cols[-1])
            n_cells = (x1 - x0) // font.ADVANCE + 1
            # the band may start at glyph row 0, 1 or 2 (lowercase-only lines)
            best = None
            for v in range(3):
                top = band_top - v
                cells = [_match_cell(_cell_bits(ink, top, x0 + k * font.ADVANCE))
                         for k in range(n_cells)]
                blanks = [_cell_bits(ink, top, x0 + k * font.ADVANCE) == 0
                          for k in range(n_cells)]
                score = sum(c for (_, c), blank in zip(cells, blanks) if not blank)
                if best is None or score > best[0]:
                    best = (score, top, cells, blanks)
            _, top, cells, blanks = best

            run_chars: list[tuple[str, float]] = []
            run_start = 0
            for k in range(n_cells + 1):
                at_end = k == n_cells
                blank = at_end or blanks[k]
                if blank:
                    if run_chars:
                        tokens.append(self._emit(run_chars, r, m, x0, run_start, top))
                        run_chars = []
                    run_start = k + 1
                    continue
                ch, conf = cells[k]
                cell_bits = _cell_bits(ink, top, x0 + k * font.ADVANCE)
                # title-bar buttons land on the glyph grid; treat as spacing
                if _is_decoration(cell_bits) and cell_bits.bit_count() < 26:
                    if run_chars:
                        tokens.append(self._emit(run_chars, r, m, x0, run_start, top))
                        run_chars = []
                    run_start = k + 1
                    continue
                # solidly-filled cell with a poor match = occluded region
                if cell_bits.bit_count() >= 26 and conf < 0.6:
                    if run_chars:
                        tokens.append(self._emit(run_chars, r, m, x0, run_start, top))
                        run_chars = []
                    tokens.append(OcrToken(
                        OCCLUDED_MARK,
                        self._token_rect(r, m, x0, k, 1, top),
                        0.0,
                    ))
                    run_start = k + 1
                    continue
                run_chars.append((ch, conf))
        return tokens

    @staticmethod
    def _token_rect(r: Rect, m: int, x0: int, start_cell: int, n: int, top: int) -> Rect:
        x = r.x + m + x0 + start_cell * font.ADVANCE
        y = max(r.y, r.y + m + top)
        return Rect(x, y, max(1, n * font.ADVANCE - 1), font.GLYPH_H)

    def _emit(self, run_chars, r, m, x0, start_cell, top) -> OcrToken:
        text = "".join(ch for ch, _ in run_chars)
        conf = sum(c for _, c in run_chars) / len(run_chars)
        return OcrToken(text, self._token_rect(r, m, x0, start_cell, len(run_chars), top), conf)

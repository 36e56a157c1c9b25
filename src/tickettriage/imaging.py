"""Window detection in screenshots.

Two shallow detectors (contour tracing over a binarized image, and Canny
edges + axis-aligned line clustering) feed an ensemble that is size-filtered,
run through a feature-based window/non-window classifier, deduplicated by
IoU, and finally categorized by application kind and OS theme.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .classify import _sigmoid, _softmax
from .errors import ParameterError
from .raster import (
    GrayRaster,
    Raster,
    gaussian_blur,
    otsu_threshold,
    rgb_to_luma,
    to_grayscale,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True, order=True)
class Rect:
    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ParameterError(f"degenerate rect {self}")

    @property
    def x2(self) -> int:
        return self.x + self.w

    @property
    def y2(self) -> int:
        return self.y + self.h

    @property
    def area(self) -> int:
        return self.w * self.h

    def contains(self, other: "Rect") -> bool:
        return (self.x <= other.x and self.y <= other.y
                and other.x2 <= self.x2 and other.y2 <= self.y2)

    def intersection_area(self, other: "Rect") -> int:
        iw = min(self.x2, other.x2) - max(self.x, other.x)
        ih = min(self.y2, other.y2) - max(self.y, other.y)
        return iw * ih if iw > 0 and ih > 0 else 0

    def within_image(self, img: Raster) -> bool:
        return self.x >= 0 and self.y >= 0 and self.x2 <= img.width and self.y2 <= img.height


def iou(a: Rect, b: Rect) -> float:
    """Intersection over union; 0 for disjoint rects."""
    inter = a.intersection_area(b)
    if inter == 0:
        return 0.0
    return inter / (a.area + b.area - inter)


@dataclass(frozen=True)
class CandidateBox:
    rect: Rect
    source: str  # "contour" | "edge"


@dataclass(frozen=True)
class WindowDetection:
    rect: Rect
    window_confidence: float
    app_category: str
    os_category: str
    category_confidence: float


@dataclass
class DetectionParams:
    gaussian_sigma: float = 1.0
    canny_low: float = 40.0
    canny_high: float = 120.0
    hough_min_line_frac: float = 0.15
    min_window_w: int = 40
    min_window_h: int = 30
    iou_dedup_threshold: float = 0.5
    window_conf_cutoff: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.iou_dedup_threshold <= 1.0):
            raise ParameterError("iou_dedup_threshold must be in [0,1]")
        if self.min_window_w < 1 or self.min_window_h < 1:
            raise ParameterError("minimum window dims must be >= 1")


# ---------------------------------------------------------------------------
# contour detector

# 8-neighborhood in clockwise order starting from west, as (dy, dx)
_NEIGHBORS = ((0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1))


def _trace_boundary(mask: np.ndarray) -> np.ndarray:
    """Moore-neighbor boundary trace of a component mask, as (n, 2) (y, x) rows.

    Starts at the topmost, then leftmost pixel. The walk runs on flat indices
    into the mask padded by one blank pixel, so no step needs a bounds check.
    """
    stride = mask.shape[1] + 2
    filled = np.pad(mask, 1).ravel().tolist()
    steps = [dy * stride + dx for dy, dx in _NEIGHBORS]
    ys, xs = np.nonzero(mask)
    start = (int(ys[0]) + 1) * stride + int(xs[0]) + 1
    boundary = [start]
    prev_dir = 0  # came from the west
    cur = start
    for _ in range(4 * mask.size):
        for k in range(8):
            d = (prev_dir + k) % 8
            if filled[cur + steps[d]]:
                cur += steps[d]
                boundary.append(cur)
                prev_dir = (d + 5) % 8  # backtrack: restart search after the pixel we came from
                break
        else:  # isolated pixel
            break
        if cur == start and len(boundary) > 2:
            break
    flat = np.array(boundary)
    return np.stack([flat // stride - 1, flat % stride - 1], axis=1)


def _rdp_count(pts: np.ndarray, eps: float) -> int:
    """Vertex count of the Ramer-Douglas-Peucker simplification of an open
    polyline given as (n, 2) float rows."""
    if len(pts) < 3:
        return len(pts)
    p0 = pts[0]
    seg = pts[-1] - p0
    seg_len = np.hypot(*seg)
    if seg_len == 0:
        dists = np.hypot(*(pts - p0).T)
    else:
        rel = pts - p0
        dists = np.abs(seg[0] * rel[:, 1] - seg[1] * rel[:, 0]) / seg_len
    idx = int(np.argmax(dists))
    if dists[idx] <= eps:
        return 2
    # the split point ends the left chain and starts the right one
    return _rdp_count(pts[:idx + 1], eps) + _rdp_count(pts[idx:], eps) - 1


def _polygon_corners(boundary: np.ndarray, eps: float) -> int:
    """Vertex count of the RDP-approximated closed boundary of a component at
    least 8 px wide, so the boundary has more than one distinct point."""
    closed = (boundary[0] == boundary[-1]).all()
    pts = (boundary[:-1] if closed else boundary).astype(np.float64)
    # split the closed curve at the point farthest from the start
    far = int(np.argmax(((pts - pts[0]) ** 2).sum(axis=1)))
    chain_a = _rdp_count(pts[:far + 1], eps)
    chain_b = _rdp_count(np.concatenate([pts[far:], pts[:1]]), eps)
    return chain_a + chain_b - 2  # shared endpoints counted once


_MIN_COMPONENT_AREA = 80
_RECT_FILL_RATIO = 0.85


def blurred_gray(img: Raster, p: DetectionParams) -> GrayRaster:
    """The blurred grayscale both detectors start from."""
    return gaussian_blur(to_grayscale(img), p.gaussian_sigma)


def detect_contour_boxes(blurred: GrayRaster) -> list[CandidateBox]:
    """Otsu binarization -> component border tracing -> rectangle test, on
    blurred_gray(img, p)."""
    white = blurred.array >= otsu_threshold(blurred)

    boxes: list[CandidateBox] = []
    for mask in (white, ~white):
        labels, _ = ndimage.label(mask)
        slices = ndimage.find_objects(labels)
        areas = np.bincount(labels.ravel())
        for i in (np.flatnonzero(areas[1:] >= _MIN_COMPONENT_AREA) + 1).tolist():
            sl = slices[i - 1]
            h = sl[0].stop - sl[0].start
            w = sl[1].stop - sl[1].start
            area = int(areas[i])
            if w < 8 or h < 8:
                continue
            if w * h >= 0.9 * blurred.width * blurred.height:
                continue  # the desktop background, not a window
            if area / (w * h) < _RECT_FILL_RATIO:
                continue
            comp = labels[sl] == i
            eps = max(3.0, 0.02 * (w + h))
            if _polygon_corners(_trace_boundary(comp), eps) != 4:
                continue
            boxes.append(CandidateBox(Rect(sl[1].start, sl[0].start, w, h), "contour"))
    return boxes


# ---------------------------------------------------------------------------
# Canny + line clustering detector

_TAN_22_5 = math.tan(math.pi / 8)
_TAN_67_5 = math.tan(3 * math.pi / 8)


def canny_edges(blurred: GrayRaster, low: float, high: float) -> np.ndarray:
    """Canny edge map of a blurred image: Sobel gradients, NMS,
    double-threshold hysteresis."""
    h, w = blurred.array.shape
    gp = np.pad(blurred.array.astype(np.int32), 1, mode="edge")
    gx = (gp[:-2, 2:] + 2 * gp[1:-1, 2:] + gp[2:, 2:]
          - gp[:-2, :-2] - 2 * gp[1:-1, :-2] - gp[2:, :-2]).ravel()
    gy = (gp[2:, :-2] + 2 * gp[2:, 1:-1] + gp[2:, 2:]
          - gp[:-2, :-2] - 2 * gp[:-2, 1:-1] - gp[:-2, 2:]).ravel()

    # Only pixels with |gradient| >= low can become edges. The magnitude is
    # computed where it may reach low - 1; any pixel below that is weaker
    # than every candidate, so it reads as 0 when a candidate compares itself
    # with its neighbors across the edge.
    sq = gx * gx + gy * gy
    cand = np.flatnonzero(sq >= ((low - 1) ** 2 if low > 1 else 0))
    gxs, gys = gx[cand], gy[cand]
    mag = np.hypot(gxs, gys)
    stride = w + 2
    at = (cand // w + 1) * stride + cand % w + 1  # index in the zero-padded image
    padded = np.zeros((h + 2) * stride)
    padded[at] = mag

    # gradient direction folded to [0, 180) degrees, binned at 22.5/67.5/
    # 112.5/157.5 by comparing |gy| with tan * |gx| (the Sobel responses are
    # integers, so no ratio lies on a bin edge), and the neighbor step across
    # the edge: horizontal gradient -> (0, 1), vertical -> (1, 0), diagonals
    # -> (1, 1) or (1, -1)
    ax, ay = np.abs(gxs), np.abs(gys)
    step = np.where(ay < _TAN_22_5 * ax, 1,
                    np.where(ay >= _TAN_67_5 * ax, stride,
                             np.where((gxs > 0) == (gys > 0), stride + 1, stride - 1)))
    edge = (mag >= low) & (mag >= padded[at + step]) & (mag >= padded[at - step])
    weak = np.zeros(h * w, dtype=bool)
    weak[cand[edge]] = True
    weak = weak.reshape(h, w)
    strong = cand[edge & (mag >= high)]
    if len(strong) == 0:
        return np.zeros_like(weak)
    labels, _ = ndimage.label(weak, structure=np.ones((3, 3), dtype=int))
    keep = np.zeros(labels.max() + 1, dtype=bool)
    keep[np.unique(labels.ravel()[strong])] = True
    keep[0] = False
    return keep[labels]


_RUN_MAX_GAP = 2  # px of non-edge a line run spans
_RUN_MIN_DENSITY = 0.8  # edge share of a kept run
_MERGE_TOL = 2  # px apart that line runs still merge


def _row_segments(edges: np.ndarray, min_len: int) -> list[tuple[int, int, int]]:
    """Dense horizontal edge runs per row as (y, x0, x1) with x1 inclusive.

    A run spans gaps of up to _RUN_MAX_GAP pixels; it is kept when it is at
    least min_len long and at least _RUN_MIN_DENSITY of it is edge. Rows with
    fewer edge pixels than min_len * _RUN_MIN_DENSITY are skipped outright.
    """
    ys, xs = np.nonzero(edges)
    if len(xs) == 0:
        return []
    cut = np.flatnonzero((np.diff(ys) != 0) | (np.diff(xs) > _RUN_MAX_GAP + 1)) + 1
    first = np.concatenate(([0], cut))
    last = np.concatenate((cut, [len(xs)])) - 1
    span = xs[last] - xs[first] + 1
    count = last - first + 1
    row_count = np.count_nonzero(edges, axis=1)[ys[first]]
    keep = ((row_count >= min_len * _RUN_MIN_DENSITY) & (span >= min_len)
            & (count / span >= _RUN_MIN_DENSITY))
    return list(zip(ys[first[keep]].tolist(), xs[first[keep]].tolist(),
                    xs[last[keep]].tolist()))


def _merge_lines(segs: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Merge near-collinear segments (same y +/- _MERGE_TOL, overlapping spans)."""
    merged: list[list[int]] = []
    for y, a, b in sorted(segs):
        for m in merged:
            if (abs(y - m[0]) <= _MERGE_TOL and a <= m[2] + _MERGE_TOL
                    and b >= m[1] - _MERGE_TOL):
                if b - a > m[2] - m[1]:
                    m[0] = y
                m[1] = min(m[1], a)
                m[2] = max(m[2], b)
                break
        else:
            merged.append([y, a, b])
    return [tuple(m) for m in merged]


def _coverage(lo, hi, seg_lo, seg_hi) -> np.ndarray:
    """Fraction of [lo, hi) that the segment [seg_lo, seg_hi] covers; hi > lo."""
    return np.maximum(0, np.minimum(hi, seg_hi) - np.maximum(lo, seg_lo)) / (hi - lo)


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


# More lines per axis than this is a line-dense image (a grid, a table).
# Rectangle assembly grows as lines^4, so such an image gets no edge
# candidates; the contour detector still runs on it. Seeded scenes reach 28.
MAX_LINES_PER_AXIS = 32

_LINE_TOL = 4  # px a v-line may sit left of both h-lines' starts
_MIN_SIDE = 10  # px between paired lines
_CHUNK = 1 << 13  # elements per temporary in rectangle assembly
_CLOUD_IOU = 0.8  # rects this similar are one cloud of frames


def _assemble_rects(hs: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every h-line pair x v-line pair whose four sides have edge support.

    Lines are (n, 3) int arrays of (pos, lo, hi). Returns rects as (n, 4)
    (x, y, w, h) rows and their scores, the summed side coverage. Pairs are
    broadcast over chunks of h-line pairs, so no temporary exceeds _CHUNK.
    """
    i, j = np.triu_indices(len(hs), k=1)
    apart = hs[j, 0] - hs[i, 0] >= _MIN_SIDE
    i, j = i[apart], j[apart]
    a, b = np.triu_indices(len(vs), k=1)
    apart = vs[b, 0] - vs[a, 0] >= _MIN_SIDE
    a, b = a[apart], b[apart]
    x1, ay0, ay1 = vs[a].T
    x2, by0, by1 = vs[b].T
    rects, scores = [np.zeros((0, 4), dtype=np.int64)], [np.zeros(0)]
    step = max(1, _CHUNK // max(1, len(a)))
    for s in range(0, len(i), step):
        y1, ax0, ax1 = hs[i[s:s + step]].T[:, :, None]
        y2, bx0, bx1 = hs[j[s:s + step]].T[:, :, None]
        top = _coverage(x1, x2, ax0, ax1)
        bot = _coverage(x1, x2, bx0, bx1)
        left = _coverage(y1, y2, ay0, ay1)
        right = _coverage(y1, y2, by0, by1)
        score = top + bot + left + right
        ok = ((x1 >= np.minimum(ax0, bx0) - _LINE_TOL)
              & (np.minimum(np.minimum(top, bot), np.minimum(left, right)) >= 0.5)
              & (score / 4.0 >= 0.75))
        r, q = np.nonzero(ok)
        rects.append(np.stack([x1[q], y1[r, 0], x2[q] - x1[q] + 1,
                               y2[r, 0] - y1[r, 0] + 1], axis=1))
        scores.append(score[r, q])
    return np.concatenate(rects), np.concatenate(scores)


def _suppress_clouds(rects: np.ndarray, scores: np.ndarray) -> list[Rect]:
    """Greedy IoU suppression in (-best score, rect) order.

    Each distinct rect counts once, with its best score. Every kept rect
    drops the later ones it overlaps at IoU >= t = _CLOUD_IOU. The widths
    of such a pair, and their heights, are within a factor t of each other,
    so each kept rect is only tested against the rects of those sizes.
    """
    order = np.lexsort((rects[:, 3], rects[:, 2], rects[:, 1], rects[:, 0], -scores))
    rects = rects[order]
    _, first = np.unique(rects, axis=0, return_index=True)
    rects = rects[np.sort(first)]
    x, y, w, h = rects.T
    x2, y2, area = x + w, y + h, w * h
    # rects by size key w * stride + h: one contiguous run per width
    stride = 2 * int(h.max(initial=0)) + 2
    by_size = np.argsort(w * stride + h, kind="stable")
    size_keys = (w * stride + h)[by_size]
    widths = np.unique(w)
    alive = np.ones(len(rects), dtype=bool)
    kept = []
    for k in range(len(rects)):
        if not alive[k]:
            continue
        kept.append(k)
        alive[k] = False
        near_w = widths[(widths >= _CLOUD_IOU * w[k] - 1) & (widths <= w[k] / _CLOUD_IOU + 1)]
        starts = np.searchsorted(size_keys, near_w * stride + (_CLOUD_IOU * h[k] - 1))
        stops = np.searchsorted(size_keys, near_w * stride + (h[k] / _CLOUD_IOU + 1))
        lens = stops - starts
        near = by_size[np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)]
        near = near[alive[near]]
        iw = np.minimum(x2[k], x2[near]) - np.maximum(x[k], x[near])
        ih = np.minimum(y2[k], y2[near]) - np.maximum(y[k], y[near])
        inter = np.where((iw > 0) & (ih > 0), iw * ih, 0)
        alive[near[inter / (area[k] + area[near] - inter) >= _CLOUD_IOU]] = False
    return [Rect(*row) for row in rects[kept].tolist()]


def detect_edge_boxes(blurred: GrayRaster, p: DetectionParams) -> list[CandidateBox]:
    """Canny edges -> horizontal/vertical line runs -> rectangle clustering, on
    blurred_gray(img, p)."""
    edges = canny_edges(blurred, p.canny_low, p.canny_high)
    min_h_len = max(8, int(p.hough_min_line_frac * blurred.width))
    min_v_len = max(8, int(p.hough_min_line_frac * blurred.height))

    hlines = _merge_lines(_row_segments(_thicken(edges, 0), min_h_len))
    vlines = _merge_lines(_row_segments(_thicken(edges, 1).T, min_v_len))
    if max(len(hlines), len(vlines)) > MAX_LINES_PER_AXIS:
        log.warning("edge detector skipped a line-dense %dx%d image: %d h-lines, "
                    "%d v-lines (cap %d per axis)", blurred.width, blurred.height,
                    len(hlines), len(vlines), MAX_LINES_PER_AXIS)
        return []

    def lines(found):
        return np.array(sorted(found), dtype=np.int64).reshape(-1, 3)

    # nearby parallel lines spawn clouds of near-identical frames; keep the
    # best-supported representative of each cloud, distinct structures stay
    rects, scores = _assemble_rects(lines(hlines), lines(vlines))
    return [CandidateBox(r, "edge") for r in _suppress_clouds(rects, scores)]


# ---------------------------------------------------------------------------
# filtering / dedup

def size_filter(boxes: list[CandidateBox], p: DetectionParams) -> list[CandidateBox]:
    """Keep boxes at least min_window_w x min_window_h; order preserved."""
    return [b for b in boxes if b.rect.w >= p.min_window_w and b.rect.h >= p.min_window_h]


def dedup(boxes: list[CandidateBox], p: DetectionParams,
          scores: dict[Rect, float]) -> list[CandidateBox]:
    """Greedy IoU suppression in confidence-descending order (classic NMS).

    A rect without a score counts as 0.0, and ties go to the larger area, so
    with no scores the order is largest-area-first; the kept boxes keep it.
    """
    ordered = sorted(boxes, key=lambda b: (-scores.get(b.rect, 0.0),
                                           -b.rect.area, b.rect, b.source))
    kept: list[CandidateBox] = []
    for box in ordered:
        if all(iou(box.rect, k.rect) < p.iou_dedup_threshold for k in kept):
            kept.append(box)
    return kept


_NESTED_COVER = 0.85


def _suppress_nested(boxes: list[CandidateBox]) -> list[CandidateBox]:
    """Drop boxes mostly inside, or mostly covering, an earlier kept box.

    boxes is dedup's output, already in confidence-descending order. IoU
    suppression misses slivers and offset super-rects whose IoU with the kept
    box is below the dedup threshold; coverage of the smaller box catches them.
    """
    kept: list[CandidateBox] = []
    for box in boxes:
        if all(box.rect.intersection_area(k.rect) / min(box.rect.area, k.rect.area)
               < _NESTED_COVER for k in kept):
            kept.append(box)
    return kept


# ---------------------------------------------------------------------------
# crop features + models

N_FEATURES = 27


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
    luma = rgb_to_luma(crop)
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
    sides = _side_coverage(rgb_to_luma(img.array[ey0:min(img.height, r.y2 + ex),
                                                 ex0:min(img.width, r.x2 + ex)]))
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


@dataclass
class WindowFilterModel:
    """One-hidden-layer network over window_features; probability of
    'is a window'. A hidden layer is needed because several cues only matter
    in combination (e.g. strong side coverage is exonerating only when no
    frame line crosses the interior)."""
    W1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    mean: np.ndarray
    scale: np.ndarray

    def predict_proba(self, feats: np.ndarray) -> float:
        z = (feats - self.mean) / self.scale
        hidden = np.tanh(self.W1 @ z + self.b1)
        return float(_sigmoid(hidden @ self.w2 + self.b2))


_CATEGORY_CONF_FLOOR = 0.4  # below it a head answers "other" / "unknown"


@dataclass
class WindowCategoryModel:
    """Two independent softmax heads: application kind and OS theme."""
    app_classes: list[str]
    os_classes: list[str]
    app_weights: np.ndarray  # (n_app, n_features)
    app_bias: np.ndarray
    os_weights: np.ndarray
    os_bias: np.ndarray
    mean: np.ndarray
    scale: np.ndarray

    def predict(self, feats: np.ndarray):
        z = (feats - self.mean) / self.scale
        pa = _softmax(self.app_weights @ z + self.app_bias)
        po = _softmax(self.os_weights @ z + self.os_bias)
        ia, io = int(pa.argmax()), int(po.argmax())
        app = self.app_classes[ia] if pa[ia] >= _CATEGORY_CONF_FLOOR else "other"
        osc = self.os_classes[io] if po[io] >= _CATEGORY_CONF_FLOOR else "unknown"
        return app, osc, float(pa[ia]), float(po[io])


def _standardize(X: np.ndarray):
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale < 1e-9] = 1.0
    return mean, scale


# full-batch training of the window filter and of the two category heads
_FILTER_EPOCHS = 2000
_FILTER_LR = 0.3
_FILTER_HIDDEN = 24
_SOFTMAX_EPOCHS = 400
_SOFTMAX_LR = 0.5


def train_filter_model(X: np.ndarray, y: np.ndarray, seed: int = 0) -> WindowFilterModel:
    """Full-batch gradient descent; deterministic for a fixed seed."""
    mean, scale = _standardize(X)
    Xs = (X - mean) / scale
    rng = np.random.RandomState(seed)
    W1 = rng.normal(0, 0.3, (_FILTER_HIDDEN, X.shape[1]))
    b1 = np.zeros(_FILTER_HIDDEN)
    w2 = rng.normal(0, 0.3, _FILTER_HIDDEN)
    b2 = 0.0
    yf = y.astype(np.float64)
    # weight positives up to balance the mined candidate set
    pos_w = max(1.0, (len(yf) - yf.sum()) / max(1.0, yf.sum()))
    sw = np.where(yf > 0.5, pos_w, 1.0)
    sw /= sw.mean()
    n = len(yf)
    for _ in range(_FILTER_EPOCHS):
        H = np.tanh(Xs @ W1.T + b1)
        p = _sigmoid(H @ w2 + b2)
        err = (p - yf) * sw
        gw2 = H.T @ err / n + 1e-4 * w2
        gb2 = err.mean()
        dH = np.outer(err, w2) * (1.0 - H * H)
        gW1 = dH.T @ Xs / n + 1e-4 * W1
        gb1 = dH.mean(axis=0)
        w2 -= _FILTER_LR * gw2
        b2 -= _FILTER_LR * gb2
        W1 -= _FILTER_LR * gW1
        b1 -= _FILTER_LR * gb1
    return WindowFilterModel(W1, b1, w2, float(b2), mean, scale)


def _train_softmax(Xs: np.ndarray, yi: np.ndarray, n_classes: int, seed: int):
    rng = np.random.RandomState(seed)
    W = rng.normal(0, 0.01, (n_classes, Xs.shape[1]))
    b = np.zeros(n_classes)
    onehot = np.eye(n_classes)[yi]
    for _ in range(_SOFTMAX_EPOCHS):
        G = (_softmax(Xs @ W.T + b) - onehot) / len(yi)
        W -= _SOFTMAX_LR * (G.T @ Xs + 1e-4 * W)
        b -= _SOFTMAX_LR * G.sum(axis=0)
    return W, b


def train_category_model(X: np.ndarray, app_labels: list[str], os_labels: list[str],
                         seed: int = 0) -> WindowCategoryModel:
    mean, scale = _standardize(X)
    Xs = (X - mean) / scale
    app_classes = sorted(set(app_labels))
    os_classes = sorted(set(os_labels))
    ya = np.array([app_classes.index(l) for l in app_labels])
    yo = np.array([os_classes.index(l) for l in os_labels])
    Wa, ba = _train_softmax(Xs, ya, len(app_classes), seed)
    Wo, bo = _train_softmax(Xs, yo, len(os_classes), seed + 1)
    return WindowCategoryModel(app_classes, os_classes, Wa, ba, Wo, bo, mean, scale)


# ---------------------------------------------------------------------------
# full pipeline

def candidate_boxes(img: Raster, p: DetectionParams) -> list[CandidateBox]:
    """Both detectors on one blurred grayscale, size-filtered, contour boxes
    first: the candidates detect_windows scores and window-filter mining
    labels. Every rect lies inside the image, as the detectors build them
    from pixel indices."""
    blurred = blurred_gray(img, p)
    return size_filter(detect_contour_boxes(blurred) + detect_edge_boxes(blurred, p), p)


def detect_windows(img: Raster, p: DetectionParams,
                   filter_model: WindowFilterModel,
                   category_model: WindowCategoryModel) -> list[WindowDetection]:
    """Ensemble of both detectors -> size filter -> window filter -> dedup -> categorize."""
    sized = candidate_boxes(img, p)

    # features depend on the rect alone: one call per distinct rect, reused
    # by both models
    feats: dict[Rect, np.ndarray] = {}
    conf_by_rect: dict[Rect, float] = {}
    for c in sized:
        if c.rect not in feats:
            feats[c.rect] = window_features(img, c.rect)
            conf_by_rect[c.rect] = filter_model.predict_proba(feats[c.rect])
    survivors = dedup([c for c in sized if conf_by_rect[c.rect] >= p.window_conf_cutoff],
                      p, scores=conf_by_rect)
    survivors = _suppress_nested(survivors)

    detections = []
    for c in survivors:
        app, osc, ca, co = category_model.predict(feats[c.rect])
        detections.append(WindowDetection(
            rect=c.rect,
            window_confidence=conf_by_rect[c.rect],
            app_category=app,
            os_category=osc,
            category_confidence=min(ca, co),
        ))
    return detections

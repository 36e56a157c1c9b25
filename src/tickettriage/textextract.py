"""Text extraction from detected windows and OCR post-correction.

The OCR engine reads one window: GlyphOcrEngine()(image, rect) -> list of
OcrToken. It recognizes the renderer's fixed 5x7 font by template matching,
so it is exact on clean synthetic renders, and marks solidly covered cells
as occlusion gaps. Post-correction is two-stage, with fixed settings:
dictionary edit-distance for short names, then a word-level bigram language
model (lambda = 0.7) for tokens below confidence 0.9 and occlusion gaps. Both
stages accept a replacement at most 2 edits from the observed text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import font
from .errors import ParameterError, TrainingError
from .imaging import Rect
from .raster import Raster, rgb_to_luma

OCCLUDED_MARK = "⟨occluded⟩"  # surfaced for gaps the LM cannot recover
_MAX_EDIT = 2  # edit budget of both correction stages
_LM_LAMBDA = 0.7  # weight of the bigram estimate against the unigram
_LM_CONF_FLOOR = 0.9  # tokens below this confidence go to the LM


@dataclass(frozen=True)
class OcrToken:
    text: str
    rect: Rect
    confidence: float


# ---------------------------------------------------------------------------
# built-in glyph-template OCR

_TEMPLATES: list[tuple[str, int]] = sorted(
    (ch, int("".join("1" if v else "0" for v in grid.ravel()), 2))
    for ch, grid in font.GLYPHS.items()
)
_TEMPLATE_CHARS = [ch for ch, _ in _TEMPLATES]
_TEMPLATE_BITS = np.array([bits for _, bits in _TEMPLATES], dtype=np.uint64)
_CELL_BITS = font.GLYPH_W * font.GLYPH_H
# weight of each cell pixel in row-major order, first pixel most significant
_BIT_WEIGHTS = np.left_shift(np.uint64(1), np.arange(_CELL_BITS - 1, -1, -1, dtype=np.uint64))
_MAX_LIFT = 2  # a band may start at glyph row 0, 1 or 2 (lowercase-only lines)
_BAND_MAX_GAP = 2  # blank rows a text line may span
_BAND_MAX_HEIGHT = 9  # taller ink bands are not one text line


def _ink_mask(luma: np.ndarray) -> np.ndarray:
    """Pixels that differ from their row's dominant value by more than 40."""
    h = luma.shape[0]
    keys = np.arange(h)[:, None] * 256 + luma
    counts = np.bincount(keys.ravel(), minlength=h * 256).reshape(h, 256)
    dominant = counts.argmax(axis=1)  # the smallest of equally common values
    return np.abs(luma.astype(np.int16) - dominant[:, None]) > 40


def _bands(ink: np.ndarray):
    """Inked row runs as inclusive (top, bottom), at most _BAND_MAX_HEIGHT tall."""
    rows = np.flatnonzero(ink.any(axis=1))
    bands = []
    start = prev = None
    for y in rows:
        if start is None:
            start = prev = y
        elif y - prev <= _BAND_MAX_GAP + 1:
            prev = y
        else:
            bands.append((start, prev))
            start = prev = y
    if start is not None:
        bands.append((start, prev))
    return [(a, b) for a, b in bands if b - a + 1 <= _BAND_MAX_HEIGHT]


def _band_cells(ink: np.ndarray, band_top: int, x0: int, n_cells: int) -> np.ndarray:
    """Bit-packed 5x7 cells of one band: (_MAX_LIFT + 1, n_cells) uint64.

    Row v holds the cells whose top is band_top - v; cell k starts at column
    x0 + k * ADVANCE. Pixels outside the ink mask read as blank.
    """
    h, w = ink.shape
    rows = font.GLYPH_H + _MAX_LIFT
    width = n_cells * font.ADVANCE
    strip = np.zeros((rows, width), dtype=bool)
    y0 = band_top - _MAX_LIFT
    ya, yb = max(0, y0), min(h, y0 + rows)
    strip[ya - y0:yb - y0, :min(width, w - x0)] = ink[ya:yb, x0:x0 + width]
    cols = strip.reshape(rows, n_cells, font.ADVANCE)[:, :, :font.GLYPH_W]
    cells = np.stack([cols[_MAX_LIFT - v:_MAX_LIFT - v + font.GLYPH_H]
                      for v in range(_MAX_LIFT + 1)])  # (v, gy, k, gx)
    cells = cells.transpose(0, 2, 1, 3).reshape(_MAX_LIFT + 1, n_cells, _CELL_BITS)
    return (cells * _BIT_WEIGHTS).sum(axis=2, dtype=np.uint64)


def _is_decoration(bits: int) -> bool:
    """Solid full-width block of 4-6 rows: a title-bar button, not a glyph."""
    rows = [(bits >> (5 * (font.GLYPH_H - 1 - gy))) & 0b11111
            for gy in range(font.GLYPH_H)]
    full = sum(r == 0b11111 for r in rows)
    return full >= 4 and all(r in (0, 0b11111) for r in rows)


def _match_cells(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest template of each packed cell by Hamming distance.

    Returns template indices and mismatch counts; ties go to the first
    template in character order.
    """
    mismatch = np.bitwise_count(bits[..., None] ^ _TEMPLATE_BITS)
    best = mismatch.argmin(axis=-1)
    return best, np.take_along_axis(mismatch, best[..., None], axis=-1)[..., 0]


class GlyphOcrEngine:
    """Template OCR for the built-in bitmap font."""

    margin = 2  # skip window border pixels

    def __call__(self, img: Raster, r: Rect) -> list[OcrToken]:
        if not r.within_image(img):
            raise ParameterError(f"rect {r} outside image")
        m = self.margin
        if r.w <= 2 * m + font.GLYPH_W or r.h <= 2 * m + font.GLYPH_H:
            return []
        crop = img.array[r.y + m:r.y2 - m, r.x + m:r.x2 - m]
        luma = np.clip(np.rint(rgb_to_luma(crop)), 0, 255).astype(np.uint8)
        ink = _ink_mask(luma)

        tokens: list[OcrToken] = []
        for band_top, band_bot in _bands(ink):
            cols = np.flatnonzero(ink[band_top:band_bot + 1].any(axis=0))  # never empty
            x0, x1 = int(cols[0]), int(cols[-1])
            n_cells = (x1 - x0) // font.ADVANCE + 1
            packed = _band_cells(ink, band_top, x0, n_cells)
            best, mismatch = _match_cells(packed)
            confs = [[1.0 - n / _CELL_BITS for n in row] for row in mismatch.tolist()]
            # the band may start at glyph row 0, 1 or 2: take the first lift
            # whose non-blank cells match best in sum
            scores = [sum(c for c, bits in zip(row_confs, row_bits) if bits)
                      for row_confs, row_bits in zip(confs, packed.tolist())]
            lift = scores.index(max(scores))
            top = band_top - lift
            cell_bits = packed[lift].tolist()
            cells = [(_TEMPLATE_CHARS[i], c) for i, c in zip(best[lift].tolist(), confs[lift])]

            run_chars: list[tuple[str, float]] = []
            run_start = 0
            for k in range(n_cells + 1):
                bits = cell_bits[k] if k < n_cells else 0
                solid = bits.bit_count() >= 26
                # a solidly filled cell with a poor match is an occluded region;
                # title-bar buttons land on the glyph grid and read as spacing
                occluded = solid and cells[k][1] < 0.6
                button = not solid and _is_decoration(bits)
                if bits and not occluded and not button:
                    run_chars.append(cells[k])
                    continue
                if run_chars:
                    tokens.append(self._emit(run_chars, r, m, x0, run_start, top))
                    run_chars = []
                if occluded:
                    tokens.append(OcrToken(OCCLUDED_MARK,
                                           self._token_rect(r, m, x0, k, 1, top), 0.0))
                run_start = k + 1
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


def ocr_window(img: Raster, r: Rect) -> list[OcrToken]:
    """Run the OCR engine over the window crop at r.

    Detected rects can be a pixel or two off the true frame, which drags the
    window border into the crop and starves the line segmenter; retry on
    slightly inset crops before giving up.
    """
    engine = GlyphOcrEngine()
    tokens = engine(img, r)
    for inset in (1, 2, 3, 4):
        if tokens:
            break
        if r.w <= 2 * inset + 1 or r.h <= 2 * inset + 1:
            break
        shrunk = Rect(r.x + inset, r.y + inset, r.w - 2 * inset, r.h - 2 * inset)
        tokens = engine(img, shrunk)
    return tokens


# ---------------------------------------------------------------------------
# dictionary correction

def levenshtein(a: str, b: str) -> int:
    """Unit-cost insert/delete/substitute edit distance."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


class Dictionary:
    """Case-insensitive set of canonical terms."""

    def __init__(self, entries: Iterable[str]):
        self.entries = sorted({e.strip() for e in entries if e.strip()})
        if not self.entries:
            raise ParameterError("dictionary must not be empty")
        self._lower = {e.lower(): e for e in self.entries}

    def lookup(self, term: str) -> Optional[str]:
        return self._lower.get(term.lower())

    def nearest(self, term: str) -> Optional[str]:
        """Unique nearest entry within _MAX_EDIT; None on tie or no candidate."""
        exact = self.lookup(term)
        if exact is not None:
            return exact
        lo = term.lower()
        best: Optional[str] = None
        best_d = _MAX_EDIT + 1
        tied = False
        for entry in self.entries:
            if abs(len(entry) - len(lo)) > _MAX_EDIT:
                continue
            d = levenshtein(entry.lower(), lo)
            if d < best_d:
                best, best_d, tied = entry, d, False
            elif d == best_d:
                tied = True
        return best if best is not None and not tied else None


def correct_token(t: OcrToken, d: Dictionary) -> OcrToken:
    """Replace text with the unique nearest dictionary entry within _MAX_EDIT."""
    replacement = d.nearest(t.text)
    if replacement is None or replacement == t.text:
        return t
    return OcrToken(replacement, t.rect, t.confidence)


# ---------------------------------------------------------------------------
# word-level language model

class WordLM:
    """Interpolated bigram LM (Jelinek-Mercer against add-one unigrams)."""

    def __init__(self, unigrams: dict[str, int], bigrams: dict[str, dict[str, int]]):
        self.unigrams = unigrams
        self.bigrams = bigrams  # previous word -> next word -> count
        self.total = sum(unigrams.values())
        self.vocab = sorted(unigrams)
        self._ctx_totals = {prev: sum(c.values()) for prev, c in bigrams.items()}

    def unigram_prob(self, word: str) -> float:
        # add-one smoothing over the vocabulary: sums to exactly 1 across it,
        # and out-of-vocabulary words still score the count-zero mass 1/(N+V)
        return (self.unigrams.get(word, 0) + 1) / (self.total + len(self.vocab))

    def prob(self, word: str, context: Optional[str] = None) -> float:
        uni = self.unigram_prob(word)
        counts = self.bigrams.get(context)  # None context: no key, unigram only
        if not counts:
            return uni
        p_bi = counts.get(word, 0) / self._ctx_totals[context]
        return _LM_LAMBDA * p_bi + (1.0 - _LM_LAMBDA) * uni

    def predict(self, context: Optional[str]) -> str:
        """Argmax over the (never empty) vocabulary; lexicographic tie-break."""
        return min(self.vocab, key=lambda w: (-self.prob(w, context), w))


def train_lm(corpus: Sequence[str]) -> WordLM:
    """Count unigrams and bigrams over whitespace-tokenized sentences."""
    sentences = [s.split() for s in corpus if s.strip()]
    if not sentences:
        raise TrainingError("LM training corpus is empty")
    unigrams: dict[str, int] = {}
    bigrams: dict[str, dict[str, int]] = {}
    for toks in sentences:
        for w in toks:
            unigrams[w] = unigrams.get(w, 0) + 1
        for prev, cur in zip(toks, toks[1:]):
            follow = bigrams.setdefault(prev, {})
            follow[cur] = follow.get(cur, 0) + 1
    return WordLM(unigrams, bigrams)


def lm_correct_sequence(tokens: Sequence[OcrToken], lm: WordLM) -> list[OcrToken]:
    """Replace tokens below _LM_CONF_FLOOR and occlusion gaps via the LM.

    Candidates for a garbled token are vocabulary words within edit distance
    _MAX_EDIT of the observed text (plus the observed text itself); a fully
    occluded gap considers the whole vocabulary. Deterministic: ties break
    lexicographically.
    """
    out: list[OcrToken] = []
    prev_word: Optional[str] = None
    for tok in tokens:
        text = tok.text
        if text == OCCLUDED_MARK:
            text = lm.predict(prev_word)
        elif tok.confidence < _LM_CONF_FLOOR:
            candidates = [w for w in lm.vocab
                          if abs(len(w) - len(text)) <= _MAX_EDIT
                          and levenshtein(w.lower(), text.lower()) <= _MAX_EDIT]
            if text not in candidates:
                candidates.append(text)
            text = min(candidates, key=lambda w: (-lm.prob(w, prev_word), w))
        out.append(tok if text == tok.text else OcrToken(text, tok.rect, tok.confidence))
        prev_word = text
    return out

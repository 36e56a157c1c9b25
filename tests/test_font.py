import numpy as np

from tickettriage import font


def test_glyphs_are_5x7():
    for ch, grid in font.GLYPHS.items():
        assert grid.shape == (font.GLYPH_H, font.GLYPH_W), ch


def test_glyph_bitmaps_pairwise_distinct():
    """OCR template matching needs every pair of glyphs to differ."""
    items = sorted(font.GLYPHS.items())
    for i, (ca, ga) in enumerate(items):
        for cb, gb in items[i + 1:]:
            assert not np.array_equal(ga, gb), f"{ca!r} and {cb!r} collide"


def test_charset_covers_required_characters():
    required = set("abcdefghijklmnopqrstuvwxyz"
                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                   "0123456789"
                   ".:,/-_()[]=<>")
    assert required <= set(font.CHARSET)


def test_render_text_stays_inside_clip():
    canvas = np.zeros((20, 60, 3), dtype=np.uint8)
    font.render_text(canvas, 2, 2, "Error", (255, 255, 255), clip=(0, 0, 20, 20))
    assert canvas[:, 20:].sum() == 0
    assert canvas[:, :20].sum() > 0


def test_render_text_out_of_bounds_is_safe():
    canvas = np.zeros((10, 10, 3), dtype=np.uint8)
    font.render_text(canvas, -3, -3, "xyz", (1, 1, 1))
    font.render_text(canvas, 8, 8, "xyz", (1, 1, 1))  # must not raise

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tickettriage.errors import ParameterError, TrainingError
from tickettriage.imaging import Rect
from tickettriage.raster import Raster
from tickettriage.synthgen import random_scene, render_scene
from tickettriage.textextract import (
    OCCLUDED_MARK,
    Dictionary,
    GlyphOcrEngine,
    OcrToken,
    correct_token,
    levenshtein,
    lm_correct_sequence,
    ocr_window,
    train_lm,
)


# ---------------------------------------------------------------------------
# OCR engine

def test_ocr_reads_clean_window_exactly():
    spec = random_scene(4242, n_windows=1)
    img, gt = render_scene(spec)
    rect = gt.boxes[0][0]
    gold = [t.token for t in gt.texts[0]]
    got = [t.text for t in ocr_window(img, rect)]
    assert got == gold
    assert all(t.confidence == 1.0 for t in ocr_window(img, rect))


def test_ocr_empty_window_is_empty():
    from tickettriage.synthgen import SceneSpec, WindowSpec
    w = WindowSpec(Rect(10, 10, 120, 80), z=0, theme="windows", kind="dialog",
                   title="", body_lines=(), has_buttons=False)
    img, _ = render_scene(SceneSpec(200, 150, "flat", (w,), seed=1))
    assert ocr_window(img, w.rect) == []


def test_ocr_rect_outside_image_rejected():
    img, _ = render_scene(random_scene(1, n_windows=1))
    with pytest.raises(ParameterError):
        ocr_window(img, Rect(img.width - 5, 0, 50, 50))


def test_ocr_occluded_token_below_full_confidence():
    spec = random_scene(4242, n_windows=1)
    img, gt = render_scene(spec)
    rect = gt.boxes[0][0]
    token = gt.texts[0][0]
    # paint a foreground block over the first token
    img2 = Raster(img.array.copy())
    img2.array[token.rect.y:token.rect.y2 + 2, token.rect.x:token.rect.x2] = (60, 60, 60)
    tokens = ocr_window(img2, rect)
    texts = [t.text for t in tokens]
    gold = [t.token for t in gt.texts[0]]
    assert texts != gold
    assert any(t.text == OCCLUDED_MARK or t.confidence < 1.0 for t in tokens)


# ---------------------------------------------------------------------------
# edit distance

def test_levenshtein_known_values():
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("", "abc") == 3
    assert levenshtein("kitten", "sitting") == 3


def _dp_oracle(a: str, b: str) -> int:
    """Independent full-matrix dynamic program."""
    m, n = len(a), len(b)
    D = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        D[i][0] = i
    for j in range(n + 1):
        D[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            D[i][j] = min(D[i - 1][j] + 1, D[i][j - 1] + 1,
                          D[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return D[m][n]


def test_levenshtein_matches_dp_oracle_on_random_pairs():
    rng = np.random.RandomState(0)
    alphabet = "abcde"
    for _ in range(500):
        a = "".join(alphabet[i] for i in rng.randint(0, 5, rng.randint(0, 9)))
        b = "".join(alphabet[i] for i in rng.randint(0, 5, rng.randint(0, 9)))
        assert levenshtein(a, b) == _dp_oracle(a, b)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abcd", max_size=12), st.text(alphabet="abcd", max_size=12),
       st.text(alphabet="abcd", max_size=12))
def test_levenshtein_metric_properties(a, b, c):
    assert levenshtein(a, b) == levenshtein(b, a)
    assert (levenshtein(a, b) == 0) == (a == b)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# ---------------------------------------------------------------------------
# dictionary correction

def test_dictionary_rejects_empty():
    with pytest.raises(ParameterError):
        Dictionary([])


def test_dictionary_case_insensitive_lookup():
    d = Dictionary(["Outlook", "Chrome"])
    assert d.lookup("outlook") == "Outlook"
    assert d.lookup("OUTLOOK") == "Outlook"
    assert d.lookup("firefox") is None


def test_correct_token_fixes_misspelling():
    d = Dictionary(["memory", "Outlook", "printer"])
    t = OcrToken("memmory", Rect(0, 0, 10, 7), 0.8)
    assert correct_token(t, d).text == "memory"


def test_correct_token_leaves_ties_unchanged():
    d = Dictionary(["cat", "bat"])
    t = OcrToken("rat", Rect(0, 0, 10, 7), 0.8)
    assert correct_token(t, d).text == "rat"


def test_correct_token_respects_max_edit():
    # the edit budget is 2: "mmry" is 2 edits from "memory", "mxxxry" is 3
    d = Dictionary(["memory"])
    t = OcrToken("mmry", Rect(0, 0, 10, 7), 0.8)
    assert correct_token(t, d).text == "memory"
    far = OcrToken("mxxxry", Rect(0, 0, 10, 7), 0.8)
    assert levenshtein("mxxxry", "memory") == 3
    assert correct_token(far, d) == far


# ---------------------------------------------------------------------------
# language model

def test_lm_conditional_probabilities_sum_to_one():
    lm = train_lm(["the application is out of memory",
                   "the printer is out of paper",
                   "memory error in the application"])
    contexts = [None] + lm.vocab
    for ctx in contexts:
        total = sum(lm.prob(w, ctx) for w in lm.vocab)
        assert abs(total - 1.0) < 1e-9, ctx


def test_lm_empty_corpus_rejected():
    with pytest.raises(TrainingError):
        train_lm(["", "   "])


def test_lm_predicts_common_continuation():
    lm = train_lm(["out of memory", "out of memory", "out of paper"])
    assert lm.predict("of") == "memory"


def test_lm_fills_occluded_gap():
    lm = train_lm(["the application is out of memory"] * 3)
    tokens = [OcrToken("out", Rect(0, 0, 5, 7), 1.0),
              OcrToken("of", Rect(6, 0, 5, 7), 1.0),
              OcrToken(OCCLUDED_MARK, Rect(12, 0, 5, 7), 0.0)]
    out = lm_correct_sequence(tokens, lm)
    assert [t.text for t in out] == ["out", "of", "memory"]


def test_lm_corrects_garbled_low_confidence_token():
    lm = train_lm(["the application is out of memory"] * 3)
    tokens = [OcrToken("of", Rect(0, 0, 5, 7), 1.0),
              OcrToken("memmory", Rect(6, 0, 5, 7), 0.4)]
    out = lm_correct_sequence(tokens, lm)
    assert out[1].text == "memory"


def test_lm_correction_leaves_confident_tokens_alone():
    lm = train_lm(["out of memory"])
    tokens = [OcrToken("zzz", Rect(0, 0, 5, 7), 1.0)]
    assert [t.text for t in lm_correct_sequence(tokens, lm)] == ["zzz"]


# ---------------------------------------------------------------------------
# engine templates

def test_glyph_engine_is_deterministic():
    spec = random_scene(911, n_windows=1)
    img, gt = render_scene(spec)
    rect = gt.boxes[0][0]
    e = GlyphOcrEngine()
    assert e(img, rect) == e(img, rect) == ocr_window(img, rect) == ocr_window(img, rect)

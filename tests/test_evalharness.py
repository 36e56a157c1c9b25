from tickettriage.evalharness import (
    enrich_for_mode,
    evaluate_corpus,
    match_boxes,
    ocr_accuracy,
    triage_records,
)
from tickettriage.imaging import Rect
from tickettriage.recommend import TicketRecord, TriageCutoffs
from tickettriage.synthgen import random_scene, render_scene
from tickettriage.training import enrich_text_only


def test_match_boxes_counts():
    gold = [Rect(0, 0, 50, 50), Rect(100, 0, 50, 50)]
    # perfect + one miss + one spurious
    pred = [Rect(0, 0, 50, 50), Rect(200, 100, 40, 40)]
    assert match_boxes(pred, gold) == (1, 1, 1)


def test_match_boxes_is_one_to_one():
    gold = [Rect(0, 0, 50, 50)]
    pred = [Rect(0, 0, 50, 50), Rect(2, 2, 50, 50)]  # both overlap the same box
    assert match_boxes(pred, gold) == (1, 1, 0)


def test_match_boxes_respects_iou_threshold():
    gold = [Rect(0, 0, 100, 100)]
    pred = [Rect(0, 0, 40, 100)]  # IoU 0.4 < 0.5
    assert match_boxes(pred, gold) == (0, 1, 1)
    assert match_boxes(pred, gold, iou_threshold=0.3) == (1, 0, 0)


def test_ocr_accuracy_perfect_on_clean_render():
    img, gt = render_scene(random_scene(31, n_windows=1))
    gold = [t.token for t in gt.texts[0]]
    token_acc, char_acc = ocr_accuracy(img, gt.boxes[0][0], gold)
    assert token_acc == 1.0
    assert char_acc == 1.0


def test_enrich_for_mode_text_ignores_attachments(bundle, corpus_dir):
    record = TicketRecord("x", "printer is broken", ("scenes/none.ppm",),
                          "hw", "a", "b", "c")
    text, flags = enrich_for_mode(record, "text", bundle, corpus_dir)
    assert flags == []
    # original wording survives (inline slot annotations may be inserted)
    assert text.startswith("printer") and "is broken" in text


def test_enrich_for_mode_degrades_on_unreadable_attachment(bundle, corpus_dir):
    record = TicketRecord("x", "printer is broken", ("scenes/does-not-exist.ppm",),
                          "hw", "a", "b", "c")
    text, flags = enrich_for_mode(record, "multimodal", bundle, corpus_dir)
    assert "attachment_unreadable" in flags
    assert "degraded_to_text_mode" in flags
    assert text.startswith("printer") and "is broken" in text


def test_triage_records_degrades_an_attachment_over_the_pixel_cap(bundle, tmp_path):
    (tmp_path / "big.ppm").write_bytes(b"P6\n4000 4000\n255\n" + bytes(64))
    record = TicketRecord("x", "printer is broken", ("big.ppm",), "hw", "a", "b", "c")
    [(result, row)] = triage_records(str(tmp_path), [record], bundle, "multimodal",
                                     TriageCutoffs())
    assert row["degraded"] == ["attachment_too_large", "degraded_to_text_mode"]
    assert row["enriched_text"] == enrich_text_only("printer is broken")


def test_evaluate_corpus_summary_shape(bundle, corpus_dir):
    from tickettriage.recommend import load_corpus
    import os
    records = load_corpus(os.path.join(corpus_dir, "tickets.jsonl"))[:25]
    summary, rows = evaluate_corpus(corpus_dir, records, bundle, "text")
    assert summary["mode"] == "text"
    assert summary["n"] == 25
    assert len(rows) == 25
    for row in rows:
        assert row["path"] in ("short_head", "long_tail")
        assert isinstance(row["manual_queue"], bool)

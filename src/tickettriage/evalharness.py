"""Evaluation harness: window-detection precision/recall, OCR accuracy, and
corpus-level routing/categorization metrics for text vs multimodal modes.
"""

from __future__ import annotations

import difflib
import os
from typing import Optional, Sequence

from .bundle import ModelBundle
from .enrichment import enrich_multimodal
from .fixtures import entity_dictionaries
from .imaging import (
    DetectionParams,
    Rect,
    blurred_gray,
    detect_contour_boxes,
    detect_edge_boxes,
    detect_windows,
    iou,
)
from .raster import ImageTooLarge, Raster, read_ppm
from .recommend import (
    TicketRecord,
    TriageCutoffs,
    display_category,
    triage,
)
from .search import LocalWebAdapter
from .synthgen import GroundTruth
from .textextract import levenshtein, ocr_window
from .training import enrich_text_only

IOU_MATCH = 0.5


def match_boxes(pred: Sequence[Rect], gold: Sequence[Rect],
                iou_threshold: float = IOU_MATCH) -> tuple[int, int, int]:
    """Greedy one-to-one matching by descending IoU; returns (tp, fp, fn)."""
    pairs = sorted(
        ((iou(p, g), i, j) for i, p in enumerate(pred) for j, g in enumerate(gold)),
        key=lambda t: (-t[0], t[1], t[2]),
    )
    used_p: set[int] = set()
    used_g: set[int] = set()
    tp = 0
    for score, i, j in pairs:
        if score < iou_threshold:
            break
        if i in used_p or j in used_g:
            continue
        used_p.add(i)
        used_g.add(j)
        tp += 1
    return tp, len(pred) - tp, len(gold) - tp


def _pr(tp: int, fp: int, fn: int) -> tuple[float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


def evaluate_detection(scenes: Sequence[tuple[Raster, GroundTruth]],
                       params: DetectionParams, filter_model, category_model) -> dict:
    """Bucketed P/R of the full pipeline plus raw per-detector precision."""
    buckets: dict[int, list[int]] = {}
    raw_counts = {"contour": [0, 0, 0], "edge": [0, 0, 0]}
    for img, gt in scenes:
        gold = [r for r, _, _ in gt.boxes]
        detections = detect_windows(img, params, filter_model, category_model)
        tp, fp, fn = match_boxes([d.rect for d in detections], gold)
        counts = buckets.setdefault(len(gold), [0, 0, 0])
        counts[0] += tp
        counts[1] += fp
        counts[2] += fn
        blurred = blurred_gray(img, params)
        for name, boxes in (("contour", detect_contour_boxes(blurred)),
                            ("edge", detect_edge_boxes(blurred, params))):
            rtp, rfp, rfn = match_boxes([b.rect for b in boxes], gold)
            raw_counts[name][0] += rtp
            raw_counts[name][1] += rfp
            raw_counts[name][2] += rfn
    report = {"buckets": {}, "raw": {}}
    total = [0, 0, 0]
    for n in sorted(buckets):
        tp, fp, fn = buckets[n]
        total = [a + b for a, b in zip(total, buckets[n])]
        p, r = _pr(tp, fp, fn)
        report["buckets"][n] = {"precision": p, "recall": r, "tp": tp, "fp": fp, "fn": fn}
    p, r = _pr(*total)
    report["overall"] = {"precision": p, "recall": r}
    for name, (tp, fp, fn) in raw_counts.items():
        p, r = _pr(tp, fp, fn)
        report["raw"][name] = {"precision": p, "recall": r}
    return report


# ---------------------------------------------------------------------------
# OCR accuracy

def ocr_accuracy(img: Raster, window_rect: Rect,
                 gold_tokens: Sequence[str]) -> tuple[float, float]:
    """(token accuracy, character accuracy) of OCR output vs expected tokens."""
    got = [t.text for t in ocr_window(img, window_rect)]
    matcher = difflib.SequenceMatcher(a=gold_tokens, b=got, autojunk=False)
    matched = sum(block.size for block in matcher.get_matching_blocks())
    token_acc = matched / len(gold_tokens) if gold_tokens else 1.0
    gold_str = " ".join(gold_tokens)
    got_str = " ".join(got)
    denom = max(len(gold_str), len(got_str), 1)
    char_acc = 1.0 - levenshtein(gold_str, got_str) / denom
    return token_acc, char_acc


# ---------------------------------------------------------------------------
# corpus-level routing / categorization metrics

def _load_attachments(corpus_dir: str, record: TicketRecord) -> tuple[list[Raster], list[str]]:
    images, flags = [], []
    for rel in record.attachment_paths:
        try:
            images.append(read_ppm(os.path.join(corpus_dir, rel)))
        except ImageTooLarge:
            flags.append("attachment_too_large")
        except Exception:
            flags.append("attachment_unreadable")
    return images, flags


def enrich_for_mode(record: TicketRecord, mode: str, bundle: ModelBundle,
                    corpus_dir: str) -> tuple[str, list[str]]:
    """Returns (enriched text, degraded flags) for the requested mode."""
    if mode == "text" or not record.attachment_paths:
        return enrich_text_only(record.text), []
    images, flags = _load_attachments(corpus_dir, record)
    if not images:
        flags.append("degraded_to_text_mode")
        return enrich_text_only(record.text), flags
    enriched = enrich_multimodal(
        record.text, images, bundle.detection_params, bundle.filter_model,
        bundle.category_model, entity_dictionaries(), lm=bundle.lm,
        app_dictionary=bundle.term_dictionary,
    )
    return enriched.enriched_text, flags


def triage_records(corpus_dir: str, records: Sequence[TicketRecord],
                   bundle: ModelBundle, mode: str, cutoffs: TriageCutoffs):
    """Enrich and triage each ticket in the given mode; yields (result, row),
    where row is the decision row `triage` prints for the ticket."""
    adapter = LocalWebAdapter(bundle.web_pages) if bundle.web_pages else None
    for record in records:
        text, flags = enrich_for_mode(record, mode, bundle, corpus_dir)
        result = triage(text, bundle.models, bundle.resolution_db, bundle.index,
                        adapter, bundle.pool, cutoffs)
        yield result, {
            "id": record.id,
            "mode": mode,
            "enriched_text": text,
            "resolver_group": result.resolver_group,
            "manual_queue": result.manual_queue,
            "problem_category": (display_category(result.problem_category)
                                 if result.problem_category else None),
            "resolutions": result.resolutions,
            "path": result.path,
            "confidences": {k: round(v, 6) for k, v in result.confidences.items()},
            "degraded": sorted(set(result.degraded + flags)),
        }


def evaluate_corpus(corpus_dir: str, records: Sequence[TicketRecord],
                    bundle: ModelBundle, mode: str,
                    cutoffs: Optional[TriageCutoffs] = None) -> tuple[dict, list[dict]]:
    """Triage every ticket in the given mode; summary metrics + per-ticket rows
    (the `triage` row plus routing_correct and category_correct)."""
    rows = []
    decisions = triage_records(corpus_dir, records, bundle, mode, cutoffs or TriageCutoffs())
    for record, (result, row) in zip(records, decisions):
        row["routing_correct"] = (result.resolver_group == record.resolver_group
                                  if result.resolver_group is not None else None)
        row["category_correct"] = result.problem_category == record.category
        rows.append(row)
    n = len(rows)
    covered = sum(r["routing_correct"] is not None for r in rows)
    routing_correct = sum(r["routing_correct"] is True for r in rows)
    category_correct = sum(r["category_correct"] for r in rows)
    summary = {
        "mode": mode,
        "n": n,
        "routing_coverage": covered / n if n else 0.0,
        "routing_accuracy": routing_correct / covered if covered else 0.0,
        "category_accuracy": category_correct / n if n else 0.0,
    }
    return summary, rows

"""Span tracing from outside the package, and the per-layer metrics.

The tracer replaces public tickettriage functions with wrappers that record
one span per call: name, start, end, parent span and ticket id. Each name is
patched where its caller looks it up: a module that imported a function by
name gets its own patch. Spans stay in memory and are written out when the
run ends. Span names are ``<layer>.<function>``, the layer being the module
that does the work.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional

LAYERS = ("bench", "raster", "imaging", "textextract", "enrichment", "classify",
          "search", "recommend")

# Per-layer metrics of the traced run: (name, unit, better). Times ending in
# _ms are means per call while triaging; ratios name their base in README.md.
PER_LAYER = (
    ("raster.read_ppm_ms", "ms", "lower"),
    ("imaging.detect_windows_ms", "ms", "lower"),
    ("imaging.detect_contour_boxes_ms", "ms", "lower"),
    ("imaging.detect_edge_boxes_ms", "ms", "lower"),
    ("imaging.candidates_per_image", "boxes/image", "lower"),
    ("imaging.window_features_calls_per_image", "calls/image", "lower"),
    ("imaging.detections_per_image", "boxes/image", "higher"),
    ("imaging.detection_yield", "ratio", "higher"),
    ("textextract.ocr_window_ms", "ms", "lower"),
    ("textextract.engine_calls_per_window", "calls/window", "lower"),
    ("textextract.lm_correct_sequence_ms", "ms", "lower"),
    ("textextract.correct_token_calls", "calls/window", "lower"),
    ("textextract.tokens_per_window", "tokens/window", "higher"),
    ("enrichment.enrich_multimodal_self_ms", "ms", "lower"),
    ("enrichment.extract_entities_ms", "ms", "lower"),
    ("classify.predict_ms", "ms", "lower"),
    ("classify.predict_calls_per_ticket", "calls/ticket", "lower"),
    ("classify.transform_calls_per_ticket", "calls/ticket", "lower"),
    ("classify.gate_agreement_rate", "ratio", "higher"),
    ("search.corpus_search_ms", "ms", "lower"),
    ("search.web_search_ms", "ms", "lower"),
    ("search.resource_scores_ms", "ms", "lower"),
    ("search.cori_merge_ms", "ms", "lower"),
    ("search.filters_relaxed_rate", "ratio", "lower"),
    ("recommend.triage_self_ms", "ms", "lower"),
    ("recommend.short_head_share", "ratio", "higher"),
    ("recommend.manual_queue_rate", "ratio", "lower"),
    ("training.train_bundle_s", "s", "lower"),
    ("training.window_mining_s", "s", "lower"),
    ("training.train_classifier_s", "s", "lower"),
    ("training.train_filter_model_s", "s", "lower"),
    ("training.train_category_model_s", "s", "lower"),
    ("search.index_build_s", "s", "lower"),
    ("bundle.save_s", "s", "lower"),
    ("bundle.load_s", "s", "lower"),
) + tuple((f"{layer}.time_share", "ratio", "lower") for layer in LAYERS) + (
    ("trace.untraced_tickets_per_s", "1/s", "higher"),
    ("trace.traced_tickets_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Calls every workload makes while triaging, or while setting up.
_TICKET_CALLS = ("recommend.triage", "classify.ensemble_predict", "classify.predict",
                 "classify.transform", "search.SearchIndex.search", "search.web_search",
                 "search.resource_scores", "search.cori_merge",
                 "enrichment.extract_entities")
_SETUP_CALLS = ("training.train_bundle", "classify.train_classifier",
                "imaging.train_filter_model", "imaging.train_category_model",
                "search.SearchIndex", "imaging.detect_contour_boxes",
                "imaging.detect_edge_boxes", "imaging.window_features",
                "bundle.save_bundle", "bundle.load_bundle")
# Calls of the screenshot path: required in multimodal mode, forbidden in text mode.
_IMAGE_CALLS = ("raster.read_ppm", "enrichment.enrich_multimodal",
                "imaging.detect_windows", "imaging.detect_contour_boxes",
                "imaging.detect_edge_boxes", "imaging.window_features",
                "textextract.ocr_window", "textextract.GlyphOcrEngine",
                "textextract.lm_correct_sequence")
_IMAGE_LAYERS = ("raster", "imaging", "textextract")
_WINDOW_MINING = ("imaging.detect_contour_boxes", "imaging.detect_edge_boxes",
                  "imaging.window_features")


@dataclass
class Span:
    id: int                 # index in Tracer.spans
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]   # id of the enclosing span
    ticket: Optional[str]   # None during set-up
    note: Any = None        # small summary of the result, for counts

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans from the wrappers it installs; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.ticket: Optional[str] = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable,
             note: Optional[Callable[[Any], Any]] = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, 0, 0, stack[-1] if stack else None, self.ticket)
            spans.append(span)
            stack.append(span.id)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
            if note is not None:
                span.note = note(result)
            return result
        return traced

    def install(self) -> None:
        """Patch every traced name; restore() undoes it."""
        from tickettriage import (bundle, classify, enrichment, evalharness, imaging,
                                  raster, recommend, search, textextract, training)

        def label(result):
            return result[0]

        def decision(result):
            return [result.path, result.manual_queue]

        table = (
            (raster, "read_ppm", "raster.read_ppm", None),
            (evalharness, "read_ppm", "raster.read_ppm", None),
            (imaging, "detect_windows", "imaging.detect_windows", len),
            (imaging, "detect_contour_boxes", "imaging.detect_contour_boxes", len),
            (imaging, "detect_edge_boxes", "imaging.detect_edge_boxes", len),
            (imaging, "window_features", "imaging.window_features", None),
            (training, "window_features", "imaging.window_features", None),
            (textextract, "ocr_window", "textextract.ocr_window", len),
            (textextract.GlyphOcrEngine, "__call__", "textextract.GlyphOcrEngine", None),
            (textextract, "correct_token", "textextract.correct_token", None),
            (textextract, "lm_correct_sequence", "textextract.lm_correct_sequence", None),
            (enrichment, "enrich_multimodal", "enrichment.enrich_multimodal", None),
            (enrichment, "extract_entities", "enrichment.extract_entities", None),
            (training, "extract_entities", "enrichment.extract_entities", None),
            # text-mode enrichment; it lives in training but is enrichment work
            (training, "enrich_text_only", "enrichment.enrich_text_only", None),
            (classify.TextClassifierModel, "predict", "classify.predict", label),
            (classify.TfidfVectorizer, "transform", "classify.transform", None),
            (recommend, "ensemble_predict", "classify.ensemble_predict", None),
            (search.SearchIndex, "search", "search.SearchIndex.search", None),
            (recommend, "web_search", "search.web_search", None),
            (search.ResourcePool, "resource_scores", "search.resource_scores", None),
            (recommend, "cori_merge", "search.cori_merge", None),
            (recommend, "triage", "recommend.triage", decision),
            (evalharness, "triage", "recommend.triage", decision),
            (training, "train_bundle", "training.train_bundle", None),
            (training, "train_classifier", "classify.train_classifier", None),
            (training, "train_filter_model", "imaging.train_filter_model", None),
            (training, "train_category_model", "imaging.train_category_model", None),
            (training, "SearchIndex", "search.SearchIndex", None),
            (bundle, "save_bundle", "bundle.save_bundle", None),
            (bundle, "load_bundle", "bundle.load_bundle", None),
        )
        for owner, attr, name, note in table:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, note))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap each other and
    lie inside their parent.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.duration_ns
    return [s.duration_ns - c for s, c in zip(spans, child_ns)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every PER_LAYER metric except the trace.* ones, from one run's spans."""
    selfs = self_times_ns(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    triaging: dict[str, list[Span]] = defaultdict(list)
    setup: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        (setup if s.ticket is None else triaging)[s.name].append(s)

    def mean_ms(group: list[Span], self_time: bool = False) -> float:
        total = sum(selfs[s.id] if self_time else s.duration_ns for s in group)
        return _ratio(total, len(group)) / 1e6

    def setup_s(name: str) -> float:
        return sum(s.duration_ns for s in setup[name]) / 1e9

    tickets = len(triaging["bench.ticket"])
    images = triaging["imaging.detect_windows"]
    windows = triaging["textextract.ocr_window"]
    # a call that raised has no note and counts as zero boxes or tokens
    candidates = sum(c.note or 0 for d in images for c in children[d.id]
                     if c.name in ("imaging.detect_contour_boxes", "imaging.detect_edge_boxes"))
    detections = sum(d.note or 0 for d in images)
    triages = triaging["recommend.triage"]
    decisions = [t.note for t in triages if t.note is not None]
    corpus_searches = [s for t in triages for s in children[t.id]
                       if s.name == "search.SearchIndex.search"]
    searches_per_triage = Counter(s.parent for s in corpus_searches)
    agreeing = 0
    for e in triaging["classify.ensemble_predict"]:
        labels = [c.note for c in children[e.id] if c.name == "classify.predict"]
        agreeing += len(labels) == 2 and labels[0] == labels[1]
    mining_ns = sum(c.duration_ns for b in setup["training.train_bundle"]
                    for c in children[b.id] if c.name in _WINDOW_MINING)
    ticket_ns = sum(s.duration_ns for s in triaging["bench.ticket"])
    layer_ns = Counter()
    for s in spans:
        if s.ticket is not None:
            layer_ns[s.name.split(".", 1)[0]] += selfs[s.id]

    metrics = {
        "raster.read_ppm_ms": mean_ms(triaging["raster.read_ppm"]),
        "imaging.detect_windows_ms": mean_ms(images),
        "imaging.detect_contour_boxes_ms": mean_ms(triaging["imaging.detect_contour_boxes"]),
        "imaging.detect_edge_boxes_ms": mean_ms(triaging["imaging.detect_edge_boxes"]),
        "imaging.candidates_per_image": _ratio(candidates, len(images)),
        "imaging.window_features_calls_per_image":
            _ratio(len(triaging["imaging.window_features"]), len(images)),
        "imaging.detections_per_image": _ratio(detections, len(images)),
        "imaging.detection_yield": _ratio(detections, candidates),
        "textextract.ocr_window_ms": mean_ms(windows),
        "textextract.engine_calls_per_window":
            _ratio(len(triaging["textextract.GlyphOcrEngine"]), len(windows)),
        "textextract.lm_correct_sequence_ms":
            mean_ms(triaging["textextract.lm_correct_sequence"]),
        "textextract.correct_token_calls":
            _ratio(len(triaging["textextract.correct_token"]), len(windows)),
        "textextract.tokens_per_window":
            _ratio(sum(w.note or 0 for w in windows), len(windows)),
        "enrichment.enrich_multimodal_self_ms":
            mean_ms(triaging["enrichment.enrich_multimodal"], self_time=True),
        "enrichment.extract_entities_ms": mean_ms(triaging["enrichment.extract_entities"]),
        "classify.predict_ms": mean_ms(triaging["classify.predict"]),
        "classify.predict_calls_per_ticket": _ratio(len(triaging["classify.predict"]), tickets),
        "classify.transform_calls_per_ticket":
            _ratio(len(triaging["classify.transform"]), tickets),
        "classify.gate_agreement_rate":
            _ratio(agreeing, len(triaging["classify.ensemble_predict"])),
        "search.corpus_search_ms": mean_ms(corpus_searches),
        "search.web_search_ms": mean_ms(triaging["search.web_search"]),
        "search.resource_scores_ms": mean_ms(triaging["search.resource_scores"]),
        "search.cori_merge_ms": mean_ms(triaging["search.cori_merge"]),
        # a long-tail ticket whose filtered search found nothing searches twice
        "search.filters_relaxed_rate":
            _ratio(sum(n == 2 for n in searches_per_triage.values()), len(searches_per_triage)),
        "recommend.triage_self_ms": mean_ms(triages, self_time=True),
        "recommend.short_head_share":
            _ratio(sum(path == "short_head" for path, _ in decisions), len(decisions)),
        "recommend.manual_queue_rate":
            _ratio(sum(manual for _, manual in decisions), len(decisions)),
        "training.train_bundle_s": setup_s("training.train_bundle"),
        "training.window_mining_s": mining_ns / 1e9,
        "training.train_classifier_s": setup_s("classify.train_classifier"),
        "training.train_filter_model_s": setup_s("imaging.train_filter_model"),
        "training.train_category_model_s": setup_s("imaging.train_category_model"),
        "search.index_build_s": setup_s("search.SearchIndex"),
        "bundle.save_s": setup_s("bundle.save_bundle"),
        "bundle.load_s": setup_s("bundle.load_bundle"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.time_share"] = _ratio(layer_ns[layer], ticket_ns)
    return metrics


def coverage_problems(spans: list[Span], multimodal: bool) -> list[str]:
    """Layers that recorded no call where they must, or a call where they must not.

    Catches a wrapper that a code change bypasses silently, and a workload
    that stops (or starts) exercising the screenshot path.
    """
    triaging = Counter(s.name for s in spans if s.ticket is not None)
    setup = Counter(s.name for s in spans if s.ticket is None)
    problems = [f"no {n} call while triaging" for n in _TICKET_CALLS if not triaging[n]]
    problems += [f"no {n} call during set-up" for n in _SETUP_CALLS if not setup[n]]
    if multimodal:
        problems += [f"no {n} call while triaging" for n in _IMAGE_CALLS if not triaging[n]]
    else:
        problems += [f"{count} {n} calls while triaging in text mode"
                     for n, count in sorted(triaging.items())
                     if n in _IMAGE_CALLS or n.split(".", 1)[0] in _IMAGE_LAYERS]
    return problems

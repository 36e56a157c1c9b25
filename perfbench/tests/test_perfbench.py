"""Tests of the benchmark itself: helpers on hand-built spans, the metric
tables against BENCHMARK.json, and a tiny run of every workload.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402
from perfbench.tracing import (PER_LAYER, Span, coverage_problems,  # noqa: E402
                               per_layer_metrics, self_times_ns)
from perfbench.workloads import WORKLOADS, category_quotas  # noqa: E402


def test_percentile_interpolates_between_ranks():
    assert harness.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 95) == pytest.approx(3.85)
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    assert harness.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_phase_pools_the_passes():
    phase = harness.Phase(pass_latencies=[[0.001, 0.003], [0.002], [0.010, 0.030]],
                          pass_walls=[0.004, 0.004, 0.042])
    assert phase.tickets_per_s == pytest.approx(100.0)
    assert phase.latency_ms(50) == pytest.approx(3.0)
    assert phase.latency_ms(100) == pytest.approx(30.0)


def test_category_quotas_follow_the_weights_and_sum_to_the_count():
    for count in (1, 8, 30, 270, 1000):
        quotas = category_quotas(count)
        assert sum(quotas.values()) == count
        assert all(n >= 0 for n in quotas.values())
    assert sorted(category_quotas(1000).values()) == [30, 30, 40, 40, 40, 40, 70, 90,
                                                       120, 140, 160, 200]


class _Spans:
    """Builds spans in call order, so ids equal list positions."""

    def __init__(self):
        self.spans = []

    def add(self, name, start, end, parent=None, ticket="t1", note=None):
        self.spans.append(Span(len(self.spans), name, start, end, parent, ticket, note))
        return len(self.spans) - 1


def test_self_time_subtracts_direct_children_only():
    b = _Spans()
    root = b.add("bench.ticket", 0, 100)
    a = b.add("recommend.triage", 10, 40, root)
    b.add("classify.predict", 20, 30, a)
    b.add("search.cori_merge", 50, 90, root)
    assert self_times_ns(b.spans) == [30, 20, 10, 40]


def _ticket(b, ticket, start, agree, searches):
    """One text-mode ticket: enrichment, a gated triage and its searches."""
    root = b.add("bench.ticket", start, start + 100, ticket=ticket)
    b.add("enrichment.enrich_text_only", start, start + 10, root, ticket)
    tri = b.add("recommend.triage", start + 10, start + 100, root, ticket,
                note=["long_tail", not agree])
    ens = b.add("classify.ensemble_predict", start + 10, start + 30, tri, ticket)
    b.add("classify.predict", start + 10, start + 20, ens, ticket, note="a")
    b.add("classify.predict", start + 20, start + 30, ens, ticket, note="a" if agree else "b")
    for k in range(searches):
        b.add("search.SearchIndex.search", start + 30 + 20 * k, start + 50 + 20 * k, tri, ticket)
    return tri


def test_per_layer_metrics_on_hand_built_spans():
    b = _Spans()
    train = b.add("training.train_bundle", 0, 5000, ticket=None)
    b.add("imaging.window_features", 0, 1000, train, None)
    b.add("imaging.detect_edge_boxes", 1000, 3000, train, None)
    b.add("classify.train_classifier", 3000, 4000, train, None)
    _ticket(b, "t1", 10_000, agree=True, searches=1)
    _ticket(b, "t2", 20_000, agree=False, searches=2)
    m = per_layer_metrics(b.spans)
    assert m["training.train_bundle_s"] == 5000 / 1e9
    assert m["training.window_mining_s"] == 3000 / 1e9
    assert m["training.train_classifier_s"] == 1000 / 1e9
    assert m["classify.gate_agreement_rate"] == 0.5
    assert m["classify.predict_calls_per_ticket"] == 2.0
    assert m["search.filters_relaxed_rate"] == 0.5
    assert m["search.corpus_search_ms"] == 20 / 1e6
    assert m["recommend.manual_queue_rate"] == 0.5
    assert m["recommend.short_head_share"] == 0.0
    # triage self time: 90 minus ensemble 20 minus 20 or 40 of search
    assert m["recommend.triage_self_ms"] == (50 + 30) / 2 / 1e6
    assert m["imaging.detect_windows_ms"] == 0.0
    # per ticket of 100: bench self 0, enrichment 10, classify 20, search 20/40
    assert m["enrichment.time_share"] == pytest.approx(0.1)
    assert m["classify.time_share"] == pytest.approx(0.2)
    assert m["search.time_share"] == pytest.approx(0.3)
    assert sum(m[f"{layer}.time_share"] for layer in
               ("bench", "enrichment", "classify", "search", "recommend")) == pytest.approx(1.0)


def test_coverage_flags_image_calls_in_text_mode_and_missing_ones_in_multimodal():
    b = _Spans()
    _ticket(b, "t1", 0, agree=True, searches=1)
    b.add("textextract.ocr_window", 200, 210)
    problems = coverage_problems(b.spans, multimodal=False)
    assert "1 textextract.ocr_window calls while triaging in text mode" in problems
    assert "no search.web_search call while triaging" in problems
    assert "no training.train_bundle call during set-up" in problems
    problems = coverage_problems(b.spans, multimodal=True)
    assert "no imaging.detect_windows call while triaging" in problems
    assert not any("text mode" in p for p in problems)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mm_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tiny(name):
    w = WORKLOADS[name]
    return dataclasses.replace(w, history=min(w.history, 400), heldout=8)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_run(name, tmp_path):
    result, report = harness.run(_tiny(name), seed=5, seconds=0.01, trace=True,
                                 workdir=str(tmp_path), cache_dir=str(tmp_path),
                                 trace_path=str(tmp_path / "t.jsonl"))
    assert report["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [n for n, _, _ in PER_LAYER]
    m = result["metrics"]
    if WORKLOADS[name].mode == "text":
        assert m["imaging.time_share"] == m["textextract.time_share"] == 0.0
    else:
        assert m["imaging.detect_windows_ms"] > 0 and m["textextract.ocr_window_ms"] > 0
    assert (tmp_path / "t.jsonl").stat().st_size > 0


def test_tiny_untraced_run_with_cross_check(tmp_path):
    w = _tiny("mm_mixed")
    assert w.cross_check
    result, report = harness.run(w, seed=5, seconds=0.01, trace=False,
                                 workdir=str(tmp_path), cache_dir=str(tmp_path))
    assert report["problems"] == []
    assert result["correct"] and result["attempted"] >= 8
    assert report["images"] == 1
    assert list(result["metrics"]) == [n for n, _, _ in harness.END_TO_END]
    assert all(v > 0 for v in result["metrics"].values())
    assert len(report["decisions_sha256"]) == 64


def test_per_layer_metrics_skip_a_triage_that_raised():
    b = _Spans()
    raised = _ticket(b, "t1", 0, agree=True, searches=1)
    b.spans[raised].note = None  # no decision to count
    answered = _ticket(b, "t2", 1000, agree=True, searches=0)
    b.spans[answered].note = ["short_head", False]
    m = per_layer_metrics(b.spans)
    assert m["recommend.short_head_share"] == 1.0
    assert m["recommend.manual_queue_rate"] == 0.0

"""The package surface perfbench calls and patches, checked without a run.

perfbench (``perfbench/run.py``) imports package names, calls them with
fixed argument shapes, reads bundle fields and patches 31 attributes when
tracing. A change that breaks any of these makes a benchmark run exit
non-zero; these tests find it in seconds and train nothing.
"""

import dataclasses
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

# importing them is the first check: each imports package names at module level
from perfbench import harness, tracing, workloads  # noqa: E402,F401
from tickettriage import (bundle, corpusgen, enrichment, evalharness, fixtures,  # noqa: E402
                          imaging, raster, recommend, search, training)

_A = object()  # a placeholder argument: only the call's shape is checked


def test_tracer_installs_every_patch_target_and_restores_it():
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
    finally:
        tracer.restore()
    assert len(patched) == 31
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


def test_enrich_multimodal_looks_up_the_patched_stages_at_call_time():
    # a module-level import would bind the originals and bypass the tracer
    for name in ("detect_windows", "ocr_window", "correct_token", "lm_correct_sequence"):
        assert name not in vars(enrichment), name


def _binds(fn, *args, **kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_harness_calls_bind_to_the_package_signatures():
    _binds(search.LocalWebAdapter, _A)
    _binds(recommend.TriageCutoffs)
    _binds(fixtures.entity_dictionaries)
    _binds(raster.read_ppm, _A)
    _binds(enrichment.enrich_multimodal, _A, _A, _A, _A, _A, _A, lm=_A, app_dictionary=_A)
    _binds(training.enrich_text_only, _A)
    _binds(recommend.triage, _A, _A, _A, _A, _A, _A, _A)
    _binds(recommend.display_category, _A)
    _binds(imaging.iou, _A, _A)
    _binds(evalharness.match_boxes, _A, _A)
    _binds(training.train_bundle, _A, seed=workloads.TRAIN_SEED)
    _binds(bundle.save_bundle, _A, _A)
    _binds(bundle.load_bundle, _A)
    _binds(evalharness.evaluate_corpus, _A, _A, _A, "multimodal")
    assert 0.0 < evalharness.IOU_MATCH <= 1.0


def test_workload_calls_bind_to_the_package_signatures():
    _binds(corpusgen.generate_corpus, _A, seed=_A, count=_A, image_only_fraction=_A,
           redundant_image_fraction=_A)
    _binds(corpusgen.generate_corpus, _A, seed=_A, count=_A, image_only_fraction=_A)
    _binds(recommend.compose_category, *fixtures.TAXONOMY[0].fields)
    _binds(recommend.load_corpus, _A)
    _binds(imaging.Rect, _A, _A, _A, _A)
    assert all(p.weight > 0 for p in fixtures.TAXONOMY)
    assert "attachment_paths" in {f.name for f in dataclasses.fields(recommend.TicketRecord)}


def test_bundle_has_every_field_the_pipeline_reads():
    fields = {f.name for f in dataclasses.fields(bundle.ModelBundle)}
    assert {"models", "resolution_db", "index", "pool", "lm", "term_dictionary",
            "filter_model", "category_model", "detection_params", "web_pages"} <= fields
    assert "resolver_pair" in {f.name for f in dataclasses.fields(recommend.TriageModels)}


def test_decisions_expose_what_the_harness_reads():
    result_fields = {f.name for f in dataclasses.fields(recommend.TriageResult)}
    assert {"resolver_group", "problem_category", "path", "resolutions", "degraded",
            "confidences"} <= result_fields
    assert isinstance(recommend.TriageResult.manual_queue, property)
    assert isinstance(recommend.TicketRecord.category, property)
    assert recommend.TriageCutoffs().top_n >= 1
    assert "rect" in {f.name for f in dataclasses.fields(imaging.WindowDetection)}

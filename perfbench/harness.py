"""One benchmark run: set-up, a closed-loop timed phase, output checks, metrics.

One client triages the held-out tickets one after another, in file order,
through the calls CLI ``triage``/``eval`` make: ``read_ppm`` ->
``enrich_multimodal`` or ``enrich_text_only`` -> ``triage``, in whole passes
over the tickets for about the run's seconds. Quality and the decision
digest come from the first pass; every later pass must repeat its decisions.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import json
import math
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy

from tickettriage import bundle as bundle_io
from tickettriage import enrichment, raster, recommend, training
from tickettriage.evalharness import IOU_MATCH, evaluate_corpus, match_boxes
from tickettriage.fixtures import entity_dictionaries
from tickettriage.imaging import iou
from tickettriage.recommend import TicketRecord, TriageCutoffs, TriageResult, display_category
from tickettriage.search import LocalWebAdapter

from .tracing import Tracer, coverage_problems, per_layer_metrics
from .workloads import TRAIN_SEED, Inputs, Workload, build_inputs

# End-to-end metrics, measured with tracing off: (name, unit, better).
END_TO_END = (
    ("tickets_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("bundle_mb", "MiB", "lower"),
    ("routing_accuracy", "ratio", "higher"),
    ("category_accuracy", "ratio", "higher"),
)
# Printed with the end-to-end metrics but kept out of the result's metrics.
# The screenshot ones do not exist in text mode; error_rate is 0 when all is
# well (failed/attempted in the result carry it); routing_coverage spread
# across seeds nearly as far as the widest bound a metric may have on
# cluttered screenshots (mm_desktop in README.md).
REPORTED_ONLY = (
    ("routing_coverage", "ratio", "higher"),
    ("detect_precision", "ratio", "higher"),
    ("detect_recall", "ratio", "higher"),
    ("ocr_token_accuracy", "ratio", "higher"),
    ("error_rate", "ratio", "lower"),
)

_WARMUP_TICKETS = 3


def percentile(values: list[float], q: float) -> float:
    """q-th percentile (0-100), linear between the two nearest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Pipeline:
    """The per-ticket calls, looked up on their modules so tracing can patch them."""

    def __init__(self, bundle, inputs: Inputs, multimodal: bool):
        self.bundle = bundle
        self.adapter = LocalWebAdapter(bundle.web_pages) if bundle.web_pages else None
        self.cutoffs = TriageCutoffs()
        self.dictionaries = entity_dictionaries()
        self.paths = {r.id: inputs.attachment_paths(r) if multimodal else []
                      for r in inputs.records}

    def triage_one(self, record: TicketRecord):
        b = self.bundle
        paths = self.paths[record.id]
        if paths:
            images = [raster.read_ppm(p) for p in paths]
            enriched = enrichment.enrich_multimodal(
                record.text, images, b.detection_params, b.filter_model,
                b.category_model, self.dictionaries, lm=b.lm,
                app_dictionary=b.term_dictionary)
            text, windows = enriched.enriched_text, enriched.image_windows
        else:
            text, windows = training.enrich_text_only(record.text), []
        result = recommend.triage(text, b.models, b.resolution_db, b.index,
                                  self.adapter, b.pool, self.cutoffs)
        return result, windows


@dataclass
class Phase:
    pass_latencies: list = field(default_factory=list)  # per pass: seconds, successful tickets
    pass_walls: list = field(default_factory=list)      # per pass: wall seconds
    attempted: int = 0
    failed: int = 0
    first_pass: list = field(default_factory=list)   # (result, windows) or None, file order
    changed: int = 0   # decisions of later passes that differ from the first pass's
    failures: dict = field(default_factory=dict)     # ticket id -> the exception it raised

    @property
    def latencies(self) -> list[float]:
        return [x for lat in self.pass_latencies for x in lat]

    @property
    def tickets_per_s(self) -> float:
        """Decisions returned / wall time of all passes."""
        return len(self.latencies) / sum(self.pass_walls)

    def latency_ms(self, q: float) -> float:
        """q-th percentile of the latencies of all passes."""
        return percentile(self.latencies, q) * 1e3


def timed_phase(triage_one, records: list[TicketRecord], seconds: float,
                tracer: Optional[Tracer] = None) -> Phase:
    """Whole passes over the tickets, as many as bring the phase closest to
    ``seconds`` (at least one). Whole passes keep the latency sample's mix of
    tickets equal to the held-out mix."""
    phase = Phase()
    clock = time.perf_counter
    start = clock()
    while True:
        passes = len(phase.pass_walls)
        latencies, outs = [], []
        pass_start = clock()
        for record in records:
            if tracer is not None:
                tracer.ticket = record.id
            t0 = clock()
            try:
                out = triage_one(record)
            except Exception as exc:  # counted, reported, and the run goes on
                out = None
                phase.failed += 1
                phase.failures.setdefault(record.id, repr(exc))
            t1 = clock()
            if out is not None:
                latencies.append(t1 - t0)
            outs.append(out)
        end = clock()
        phase.pass_latencies.append(latencies)
        phase.pass_walls.append(end - pass_start)
        # Compared pass by pass, so that peak RSS does not grow with the passes.
        if passes == 0:
            phase.first_pass = outs
        else:
            phase.changed += sum(
                out is not None and (first is None or decision_row(r, out[0])
                                     != decision_row(r, first[0]))
                for r, first, out in zip(records, phase.first_pass, outs))
        elapsed = end - start
        if elapsed + elapsed / (passes + 1) / 2 >= seconds:
            break
    phase.attempted = len(phase.pass_walls) * len(records)
    if tracer is not None:
        tracer.ticket = None
    return phase


def decision_row(record: TicketRecord, result: TriageResult) -> dict:
    return {
        "id": record.id,
        "resolver_group": result.resolver_group,
        "problem_category": (display_category(result.problem_category)
                             if result.problem_category else None),
        "path": result.path,
        "resolutions": result.resolutions,
        "degraded": sorted(set(result.degraded)),
    }


def well_formed(result, groups: set[str], top_n: int) -> bool:
    return (isinstance(result, TriageResult)
            and result.path in ("short_head", "long_tail")
            and (result.resolver_group is None or result.resolver_group in groups)
            and isinstance(result.resolutions, list)
            and len(result.resolutions) <= top_n
            and all(isinstance(r, str) and r for r in result.resolutions)
            and (result.path == "long_tail"
                 or (len(result.resolutions) == 1 and result.problem_category is not None))
            and all(0.0 <= c <= 1.0 for c in result.confidences.values()))


def _matched_pairs(pred, gold) -> list[tuple[int, int]]:
    """The pairs match_boxes counts: greedy one-to-one by descending IoU."""
    ranked = sorted(((iou(p, g), i, j) for i, p in enumerate(pred) for j, g in enumerate(gold)),
                    key=lambda t: (-t[0], t[1], t[2]))
    used_p, used_g, pairs = set(), set(), []
    for score, i, j in ranked:
        if score < IOU_MATCH:
            break
        if i not in used_p and j not in used_g:
            used_p.add(i)
            used_g.add(j)
            pairs.append((i, j))
    return pairs


def quality(inputs: Inputs, outcomes: list, multimodal: bool) -> tuple[dict, dict]:
    """(metrics, counts) over one pass, with evaluate_corpus's definitions.
    A ticket that raised counts as neither routed nor categorized."""
    n = len(inputs.records)
    covered = routed_ok = category_ok = 0
    tp = fp = fn = 0
    gold_tokens = matched_tokens = images = windows = 0
    for record, out in zip(inputs.records, outcomes):
        if out is None:
            continue
        result, found = out
        category_ok += result.problem_category == record.category
        if result.resolver_group is not None:
            covered += 1
            routed_ok += result.resolver_group == record.resolver_group
        if not (multimodal and record.attachment_paths):
            continue
        truth = inputs.truth[record.id]
        pred = [det.rect for det, _ in found]
        counts = match_boxes(pred, truth.boxes)
        tp, fp, fn = tp + counts[0], fp + counts[1], fn + counts[2]
        pairs = _matched_pairs(pred, truth.boxes)
        if len(pairs) != counts[0]:
            raise AssertionError("window pairing disagrees with match_boxes")
        for i, j in pairs:
            gold = truth.visible_tokens[j]
            got = found[i][1].split()
            matcher = difflib.SequenceMatcher(a=gold, b=got, autojunk=False)
            matched_tokens += sum(b.size for b in matcher.get_matching_blocks())
            gold_tokens += len(gold)
        images += 1
        windows += len(found)
    metrics = {
        "routing_coverage": covered / n,
        "routing_accuracy": routed_ok / covered if covered else 0.0,
        "category_accuracy": category_ok / n,
    }
    if multimodal:
        metrics["detect_precision"] = tp / (tp + fp) if tp + fp else 0.0
        metrics["detect_recall"] = tp / (tp + fn) if tp + fn else 0.0
        metrics["ocr_token_accuracy"] = matched_tokens / gold_tokens if gold_tokens else 0.0
    return metrics, {"images": images, "windows_detected": windows,
                     "windows_truth": tp + fn, "gold_tokens": gold_tokens}


def _setup(history_dir: str, bundle_path: str):
    """train_bundle + save_bundle + load_bundle, timed as one."""
    t0 = time.perf_counter()
    trained = training.train_bundle(history_dir, seed=TRAIN_SEED)
    bundle_io.save_bundle(trained, bundle_path)
    loaded = bundle_io.load_bundle(bundle_path)
    return time.perf_counter() - t0, loaded


def _check_outputs(inputs: Inputs, phase: Phase, groups: set[str], top_n: int,
                   problems: list[str]) -> list[dict]:
    """Appends every problem found; returns the first pass's decision rows.
    A ticket that raised has no decision; it counts as failed, not here."""
    rows = []
    for record, out in zip(inputs.records, phase.first_pass):
        if out is None:
            continue
        if not well_formed(out[0], groups, top_n):
            problems.append(f"malformed decision for {record.id}")
        rows.append(decision_row(record, out[0]))
    if phase.changed:
        problems.append(f"{phase.changed} decisions changed between passes")
    return rows


def _cross_check(inputs: Inputs, bundle, mine: dict, rows: list[dict],
                 problems: list[str]) -> None:
    """Quality and decisions must equal evaluate_corpus on the same inputs."""
    summary, eval_rows = evaluate_corpus(inputs.heldout_dir, inputs.records, bundle,
                                         "multimodal")
    for key in ("routing_coverage", "routing_accuracy", "category_accuracy"):
        if summary[key] != mine[key]:
            problems.append(f"{key} {mine[key]} differs from evaluate_corpus {summary[key]}")
    keys = ("id", "resolver_group", "problem_category", "path", "degraded")
    if [tuple(r[k] for k in keys) for r in eval_rows] != [tuple(r[k] for k in keys)
                                                           for r in rows]:
        problems.append("decisions differ from evaluate_corpus")


def _blas_threads() -> Optional[int]:
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: str,
        cache_dir: str, trace_path: Optional[str] = None) -> tuple[dict, dict]:
    """Returns (result, report): the result object run.py prints last, and
    the metadata and extra figures printed beside it. workdir holds this run's
    files; cache_dir keeps the history corpora between runs."""
    multimodal = w.mode == "multimodal"
    inputs = build_inputs(w, seed, workdir, cache_dir)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        setup_s, bundle = _setup(inputs.history_dir, os.path.join(workdir, "bundle.bin"))
    finally:
        if tracer is not None:
            tracer.restore()
    bundle_bytes = os.path.getsize(os.path.join(workdir, "bundle.bin"))

    pipe = Pipeline(bundle, inputs, multimodal)
    image_first = [r for r in inputs.records if pipe.paths[r.id]][:1]
    for record in inputs.records[:_WARMUP_TICKETS] + image_first:
        with contextlib.suppress(Exception):  # the timed phase counts failures
            pipe.triage_one(record)
    # A traced run measures the untraced and the traced phase for half the seconds each.
    phase = timed_phase(pipe.triage_one, inputs.records, seconds / 2 if trace else seconds)

    problems: list[str] = []
    groups = set(bundle.models.resolver_pair[0].classes)
    rows = _check_outputs(inputs, phase, groups, pipe.cutoffs.top_n, problems)
    quality_metrics, counts = quality(inputs, phase.first_pass, multimodal)
    cross_check = "not run"
    if w.cross_check and phase.failures:
        # evaluate_corpus stops at the first ticket that raises
        cross_check = "skipped: a ticket raised"
    elif w.cross_check:
        _cross_check(inputs, bundle, quality_metrics, rows, problems)
        cross_check = "done"
    attempted, failed, failures = phase.attempted, phase.failed, dict(phase.failures)

    if tracer is not None:
        tracer.install()
        try:
            traced = timed_phase(tracer.wrap("bench.ticket", pipe.triage_one),
                                 inputs.records, seconds / 2, tracer)
        finally:
            tracer.restore()
        traced_rows = _check_outputs(inputs, traced, groups, pipe.cutoffs.top_n, problems)
        if traced_rows != rows:
            problems.append("tracing changed the decisions")
        problems += coverage_problems(tracer.spans, multimodal)
        metrics = per_layer_metrics(tracer.spans)
        metrics["trace.untraced_tickets_per_s"] = phase.tickets_per_s
        metrics["trace.traced_tickets_per_s"] = traced.tickets_per_s
        metrics["trace.overhead_ratio"] = phase.tickets_per_s / traced.tickets_per_s
        attempted += traced.attempted
        failed += traced.failed
        failures.update(traced.failures)
        if trace_path:
            tracer.write(trace_path)
    else:
        metrics = {
            "tickets_per_s": phase.tickets_per_s,
            "latency_p50_ms": phase.latency_ms(50),
            "latency_p95_ms": phase.latency_ms(95),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "bundle_mb": bundle_bytes / 2**20,
        }
        metrics.update({k: quality_metrics[k] for k in ("routing_accuracy", "category_accuracy")})

    extra = {k: v for k, v in quality_metrics.items() if k not in metrics}
    extra["error_rate"] = failed / attempted
    report = {
        "workload": w.name,
        "seed": seed,
        "history_seed": inputs.history_seed,
        "heldout_seed": inputs.heldout_seed,
        "train_seed": TRAIN_SEED,
        "mode": w.mode,
        "history_tickets": w.history,
        "heldout_tickets": len(inputs.records),
        **counts,
        "latency_samples": len(phase.latencies),
        "passes": len(phase.pass_walls),
        "timed_s": round(sum(phase.pass_walls), 3),
        "pass_tickets_per_s": [round(len(lat) / wall, 1) for lat, wall
                               in zip(phase.pass_latencies, phase.pass_walls)],
        "decisions_sha256": hashlib.sha256(
            "\n".join(json.dumps(r, sort_keys=True) for r in rows).encode()).hexdigest(),
        "problems": problems,
        "failures": failures,
        "cross_check": cross_check,
        "extra": extra,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads": _blas_threads(),
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report

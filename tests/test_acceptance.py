"""End-to-end acceptance suite.

Each test covers one release criterion and records a single PASS/FAIL line
before asserting; the lines are echoed in the terminal summary after the run.
"""

import hashlib
import json
import math
import os
import sys
import time

import numpy as np

import conftest

from tickettriage.classify import tokenize
from tickettriage.evalharness import evaluate_corpus, evaluate_detection, ocr_accuracy
from tickettriage.imaging import CandidateBox, DetectionParams, Rect, dedup, iou
from tickettriage.recommend import TriageCutoffs, load_corpus
from tickettriage.synthgen import augment, random_scene, render_scene


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number}] {name}: {status} ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    conftest.acceptance_report_lines.append(line)


# ---------------------------------------------------------------------------
# 1. window detection quality

DETECTION_PRECISION_MIN = 0.85
DETECTION_RECALL_MIN = 0.80
DETECTION_TIME_BUDGET_S = 300.0
SCENES_PER_BUCKET = 200


def test_criterion_1_detection_precision_recall(bundle):
    t0 = time.monotonic()
    scenes = [render_scene(random_scene(9000 * nw + s, n_windows=nw, overlap="light"))
              for nw in (1, 2, 3) for s in range(SCENES_PER_BUCKET)]
    report = evaluate_detection(scenes, bundle.detection_params,
                                bundle.filter_model, bundle.category_model)
    elapsed = time.monotonic() - t0

    ok = elapsed <= DETECTION_TIME_BUDGET_S
    details = []
    for n in (1, 2, 3):
        m = report["buckets"][n]
        details.append(f"bucket{n} P={m['precision']:.3f} R={m['recall']:.3f}")
        ok = ok and m["precision"] >= DETECTION_PRECISION_MIN
        ok = ok and m["recall"] >= DETECTION_RECALL_MIN
    ens_p = report["overall"]["precision"]
    for raw in ("contour", "edge"):
        details.append(f"raw-{raw} P={report['raw'][raw]['precision']:.3f}")
        ok = ok and ens_p > report["raw"][raw]["precision"]
    details.append(f"ensemble P={ens_p:.3f}, {elapsed:.0f}s")
    _report(1, "window detection", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 2. result-merge arithmetic

CORI_TOL = 1e-9


def test_criterion_2_merge_formula():
    from tickettriage.search import cori_score
    examples = [((1.0, 1.0), 1.0),
                ((0.5, 0.0), 0.5 / 1.4),
                ((0.8, 0.6), (0.8 + 0.4 * 0.6 * 0.8) / 1.4)]
    ok = all(abs(cori_score(d, c) - want) <= CORI_TOL for (d, c), want in examples)

    rng = np.random.RandomState(2)
    pairs = rng.rand(10_000, 3)  # (d_lo_seed, d_hi_seed, c)
    monotonic = True
    for a, b, c in pairs:
        lo, hi = sorted((a, b))
        monotonic &= cori_score(lo, c) <= cori_score(hi, c) + 1e-12
        monotonic &= cori_score(c, lo) <= cori_score(c, hi) + 1e-12
    ok = ok and monotonic
    _report(2, "merge-score arithmetic", ok,
            f"3 worked examples @1e-9, monotone on {len(pairs)} random pairs")
    assert ok


# ---------------------------------------------------------------------------
# 3. head/tail partition

def test_criterion_3_split_invariants(uplift_bundle):
    from tickettriage.recommend import ResolutionDB, TicketRecord, split_head_tail

    rng = np.random.RandomState(4)
    invariants_ok = True
    for _ in range(100):
        cats = [("g", "f", str(k)) for k in range(8)]
        picks = rng.choice(8, size=int(rng.randint(30, 120)),
                           p=rng.dirichlet(np.ones(8)))
        records = [TicketRecord(f"t{i}", "text", (), "grp", *cats[c])
                   for i, c in enumerate(picks)]
        db = ResolutionDB({"\x1f".join(cats[c]): "fix"
                           for c in rng.choice(8, size=4, replace=False)})
        threshold = int(rng.randint(1, 12))
        split = split_head_tail(records, threshold, db)
        invariants_ok &= len(split.head) + len(split.tail) == len(records)
        invariants_ok &= not ({r.id for r in split.head} & {r.id for r in split.tail})
        invariants_ok &= all(split.histogram[c] >= threshold and db.has(c)
                             for c in split.head_categories)
        invariants_ok &= all(r.category in split.head_categories for r in split.head)
        invariants_ok &= all(r.category not in split.head_categories for r in split.tail)

    head_fraction = uplift_bundle.meta["head_fraction"]
    fraction_ok = 0.75 <= head_fraction <= 0.80
    ok = invariants_ok and fraction_ok
    _report(3, "frequent/rare split", ok,
            f"invariants on 100 corpora, head fraction {head_fraction:.3f}")
    assert ok


# ---------------------------------------------------------------------------
# 4. OCR accuracy

OCR_CLEAN_SCENES = 20
OCR_AUGMENTED_CHAR_MIN = 0.95


def test_criterion_4_ocr_accuracy():
    clean_ok = True
    worst_char = 1.0
    for s in range(OCR_CLEAN_SCENES):
        img, gt = render_scene(random_scene(7000 + s, n_windows=1))
        rect = gt.boxes[0][0]
        gold = [t.token for t in gt.texts[0]]
        token_acc, _ = ocr_accuracy(img, rect, gold)
        clean_ok &= token_acc == 1.0
        for ops in (("brightness", 25.0), ("brightness", -25.0),
                    ("contrast", 0.85), ("contrast", 1.2)):
            _, char_acc = ocr_accuracy(augment(img, *ops), rect, gold)
            worst_char = min(worst_char, char_acc)
    ok = clean_ok and worst_char >= OCR_AUGMENTED_CHAR_MIN
    _report(4, "screenshot text extraction", ok,
            f"clean token accuracy 100% on {OCR_CLEAN_SCENES} scenes, "
            f"augmented char accuracy >= {worst_char:.3f}")
    assert ok


# ---------------------------------------------------------------------------
# 5. multimodal uplift

UPLIFT_MIN_POINTS = 0.05


def test_criterion_5_multimodal_uplift(uplift_bundle, uplift_corpus_dir):
    records = load_corpus(os.path.join(uplift_corpus_dir, "tickets.jsonl"))
    cutoffs = TriageCutoffs()
    text_summary, _ = evaluate_corpus(uplift_corpus_dir, records, uplift_bundle,
                                      "text", cutoffs)
    mm_summary, _ = evaluate_corpus(uplift_corpus_dir, records, uplift_bundle,
                                    "multimodal", cutoffs)
    cat_gain = mm_summary["category_accuracy"] - text_summary["category_accuracy"]
    cov_gain = mm_summary["routing_coverage"] - text_summary["routing_coverage"]
    acc_drop = text_summary["routing_accuracy"] - mm_summary["routing_accuracy"]
    ok = (cat_gain >= UPLIFT_MIN_POINTS and cov_gain >= UPLIFT_MIN_POINTS
          and acc_drop <= 0.0)
    _report(5, "multimodal uplift", ok,
            f"n={len(records)}, category +{cat_gain * 100:.1f}pt, "
            f"coverage +{cov_gain * 100:.1f}pt, "
            f"routing accuracy {text_summary['routing_accuracy']:.3f}"
            f"->{mm_summary['routing_accuracy']:.3f}")
    assert ok


# ---------------------------------------------------------------------------
# 6. oracle equivalences

def test_criterion_6_oracle_equivalences():
    rng = np.random.RandomState(6)

    # (a) duplicate-box suppression vs an independent quadratic oracle
    p = DetectionParams()
    dedup_ok = True
    for _ in range(200):
        boxes = [CandidateBox(Rect(int(rng.randint(0, 60)), int(rng.randint(0, 60)),
                                   int(rng.randint(5, 50)), int(rng.randint(5, 50))),
                              "contour" if rng.rand() < 0.5 else "edge")
                 for _ in range(rng.randint(1, 12))]
        ordered = sorted(boxes, key=lambda b: (-b.rect.area, b.rect, b.source))
        kept = []
        for box in ordered:
            if not any(iou(box.rect, k.rect) >= p.iou_dedup_threshold for k in kept):
                kept.append(box)
        dedup_ok &= dedup(boxes, p, {}) == kept

    # (b) edit distance vs a full-matrix dynamic program, 10k random pairs
    from tickettriage.textextract import levenshtein

    def dp(a, b):
        D = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            prev, D[0] = D[0], i
            for j, cb in enumerate(b, 1):
                prev, D[j] = D[j], min(D[j] + 1, D[j - 1] + 1, prev + (ca != cb))
        return D[len(b)]

    lev_ok = True
    alphabet = "abcdef"
    for _ in range(10_000):
        a = "".join(alphabet[i] for i in rng.randint(0, 6, rng.randint(0, 10)))
        b = "".join(alphabet[i] for i in rng.randint(0, 6, rng.randint(0, 10)))
        lev_ok &= levenshtein(a, b) == dp(a, b)

    # (c) ranking vs the scoring formula evaluated directly, 100 random queries
    from tickettriage.search import BM25_B, BM25_K1, IndexDoc, SearchIndex

    words = ["printer", "vpn", "outlook", "error", "driver", "timeout",
             "sync", "disk", "memory", "install"]
    docs = [IndexDoc(f"d{i:03d}",
                     " ".join(words[j] for j in rng.randint(0, 10, rng.randint(3, 15))),
                     {})
            for i in range(40)]
    index = SearchIndex(docs)
    toks = [tokenize(d.text) for d in docs]
    avgdl = sum(len(t) for t in toks) / len(docs)
    bm25_ok = True
    for _ in range(100):
        query = " ".join(words[j] for j in rng.randint(0, 10, rng.randint(1, 4)))
        expected = {}
        for i, dt in enumerate(toks):
            s = 0.0
            for term in tokenize(query):
                tf = dt.count(term)
                if not tf:
                    continue
                df = sum(1 for t in toks if term in t)
                idf = math.log((len(docs) - df + 0.5) / (df + 0.5) + 1.0)
                s += idf * tf * (BM25_K1 + 1) / (
                    tf + BM25_K1 * (1 - BM25_B + BM25_B * len(dt) / avgdl))
            if s > 0.0:
                expected[i] = s
        got = index.search(query, limit=len(docs))
        want_order = [docs[i].doc_id for i, _ in
                      sorted(expected.items(), key=lambda kv: (-kv[1], docs[kv[0]].doc_id))]
        bm25_ok &= [r.doc_id for r in got] == want_order

    # (d) two-model agreement gate vs its truth table
    from tickettriage.classify import ensemble_predict

    class Stub:
        def __init__(self, label, conf):
            self.out = (label, conf)

        def predict(self, text):
            return self.out

    gate_ok = (
        ensemble_predict(Stub("a", 0.9), Stub("a", 0.6), "t") == ("a", 0.6)
        and ensemble_predict(Stub("a", 0.9), Stub("b", 0.6), "t") == ("a", 0.0)
        and ensemble_predict(Stub("a", 0.3), Stub("b", 0.6), "t") == ("b", 0.0)
        and ensemble_predict(Stub("a", 0.5), Stub("b", 0.5), "t") == ("a", 0.0)
    )

    ok = dedup_ok and lev_ok and bm25_ok and gate_ok
    _report(6, "oracle equivalences", ok,
            f"dedup={dedup_ok} edit-distance={lev_ok} "
            f"ranking={bm25_ok} agreement-gate={gate_ok}")
    assert ok


# ---------------------------------------------------------------------------
# 7. savings report

def test_criterion_7_savings_report(capsys):
    from tickettriage.cli import main

    rc = main(["savings", "--tickets-per-year", "1200000",
               "--assign-coverage", "0.9", "--resolve-coverage", "0.8"])
    out = capsys.readouterr().out
    payload = json.loads(out.splitlines()[0])
    ok = (rc == 0
          and payload["assign_hours"] == 54_000.0
          and payload["resolve_hours"] == 160_000.0
          and payload["total_hours"] == 214_000.0
          and "194,000" in out)
    _report(7, "savings projection", ok,
            "54,000/160,000/214,000 h exact, discrepancy note printed")
    assert ok


# ---------------------------------------------------------------------------
# 8. triage branch contracts

def test_criterion_8_triage_branches():
    from tickettriage.classify import TfidfVectorizer
    from tickettriage.recommend import (ResolutionDB, TriageModels,
                                        compose_category, triage)
    from tickettriage.search import (IndexDoc, LocalWebAdapter, ResourcePool,
                                     SearchIndex)

    class Stub:
        def __init__(self, label, conf):
            self.out = (label, conf)

        def predict(self, text):
            return self.out

    cat = compose_category("network", "vpn", "timeout")
    docs = [IndexDoc("t1", "vpn tunnel timeout reconnect",
                     {"resolver_group": "net-ops", "category_f1": "network",
                      "category_f2": "vpn", "category_f3": "timeout"},
                     category=cat, resolution="restart the vpn client")]
    index = SearchIndex(docs)
    pool = ResourcePool([docs[0].text], ["kb article about vpn timeout"])
    db = ResolutionDB({cat: "restart the vpn client"})
    adapter = LocalWebAdapter([{"id": "kb1", "title": "vpn timeout",
                                "body": "check the gateway"}])

    vectorizer = TfidfVectorizer().fit([docs[0].text])

    def models(rc, cc):
        return TriageModels(vectorizer,
                            (Stub("net-ops", rc), Stub("net-ops", rc)),
                            (Stub(cat, cc), Stub(cat, cc)),
                            {"category_f1": Stub("network", 0.9),
                             "category_f2": Stub("vpn", 0.9),
                             "category_f3": Stub("timeout", 0.9)})

    r1 = triage("vpn timeout", models(0.9, 0.9), db, index, adapter, pool)
    branch1 = (r1.path == "short_head" and r1.resolver_group == "net-ops"
               and not r1.manual_queue and r1.problem_category == cat
               and r1.resolutions == ["restart the vpn client"])

    r2 = triage("vpn timeout", models(0.9, 0.2), db, index, adapter, pool)
    branch2 = (r2.path == "long_tail" and r2.resolver_group == "net-ops"
               and not r2.manual_queue and r2.problem_category == cat
               and 0 < len(r2.resolutions) <= 5 and not r2.degraded)

    r3 = triage("vpn timeout", models(0.2, 0.2), db, index, adapter, pool)
    branch3 = (r3.path == "long_tail" and r3.resolver_group is None
               and r3.manual_queue and len(r3.resolutions) > 0)

    def broken(query):
        raise ConnectionError("upstream down")

    r4 = triage("vpn timeout", models(0.9, 0.2), db, index, broken, pool)
    degraded = (r4.path == "long_tail"
                and "web_search_unavailable" in r4.degraded
                and len(r4.resolutions) > 0)

    ok = branch1 and branch2 and branch3 and degraded
    _report(8, "triage branch contracts", ok,
            f"lookup={branch1} filtered-search={branch2} "
            f"manual-queue={branch3} degraded-web={degraded}")
    assert ok


# ---------------------------------------------------------------------------
# 9. determinism

DETERMINISM_COUNT = 400


def test_criterion_9_end_to_end_determinism(tmp_path):
    from tickettriage.bundle import save_bundle
    from tickettriage.corpusgen import generate_corpus
    from tickettriage.training import train_bundle

    def run(tag):
        d = tmp_path / tag
        generate_corpus(str(d), seed=3, count=DETERMINISM_COUNT,
                        image_only_fraction=0.4)
        b = train_bundle(str(d), seed=1)
        save_bundle(b, str(d / "bundle.bin"))
        records = load_corpus(str(d / "tickets.jsonl"))
        summary, rows = evaluate_corpus(str(d), records, b, "multimodal",
                                        TriageCutoffs())
        h = hashlib.sha256()
        for name in ("tickets.jsonl", "gt.jsonl", "webpages.jsonl",
                     "resolutions.json", "bundle.bin"):
            h.update((d / name).read_bytes())
        for scene in sorted(os.listdir(d / "scenes")):
            h.update((d / "scenes" / scene).read_bytes())
        h.update(json.dumps(summary, sort_keys=True).encode())
        h.update(json.dumps(rows, sort_keys=True).encode())
        return h.hexdigest()

    first, second = run("run_a"), run("run_b")
    ok = first == second
    _report(9, "seeded determinism", ok,
            f"gen+train+eval digests {'match' if ok else 'differ'} "
            f"({DETERMINISM_COUNT} tickets)")
    assert ok

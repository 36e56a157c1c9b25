"""Workload definitions and seeded input generation.

Every workload trains on a history corpus and triages held-out tickets
generated from other seeds, so no held-out ticket was seen in training. The
history is the same in every run: the model under test stays fixed, and
the run's ``--seed`` draws the traffic it serves. A history drawn per seed
moved the short-head share of the traffic, and with it every latency
percentile, by more than the metrics' bounds. The traffic itself holds a
fixed number of tickets of each category (see ``_heldout``), so the seed
changes which tickets are served, not the mix of paths they take.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from tickettriage.corpusgen import generate_corpus
from tickettriage.fixtures import TAXONOMY
from tickettriage.imaging import Rect
from tickettriage.recommend import TicketRecord, compose_category, load_corpus

# train_bundle's own seed, and the history corpus's seed.
TRAIN_SEED = 0
HISTORY_SEED = 0

# train_classifier refuses a label with fewer examples than this
MIN_PER_CLASS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                   # "multimodal" or "text": how tickets are enriched
    history: int                # tickets in the training history
    heldout: int                # held-out tickets, triaged in file order
    image_only_fraction: float  # of the held-out tickets
    cross_check: bool           # compare quality with evaluate_corpus
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "mm_mixed", "multimodal", history=400, heldout=300,
        image_only_fraction=0.1, cross_check=True,
        why="mixed traffic: 10% of tickets carry their details only in a single-dialog "
            "screenshot, so p50 tracks the text stack and p95 the screenshot path"),
    Workload(
        "text_large_index", "text", history=2000, heldout=1000,
        image_only_fraction=0.0, cross_check=False,
        why="a 5x larger history, text tickets in text mode: imaging and OCR idle, "
            "BM25 over thousands of indexed tickets dominates the long-tail tickets"),
)}


@dataclass(frozen=True)
class SceneTruth:
    boxes: tuple[Rect, ...]
    visible_tokens: tuple[tuple[str, ...], ...]  # per box, occluded tokens dropped


@dataclass
class Inputs:
    history_dir: str
    heldout_dir: str
    records: list[TicketRecord]
    truth: dict[str, SceneTruth]   # ticket id -> ground truth of its screenshot
    history_seed: int
    heldout_seed: int

    def attachment_paths(self, record: TicketRecord) -> list[str]:
        return [os.path.join(self.heldout_dir, rel) for rel in record.attachment_paths]


def build_inputs(w: Workload, seed: int, workdir: str, cache_dir: str) -> Inputs:
    """Generate the held-out corpus under workdir; the history comes from
    cache_dir, where the first run that needs it generates it."""
    history_dir, history_seed = _history(cache_dir, w.history)
    heldout_dir = os.path.join(workdir, "heldout")
    heldout_seed = 2 * seed + 1  # and 2 * seed + 2 for the text tickets
    records, gt_lines = _heldout(heldout_dir, heldout_seed, w.heldout, w.image_only_fraction,
                                 avoid_seed=history_seed)
    truth = {g["ticket_id"]: _truth_from_record(g) for g in gt_lines}
    return Inputs(history_dir, heldout_dir, records, truth, history_seed, heldout_seed)


def category_quotas(count: int) -> dict[str, int]:
    """Tickets per category in ``count`` held-out tickets: the taxonomy's
    weights, rounded by largest remainder so that they sum to ``count``."""
    total = sum(p.weight for p in TAXONOMY)
    shares = [(count * p.weight / total, compose_category(*p.fields)) for p in TAXONOMY]
    quotas = {cat: int(share) for share, cat in shares}
    by_remainder = sorted(shares, key=lambda sc: (int(sc[0]) - sc[0], sc[1]))
    for _, cat in by_remainder[:count - sum(quotas.values())]:
        quotas[cat] += 1
    return quotas


def _heldout(out_dir: str, seed: int, count: int, image_only_fraction: float,
             avoid_seed: int):
    """Exactly round(image_only_fraction * count) image-only tickets and text
    tickets without screenshots for the rest, in a seeded random order.

    Fixing the share keeps each percentile inside one cost cluster: a share
    drawn per ticket lets p50 jump between the text and the screenshot path
    from one seed to the next. Each part also holds a fixed number of tickets
    per category (``category_quotas``), taken in generation order from
    corpora of seeds ``seed + k * 1_000_003``. The category decides the path
    a ticket takes (short head or long tail) and so most of its cost; drawn
    freely, the category mix moved tickets/s by 6% between seeds.
    """
    n_images = round(image_only_fraction * count)
    records, gt_lines = [], []
    for k, (part, n, fraction) in enumerate((("images", n_images, 1.0),
                                             ("text", count - n_images, 0.0))):
        if not n:
            continue
        picked, gt = _stratified(os.path.join(out_dir, part), seed + k, n, fraction,
                                 avoid_seed)
        records += [replace(r, attachment_paths=tuple(os.path.join(part, p)
                                                      for p in r.attachment_paths))
                    for r in picked]
        for g in gt:
            g["path"] = os.path.join(part, g["path"])
            gt_lines.append(g)
    order = np.random.RandomState(seed).permutation(len(records))
    return [records[i] for i in order], gt_lines


def _stratified(out_dir: str, seed: int, count: int, image_only_fraction: float,
                avoid_seed: int) -> tuple[list[TicketRecord], list[dict]]:
    """``count`` tickets meeting ``category_quotas``, with their ground truth;
    paths are relative to out_dir."""
    wanted = category_quotas(count)
    picked: list[TicketRecord] = []
    gt_lines: list[dict] = []
    for chunk in range(100):
        chunk_seed = seed + chunk * 1_000_003
        if chunk_seed == avoid_seed:  # the history's seed: its tickets were trained on
            continue
        sub = f"c{chunk}"
        generate_corpus(os.path.join(out_dir, sub), seed=chunk_seed, count=count,
                        image_only_fraction=image_only_fraction,
                        redundant_image_fraction=0.0)
        gt = {g["ticket_id"]: g
              for g in _read_lines(os.path.join(out_dir, sub, "gt.jsonl"))}
        for r in load_corpus(os.path.join(out_dir, sub, "tickets.jsonl")):
            if wanted[r.category] == 0:
                continue
            wanted[r.category] -= 1
            picked.append(replace(r, attachment_paths=tuple(os.path.join(sub, p)
                                                            for p in r.attachment_paths)))
            if r.id in gt:
                gt_lines.append(dict(gt[r.id], path=os.path.join(sub, gt[r.id]["path"])))
        if not any(wanted.values()):
            return picked, gt_lines
    raise RuntimeError(f"no {count} held-out tickets meeting the category quotas")


def _history(cache_dir: str, count: int) -> tuple[str, int]:
    """(directory, seed) of the history corpus of ``count`` tickets.

    The history never changes between runs, so it is generated once and
    kept; it appears under its final name only when complete.
    """
    final = os.path.join(cache_dir, f"history-{count}")
    seed_file = os.path.join(final, "history_seed")
    if not os.path.exists(seed_file):
        staging = tempfile.mkdtemp(dir=cache_dir)
        corpus = os.path.join(staging, "corpus")
        seed = _trainable_history(corpus, HISTORY_SEED, count)
        with open(os.path.join(corpus, "history_seed"), "w", encoding="utf-8") as fh:
            fh.write(str(seed))
        os.replace(corpus, final)
        shutil.rmtree(staging)
    with open(seed_file, encoding="utf-8") as fh:
        return final, int(fh.read())


def _trainable_history(out_dir: str, seed: int, count: int) -> int:
    """Generate a history every label of which train_bundle accepts.

    A small history can draw a rare category fewer than MIN_PER_CLASS times,
    which train_bundle rejects by design. Such a draw is replaced by the next
    seed in a fixed sequence, so the result still depends only on ``seed``
    (and on the generator, should a later change make it draw differently).
    """
    for attempt in range(50):
        candidate = seed + attempt * 1_000_003
        generate_corpus(out_dir, seed=candidate, count=count, image_only_fraction=0.4)
        records = load_corpus(os.path.join(out_dir, "tickets.jsonl"))
        if min(Counter(r.category for r in records).values()) >= MIN_PER_CLASS:
            return candidate
        shutil.rmtree(out_dir)
    raise RuntimeError(f"no trainable history of {count} tickets near seed {seed}")


def _read_lines(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _truth_from_record(g: dict) -> SceneTruth:
    return SceneTruth(
        tuple(Rect(x, y, w, h) for x, y, w, h, _kind, _theme in g["boxes"]),
        tuple(tuple(tok for tok, *_rect, occluded in toks if not occluded)
              for toks in g["tokens"]),
    )

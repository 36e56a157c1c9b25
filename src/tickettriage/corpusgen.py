"""Synthetic ticket corpus generator.

Produces a labeled incident corpus in which a configurable fraction of
tickets carry their identifying details (application, error code, OS) only
inside an attached screenshot, with generic body text. These are the tickets
a text-only pipeline cannot place; the image pipeline recovers them.

Outputs under out_dir:
  tickets.jsonl     one TicketRecord per line
  scenes/*.ppm      rendered screenshot attachments
  gt.jsonl          per-scene ground truth (boxes + token rects)
  webpages.jsonl    knowledge-base fixture pages for the web adapter
  resolutions.json  curated resolution DB (high-volume categories only)
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

from . import font
from .errors import ParameterError
from .fixtures import TAXONOMY, CategoryProfile
from .imaging import Rect
from .raster import write_ppm
from .recommend import ResolutionDB, TicketRecord, compose_category, save_corpus
from .synthgen import GroundTruth, SceneSpec, WindowSpec, render_scene, scene_to_dict

_OS_VERSIONS = {
    "Windows": ("10", "11"),
    "Linux": ("20.04", "22.04"),
    "Mac": ("13", "14"),
}
_OS_THEME = {"Windows": "windows", "Linux": "linux", "Mac": "mac"}
_RESOLUTION_FRACTION = 0.9  # of tickets that record their gold resolution

_GENERIC_TEXTS = (
    "My application shows an error this morning, screenshot attached.",
    "Getting a popup again and again, see the attached image please.",
    "Something went wrong after the reboot, attached a screen capture.",
    "It keeps failing, screenshot attached, please take a look.",
    "The same message appears every time, picture attached for reference.",
)

_TEXT_TEMPLATES = (
    "{symptom} on {os} {ver}. {app} reported {code}. Please assist.",
    "{app} reported {code} on {os} {ver}. {symptom}. Can you help?",
    "On {os} {ver}: {symptom}. The message from {app} says {code}.",
    "{symptom}. This is {app} on {os} {ver} and the code shown is {code}.",
)


def _pick_profile(rng: np.random.RandomState) -> CategoryProfile:
    weights = np.array([p.weight for p in TAXONOMY], dtype=np.float64)
    return TAXONOMY[int(rng.choice(len(TAXONOMY), p=weights / weights.sum()))]


def _ticket_text(rng: np.random.RandomState, p: CategoryProfile,
                 os_name: str, ver: str) -> str:
    template = _TEXT_TEMPLATES[rng.randint(len(_TEXT_TEMPLATES))]
    symptom = p.symptoms[rng.randint(len(p.symptoms))]
    return template.format(symptom=symptom.capitalize(), os=os_name, ver=ver,
                           app=p.app, code=p.error_code)


def _info_scene(rng: np.random.RandomState, p: CategoryProfile, os_name: str,
                ver: str, seed: int) -> SceneSpec:
    """Single foreground dialog whose body text carries the entities."""
    body = (f"{p.app} failed", f"{p.error_code} was reported", f"{os_name} {ver}")
    canvas_w, canvas_h = 320, 240
    w = min(canvas_w - 8, (len(max(body, key=len)) + 2) * font.ADVANCE + 12)
    w = max(w, 120)
    h = int(rng.randint(80, 110))
    x = int(rng.randint(2, canvas_w - w - 2))
    y = int(rng.randint(2, canvas_h - h - 2))
    window = WindowSpec(Rect(x, y, w, h), z=0, theme=_OS_THEME[os_name],
                        kind="dialog", title="Setup Error", body_lines=body,
                        has_buttons=bool(rng.rand() < 0.7))
    background = ("flat", "gradient", "noise")[rng.randint(3)]
    return SceneSpec(canvas_w, canvas_h, background, (window,), seed)


def _gt_record(ticket_id: str, path: str, spec: SceneSpec, gt: GroundTruth) -> dict:
    return {
        "ticket_id": ticket_id,
        "path": path,
        "boxes": [[r.x, r.y, r.w, r.h, kind, theme] for r, kind, theme in gt.boxes],
        "tokens": [
            [[t.token, t.rect.x, t.rect.y, t.rect.w, t.rect.h, t.occluded]
             for t in toks]
            for toks in gt.texts
        ],
        "spec": scene_to_dict(spec),
    }


def generate_corpus(out_dir: str, seed: int, count: int,
                    image_only_fraction: float = 0.4,
                    redundant_image_fraction: float = 0.1) -> dict:
    """Write a deterministic synthetic corpus; returns the output paths.

    A count below 1 or a fraction outside [0, 1] (NaN included) raises
    ParameterError before any file is written."""
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    for name, value in (("image_only_fraction", image_only_fraction),
                        ("redundant_image_fraction", redundant_image_fraction)):
        if not 0.0 <= value <= 1.0:
            raise ParameterError(f"{name} must be in [0, 1], got {value}")
    rng = np.random.RandomState(seed)
    scenes_dir = os.path.join(out_dir, "scenes")
    os.makedirs(scenes_dir, exist_ok=True)

    records: list[TicketRecord] = []
    gt_lines: list[str] = []
    for i in range(count):
        profile = _pick_profile(rng)
        os_name = ("Windows", "Linux", "Mac")[rng.randint(3)]
        ver = _OS_VERSIONS[os_name][rng.randint(len(_OS_VERSIONS[os_name]))]
        ticket_id = f"T{seed}-{i:05d}"
        image_only = rng.rand() < image_only_fraction

        attachments: tuple[str, ...] = ()
        if image_only:
            text = _GENERIC_TEXTS[rng.randint(len(_GENERIC_TEXTS))]
        else:
            text = _ticket_text(rng, profile, os_name, ver)
        if image_only or rng.rand() < redundant_image_fraction:
            spec = _info_scene(rng, profile, os_name, ver,
                               seed=(seed * 100003 + i) & 0x7FFFFFFF)
            img, gt = render_scene(spec)
            rel = os.path.join("scenes", f"{ticket_id}.ppm")
            write_ppm(img, os.path.join(out_dir, rel))
            attachments = (rel,)
            gt_lines.append(json.dumps(_gt_record(ticket_id, rel, spec, gt),
                                       sort_keys=True))

        resolution: Optional[str] = (
            profile.resolution if rng.rand() < _RESOLUTION_FRACTION else None
        )
        records.append(TicketRecord(
            ticket_id, text, attachments, profile.resolver_group,
            profile.f1, profile.f2, profile.f3, resolution,
        ))

    tickets_path = os.path.join(out_dir, "tickets.jsonl")
    save_corpus(records, tickets_path)

    gt_path = os.path.join(out_dir, "gt.jsonl")
    with open(gt_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(gt_lines) + ("\n" if gt_lines else ""))

    web_path = os.path.join(out_dir, "webpages.jsonl")
    with open(web_path, "w", encoding="utf-8") as fh:
        for p in TAXONOMY:
            page = {
                "id": f"kb-{p.f1}-{p.f2}-{p.f3}",
                "title": f"{p.app} {p.error_code} troubleshooting",
                "body": f"{p.symptoms[0].capitalize()}. {p.resolution}",
            }
            fh.write(json.dumps(page, sort_keys=True) + "\n")

    res_path = os.path.join(out_dir, "resolutions.json")
    ResolutionDB({compose_category(*p.fields): p.resolution
                  for p in TAXONOMY if p.head}).save(res_path)

    return {"tickets": tickets_path, "gt": gt_path, "webpages": web_path,
            "resolutions": res_path, "scenes_dir": scenes_dir}

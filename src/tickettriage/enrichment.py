"""Ticket text enrichment: dictionary/regex entity extraction, correlation
of text- and image-derived entities (ticket text wins conflicts), and slot
insertion of the form "[<slot> = value]" for the seven slots of SLOTS, in
that order: errmsg, errcode, appname, os, osver, component, version.

Screenshot text is corrected before extraction with fixed settings: each
OCR token below full confidence goes to the nearest term-dictionary entry
within 2 edits, then a bigram LM (lambda = 0.7) rewrites tokens below
confidence 0.9 and fills occlusion gaps (see textextract).

Enrichment only ever inserts, so the original text stays a subsequence of
the enriched text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .imaging import WindowDetection


@dataclass
class EntitySet:
    os: Optional[str] = None
    os_version: Optional[str] = None
    app_name: Optional[str] = None
    components: list[str] = field(default_factory=list)
    version: Optional[str] = None
    error_code: Optional[str] = None
    error_message: Optional[str] = None


class EntityDictionaries:
    """Domain dictionaries: OS aliases, application names, components.

    Each term's word-boundary matcher is compiled once, here.
    """

    def __init__(self, os_aliases: dict[str, str], apps: Sequence[str],
                 components: Sequence[str]):
        # alias -> canonical, matched case-insensitively, longest alias first
        self.os_aliases = {k.lower(): v for k, v in os_aliases.items()}
        self.apps = sorted(apps, key=lambda a: (-len(a), a))
        self.components = sorted(components, key=lambda c: (-len(c), c))
        self.os_matchers = _matchers(sorted(self.os_aliases, key=lambda a: (-len(a), a)))
        self.app_matchers = _matchers(self.apps)
        self.component_matchers = _matchers(list(dict.fromkeys(self.components)))


def _matchers(terms: Sequence[str]) -> list[tuple[str, re.Pattern]]:
    """(term, word-boundary pattern) pairs, in the order given; the patterns
    search lower-cased text."""
    return [(t, re.compile(r"(?<!\w)" + re.escape(t.lower()) + r"(?!\w)")) for t in terms]


_ERROR_CODE_PATTERNS = (
    re.compile(r"\bError\s+\d+\b", re.IGNORECASE),
    re.compile(r"\bHRESULT:\s*0x[0-9A-Fa-f]+\b"),
    re.compile(r"\b0x[0-9A-Fa-f]{4,}\b"),
)
_VERSION_RE = re.compile(r"\b\d+(?:\.\d+)+\b")
_TRAILING_NUM_RE = re.compile(r"^\s*(\d+(?:\.\d+)*)\b")
_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def _fold(text: str) -> str:
    """text lower-cased character by character, so that every position in it
    indexes the same character of text. A character whose lower case is
    longer (Turkish "İ" becomes "i̇") is kept as it is."""
    lower = text.lower()
    if len(lower) == len(text):  # lower-casing never shortens a character
        return lower
    return "".join(c if len(c.lower()) > 1 else c.lower() for c in text)


def extract_entities(text: str, dictionaries: EntityDictionaries) -> EntitySet:
    """Longest-match dictionary scan + regex families for codes and versions."""
    e = EntitySet()
    if not text:
        return e
    lower = _fold(text)

    # OS: earliest alias occurrence; longest alias wins on equal position
    best = None
    for alias, pat in dictionaries.os_matchers:  # longest first
        m = pat.search(lower)
        if m and (best is None or m.start() < best[0]):
            best = (m.start(), alias)
    if best is not None:
        pos, alias = best
        e.os = dictionaries.os_aliases[alias]
        m = _TRAILING_NUM_RE.match(text[pos + len(alias):])
        if m:
            e.os_version = m.group(1)
        else:
            # aliases like "win10" carry the version in their own spelling
            embedded = re.search(r"(\d+(?:\.\d+)*)$", alias)
            if embedded:
                e.os_version = embedded.group(1)

    for app, pat in dictionaries.app_matchers:  # longest first
        if pat.search(lower):
            e.app_name = app
            break

    # components by first mention; longest first on equal position
    mentions: list[tuple[int, str]] = []
    for comp, pat in dictionaries.component_matchers:
        m = pat.search(lower)
        if m:
            mentions.append((m.start(), comp))
    mentions.sort(key=lambda mc: mc[0])
    e.components = [comp for _, comp in mentions]

    # the first pattern family that matches wins, not the earliest mention
    for pat in _ERROR_CODE_PATTERNS:
        m = pat.search(text)
        if m:
            e.error_code = m.group(0)
            break
    if e.error_code:
        for sentence in _SENTENCE_SPLIT.split(text):
            if any(pat.search(sentence) for pat in _ERROR_CODE_PATTERNS):
                e.error_message = sentence.strip()
                break

    m = _VERSION_RE.search(text)
    if m:
        e.version = m.group(0)
    return e


def correlate(text_entities: EntitySet, image_entities: EntitySet,
              image_detections: Sequence[WindowDetection] = ()) -> EntitySet:
    """Field-wise merge; the user's own words win, image fills the gaps."""
    merged = EntitySet()
    for attr in ("os", "os_version", "app_name", "version", "error_code", "error_message"):
        setattr(merged, attr, getattr(text_entities, attr) or getattr(image_entities, attr))

    merged.components = list(text_entities.components)
    for comp in image_entities.components:
        if comp not in merged.components:
            merged.components.append(comp)

    if merged.os is None:
        for det in image_detections:
            if det.os_category != "unknown":
                merged.os = det.os_category.capitalize()
                break
    if merged.app_name is None:
        for det in image_detections:
            if det.app_category != "other":
                merged.app_name = det.app_category
                break
    return merged


# ---------------------------------------------------------------------------
# slot filling

# (slot name, EntitySet field), in insertion order
SLOTS = (
    ("errmsg", "error_message"),
    ("errcode", "error_code"),
    ("appname", "app_name"),
    ("os", "os"),
    ("osver", "os_version"),
    ("component", "components"),
    ("version", "version"),
)


@dataclass
class EnrichedTicket:
    original_text: str
    enriched_text: str
    entities: EntitySet
    image_windows: list[tuple[WindowDetection, str]] = field(default_factory=list)


def _slot_values(e: EntitySet, entity_field: str) -> list[str]:
    value = getattr(e, entity_field)
    if value is None:
        return []
    return list(value) if isinstance(value, list) else [value]


def fill_slots(ticket_text: str, e: EntitySet) -> EnrichedTicket:
    """Insert "[<slot> = value]" after the first mention of each filled value,
    or collect unmentioned values in an "Extracted context:" trailer."""
    enriched = ticket_text
    trailer: list[str] = []
    for slot_name, entity_field in SLOTS:
        for value in _slot_values(e, entity_field):
            annotation = f"[<{slot_name}> = {value}]"
            pos = _fold(enriched).find(_fold(value))
            if pos >= 0:
                end = pos + len(value)
                enriched = enriched[:end] + " " + annotation + enriched[end:]
            else:
                trailer.append(annotation)
    if trailer:
        enriched = enriched + ("\n" if enriched else "") + "Extracted context: " + " ".join(trailer)
    return EnrichedTicket(ticket_text, enriched, e)


# ---------------------------------------------------------------------------
# full multimodal enrichment

def enrich_multimodal(ticket_text: str, images, detection_params, filter_model,
                      category_model, dictionaries: EntityDictionaries,
                      lm, app_dictionary) -> EnrichedTicket:
    """Run the image pipeline over attachments and enrich the ticket text."""
    from .imaging import detect_windows
    from .textextract import correct_token, lm_correct_sequence, ocr_window

    windows: list[tuple[WindowDetection, str]] = []
    for img in images:
        detections = detect_windows(img, detection_params, filter_model, category_model)
        for det in detections:
            tokens = [correct_token(t, app_dictionary) if t.confidence < 1.0 else t
                      for t in ocr_window(img, det.rect)]
            tokens = lm_correct_sequence(tokens, lm)
            windows.append((det, " ".join(t.text for t in tokens)))

    text_entities = extract_entities(ticket_text, dictionaries)
    image_text = "\n".join(text for _, text in windows)
    image_entities = extract_entities(image_text, dictionaries)
    merged = correlate(text_entities, image_entities, [d for d, _ in windows])
    enriched = fill_slots(ticket_text, merged)
    enriched.image_windows = windows
    return enriched

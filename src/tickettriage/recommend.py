"""Routing and resolution recommendation.

Head/tail corpus split, composite problem categories, resolution lookup, and
the confidence-gated orchestration: short-head tickets resolve by database
lookup, everything else goes through federated corpus+web search with CORI
merging, and a resolver-group confidence below its cutoff lands the ticket
in the manual queue.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .classify import TextClassifierModel, TfidfVectorizer, ensemble_predict
from .errors import ConsistencyError, ParameterError
from .search import (
    RankedResult,
    ResourcePool,
    SearchIndex,
    WebAdapter,
    cori_merge,
    web_search,
)

CATEGORY_SEP = "\x1f"

SUBFIELDS = ("category_f1", "category_f2", "category_f3")
_REQUIRED = ("id", "text", "resolver_group", *SUBFIELDS)  # string fields of a ticket line


@dataclass(frozen=True)
class TicketRecord:
    id: str
    text: str
    attachment_paths: tuple[str, ...]
    resolver_group: str
    category_f1: str
    category_f2: str
    category_f3: str
    resolution: Optional[str] = None

    @property
    def category(self) -> str:
        return compose_category(self.category_f1, self.category_f2, self.category_f3)

    def to_json(self) -> str:
        return json.dumps({
            "id": self.id, "text": self.text,
            "attachments": list(self.attachment_paths),
            "resolver_group": self.resolver_group,
            "category_f1": self.category_f1,
            "category_f2": self.category_f2,
            "category_f3": self.category_f3,
            "resolution": self.resolution,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, line: str | bytes) -> "TicketRecord":
        d = json.loads(line)
        if not isinstance(d, dict) or not all(isinstance(d.get(k), str) for k in _REQUIRED):
            raise ValueError(f"not an object with string fields {', '.join(_REQUIRED)}")
        return cls(d["id"], d["text"], tuple(d.get("attachments", ())),
                   d["resolver_group"], d["category_f1"], d["category_f2"],
                   d["category_f3"], d.get("resolution"))


def load_corpus(path) -> list[TicketRecord]:
    """Reads a JSONL ticket file; a malformed line, invalid UTF-8 included,
    raises ConsistencyError naming path:line."""
    records = []
    with open(path, "rb") as fh:  # json.loads decodes each line itself
        for lineno, line in enumerate(fh, 1):
            try:
                if line.strip():
                    records.append(TicketRecord.from_json(line))
            except (ValueError, TypeError) as exc:  # TypeError: attachments not a list
                raise ConsistencyError(f"{path}:{lineno}: bad ticket: {exc}") from exc
    return records


def save_corpus(records: Sequence[TicketRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(r.to_json() + "\n")


def compose_category(f1: str, f2: str, f3: str) -> str:
    for f in (f1, f2, f3):
        if not f:
            raise ParameterError("category sub-fields must be non-empty")
        if CATEGORY_SEP in f:
            raise ParameterError("category sub-field contains the reserved separator")
    return CATEGORY_SEP.join((f1, f2, f3))


def display_category(label: str) -> str:
    return label.replace(CATEGORY_SEP, "/")


# ---------------------------------------------------------------------------
# resolution DB and head/tail split

class ResolutionDB:
    """category -> curated resolution text."""

    def __init__(self, entries: dict[str, str]):
        self.entries = dict(entries)

    def lookup(self, category: str) -> Optional[str]:
        return self.entries.get(category)

    def has(self, category: str) -> bool:
        return category in self.entries

    @classmethod
    def from_file(cls, path) -> "ResolutionDB":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.entries, fh, sort_keys=True, indent=1, ensure_ascii=False)


@dataclass
class CorpusSplit:
    histogram: dict[str, int]
    freq_threshold: int
    head_categories: set[str]
    head: list[TicketRecord]
    tail: list[TicketRecord]

    @property
    def head_fraction(self) -> float:
        total = len(self.head) + len(self.tail)
        return len(self.head) / total if total else 0.0


def split_head_tail(corpus: Sequence[TicketRecord], freq_threshold: int,
                    db: ResolutionDB) -> CorpusSplit:
    """Head = categories at or above the frequency threshold that also have a
    curated resolution; the partition of tickets follows."""
    histogram: dict[str, int] = {}
    for r in corpus:
        histogram[r.category] = histogram.get(r.category, 0) + 1
    head_cats = {c for c, n in histogram.items()
                 if n >= freq_threshold and db.has(c)}
    head = [r for r in corpus if r.category in head_cats]
    tail = [r for r in corpus if r.category not in head_cats]
    return CorpusSplit(histogram, freq_threshold, head_cats, head, tail)


# ---------------------------------------------------------------------------
# triage orchestration

@dataclass
class TriageCutoffs:
    conf_resolv: float = 0.7
    conf_prob: float = 0.7
    conf_subfield: float = 0.6
    top_n: int = 5

    def __post_init__(self):
        for name in ("conf_resolv", "conf_prob", "conf_subfield"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name}_cutoff must be in [0, 1], got {value}")
        if self.top_n < 1:
            raise ParameterError(f"top_n must be >= 1, got {self.top_n}")


@dataclass
class TriageModels:
    vectorizer: TfidfVectorizer  # shared by every head below
    resolver_pair: tuple[TextClassifierModel, TextClassifierModel]
    category_pair: tuple[TextClassifierModel, TextClassifierModel]
    subfield_models: dict[str, TextClassifierModel]  # keyed by SUBFIELDS


@dataclass
class TriageResult:
    resolver_group: Optional[str]  # None = manual queue
    problem_category: Optional[str]
    resolutions: list[str]
    path: str  # short_head | long_tail
    confidences: dict[str, float]
    results: list[RankedResult] = field(default_factory=list)
    degraded: list[str] = field(default_factory=list)

    @property
    def manual_queue(self) -> bool:
        return self.resolver_group is None


def triage(enriched_text: str, models: TriageModels, db: ResolutionDB,
           index: SearchIndex, adapter: Optional[WebAdapter],
           pool: ResourcePool, cutoffs: TriageCutoffs = TriageCutoffs()) -> TriageResult:
    """Confidence-gated routing + resolution for one enriched ticket."""
    x = models.vectorizer.transform([enriched_text])
    resolv_label, resolv_conf = ensemble_predict(*models.resolver_pair, x)
    cat_label, cat_conf = ensemble_predict(*models.category_pair, x)
    confidences = {"resolver_group": resolv_conf, "problem_category": cat_conf}

    # short head: both gates confident and the category has a curated
    # resolution; a confident category without one is searched like the tail
    if (resolv_conf > cutoffs.conf_resolv and cat_conf > cutoffs.conf_prob
            and db.has(cat_label)):
        return TriageResult(resolv_label, cat_label, [db.lookup(cat_label)], "short_head",
                            confidences)

    # long tail: keep confident fields as search filters
    filter_fields: dict[str, str] = {}
    if resolv_conf > cutoffs.conf_resolv:
        final_resolv: Optional[str] = resolv_label
        filter_fields["resolver_group"] = resolv_label
    else:
        final_resolv = None  # manual queue

    for sf in SUBFIELDS:
        model = models.subfield_models[sf]
        label, conf = model.predict(x)
        confidences[sf] = conf
        if conf > cutoffs.conf_subfield:
            filter_fields[sf] = label

    degraded = []
    corpus_results = index.search(enriched_text, filter_fields)
    if not corpus_results and filter_fields:
        # filters can over-constrain a sparse corpus; retry unfiltered
        corpus_results = index.search(enriched_text)
        degraded.append("search_filters_relaxed")
    if adapter is not None:
        web_results = web_search(adapter, enriched_text)
        if not web_results:
            degraded.append("web_search_unavailable")
    else:
        web_results = []
        degraded.append("web_search_unavailable")

    merged = cori_merge(corpus_results + web_results, pool.resource_scores(enriched_text),
                        top_n=cutoffs.top_n)
    top_corpus = next((r for r in merged if r.source == "ticket_corpus"), None)
    problem_category = top_corpus.category if top_corpus else None
    return TriageResult(final_resolv, problem_category,
                        [r.snippet for r in merged], "long_tail",
                        confidences, results=merged, degraded=degraded)


# ---------------------------------------------------------------------------
# savings model

@dataclass(frozen=True)
class Savings:
    assign_hours: float
    resolve_hours: float

    @property
    def total_hours(self) -> float:
        return self.assign_hours + self.resolve_hours


ASSIGN_MINUTES = 3.0
RESOLVE_MINUTES = 10.0

# The formula with N=1.2M/yr, T_cov=0.9, R_cov=0.8 yields 214,000 hours;
# the published figure for the same inputs is about 194,000. We report the
# formula's value and surface the discrepancy in the CLI report.
PUBLISHED_SAVINGS_NOTE = (
    "note: the originally reported figure for N=1,200,000, T_cov=0.9, "
    "R_cov=0.8 was about 194,000 hours; the stated formulas give 214,000."
)


def savings(n_tickets_per_year: float, t_cov: float, r_cov: float) -> Savings:
    """Man-hour savings from automated assignment and resolution coverage."""
    if not (0.0 <= t_cov <= 1.0 and 0.0 <= r_cov <= 1.0):
        raise ParameterError("coverages must be in [0,1]")
    assign = n_tickets_per_year * t_cov * ASSIGN_MINUTES / 60.0
    resolve = n_tickets_per_year * r_cov * RESOLVE_MINUTES / 60.0
    return Savings(assign, resolve)

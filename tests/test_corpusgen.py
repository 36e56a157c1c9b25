import json
import math
import os

import pytest

from tickettriage.corpusgen import generate_corpus
from tickettriage.errors import ParameterError
from tickettriage.fixtures import TAXONOMY
from tickettriage.recommend import load_corpus


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_generation_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_corpus(str(a), seed=5, count=40)
    generate_corpus(str(b), seed=5, count=40)
    for name in ("tickets.jsonl", "gt.jsonl", "webpages.jsonl", "resolutions.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    for scene in sorted(os.listdir(a / "scenes")):
        assert (a / "scenes" / scene).read_bytes() == (b / "scenes" / scene).read_bytes()


@pytest.mark.parametrize("kwargs", [
    {"count": 0}, {"count": -3},
    {"image_only_fraction": 7.0}, {"image_only_fraction": -0.1},
    {"image_only_fraction": math.nan},
    {"redundant_image_fraction": 1.5}, {"redundant_image_fraction": math.nan},
])
def test_out_of_range_arguments_are_refused_before_writing(tmp_path, kwargs):
    out = tmp_path / "c"
    with pytest.raises(ParameterError, match=next(iter(kwargs))):
        generate_corpus(str(out), **{"seed": 1, "count": 5, **kwargs})
    assert not out.exists()


def test_corpus_structure(corpus_dir):
    records = load_corpus(os.path.join(corpus_dir, "tickets.jsonl"))
    assert len(records) == 400
    valid_cats = {p.fields for p in TAXONOMY}
    for r in records:
        assert (r.category_f1, r.category_f2, r.category_f3) in valid_cats
        for rel in r.attachment_paths:
            assert os.path.exists(os.path.join(corpus_dir, rel))


def test_image_only_tickets_have_no_entities_in_text(corpus_dir):
    from tickettriage.enrichment import EntitySet, extract_entities
    from tickettriage.fixtures import entity_dictionaries

    records = load_corpus(os.path.join(corpus_dir, "tickets.jsonl"))
    image_only = [r for r in records if r.attachment_paths
                  and extract_entities(r.text, entity_dictionaries()) == EntitySet()]
    # ~40% of 400 tickets carry their entities only in the screenshot
    assert 0.3 <= len(image_only) / len(records) <= 0.5


def test_ground_truth_references_existing_scenes(corpus_dir):
    gt = _read_jsonl(os.path.join(corpus_dir, "gt.jsonl"))
    records = {r.id: r for r in load_corpus(os.path.join(corpus_dir, "tickets.jsonl"))}
    assert gt
    for row in gt:
        assert os.path.exists(os.path.join(corpus_dir, row["path"]))
        assert row["ticket_id"] in records
        assert row["boxes"]
        assert row["tokens"]


def test_resolution_db_covers_high_volume_categories(corpus_dir):
    with open(os.path.join(corpus_dir, "resolutions.json"), encoding="utf-8") as fh:
        db = json.load(fh)
    head_cats = {"\x1f".join(p.fields) for p in TAXONOMY if p.head}
    assert set(db) == head_cats
    assert all(db.values())


def test_webpages_cover_every_category(corpus_dir):
    pages = _read_jsonl(os.path.join(corpus_dir, "webpages.jsonl"))
    assert len(pages) == len(TAXONOMY)
    assert all(p["title"] and p["body"] for p in pages)

from tickettriage.enrichment import (
    SLOTS,
    EntityDictionaries,
    EntitySet,
    correlate,
    enrich_multimodal,
    extract_entities,
    fill_slots,
)
from tickettriage.fixtures import entity_dictionaries
from tickettriage.imaging import WindowDetection, Rect


def _is_subsequence(a: str, b: str) -> bool:
    it = iter(b)
    return all(ch in it for ch in a)


def test_extract_entities_from_installer_failure_text():
    text = ("Error 1935. An error occurred during the installation of assembly "
            "component. HRESULT: 0x800736FD. Setup of Crystal Reports Runtime "
            "Engine failed on Windows 10.")
    e = extract_entities(text, entity_dictionaries())
    assert e.error_code == "Error 1935"
    assert e.error_message is not None and "Error 1935" in e.error_message
    assert e.app_name == "Crystal Reports Runtime Engine"
    assert e.os == "Windows"
    assert e.os_version == "10"


def test_extract_entities_os_alias_and_version():
    e = extract_entities("crash on Win10 after patch", entity_dictionaries())
    assert e.os == "Windows"
    assert e.os_version == "10"
    e2 = extract_entities("running Ubuntu 22.04 with docker", entity_dictionaries())
    assert e2.os == "Linux"
    assert e2.os_version == "22.04"


def test_extract_entities_prefers_longest_app_match():
    e = extract_entities("Crystal Reports Runtime Engine will not start",
                         entity_dictionaries())
    assert e.app_name == "Crystal Reports Runtime Engine"


def test_extract_entities_hex_code_family():
    e = extract_entities("sync fails with 0x8004010F repeatedly", entity_dictionaries())
    assert e.error_code == "0x8004010F"


def test_extract_entities_error_code_family_order_beats_position():
    # the first pattern family that matches wins, not the earliest mention
    e = extract_entities("0x80070005 and then Error 5", entity_dictionaries())
    assert e.error_code == "Error 5"


def test_extract_entities_word_boundaries():
    # "mac" must not match inside "machine"
    e = extract_entities("the machine reboots nightly", entity_dictionaries())
    assert e.os is None


def test_extract_entities_dictionary_rules():
    d = EntityDictionaries({"Win": "Windows", "Win 10": "Windows 10", "Ubuntu": "Linux"},
                           ["Mail", "Mail Sync"],
                           ["disk", "disk driver", "network", "disk"])
    # OS: the earliest alias wins; on a tie, the longest
    assert extract_entities("Win 10 then Ubuntu", d).os == "Windows 10"
    assert extract_entities("Ubuntu then Win 10", d).os == "Linux"
    # app: the first match in longest-first order, wherever it is
    assert extract_entities("mail fails; Mail Sync too", d).app_name == "Mail Sync"
    # components: by first mention, longest first on equal position, no repeats
    e = extract_entities("network disk driver failure, disk full", d)
    assert e.components == ["network", "disk driver", "disk"]


def test_extract_entities_empty_text():
    assert extract_entities("", entity_dictionaries()) == EntitySet()


def test_extract_entities_positions_survive_growing_lower_case():
    # "İ".lower() is two characters, so text.lower() is longer than text
    e = extract_entities("İİ Windows 10 crashed", entity_dictionaries())
    assert (e.os, e.os_version) == ("Windows", "10")
    e = extract_entities("İstanbul office: Ubuntu 22.04 login fails", entity_dictionaries())
    assert (e.os, e.os_version) == ("Linux", "22.04")


def test_correlate_text_wins_image_fills_gaps():
    text_e = EntitySet(os="Windows", error_code="Error 42")
    image_e = EntitySet(os="Linux", app_name="Outlook", error_code="Error 99")
    merged = correlate(text_e, image_e)
    assert merged.os == "Windows"
    assert merged.error_code == "Error 42"
    assert merged.app_name == "Outlook"


def test_correlate_falls_back_to_window_categories():
    det = WindowDetection(Rect(0, 0, 50, 40), 0.9, "console", "linux", 0.8)
    merged = correlate(EntitySet(), EntitySet(), [det])
    assert merged.os == "Linux"
    assert merged.app_name == "console"


def test_fill_slots_annotates_mentions_inline():
    e = EntitySet(error_code="Error 42")
    out = fill_slots("app crashed with Error 42 today", e)
    assert "[<errcode> = Error 42]" in out.enriched_text
    assert out.enriched_text.index("Error 42") < out.enriched_text.index("[<errcode>")
    assert "Extracted context" not in out.enriched_text


def test_fill_slots_unmentioned_values_go_to_trailer():
    e = EntitySet(app_name="Outlook", os="Windows")
    out = fill_slots("mail will not send", e)
    assert "Extracted context:" in out.enriched_text
    assert "[<appname> = Outlook]" in out.enriched_text
    assert "[<os> = Windows]" in out.enriched_text


def test_fill_slots_positions_survive_growing_lower_case():
    out = fill_slots("İİ Windows 10 crashed", EntitySet(os="Windows", os_version="10"))
    assert out.enriched_text == "İİ Windows [<os> = Windows] 10 [<osver> = 10] crashed"
    out = fill_slots("İİ crash: see İD-7 log", EntitySet(error_code="İD-7"))
    assert out.enriched_text == "İİ crash: see İD-7 [<errcode> = İD-7] log"


def test_fill_slots_preserves_original_as_subsequence():
    text = "Outlook sync fails on Win10 with Error 42"
    e = extract_entities(text, entity_dictionaries())
    out = fill_slots(text, e)
    assert out.original_text == text
    assert _is_subsequence(text, out.enriched_text)


def test_fill_slots_with_every_field_set():
    # slots go in SLOTS order: errmsg first, so errcode annotates the first
    # "Error 42", inside the sentence errmsg repeats
    e = EntitySet(os="Windows", os_version="10", app_name="Outlook",
                  components=["disk", "network"], version="2.1.0",
                  error_code="Error 42", error_message="Outlook stopped with Error 42.")
    out = fill_slots("Outlook stopped with Error 42. The disk is full on Windows 10.", e)
    assert out.enriched_text == (
        "Outlook [<appname> = Outlook] stopped with Error 42 [<errcode> = Error 42]. "
        "[<errmsg> = Outlook stopped with Error 42.] The disk [<component> = disk] "
        "is full on Windows [<os> = Windows] 10 [<osver> = 10].\n"
        "Extracted context: [<component> = network] [<version> = 2.1.0]")


def test_default_template_slot_names_unique():
    names = [n for n, _ in SLOTS]
    assert len(names) == len(set(names))


def test_enrich_multimodal_recovers_entities_from_screenshot(bundle, corpus_dir):
    """A ticket whose text has no entities gains them from its screenshot."""
    import json
    import os
    from tickettriage.raster import read_ppm

    with open(os.path.join(corpus_dir, "tickets.jsonl"), encoding="utf-8") as fh:
        tickets = [json.loads(line) for line in fh]

    dicts = entity_dictionaries()
    checked = with_code = with_app = 0
    for t in tickets:
        if not t["attachments"]:
            continue
        text_e = extract_entities(t["text"], dicts)
        if text_e.error_code is not None:
            continue  # text already carries the entities
        img = read_ppm(os.path.join(corpus_dir, t["attachments"][0]))
        enriched = enrich_multimodal(
            t["text"], [img], bundle.detection_params, bundle.filter_model,
            bundle.category_model, dicts, lm=bundle.lm,
            app_dictionary=bundle.term_dictionary)
        assert _is_subsequence(t["text"], enriched.enriched_text)
        checked += 1
        with_code += enriched.entities.error_code is not None
        with_app += enriched.entities.app_name is not None
        if checked == 10:
            break
    assert checked == 10
    # an occluded or missed window can hide the code line in a few scenes
    assert with_code >= 8
    assert with_app == 10


def test_enrich_multimodal_reaches_every_wrapped_name(bundle, monkeypatch):
    """External tracers patch these attributes; the screenshot path must
    still call through them, not around them."""
    from tickettriage import imaging, textextract
    from tickettriage.synthgen import random_scene, render_scene

    calls = {}

    def count(owner, attr, key):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    for name in ("detect_contour_boxes", "detect_edge_boxes", "window_features"):
        count(imaging, name, name)
    count(textextract, "ocr_window", "ocr_window")
    count(textextract.GlyphOcrEngine, "__call__", "GlyphOcrEngine.__call__")

    img, _ = render_scene(random_scene(4242, n_windows=1))
    enriched = enrich_multimodal(
        "it crashed", [img], bundle.detection_params, bundle.filter_model,
        bundle.category_model, entity_dictionaries(), lm=bundle.lm,
        app_dictionary=bundle.term_dictionary)
    assert enriched.image_windows
    assert sorted(calls) == sorted([
        "detect_contour_boxes", "detect_edge_boxes", "window_features",
        "ocr_window", "GlyphOcrEngine.__call__"])


def test_enrich_multimodal_calls_the_engine_with_image_and_rect(bundle, corpus_dir,
                                                               monkeypatch):
    """The OCR engine contract is (image, rect): an engine that takes nothing
    more still reads every detected window."""
    import os
    from tickettriage import textextract
    from tickettriage.raster import read_ppm
    from tickettriage.recommend import load_corpus

    original = textextract.GlyphOcrEngine.__call__
    rects = []

    def image_and_rect(self, img, r):
        rects.append(r)
        return original(self, img, r)
    monkeypatch.setattr(textextract.GlyphOcrEngine, "__call__", image_and_rect)

    record = next(r for r in load_corpus(os.path.join(corpus_dir, "tickets.jsonl"))
                  if r.attachment_paths)
    img = read_ppm(os.path.join(corpus_dir, record.attachment_paths[0]))
    enriched = enrich_multimodal(
        record.text, [img], bundle.detection_params, bundle.filter_model,
        bundle.category_model, entity_dictionaries(), lm=bundle.lm,
        app_dictionary=bundle.term_dictionary)
    assert enriched.image_windows
    assert len(rects) >= len(enriched.image_windows)

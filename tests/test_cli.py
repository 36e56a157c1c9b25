import json
import shlex
from pathlib import Path
from types import SimpleNamespace

import pytest

from tickettriage import config, corpusgen, evalharness, recommend, training
from tickettriage import bundle as bundle_io
from tickettriage.cli import _cutoffs, build_parser, main
from tickettriage.recommend import TriageCutoffs, TriageResult


def test_savings_command_prints_hours_and_note(capsys):
    rc = main(["savings", "--tickets-per-year", "1200000",
               "--assign-coverage", "0.9", "--resolve-coverage", "0.8"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out.splitlines()[0])
    assert payload == {"assign_hours": 54000.0, "resolve_hours": 160000.0,
                       "total_hours": 214000.0}
    assert "194,000" in out
    assert "214,000" in out


def test_invalid_coverage_is_a_usage_error(capsys):
    rc = main(["savings", "--tickets-per-year", "1000",
               "--assign-coverage", "2.0", "--resolve-coverage", "0.5"])
    assert rc == 2


def test_bad_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sede = 7\n")
    rc = main(["gen", "--out", str(tmp_path / "c"), "--config", str(cfg)])
    assert rc == 2


@pytest.mark.parametrize("key", ["gaussian_sigma", "binarize_threshold", "canny_low",
                                 "canny_high", "hough_min_line_frac", "min_window_w",
                                 "min_window_h", "iou_dedup_threshold",
                                 "window_conf_cutoff"])
def test_detection_config_keys_are_usage_errors(tmp_path, capsys, key):
    # these keys never reached the detector, so they are not accepted
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 10\n")
    rc = main(["triage", "--bundle", str(tmp_path / "missing.bin"),
               "--text", "printer is broken", "--config", str(cfg)])
    assert rc == 2


@pytest.mark.parametrize("argv", [["triage", "--text", "printer is broken"],
                                  ["eval", "--corpus", "c"]])
def test_seed_is_a_usage_error_on_triage_and_eval(tmp_path, capsys, argv):
    # triage and eval draw no random numbers; --seed stays on gen and train
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--bundle", str(tmp_path / "m.bin"), "--seed", "1"])
    assert exc.value.code == 2


def test_missing_bundle_is_a_runtime_failure(tmp_path, capsys):
    rc = main(["triage", "--bundle", str(tmp_path / "missing.bin"),
               "--text", "printer is broken"])
    assert rc == 3


def test_triage_without_input_is_a_usage_error_before_loading(tmp_path, capsys):
    # the missing bundle is never opened: the usage error comes first
    rc = main(["triage", "--bundle", str(tmp_path / "missing.bin")])
    assert rc == 2
    assert "--tickets or --text" in capsys.readouterr().err


def test_triage_tickets_and_text_together_are_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["triage", "--bundle", str(tmp_path / "m.bin"),
              "--tickets", str(tmp_path / "t.jsonl"), "--text", "printer is broken"])
    assert exc.value.code == 2


def test_freq_threshold_is_a_usage_error(tmp_path, capsys):
    # the split's threshold is worked out from the corpus size; nothing sets it
    argv = ["train", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "m.bin")]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("freq_threshold = 9\n")
    assert main(argv + ["--config", str(cfg)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--freq-threshold", "9"])
    assert exc.value.code == 2


_GOOD_TICKET = json.dumps({"id": "t1", "text": "vpn drops", "resolver_group": "network",
                           "category_f1": "a", "category_f2": "b", "category_f3": "c"})


@pytest.mark.parametrize("bad_line", ['{"id": "x", "text": "vpn"}', "not json", "[1, 2]"])
@pytest.mark.parametrize("command", ["triage", "eval", "train"])
def test_malformed_ticket_file_is_a_runtime_failure(tmp_path, capsys, bundle_path,
                                                    command, bad_line):
    corpus = tmp_path / "c"
    corpus.mkdir()
    tickets = corpus / "tickets.jsonl"
    tickets.write_text(f"{_GOOD_TICKET}\n{bad_line}\n")
    # the tickets are read before the bundle, so a real and a missing one fail alike
    outs = [str(tmp_path / "out.bin")] if command == "train" else [
        bundle_path, str(tmp_path / "missing.bin")]
    for path in outs:
        argv = {"triage": ["triage", "--bundle", path, "--tickets", str(tickets)],
                "eval": ["eval", "--bundle", path, "--corpus", str(corpus)],
                "train": ["train", "--corpus", str(corpus), "--out", path]}[command]
        assert main(argv) == 3, path
        assert f"{tickets}:2" in capsys.readouterr().err, path


# one out-of-range value per cutoff key
_BAD_CUTOFFS = ("conf_resolv_cutoff = 7.0", "conf_prob_cutoff = -0.5",
                "conf_subfield_cutoff = 1.01", "top_n = -1", "top_n = 0")


@pytest.mark.parametrize("command", ["triage", "eval"])
def test_bad_cutoffs_are_usage_errors_before_loading(tmp_path, capsys, command):
    argv = {"triage": ["triage", "--text", "printer is broken"],
            "eval": ["eval", "--corpus", str(tmp_path)]}[command]
    argv += ["--bundle", str(tmp_path / "missing.bin")]
    for i, line in enumerate(_BAD_CUTOFFS):
        cfg = tmp_path / f"bad{i}.cfg"
        cfg.write_text(line + "\n")
        assert main(argv + ["--config", str(cfg)]) == 2, line
        assert line.split(" = ")[0] in capsys.readouterr().err, line
    if command == "triage":
        assert main(argv + ["--top-n", "-1"]) == 2
        assert "top_n" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_eval_limit_below_one_is_a_usage_error_before_loading(tmp_path, capsys, limit):
    # the missing bundle is never opened: the usage error comes first
    rc = main(["eval", "--corpus", str(tmp_path), "--bundle", str(tmp_path / "missing.bin"),
               "--limit", limit])
    assert rc == 2
    assert "--limit" in capsys.readouterr().err


def test_cutoffs_accept_their_bounds():
    assert _cutoffs({"conf_resolv_cutoff": 0.0, "conf_prob_cutoff": 1.0,
                     "conf_subfield_cutoff": 1.0, "top_n": 1}) == TriageCutoffs(0.0, 1.0, 1.0, 1)


def _readme_cli_commands():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("tickettriage "):
            commands.append(shlex.split(line)[1:])
    return commands


def test_readme_cli_examples_parse():
    commands = _readme_cli_commands()
    assert {argv[0] for argv in commands} == {"gen", "train", "triage", "eval", "savings"}
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        if args.command == "triage":
            assert args.tickets or args.text, argv


def test_triage_single_text(bundle_path, capsys):
    rc = main(["triage", "--bundle", bundle_path, "--text",
               "Vpn drops every hour on Windows 10. VPN Client reported Error 789."])
    out = capsys.readouterr().out
    assert rc == 0
    row = json.loads(out.splitlines()[0])
    assert row["mode"] == "text"
    assert row["path"] in ("short_head", "long_tail")
    assert "resolver_group" in row and "resolutions" in row


def test_triage_rows_are_eval_rows_without_correctness(bundle_path, corpus_dir,
                                                      tmp_path, capsys):
    tickets = tmp_path / "tickets.jsonl"
    lines = (Path(corpus_dir) / "tickets.jsonl").read_text(encoding="utf-8").splitlines()
    tickets.write_text("\n".join(lines[:20]) + "\n", encoding="utf-8")
    triaged, evaluated = tmp_path / "triage.jsonl", tmp_path / "eval.jsonl"
    assert main(["triage", "--bundle", bundle_path, "--tickets", str(tickets),
                 "--corpus-dir", corpus_dir, "--mode", "multimodal",
                 "--out", str(triaged)]) == 0
    assert main(["eval", "--bundle", bundle_path, "--corpus", corpus_dir,
                 "--mode", "multimodal", "--limit", "20", "--out", str(evaluated)]) == 0
    triage_rows = [json.loads(line) for line in triaged.read_text().splitlines()]
    eval_rows = [json.loads(line) for line in evaluated.read_text().splitlines()]
    correctness = {"routing_correct", "category_correct"}
    assert len(triage_rows) == 20
    assert all(correctness <= set(row) for row in eval_rows)
    assert [{k: v for k, v in row.items() if k not in correctness}
            for row in eval_rows] == triage_rows


def test_eval_command_reports_both_modes(bundle_path, corpus_dir, capsys):
    rc = main(["eval", "--bundle", bundle_path, "--corpus", corpus_dir,
               "--limit", "20"])
    out = capsys.readouterr().out
    assert rc == 0
    summaries = [json.loads(line) for line in out.splitlines()
                 if line.startswith("{")]
    assert {s["mode"] for s in summaries} == {"text", "multimodal"}
    for s in summaries:
        assert s["n"] == 20
        assert 0.0 <= s["routing_coverage"] <= 1.0


def test_gen_command_writes_corpus(tmp_path, capsys):
    rc = main(["gen", "--out", str(tmp_path / "c"), "--count", "30", "--seed", "9"])
    out = capsys.readouterr().out
    assert rc == 0
    paths = json.loads(out.splitlines()[0])
    assert (tmp_path / "c" / "tickets.jsonl").exists()
    assert paths["tickets"].endswith("tickets.jsonl")


def _passed_on(monkeypatch, tmp_path, command, config_text=None):
    """Run one command with its work stubbed out; returns what it passed on."""
    got = {}

    def enrich(record, mode, b, corpus_dir):
        got.setdefault("mode", []).append(mode)
        return record.text, []

    def triage(text, models, db, index, adapter, pool, cutoffs):
        got["cutoffs"] = cutoffs
        return TriageResult(None, None, [], "long_tail", {})

    def evaluate(corpus_dir, records, b, mode, cutoffs):
        got.setdefault("mode", []).append(mode)
        got["cutoffs"] = cutoffs
        return {"mode": mode, "n": 0, "routing_coverage": 0.0,
                "routing_accuracy": 0.0, "category_accuracy": 0.0}, []

    monkeypatch.setattr(corpusgen, "generate_corpus", lambda out, **kw: got.update(kw) or {})
    monkeypatch.setattr(training, "train_bundle",
                        lambda corpus, **kw: got.update(kw) or SimpleNamespace(meta={}))
    monkeypatch.setattr(bundle_io, "save_bundle", lambda b, path: None)
    monkeypatch.setattr(bundle_io, "load_bundle", lambda path: SimpleNamespace(
        web_pages=[], models=None, resolution_db=None, index=None, pool=None))
    monkeypatch.setattr(evalharness, "enrich_for_mode", enrich)
    monkeypatch.setattr(evalharness, "triage", triage)
    monkeypatch.setattr(recommend, "load_corpus", lambda path: [])
    monkeypatch.setattr(evalharness, "evaluate_corpus", evaluate)

    argv = {
        "gen": ["gen", "--out", str(tmp_path / "c")],
        "train": ["train", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "m.bin")],
        "triage": ["triage", "--bundle", "m.bin", "--text", "printer is broken",
                   "--out", str(tmp_path / "rows.jsonl")],
        "eval": ["eval", "--bundle", "m.bin", "--corpus", str(tmp_path / "c")],
    }[command]
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        argv += ["--config", str(cfg)]
    assert main(argv) == 0
    return got


_CUTOFF_FIELDS = {"conf_resolv_cutoff": "conf_resolv", "conf_prob_cutoff": "conf_prob",
                  "conf_subfield_cutoff": "conf_subfield", "top_n": "top_n"}
# (config key, non-default value, command that reads it)
_KEY_USES = [
    ("seed", "7", "gen"), ("count", "12", "gen"), ("image_only_fraction", "0.25", "gen"),
    ("seed", "7", "train"),
    ("mode", "multimodal", "triage"), ("mode", "text", "eval"),
] + [(key, value, command) for command in ("triage", "eval")
     for key, value in (("conf_resolv_cutoff", "0.55"), ("conf_prob_cutoff", "0.45"),
                        ("conf_subfield_cutoff", "0.35"), ("top_n", "9"))]


def test_every_config_key_has_a_use():
    assert {key for key, _, _ in _KEY_USES} == set(config._SCHEMA)


@pytest.mark.parametrize("key,value,command", _KEY_USES)
def test_config_key_changes_what_the_command_passes_on(monkeypatch, tmp_path, capsys,
                                                       key, value, command):
    def passed(got):
        if key in _CUTOFF_FIELDS:
            return getattr(got["cutoffs"], _CUTOFF_FIELDS[key])
        return got[key]  # "mode" holds one entry per mode the command ran

    default = passed(_passed_on(monkeypatch, tmp_path, command))
    configured = passed(_passed_on(monkeypatch, tmp_path, command, f"{key} = {value}\n"))
    assert configured != default
    want = config.parse_value(key, value)
    assert configured == ([want] if key == "mode" else want)


def test_cutoffs_defaults_live_in_triage_cutoffs():
    assert _cutoffs({}) == TriageCutoffs()
    assert _cutoffs({"top_n": 3}) == TriageCutoffs(top_n=3)

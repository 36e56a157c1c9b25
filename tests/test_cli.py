import json
import shlex
from pathlib import Path

import pytest

from tickettriage.cli import build_parser, main


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

"""Command-line interface.

Subcommands:
  gen      generate a synthetic ticket corpus with screenshot attachments
  train    train a model bundle from a corpus directory
  triage   triage tickets (text or multimodal mode) against a bundle
  eval     routing/categorization metrics for text and multimodal modes
  savings  projected man-hour savings for given coverage levels

Exit codes: 0 success, 2 invalid parameters/usage, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import load_config, merged_config
from .errors import ConsistencyError, ParameterError, TrainingError


def _add_common(p: argparse.ArgumentParser, seed: bool = False) -> None:
    p.add_argument("--config", help="key=value config file")
    if seed:  # only gen and train draw random numbers
        p.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tickettriage", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic corpus")
    _add_common(g, seed=True)
    g.add_argument("--out", required=True, help="output corpus directory")
    g.add_argument("--count", type=int, default=None)
    g.add_argument("--image-only-fraction", type=float, default=None,
                   dest="image_only_fraction")

    t = sub.add_parser("train", help="train a model bundle")
    _add_common(t, seed=True)
    t.add_argument("--corpus", required=True, help="corpus directory from gen")
    t.add_argument("--out", required=True, help="bundle file to write")

    r = sub.add_parser("triage", help="triage tickets against a bundle")
    _add_common(r)
    r.add_argument("--bundle", required=True)
    r.add_argument("--mode", choices=("text", "multimodal"), default=None)
    source = r.add_mutually_exclusive_group()
    source.add_argument("--tickets", help="JSONL ticket file")
    source.add_argument("--text", help="triage a single ticket text")
    r.add_argument("--corpus-dir", default=".", dest="corpus_dir",
                   help="base directory for attachment paths")
    r.add_argument("--top-n", type=int, default=None, dest="top_n")
    r.add_argument("--out", help="write JSONL results here (default stdout)")

    e = sub.add_parser("eval", help="evaluate routing metrics on a corpus")
    _add_common(e)
    e.add_argument("--bundle", required=True)
    e.add_argument("--corpus", required=True)
    e.add_argument("--mode", choices=("text", "multimodal", "both"), default=None)
    e.add_argument("--limit", type=int, default=None)
    e.add_argument("--out", help="write per-ticket JSONL rows here")

    s = sub.add_parser("savings", help="projected man-hour savings")
    s.add_argument("--tickets-per-year", type=float, required=True,
                   dest="tickets_per_year")
    s.add_argument("--assign-coverage", type=float, required=True,
                   dest="assign_coverage")
    s.add_argument("--resolve-coverage", type=float, required=True,
                   dest="resolve_coverage")
    return parser


def _config_for(args: argparse.Namespace, keys: dict) -> dict:
    file_values = load_config(args.config) if getattr(args, "config", None) else {}
    return merged_config(file_values, keys)


# config key -> TriageCutoffs field; unset keys keep the dataclass defaults
_CUTOFF_KEYS = {
    "conf_resolv_cutoff": "conf_resolv",
    "conf_prob_cutoff": "conf_prob",
    "conf_subfield_cutoff": "conf_subfield",
    "top_n": "top_n",
}


def _cutoffs(cfg: dict):
    from .recommend import TriageCutoffs
    return TriageCutoffs(**{field: cfg[key] for key, field in _CUTOFF_KEYS.items()
                            if key in cfg})


def _write_rows(rows, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    else:
        for row in rows:
            print(json.dumps(row, sort_keys=True))


def cmd_gen(args) -> int:
    from .corpusgen import generate_corpus
    cfg = _config_for(args, {"seed": args.seed, "count": args.count,
                             "image_only_fraction": args.image_only_fraction})
    paths = generate_corpus(args.out, seed=cfg.get("seed", 0),
                            count=cfg.get("count", 500),
                            image_only_fraction=cfg.get("image_only_fraction", 0.4))
    print(json.dumps(paths, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    from .bundle import save_bundle
    from .training import train_bundle
    cfg = _config_for(args, {"seed": args.seed})
    bundle = train_bundle(args.corpus, seed=cfg.get("seed", 0))
    save_bundle(bundle, args.out)
    print(json.dumps({"bundle": args.out, **bundle.meta}, sort_keys=True))
    return 0


def cmd_triage(args) -> int:
    from .bundle import load_bundle
    from .evalharness import triage_records
    from .recommend import TicketRecord, load_corpus

    if args.text is None and not args.tickets:
        raise ParameterError("triage needs --tickets or --text")
    cfg = _config_for(args, {"mode": args.mode, "top_n": args.top_n})
    cutoffs = _cutoffs(cfg)
    records = (load_corpus(args.tickets) if args.text is None
               else [TicketRecord("cli-0", args.text, (), "", "-", "-", "-")])
    bundle = load_bundle(args.bundle)
    rows = [row for _, row in triage_records(args.corpus_dir, records, bundle,
                                             cfg.get("mode", "text"), cutoffs)]
    _write_rows(rows, args.out)
    return 0


def cmd_eval(args) -> int:
    from .bundle import load_bundle
    from .evalharness import evaluate_corpus
    from .recommend import load_corpus

    cfg = _config_for(args, {"mode": args.mode})
    mode = cfg.get("mode", "both")
    cutoffs = _cutoffs(cfg)
    if args.limit is not None and args.limit < 1:
        raise ParameterError("--limit must be >= 1")
    records = load_corpus(os.path.join(args.corpus, "tickets.jsonl"))
    if args.limit is not None:
        records = records[:args.limit]
    bundle = load_bundle(args.bundle)

    modes = ("text", "multimodal") if mode == "both" else (mode,)
    all_rows = []
    summaries = []
    for m in modes:
        summary, rows = evaluate_corpus(args.corpus, records, bundle, m, cutoffs)
        summaries.append(summary)
        all_rows.extend(rows)

    if args.out:
        _write_rows(all_rows, args.out)
    header = f"{'mode':<12}{'n':>6}{'route cov':>11}{'route acc':>11}{'cat acc':>10}"
    print(header)
    print("-" * len(header))
    for s in summaries:
        print(f"{s['mode']:<12}{s['n']:>6}{s['routing_coverage']:>11.3f}"
              f"{s['routing_accuracy']:>11.3f}{s['category_accuracy']:>10.3f}")
    for s in summaries:
        print(json.dumps(s, sort_keys=True))
    return 0


def cmd_savings(args) -> int:
    from .recommend import PUBLISHED_SAVINGS_NOTE, savings
    s = savings(args.tickets_per_year, args.assign_coverage, args.resolve_coverage)
    print(json.dumps({
        "assign_hours": s.assign_hours,
        "resolve_hours": s.resolve_hours,
        "total_hours": s.total_hours,
    }, sort_keys=True))
    print(PUBLISHED_SAVINGS_NOTE)
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "triage": cmd_triage,
    "eval": cmd_eval,
    "savings": cmd_savings,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, TrainingError, OSError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

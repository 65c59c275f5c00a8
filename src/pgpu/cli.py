"""Command line interface: generate datasets, run experiment suites, format reports.

Exit codes: 0 on success, 1 on configuration or usage errors, 2 when every
cell of a suite failed at runtime.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import FlipRateSpec
from .datagen import (
    estimate_clean_gap,
    flip_labels,
    gen_overlap_square,
    gen_triangles,
    rank_normalized_gap,
    save_csv,
)
from .harness import SUMMARY_FILE, config_from_dict, run_suite, write_results


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgpu",
        description="Positive-unlabelled learning benchmarks: gap-based relabelling with KMM reweighting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic PU dataset as CSV")
    gen.add_argument("--dataset", choices=["triangles", "overlap"], required=True)
    gen.add_argument("--flip", default=None,
                     help="flip setting: inverse:a,b | linear:a | constant:a (omit for clean data)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output CSV path")

    run = sub.add_parser("run", help="run an experiment suite from a JSON config")
    run.add_argument("--config", required=True, help="JSON config path")
    run.add_argument("--out-dir", required=True, help="directory for result files")

    rep = sub.add_parser("report", help="format the results of a finished suite")
    rep.add_argument("--in", dest="in_dir", required=True, help="directory written by 'run'")
    rep.add_argument("--format", choices=["csv", "json", "markdown"], default="markdown")
    return parser


def _cmd_gen(args) -> int:
    if args.dataset == "triangles":
        clean = gen_triangles(seed=args.seed)
    else:
        clean = gen_overlap_square(seed=args.seed)
    dataset = clean
    if args.flip is not None:
        spec = FlipRateSpec.parse(args.flip)
        gap = rank_normalized_gap(estimate_clean_gap(clean), clean.y)
        dataset = flip_labels(clean, gap, spec, seed=args.seed + 1)
    save_csv(dataset, args.out)
    n_pos = int((dataset.s == 1).sum())
    print(f"wrote {dataset.n} rows ({n_pos} labelled positive) to {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = config_from_dict(json.loads(Path(args.config).read_text(encoding="utf-8")))
    records = run_suite(config)
    paths = write_results(records, args.out_dir)
    for p in paths.values():
        print(f"wrote {p}")
    if records and all(len(r.per_split) == 0 for r in records):
        print("error: every suite cell failed", file=sys.stderr)
        return 2
    return 0


def _fmt_pct(value) -> str:
    return "NA" if value is None else f"{100.0 * value:.2f}"


def _cmd_report(args) -> int:
    summary_path = Path(args.in_dir) / SUMMARY_FILE
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    rows = summary["results"]
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if args.format == "csv":
        print("method,setting,accuracy_mean,accuracy_std,n_splits_ok")
        for r in rows:
            print(f"{r['method']},\"{r['setting']}\",{_fmt_pct(r['accuracy_mean'])},"
                  f"{_fmt_pct(r['accuracy_std'])},{r['n_splits_ok']}")
        return 0
    print("| method | setting | accuracy (%) | std | splits ok |")
    print("|---|---|---|---|---|")
    for r in rows:
        print(f"| {r['method']} | {r['setting']} | {_fmt_pct(r['accuracy_mean'])} "
              f"| {_fmt_pct(r['accuracy_std'])} | {r['n_splits_ok']} |")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_report(args)
    except (ValueError, OSError, KeyError) as exc:  # a malformed JSON file is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cli() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli()

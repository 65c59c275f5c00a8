#!/usr/bin/env python3
"""Run the synthetic PU benchmarks over the standard mislabel-rate settings.

Examples:
    python scripts/run_benchmark.py --dataset triangles --family inverse --out-dir results/tri_inverse
    python scripts/run_benchmark.py --dataset overlap --family all --splits 10 --out-dir results/sq_all
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pgpu import ExperimentConfig, FlipRateSpec, run_suite, write_results  # noqa: E402

INVERSE = tuple(FlipRateSpec("inverse", a, b) for a in (0.1, 0.2, 0.3) for b in (0.5, 1.0, 1.5))
LINEAR = tuple(FlipRateSpec("linear", a) for a in (0.2, 0.4, 0.6, 0.8, 1.0))
CONSTANT = tuple(FlipRateSpec("constant", a) for a in (0.1, 0.2, 0.3))
FAMILIES = {"inverse": INVERSE, "linear": LINEAR, "constant": CONSTANT,
            "all": INVERSE + LINEAR + CONSTANT}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", choices=["triangles", "overlap"], default="triangles")
    parser.add_argument("--family", choices=sorted(FAMILIES), default="all")
    parser.add_argument("--methods", default="svm_naive,elkan,pgpu,clean",
                        help="comma-separated subset of pgpu,pgpu_cv,svm_naive,elkan,clean")
    parser.add_argument("--splits", type=int, default=10)
    parser.add_argument("--size", type=int, default=2000, help="total dataset size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="results/benchmark")
    args = parser.parse_args()

    try:
        config = ExperimentConfig(
            dataset_source="triangles" if args.dataset == "triangles" else "overlap_square",
            flip=FAMILIES[args.family],
            methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
            n_splits=args.splits,
            master_seed=args.seed,
            dataset_n=args.size,
        )
    except ValueError as exc:
        parser.error(str(exc))
    started = time.perf_counter()
    records = run_suite(config)
    paths = write_results(records, args.out_dir)

    print(f"\nfinished in {time.perf_counter() - started:.1f}s; files in {args.out_dir}\n")
    print(f"{'setting':<18} " + " ".join(f"{m:>12}" for m in config.methods))
    by_setting: dict = {}
    for r in records:
        by_setting.setdefault(r.setting, {})[r.method] = r
    for setting, row in by_setting.items():
        cells = []
        for m in config.methods:
            rec = row[m]
            if rec.per_split:
                cells.append(f"{100 * rec.accuracy_mean:6.2f}+-{100 * rec.accuracy_std:4.2f}")
            else:
                cells.append("failed".rjust(12))
        print(f"{setting:<18} " + " ".join(f"{c:>12}" for c in cells))
    print(f"\nsummary: {paths['summary.json']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

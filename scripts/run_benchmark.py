#!/usr/bin/env python3
"""Run the synthetic PU benchmarks over the standard mislabel-rate settings.

The results go to --out-dir as `pgpu run` writes them, and the run ends by printing
the table of `pgpu report`.

Examples:
    python scripts/run_benchmark.py --dataset triangles --family inverse --out-dir results/tri_inverse
    python scripts/run_benchmark.py --dataset overlap_square --family all --splits 10 --out-dir results/sq_all

--dataset takes the names of the suite's generator table, as a config's dataset_source does,
and --methods the names of its method table, as a config's methods do.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pgpu import ExperimentConfig, FlipRateSpec, cli, run_suite, write_results  # noqa: E402
from pgpu.harness import _GENERATORS, _METHODS  # noqa: E402

INVERSE = tuple(FlipRateSpec("inverse", a, b) for a in (0.1, 0.2, 0.3) for b in (0.5, 1.0, 1.5))
LINEAR = tuple(FlipRateSpec("linear", a) for a in (0.2, 0.4, 0.6, 0.8, 1.0))
CONSTANT = tuple(FlipRateSpec("constant", a) for a in (0.1, 0.2, 0.3))
FAMILIES = {"inverse": INVERSE, "linear": LINEAR, "constant": CONSTANT,
            "all": INVERSE + LINEAR + CONSTANT}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", choices=_GENERATORS, default="triangles")
    parser.add_argument("--family", choices=sorted(FAMILIES), default="all")
    parser.add_argument("--methods", default="svm_naive,elkan,pgpu,clean",
                        help=f"comma-separated subset of {','.join(_METHODS)}")
    parser.add_argument("--splits", type=int, default=10)
    parser.add_argument("--size", type=int, default=2000, help="total dataset size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="results/benchmark")
    args = parser.parse_args()

    try:
        config = ExperimentConfig(
            dataset_source=args.dataset,
            flip=FAMILIES[args.family],
            methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
            n_splits=args.splits,
            master_seed=args.seed,
            dataset_n=args.size,
        )
    except ValueError as exc:
        parser.error(str(exc))
    started = time.perf_counter()
    write_results(run_suite(config), args.out_dir)
    print(f"finished in {time.perf_counter() - started:.1f}s; files in {args.out_dir}\n")
    return cli.main(["report", "--in", args.out_dir])


if __name__ == "__main__":
    sys.exit(main())

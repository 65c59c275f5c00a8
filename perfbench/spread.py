#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workloads suite_tri,large_sq --seeds 0-4
    python3 perfbench/spread.py --seeds 0-9 --out perfbench/baseline.json

Runs are sequential, one ``run.py`` process at a time, at BENCHMARK.json's
``run_seconds``. The spread of a metric is the distance between the first and
third quartile of its values (``statistics.quantiles(values, n=4)``) as a share
of their median; a benchmark is steady when every spread is below a third of
the metric's bound. ``--out`` writes every run's metrics, the per-workload
medians and quartiles, and the accuracies per seed that ``run.py`` checks as
its reference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float, list[str]]:
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), time.perf_counter() - started, lines[:-1]


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"), help="e.g. 0-9")
    parser.add_argument("--out", type=Path, help="write all runs and their summary as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"run_seconds": spec["run_seconds"], "workloads": {}, "accuracy_reference": {}}
    steady = True
    for wl in args.workloads.split(","):
        runs = {}
        for seed in args.seeds:
            result, wall, lines = run_once(wl, seed, spec["run_seconds"], 0)
            report.setdefault("env", json.loads(lines[0].removeprefix("env: ")))
            runs[str(seed)] = {name: m["value"] for name, m in result["metrics"].items()}
            runs[str(seed)]["wall_s"] = wall
            print(f"{wl} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} wall={wall:.1f} s", flush=True)
            steady &= result["correct"]
        stats = {name: summary([r[name] for r in runs.values()]) for name in [*bounds, "wall_s"]}
        report["workloads"][wl] = {"seeds": runs, "summary": stats}
        report["accuracy_reference"][wl] = {
            seed: {k: v for k, v in r.items() if k.startswith("accuracy.")} for seed, r in runs.items()}
        print(f"{'metric':<22} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, st in stats.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and not st["spread"] < bound / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"{name:<22} {st['median']:>12.6g} {st['spread']:>8.2%} "
                  f"{'' if bound is None else format(bound, '.2f'):>6}{flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

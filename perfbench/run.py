#!/usr/bin/env python3
"""pgpu benchmark: one workload, one seed, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload suite_tri --seed 0 --seconds 20 --trace 0

Set-up generates, flips and splits each of the workload's datasets in this
process; ``setup_s`` is the median time of one main dataset. The cells run in
fresh worker processes, one after another, that receive the generated data, so
``peak_rss_mb`` (the largest peak resident memory of a worker) excludes set-up.
With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics, taken from spans recorded
around the public functions of every pgpu layer. Lines before it record the
environment and spell the metrics out. The exit code is 0 whenever
a result line is printed; a failed check shows as ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKERS = 2                 # worker processes per run, one after another
WORKER_TIMEOUT_S = 50
# glibc moves its mmap and trim thresholds with the sizes freed so far, so the
# cost of every mid-sized array would depend on which cells ran before. The
# workers pin both at the limits the moving thresholds reach (glibc on 64-bit).
MALLOC = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}
STAGE_SUM_MARGIN = 0.02     # share of traced cell time allowed outside the layer spans
ACCURACY_FLOOR = 0.7        # every method beats a constant guess by a wide margin on these data
# Distance allowed from the committed accuracy of a seed. Tighter than the
# metrics' regression bounds, which must cover the spread between seeds; wide
# enough for last-bit numeric changes, which move a mean by a few test points.
ACCURACY_TOLERANCE = 0.01


def _blas_threads() -> int:
    """Pin BLAS to one thread; must run before numpy is imported.

    With two threads on two shared cores, cells of a few milliseconds ran at
    one speed or about twice it from one stretch of cells to the next, and
    their medians moved by a fifth between runs; with one thread they held
    within a few percent, and the large Gram-bound cells were about 7% slower.
    """
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _import_pgpu():
    """Import pgpu from this checkout's ``src`` and nowhere else."""
    if not (SRC / "pgpu" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'pgpu'} not found; run from a pgpu checkout")
    sys.path.insert(0, str(SRC))
    import pgpu
    if not Path(pgpu.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: pgpu imported from {pgpu.__file__}, not from {SRC}")
    return pgpu


def environment(threads: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": threads,
            "numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "python": platform.python_version(), "cpu": cpu, "worker_malloc": MALLOC}


def peak_rss_kb() -> int:
    """Peak resident memory of this process image.

    ``ru_maxrss`` is no use here: it keeps the pre-exec peak of the forked
    child, which counts every page of the parent that holds the set-up data.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def worker() -> None:
    """Run the cells of the workload pickled on stdin by this script; print one JSON line."""
    _import_pgpu()
    import spans
    import workloads
    job = pickle.load(sys.stdin.buffer)
    tracer = spans.Tracer() if job["trace"] else None
    out = workloads.run_cells(job["workload"], job["main"], job["side"], job["seconds"],
                              job["part"], WORKERS, tracer)
    out["peak_rss_kb"] = peak_rss_kb()
    out["spans"] = [sp.to_list() for sp in tracer.spans] if tracer else []
    print(json.dumps(out))


def _same(a, b) -> bool:
    import numpy as np
    return a.seed == b.seed and all(
        np.array_equal(getattr(getattr(a, part), field), getattr(getattr(b, part), field))
        for part in ("train", "test") for field in ("X", "s", "y"))


def set_up(wl, seed: int, tracer):
    """Make the main inputs, timing each, then the side inputs.

    Main dataset 0 is made twice, first as an untimed warm-up; the two must be
    equal. Returns the main inputs, the side inputs, the main set-up times and
    the problems found.
    """
    import workloads
    first = workloads.make_input(wl, seed, False, 0)
    main, times = [], []
    for index in range(wl.datasets):
        started = time.perf_counter()
        if tracer is None:
            main.append(workloads.make_input(wl, seed, False, index))
        else:
            with tracer.installed(), tracer.span("setup"):
                main.append(workloads.make_input(wl, seed, False, index))
        times.append(time.perf_counter() - started)
    side = [workloads.make_input(wl, seed, True, j) for j in range(wl.side_datasets)]
    problems = [] if _same(first, main[0]) else ["two set-ups with one seed made different inputs"]
    return main, side, times, problems


def run_worker(job: dict) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker"],
                          input=pickle.dumps(job), stdout=subprocess.PIPE, env={**os.environ, **MALLOC},
                          timeout=WORKER_TIMEOUT_S, check=True, cwd=ROOT)
    return json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])


def run_workers(job: dict) -> dict:
    """The run's cells, shared by WORKERS processes in turn; span ids renumbered to stay unique."""
    out = {"cells": [], "spans": [], "main_s": 0.0, "peak_rss_kb": 0}
    for part in range(WORKERS):
        res = run_worker({**job, "seconds": job["seconds"] / WORKERS, "part": part})
        offset = len(out["spans"])
        for sp in res["spans"]:
            sp[0] += offset
            sp[1] = None if sp[1] is None else sp[1] + offset
        for c in res["cells"]:
            if c["span"] is not None:
                c["span"] += offset
        out["cells"] += res["cells"]
        out["spans"] += res["spans"]
        out["main_s"] += res["main_s"]
        out["peak_rss_kb"] = max(out["peak_rss_kb"], res["peak_rss_kb"])
    return out


def accuracies(wl, cells) -> tuple[dict[str, float], list[str]]:
    """Mean test accuracy over each method's inputs; every cell of an input must repeat it exactly."""
    from workloads import METHODS
    out, problems = {}, []
    for m in METHODS:
        by_input: dict[int, float] = {}
        for c in cells:
            if c["method"] != m or c["err"] is not None:
                continue
            if by_input.setdefault(c["input"], c["acc"]) != c["acc"]:
                problems.append(f"{m} input {c['input']}: accuracy {c['acc']!r} "
                                f"differs from an earlier run {by_input[c['input']]!r}")
        if sorted(by_input) != list(range(wl.inputs_of(m))):
            problems.append(f"{m}: no successful cell on some input ({sorted(by_input)})")
        else:
            out[f"accuracy.{m}"] = statistics.fmean(by_input.values())
    return out, problems


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least TAIL_BEYOND samples above it, and its percentile."""
    from workloads import TAIL_BEYOND
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {len(ordered)}")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(wl, result, setup_times) -> tuple[dict, list[str]]:
    """Metric values and report lines from an untraced run, accuracies aside."""
    from workloads import METHODS, TAIL_BEYOND, TAIL_METHOD
    cells = result["cells"]
    timed = [c for c in cells if c["phase"] != "warmup" and c["err"] is None]
    times = {m: [c["secs"] for c in timed if c["method"] == m] for m in METHODS}
    main_done = sum(1 for c in timed if c["phase"] == "main")
    failed = sum(1 for c in cells if c["err"] is not None)
    values = {
        "setup_s": statistics.median(setup_times),
        "cells_per_s": main_done / result["main_s"],
        "cells_ok_frac": (len(cells) - failed) / len(cells),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    lines = [f"set-up: median of {len(setup_times)} datasets {values['setup_s']:.3f} s",
             f"closed loop: {main_done} cells of {', '.join(wl.main)} taking {result['main_s']:.2f} s, "
             f"over {WORKERS} worker processes"]
    for m in METHODS:
        if not times[m]:
            continue    # every cell failed; the missing metric fails the run
        values[f"cell_s.{m}.p50"] = statistics.median(times[m])
        lines.append(f"cell_s.{m}: p50 {values[f'cell_s.{m}.p50']:.4f} s over {len(times[m])} cells"
                     f" on {wl.inputs_of(m)} inputs"
                     f" ({f'side, {wl.side_n} points each' if m in wl.side else 'main'})")
        if m == TAIL_METHOD and len(times[m]) > TAIL_BEYOND:
            values[f"cell_s.{m}.tail"], pct = tail(times[m])
            lines.append(f"cell_s.{m}.tail: p{pct:.0f} of {len(times[m])} cells")
    return values, lines


def per_layer(wl, result, setup_spans) -> tuple[dict, list[str], list[str]]:
    """Per-layer totals over the traced set-up and traced cells, with the trace's own checks."""
    import spans
    cell_spans = result["spans"]
    problems = [f"set-up {p}" for p in spans.nesting_problems(setup_spans)]
    problems += [f"cells {p}" for p in spans.nesting_problems(cell_spans)]
    # summed per method, so a collector pause in the glue of one short cell is no failure
    covered: dict[str, float] = {}
    spent: dict[str, float] = {}
    for c in result["cells"]:
        if c["traced"]:
            covered[c["method"]] = covered.get(c["method"], 0.0) + spans.subtree_self(cell_spans, c["span"])
            spent[c["method"]] = spent.get(c["method"], 0.0) + c["secs"]
    for m, secs in spent.items():
        if not secs * (1 - STAGE_SUM_MARGIN) <= covered[m] <= secs:
            problems.append(f"{m}: layer self times add up to {covered[m]:.4f} s "
                            f"of {secs:.4f} s in traced cells")
    totals: dict[str, dict[str, float]] = {}
    for part in (spans.layer_totals(setup_spans), spans.layer_totals(cell_spans)):
        for name, agg in part.items():
            into = totals.setdefault(name, {})
            for key, value in agg.items():
                into[key] = into.get(key, 0) + value

    def total(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    values: dict[str, float] = {}
    for name, keys in (("kernels.gram_matrix", ("calls", "entries", "bytes_computed", "self_s")),
                       ("svm.smo_solve", ("calls", "rows", "iterations", "self_s")),
                       ("svm.fit_platt", ("calls", "self_s")),
                       ("svm.train_weighted_svm", ("self_s",)),
                       ("svm.train_prob_svm", ("self_s",)),
                       ("svm.decision_values", ("calls", "rows", "self_s")),
                       ("svm.predict_proba_batch", ("self_s",)),
                       ("kmm.solve_kmm", ("calls", "source_rows", "iterations", "self_s")),
                       ("core.fit_relabelled_classifier", ("calls", "failed", "self_s")),
                       ("core.estimate_boundary_cv", ("self_s",)),
                       ("datagen.estimate_clean_gap", ("self_s",)),
                       ("datagen.flip_labels", ("self_s",)),
                       ("datagen.split", ("self_s",)),
                       ("harness.run_pgpu", ("self_s",)),
                       ("harness.run_elkan", ("self_s",)),
                       ("harness.run_svm_naive", ("self_s",)),
                       ("harness.evaluate", ("self_s",))):
        for key in keys:
            values[f"{name}.{key}"] = total(name, key)
    values["svm.support_vectors"] = total("svm.train_weighted_svm", "support_vectors")
    fits = total("core.fit_relabelled_classifier", "calls")
    values["core.fit_relabelled_classifier.ok_ratio"] = (
        (fits - total("core.fit_relabelled_classifier", "failed")) / fits if fits else 0.0)

    lead = next(iter(wl.main))
    timed = [c for c in result["cells"] if c["method"] == lead and c["phase"] != "warmup"
             and c["err"] is None]
    on = [c["secs"] for c in timed if c["traced"]]
    off = [c["secs"] for c in timed if not c["traced"]]
    lines = [f"traced {len(on)} and untraced {len(off)} {lead} cells; "
             f"per-layer figures are totals over the traced set-up and traced cells"]
    if not on or not off:
        problems.append(f"too few {lead} cells to compare traced and untraced times")
        values["trace.overhead_s"] = 0.0
    else:
        values["trace.overhead_s"] = statistics.median(on) - statistics.median(off)
        lines.append(f"trace.overhead_s: median traced minus median untraced {lead} cell")
    return values, lines, problems


def check_accuracy(name: str, accs: dict, seed: int, reference: dict) -> list[str]:
    """Floor, acceptance criterion 1 on suite_tri, and the committed reference for this seed."""
    problems = []
    for key, acc in accs.items():
        if acc < ACCURACY_FLOOR:
            problems.append(f"{key} = {acc:.4f} is below the floor {ACCURACY_FLOOR}")
    if name == "suite_tri" and accs.get("accuracy.pgpu", 0) < accs.get("accuracy.svm_naive", 1):
        problems.append("accuracy.pgpu is below accuracy.svm_naive (acceptance criterion 1)")
    ref = reference.get(name, {}).get(str(seed))
    for key, acc in accs.items():
        if ref is not None and abs(acc - ref[key]) > ACCURACY_TOLERANCE:
            problems.append(f"{key} = {acc:.4f} is more than {ACCURACY_TOLERANCE} from the "
                            f"reference {ref[key]:.4f} for seed {seed}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run each workload at a size that takes seconds (smoke test only)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    threads = _blas_threads()
    if args.worker:
        worker()
        return 0
    _import_pgpu()
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))["accuracy_reference"]
    wl = workloads.WORKLOADS[args.workload]
    if args.tiny:
        wl = workloads.tiny(wl)

    setup_tracer = spans.Tracer() if args.trace else None
    main_inputs, side_inputs, setup_times, problems = set_up(wl, args.seed, setup_tracer)
    result = run_workers({"workload": wl, "main": main_inputs, "side": side_inputs,
                          "seconds": args.seconds, "trace": bool(args.trace)})
    cells = result["cells"]
    errors = [c for c in cells if c["err"] is not None]
    problems += [f"{c['method']} cell on input {c['input']} failed: {c['err']}" for c in errors]
    accs, more = accuracies(wl, cells)
    problems += more
    if not args.tiny:
        problems += check_accuracy(args.workload, accs, args.seed, reference)
    if args.trace:
        values, lines, more = per_layer(wl, result, [sp.to_list() for sp in setup_tracer.spans])
        problems += more
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, lines = end_to_end(wl, result, setup_times)
        values.update(accs)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = sorted(set(units) - set(values))
    problems += [f"metric {name} was not measured" for name in missing]

    print("env: " + json.dumps(environment(threads), sort_keys=True))
    print(f"workload {args.workload}{' (tiny)' if args.tiny else ''}, seed {args.seed}: "
          f"{len(cells)} cells attempted, {len(errors)} failed")
    for line in lines:
        print("  " + line)
    for name in units:
        if name in values:
            print(f"  {name} = {values[name]:.6g} {units[name]}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(cells),
        "failed": len(errors),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

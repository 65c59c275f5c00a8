"""The benchmark's workloads: inputs made from a seed with pgpu.datagen, and the cells run on them.

A cell is one method fitted on one training split and scored on its test
split, through the public harness runners. Each workload generates several
datasets and splits each once; those are its main inputs, because cell times
and accuracies vary more between datasets than between splits of one. Main
methods run on the main inputs; side methods run on side inputs, further
datasets from the same generator and flip with ``side_n`` points each. Every
workload thus reports every method, while the methods too slow or too large at
its size run at a size where they are cheap. Each method runs on the first of
its inputs, as many as its cost allows: the median time of a cheap method
over a dozen datasets still moved by a fifth from seed to seed, so cheap
methods take more. A single closed-loop client runs all cells, each method's
spread over the whole loop, so that a slow spell of the machine reaches main
and side figures alike. The cells of one run are shared by several worker
processes in turn, because how fast a process runs also depends on where its
memory happens to land.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from pgpu import datagen, harness
from pgpu.core import FlipRateSpec

METHODS = ("pgpu", "pgpu_cv", "elkan", "svm_naive")
TRAIN_FRACTION = 0.75
MIN_CELLS = 5           # timed cells per method behind a median
TAIL_BEYOND = 10        # a tail percentile needs this many samples above it
TAIL_METHOD = "pgpu"    # the one method whose tail is reported


@dataclass(frozen=True)
class Workload:
    dataset: str                # "triangles" or "overlap_square"
    flip: FlipRateSpec
    n: int                      # points per main dataset before the train/test split
    main: dict[str, int]        # main method -> main inputs it runs on, the first ones
    side_n: int                 # points per side dataset
    side: dict[str, int]        # side method -> side inputs it runs on, the first ones

    def __post_init__(self) -> None:
        if sorted((*self.main, *self.side)) != sorted(METHODS):
            raise ValueError("main and side methods must cover every method once")

    @property
    def datasets(self) -> int:
        """Main inputs to make, one split of one dataset each."""
        return max(self.main.values())

    @property
    def side_datasets(self) -> int:
        """Side inputs to make."""
        return max(self.side.values())

    def inputs_of(self, method: str) -> int:
        return self.main[method] if method in self.main else self.side[method]


WORKLOADS = {
    # the paper's headline setting: many short Gram-dominated cells
    "suite_tri": Workload("triangles", FlipRateSpec("inverse", 0.1, 0.5), 2000,
                          main={"pgpu": 6, "elkan": 6, "svm_naive": 18},
                          side_n=200, side={"pgpu_cv": 12}),
    # 31 boundary candidates x 5 folds of small KMM, SMO and Gram calls per cell
    "boundary_cv": Workload("triangles", FlipRateSpec("inverse", 0.1, 0.5), 800, main={"pgpu_cv": 8},
                            side_n=600, side={"pgpu": 48, "elkan": 48, "svm_naive": 48}),
    # memory-bound Gram matrices; set-up is dominated by estimate_clean_gap
    "large_sq": Workload("overlap_square", FlipRateSpec("linear", 0.6), 4000, main={"pgpu": 2},
                         side_n=200, side={"pgpu_cv": 8, "elkan": 96, "svm_naive": 96}),
}


def tiny(wl: Workload) -> Workload:
    """The same workload at a size that runs in seconds, for the benchmark's own smoke test."""
    return dataclasses.replace(wl, n=240, main={m: 2 for m in wl.main},
                               side_n=120, side={m: 2 for m in wl.side})


@dataclass
class Input:
    train: datagen.PUDataset    # latent labels stripped
    test: datagen.PUDataset
    seed: int                   # elkan's calibration split and pgpu_cv's folds


def make_input(wl: Workload, seed: int, side: bool, index: int) -> Input:
    """Generate, flip and split one main or side dataset; the same seed gives the same input."""
    n = wl.side_n if side else wl.n
    s = [int(v) for v in np.random.SeedSequence([seed, int(side), index]).generate_state(4)]
    if wl.dataset == "triangles":
        clean = datagen.gen_triangles(n // 2, n - n // 2, s[0])
    else:
        clean = datagen.gen_overlap_square(n, s[0])
    gap = datagen.rank_normalized_gap(datagen.estimate_clean_gap(clean), clean.y)
    pu = datagen.flip_labels(clean, gap, wl.flip, seed=s[1])
    train, test = datagen.split(pu, TRAIN_FRACTION, s[2])
    return Input(train.without_latent(), test, s[3])


def run_cell(method: str, inp: Input) -> float:
    """Test accuracy of one cell; the runners are looked up on the module so tracing sees them."""
    if method == "pgpu":
        return harness.run_pgpu(inp.train, inp.test)
    if method == "pgpu_cv":
        return harness.run_pgpu(inp.train, inp.test, boundary_mode="cv", cv_seed=inp.seed)
    if method == "elkan":
        return harness.run_elkan(inp.train, inp.test, seed=inp.seed)
    return harness.run_svm_naive(inp.train, inp.test)


def cells_needed(wl: Workload, method: str) -> int:
    """Timed cells a method needs: a median (or a tail), and every one of its inputs once."""
    return max(TAIL_BEYOND + 1 if method == TAIL_METHOD else MIN_CELLS, wl.inputs_of(method))


def run_cells(wl: Workload, main: list[Input], side: list[Input], seconds: float,
              part: int, parts: int, tracer=None) -> dict:
    """Warm up, then run the closed loop for ``seconds`` and until every method has its cells.

    This is part ``part`` of ``parts`` worker processes that share a run: each
    runs its share of every method's cells, starting at its own block of that
    method's inputs and taking them in turn. The next cell is always of the
    method furthest behind its share, so each method's cells are spread over
    the whole loop and a slow spell of the machine reaches every method alike;
    cells left for the end would be timed in one short stretch. With a tracer,
    a method's cells alternate between traced and untraced, with the pattern
    shifted on each pass over its inputs so every input gets both kinds;
    traced and untraced times thus come from one run.
    """
    cells: list[dict] = []
    inputs_of = {m: side[:wl.side[m]] if m in wl.side else main[:wl.main[m]] for m in METHODS}
    start = {m: part * -(-len(inputs_of[m]) // parts) for m in METHODS}
    need = {m: -(-cells_needed(wl, m) // parts) for m in METHODS}
    done = {m: 0 for m in METHODS}

    def one(method: str, kind: str) -> float:
        passes, k = divmod(start[method] + done[method], len(inputs_of[method]))
        traced = tracer is not None and kind != "warmup" and (passes + k) % 2 == 0
        cell = {"method": method, "input": k, "phase": kind, "traced": traced,
                "span": None, "acc": None, "err": None}
        with tracer.installed() if traced else nullcontext():
            started = time.perf_counter()
            try:
                with tracer.span("cell") if traced else nullcontext() as sp:
                    cell["acc"] = run_cell(method, inputs_of[method][k])
            except (ValueError, RuntimeError) as exc:
                cell["err"] = f"{type(exc).__name__}: {exc}"
            cell["secs"] = time.perf_counter() - started
        if traced:
            cell["span"] = sp.id
        if kind != "warmup":
            done[method] += 1
        cells.append(cell)
        return cell["secs"]

    for m in (*wl.main, *wl.side):
        one(m, "warmup")

    main_s = 0.0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or any(done[m] < need[m] for m in METHODS):
        m = min(METHODS, key=lambda m: done[m] / need[m])
        if m in wl.main:
            main_s += one(m, "main")
        else:
            one(m, "side")
    return {"cells": cells, "main_s": main_s}

"""Experiment orchestration: pipeline runners, baselines, the suite, and result files."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import numbers
import time
from collections.abc import Mapping, Sequence
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .core import (
    FlipRateSpec,
    estimate_boundary_cv,
    estimate_boundary_min,
    fit_relabelled_classifier,
    observed_gap,
)
from .datagen import (
    PUDataset,
    estimate_clean_gap,
    flip_labels,
    gen_overlap_square,
    gen_triangles,
    load_csv,
    rank_normalized_gap,
    split,
)
from .kernels import SplitKernel
from .svm import SvmModel, decision_values, train_prob_svm, train_weighted_svm

RESULTS_FILE = "results.csv"
SUMMARY_FILE = "summary.json"
TIMINGS_FILE = "timings.csv"


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment suite.

    ``flip`` may be given as a single flip-rate setting, a sequence of
    settings, or None for clean data; it is stored as a tuple, empty for clean
    data. ``dataset_n`` is the total sample size (split evenly per class for
    the triangles generator). Counts and the seed are stored as int,
    ``train_fraction`` as float, sequences as tuples, and a csv source as a
    dict of its own that the hash leaves out, so a config built in Python
    equals and hashes like the same config read by ``config_from_dict``.
    """

    dataset_source: str | Mapping[str, str] = field(default="triangles", hash=False)
    flip: tuple[FlipRateSpec, ...] = ()
    methods: tuple[str, ...] = ("pgpu", "svm_naive")
    n_splits: int = 10
    master_seed: int = 0
    dataset_n: int = 2000
    train_fraction: float = 0.75

    def __post_init__(self) -> None:
        for name in ("n_splits", "dataset_n", "master_seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n_splits < 1:
            raise ValueError("n_splits must be at least 1")
        if isinstance(self.methods, str) or not isinstance(self.methods, Sequence):
            raise ValueError(f"methods must be a sequence of method names, got {self.methods!r}")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        for m in self.methods:
            if m not in _METHODS:
                raise ValueError(f"unknown method {m!r}; valid: {tuple(_METHODS)}")
        object.__setattr__(self, "methods", tuple(self.methods))
        specs = () if self.flip is None else self.flip
        if isinstance(specs, FlipRateSpec):
            specs = (specs,)
        if (isinstance(specs, str) or not isinstance(specs, Sequence)
                or not all(isinstance(spec, FlipRateSpec) for spec in specs)):
            raise ValueError("flip must be a FlipRateSpec, a sequence of them, or None, "
                             f"got {self.flip!r}")
        object.__setattr__(self, "flip", tuple(specs))
        settings = [spec.describe() for spec in self.flip]
        for name, entries in (("methods", self.methods), ("flip", settings)):
            repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeated:
                raise ValueError(f"{name} lists {repeated[0]!r} more than once")
        if isinstance(self.dataset_source, str):
            if self.dataset_source not in ("triangles", "overlap_square"):
                raise ValueError(f"unknown dataset_source {self.dataset_source!r}")
        elif not (isinstance(self.dataset_source, Mapping)
                  and isinstance(self.dataset_source.get("csv"), str)):
            raise ValueError("dataset_source must be 'triangles', 'overlap_square', or {'csv': path}")
        else:
            extra = [key for key in self.dataset_source if key != "csv"]
            if extra:
                raise ValueError(f"dataset_source takes only the key 'csv', got {extra!r}")
            object.__setattr__(self, "dataset_source", dict(self.dataset_source))
        if self.dataset_n < 4:
            raise ValueError("dataset_n must be at least 4")
        fraction = self.train_fraction
        if not isinstance(fraction, numbers.Real) or isinstance(fraction, bool):
            raise ValueError(f"train_fraction must be a real number, got {fraction!r}")
        if not 0.0 < fraction < 1.0:  # NaN fails too
            raise ValueError("train_fraction must lie in (0, 1)")
        object.__setattr__(self, "train_fraction", float(fraction))


@dataclass(frozen=True)
class ResultRecord:
    """Accuracy summary for one method on one flip setting across all splits."""

    method: str
    setting: str
    accuracy_mean: float
    accuracy_std: float
    per_split: tuple[float, ...]
    split_ids: tuple[int, ...]
    errors: tuple[str, ...]
    cell_times: tuple[tuple[int, float], ...] = ()


def derive_seed(master_seed: int, *parts) -> int:
    """Stable per-cell seed derivation, reproducible across runs and platforms."""
    payload = repr((int(master_seed),) + tuple(parts)).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") % (2**32)


def evaluate(model: SvmModel, test: PUDataset) -> float:
    """Fraction of test points whose decision sign matches the latent label."""
    if test.y is None:
        raise ValueError("evaluation requires latent labels")
    pred = np.where(decision_values(model, test.X) >= 0.0, 1, -1)
    return float(np.mean(pred == test.y))


def run_pgpu(train: PUDataset, test: PUDataset, boundary_mode: str = "min_nprime",
             cv_seed: int = 0) -> float:
    """Full pipeline: estimate observed gaps, pick the boundary, relabel,
    reweight with KMM, train the weighted SVM, and score on the test set.

    The classifier kernel of the training split is computed once; every fit
    and decision value on the split slices it."""
    if boundary_mode not in ("min_nprime", "cv"):
        raise ValueError(f"unknown boundary_mode {boundary_mode!r}")
    kernel = SplitKernel(1.0 / train.dim, train.X)
    gaps = observed_gap(kernel, train.s)
    if boundary_mode == "cv":
        boundary = estimate_boundary_cv(kernel, train.s, seed=cv_seed)
    else:
        boundary = estimate_boundary_min(gaps, train.s)
    final, _, _ = fit_relabelled_classifier(kernel, train.s, gaps, boundary)
    return evaluate(final, test)


def run_svm_naive(train: PUDataset, test: PUDataset) -> float:
    """Baseline: unweighted SVM that treats the observed PU labels as truth."""
    kernel = SplitKernel(1.0 / train.dim, train.X)
    model = train_weighted_svm(kernel, train.s, np.ones(train.n))
    return evaluate(model, test)


def elkan_weights(c: float, p_pos_unlabelled) -> np.ndarray:
    """Per-unlabelled-example positive weight w = ((1-c)/c) * p/(1-p), clipped to [0, 1]."""
    if not c > 0:
        raise ValueError("label frequency estimate must be positive")
    p = np.asarray(p_pos_unlabelled, dtype=float)
    w = ((1.0 - c) / c) * (p / (1.0 - p))
    return np.clip(w, 0.0, 1.0)


def run_elkan(train: PUDataset, test: PUDataset, seed: int = 0) -> float:
    """Reweighting baseline: estimate the label frequency c on a held-out
    20% of the training data, then duplicate each unlabelled example into a
    weighted positive and a weighted negative copy. Both fits read one kernel
    of the training split; the copies are repeated rows of it."""
    # the kernel comes first, before any array of this run (see gram_matrix)
    kernel = SplitKernel(1.0 / train.dim, train.X)
    n = train.n
    perm = np.random.default_rng(seed).permutation(n)
    n_fit = int(round(0.8 * n))
    n_fit = min(max(n_fit, 2), n - 1)
    fit_idx = np.sort(perm[:n_fit])
    cal_idx = np.sort(perm[n_fit:])
    cal_pos = cal_idx[train.s[cal_idx] == 1]
    if cal_pos.size == 0:
        raise ValueError("no observed positives in the calibration split")
    model, calib = train_prob_svm(kernel, train.s[fit_idx], rows=fit_idx)
    c = float(calib.posterior(model.fitted[cal_pos]).mean())  # > 0: clipped posteriors

    pos = np.flatnonzero(train.s == 1)
    unl = np.flatnonzero(train.s == -1)
    w_unl = elkan_weights(c, calib.posterior(model.fitted[unl]))
    rows = np.concatenate([pos, unl, unl])
    y_big = np.repeat([1, 1, -1], [pos.size, unl.size, unl.size])
    w_big = np.concatenate([np.ones(pos.size), w_unl, 1.0 - w_unl])
    keep = w_big > 0.0  # a zero-weight copy would only add a zero cap to the gathered fit
    final = train_weighted_svm(kernel, y_big[keep], w_big[keep], rows=rows[keep])
    return evaluate(final, test)


def _make_dataset(config: ExperimentConfig, setting_idx: int) -> PUDataset:
    seed = derive_seed(config.master_seed, "gen", setting_idx)
    src = config.dataset_source
    if src == "triangles":
        half = config.dataset_n // 2
        return gen_triangles(half, config.dataset_n - half, seed)
    if src == "overlap_square":
        return gen_overlap_square(config.dataset_n, seed)
    return load_csv(src["csv"])


def _run_clean(train: PUDataset, test: PUDataset, seed: int) -> float:
    """Upper reference: svm_naive trained on the split's latent labels."""
    if train.y is None:
        raise ValueError("the clean reference requires latent labels")
    return run_svm_naive(PUDataset(train.X, train.y), test)


# Each method name -> its runner on a train split that keeps its latent labels, a test
# split, and the cell's seed. Every method but the clean reference trains on the observed
# labels alone.
_METHODS = {
    "pgpu": lambda train, test, seed: run_pgpu(train.without_latent(), test),
    "pgpu_cv": lambda train, test, seed: run_pgpu(train.without_latent(), test,
                                                  boundary_mode="cv", cv_seed=seed),
    "svm_naive": lambda train, test, seed: run_svm_naive(train.without_latent(), test),
    "elkan": lambda train, test, seed: run_elkan(train.without_latent(), test, seed=seed),
    "clean": _run_clean,
}


def _aggregate(method: str, setting: str,
               cells: list[tuple[int, float | None, str | None, float]]) -> ResultRecord:
    oks = [(sid, acc) for sid, acc, err, _ in cells if err is None]
    accs = tuple(acc for _, acc in oks)
    if accs:
        mean = float(np.mean(accs))
        std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
    else:
        mean = math.nan
        std = math.nan
    return ResultRecord(
        method=method,
        setting=setting,
        accuracy_mean=mean,
        accuracy_std=std,
        per_split=accs,
        split_ids=tuple(sid for sid, _ in oks),
        errors=tuple(f"split {sid}: {err}" for sid, _, err, _ in cells if err is not None),
        cell_times=tuple((sid, t) for sid, _, _, t in cells),
    )


def run_suite(config: ExperimentConfig) -> list[ResultRecord]:
    """Run every (setting x split x method) cell and aggregate accuracies.

    Per-cell failures are recorded in the matching record's ``errors`` and do
    not abort the remaining cells. Identical configs give identical records
    apart from wall times.
    """
    settings = [(spec.describe(), spec) for spec in config.flip] or [("none", None)]
    records: list[ResultRecord] = []
    for si, (sname, fspec) in enumerate(settings):
        clean = _make_dataset(config, si)
        if fspec is None:
            pu = clean
        else:
            gap = rank_normalized_gap(estimate_clean_gap(clean), clean.y)
            pu = flip_labels(clean, gap, fspec, seed=derive_seed(config.master_seed, "flip", si))
        cells: dict[str, list[tuple[int, float | None, str | None, float]]] = {
            m: [] for m in config.methods
        }
        for split_id in range(config.n_splits):
            tr, te = split(pu, config.train_fraction,
                           derive_seed(config.master_seed, "split", si, split_id))
            for m in config.methods:
                mseed = derive_seed(config.master_seed, "method", si, split_id, m)
                started = time.perf_counter()
                acc: float | None
                err: str | None
                try:
                    acc = _METHODS[m](tr, te, mseed)
                    err = None
                except (ValueError, RuntimeError) as exc:
                    acc, err = None, str(exc)
                cells[m].append((split_id, acc, err, time.perf_counter() - started))
        for m in config.methods:
            records.append(_aggregate(m, sname, cells[m]))
    return records


def summarize(records: list[ResultRecord]) -> dict:
    rows = []
    for r in records:
        rows.append({
            "method": r.method,
            "setting": r.setting,
            "accuracy_mean": None if math.isnan(r.accuracy_mean) else r.accuracy_mean,
            "accuracy_std": None if math.isnan(r.accuracy_std) else r.accuracy_std,
            "n_splits_ok": len(r.per_split),
            "errors": list(r.errors),
        })
    return {"results": rows}


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_results(records: list[ResultRecord], out_dir) -> dict[str, Path]:
    """Emit results.csv and summary.json (deterministic given the records'
    accuracies) plus timings.csv (wall-clock, inherently run-dependent)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    res_rows = []
    timing_rows = []
    for r in records:
        for sid, acc in zip(r.split_ids, r.per_split):
            res_rows.append([r.method, r.setting, sid, repr(acc)])
        for sid, t in r.cell_times:
            timing_rows.append([r.method, r.setting, sid, f"{t:.6f}"])
    paths = {
        RESULTS_FILE: out / RESULTS_FILE,
        SUMMARY_FILE: out / SUMMARY_FILE,
        TIMINGS_FILE: out / TIMINGS_FILE,
    }
    paths[RESULTS_FILE].write_text(
        _csv_text(["method", "setting", "split", "accuracy"], res_rows), encoding="utf-8")
    paths[SUMMARY_FILE].write_text(
        json.dumps(summarize(records), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    paths[TIMINGS_FILE].write_text(
        _csv_text(["method", "setting", "split", "wall_time_s"], timing_rows), encoding="utf-8")
    return paths


def _check_fields(cls, d: Mapping, section: str) -> None:
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {section} fields: {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
    if missing:
        raise ValueError(f"missing {section} fields: {missing}")


def _flip_from_json(entry) -> FlipRateSpec:
    if not isinstance(entry, Mapping):
        raise ValueError(f"each flip setting must be an object, got {entry!r}")
    _check_fields(FlipRateSpec, entry, "flip")
    return FlipRateSpec(**entry)


def config_from_dict(d: Mapping) -> ExperimentConfig:
    """Build an ExperimentConfig from the JSON object form, rejecting unknown keys.

    The config and each flip setting take exactly their dataclass's fields.
    A flip object, or each one of a list, becomes a FlipRateSpec; every other
    value goes to ExperimentConfig as it is, and the dataclasses check it.
    """
    if not isinstance(d, Mapping):
        raise ValueError("config must be a JSON object")
    _check_fields(ExperimentConfig, d, "config")
    flip = d.get("flip")
    if isinstance(flip, (list, tuple)):
        flip = tuple(map(_flip_from_json, flip))
    elif flip is not None:
        flip = _flip_from_json(flip)
    return ExperimentConfig(**{**d, "flip": flip})

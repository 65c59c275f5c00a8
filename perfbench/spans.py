"""Spans recorded from outside the library, around calls into its public functions.

A function imported with ``from .kernels import gram_matrix`` is bound again in
every module that imports it, so ``Tracer.installed`` replaces each binding of a
traced function in every layer module, not only the defining one. Spans stay in
memory, each with its parent's id, until the run ends.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

LAYERS = ("kernels", "svm", "kmm", "core", "datagen", "harness")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _gram_counts(args, kwargs, out):
    rows, cols = out.shape
    dim = _arg(args, kwargs, 1, "X").shape[-1]
    # bytes computed from array sizes (both inputs read, the output written), not measured
    return {"entries": rows * cols, "bytes_computed": out.itemsize * (rows * cols + (rows + cols) * dim)}


# traced function "<module>.<function>" -> counts taken from its arguments and result
TRACED = {
    "kernels.gram_matrix": _gram_counts,
    "svm.smo_solve": lambda a, k, out: {"rows": len(_arg(a, k, 1, "y")), "iterations": out[2]},
    "svm.train_weighted_svm": lambda a, k, out: {"support_vectors": out.support_vectors.shape[0]},
    "svm.fit_platt": None,
    "svm.decision_values": lambda a, k, out: {"rows": out.shape[0]},
    "svm.predict_proba_batch": None,
    "svm.train_prob_svm": None,
    "kmm.solve_kmm": lambda a, k, out: {"source_rows": len(_arg(a, k, 2, "source_X")),
                                        "iterations": len(out.trace) - 1},
    "core.fit_relabelled_classifier": None,
    "core.estimate_boundary_cv": None,
    "datagen.estimate_clean_gap": None,
    "datagen.flip_labels": None,
    "datagen.split": None,
    "harness.run_pgpu": None,
    "harness.run_elkan": None,
    "harness.run_svm_naive": None,
    "harness.evaluate": None,
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts")

    def __init__(self, id_: int, parent: int | None, name: str, start: float):
        self.id = id_
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.counts: dict[str, float] = {}

    def to_list(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end, self.counts]


class Tracer:
    """Records nested spans of one process; single-threaded, like the cells it traces."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        except BaseException:
            sp.counts["failed"] = 1
            raise
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn, counts):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
            if counts is not None:
                sp.counts.update(counts(args, kwargs, out))
            return out
        return traced

    @contextmanager
    def installed(self):
        """Replace every binding of each traced function in the layer modules; restore on exit."""
        modules = [importlib.import_module(f"pgpu.{layer}") for layer in LAYERS]
        wrappers = {}
        for qualname, counts in TRACED.items():
            layer, func = qualname.split(".")
            original = getattr(importlib.import_module(f"pgpu.{layer}"), func)
            wrappers[id(original)] = (original, self._wrap(qualname, original, counts))
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, attr, wrappers[id(value)][1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its children."""
    out = {sp[0]: sp[4] - sp[3] for sp in spans}
    for sp in spans:
        if sp[1] is not None:
            out[sp[1]] -= sp[4] - sp[3]
    return out


def nesting_problems(spans: list[list]) -> list[str]:
    """Children inside their parent's interval, siblings disjoint, every self time >= 0."""
    by_id = {sp[0]: sp for sp in spans}
    problems = []
    last_end: dict[int | None, float] = {}
    for sp in sorted(spans, key=lambda s: (s[3], s[0])):
        sid, parent, name, start, end = sp[:5]
        if end < start:
            problems.append(f"span {sid} ({name}) ends before it starts")
        if parent is not None:
            p = by_id.get(parent)
            if p is None or start < p[3] or end > p[4]:
                problems.append(f"span {sid} ({name}) lies outside its parent {parent}")
        if start < last_end.get(parent, float("-inf")):
            problems.append(f"span {sid} ({name}) overlaps an earlier sibling")
        last_end[parent] = end
    problems += [f"span {sid} ({by_id[sid][2]}) has negative self time {s:.3g}"
                 for sid, s in self_times(spans).items() if s < -1e-9]
    return problems


def subtree_self(spans: list[list], root: int) -> float:
    """Sum of the self times of every span below ``root`` (the root excluded)."""
    children: dict[int, list[int]] = {}
    for sp in spans:
        if sp[1] is not None:
            children.setdefault(sp[1], []).append(sp[0])
    selfs = self_times(spans)
    total, todo = 0.0, list(children.get(root, []))
    while todo:
        sid = todo.pop()
        total += selfs[sid]
        todo.extend(children.get(sid, []))
    return total


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per traced function: calls, summed self time, and each summed count."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for sp in spans:
        if sp[2] not in TRACED:
            continue
        agg = out.setdefault(sp[2], {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += selfs[sp[0]]
        for key, value in sp[5].items():
            agg[key] = agg.get(key, 0) + value
    return out

"""Synthetic PU dataset generators, label flipping, and CSV input/output.

Observed labels use +1 for labelled positives and -1 for unlabelled
instances; latent labels y are kept alongside for synthetic ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import FlipRateSpec
from .kernels import SplitKernel, check_finite, check_labels, default_kernel
from .svm import train_weighted_svm


@dataclass
class PUDataset:
    """Feature matrix plus observed labels s and optional latent labels y."""

    X: np.ndarray
    s: np.ndarray
    y: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        n = self.X.shape[0]
        check_finite(self.X)
        self.s = check_labels(self.s, "observed labels")
        if self.s.shape != (n,):
            raise ValueError("s must have one label per row of X")
        if self.y is not None:
            self.y = check_labels(self.y, "latent labels")
            if self.y.shape != (n,):
                raise ValueError("y must have one label per row of X")
            if np.any((self.s == 1) & (self.y != 1)):
                raise ValueError("observed positives must have latent label +1")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "PUDataset":
        idx = np.asarray(idx)
        return PUDataset(
            self.X[idx].copy(),
            self.s[idx].copy(),
            None if self.y is None else self.y[idx].copy(),
        )

    def without_latent(self) -> "PUDataset":
        """Copy with latent labels stripped, for training."""
        return PUDataset(self.X.copy(), self.s.copy())


def gen_triangles(n_pos: int = 1000, n_neg: int = 1000, seed: int = 0) -> PUDataset:
    """Non-overlapping 2-d classes: positives uniform on the upper-left triangle
    of [-1,1]^2 (above the main diagonal), negatives on the lower-right one."""
    if n_pos < 1 or n_neg < 1:
        raise ValueError("counts must be positive")
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1.0, 1.0, size=(n_pos, 2))
    swap = pos[:, 1] < pos[:, 0]
    pos[swap] = pos[swap][:, ::-1]
    neg = rng.uniform(-1.0, 1.0, size=(n_neg, 2))
    swap = neg[:, 1] > neg[:, 0]
    neg[swap] = neg[swap][:, ::-1]
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_neg, dtype=int)])
    return PUDataset(X, y.copy(), y)


def overlap_positive_prob(X) -> np.ndarray:
    """P(y=+1|x) = clamp(max(0, 0.5 - 10*(x1 - x2)), 0, 1) for the overlapping square."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.clip(0.5 - 10.0 * (X[:, 0] - X[:, 1]), 0.0, 1.0)


def gen_overlap_square(n: int = 2000, seed: int = 0) -> PUDataset:
    """Uniform sample on [-1,1]^2 with labels drawn from a steep linear
    positive-class probability, overlapping in a thin diagonal band."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    p = overlap_positive_prob(X)
    y = np.where(rng.random(n) < p, 1, -1)
    return PUDataset(X, y.copy(), y)


def flip_labels(clean: PUDataset, gap, spec: FlipRateSpec, seed: int = 0) -> PUDataset:
    """Turn clean positives into unlabelled examples with probability spec.rate(gap).

    Negatives and all feature vectors are untouched; latent labels are kept.
    """
    gap = np.asarray(gap, dtype=float)
    if clean.y is None or not np.array_equal(clean.s, clean.y):
        raise ValueError("flip_labels requires a clean dataset with s == y")
    if gap.shape != (clean.n,):
        raise ValueError("gap must have one value per instance")
    if np.any(gap < -1.0) or np.any(gap > 1.0):
        raise ValueError("gap values must lie in [-1, 1]")
    rho = spec.rate(gap)
    rng = np.random.default_rng(seed)
    flip = (clean.s == 1) & (rng.random(clean.n) < rho)
    s_new = clean.s.copy()
    s_new[flip] = -1
    return PUDataset(clean.X.copy(), s_new, clean.y.copy())


def rank_normalized_gap(gap, y) -> np.ndarray:
    """Within-class rank transform of difficulty scores ``gap`` onto [-1, 1].

    Only the order within each latent class matters, so any increasing transform
    of the scores gives the same result. Positives spread uniformly over (0, 1]
    (lowest score, the hardest, near 0) and negatives over [-1, 0) (highest score
    near 0); exact ties are broken by index. The suite feeds this to flip_labels.
    """
    score = np.asarray(gap, dtype=float)
    y = check_labels(y, "latent labels")
    if score.shape != y.shape:
        raise ValueError("gap and y must have equal length")
    if not np.isfinite(score).all():
        raise ValueError("scores must be finite")
    out = np.empty_like(score)
    for cls in (1, -1):
        mask = y == cls
        order = np.argsort(np.argsort(cls * score[mask], kind="stable"), kind="stable")
        out[mask] = cls * (order + 1.0) / mask.sum()
    return out


def estimate_clean_gap(clean: PUDataset) -> np.ndarray:
    """Difficulty score of each instance: the decision value of one SVM fit on the clean labels.

    Synthetic flipping is driven by the learner's own view of the data rather
    than the analytic posterior. The score is not a gap in [-1, 1]; pass it
    through rank_normalized_gap, which needs only its order within each class.
    """
    if clean.y is None:
        raise ValueError("latent labels are required to estimate the clean gap")
    kernel = SplitKernel(default_kernel(clean.dim), clean.X)
    return train_weighted_svm(kernel, clean.y, np.ones(clean.n)).fitted


def split(dataset: PUDataset, train_fraction: float = 0.75, seed: int = 0,
          ) -> tuple[PUDataset, PUDataset]:
    """Uniform random train/test partition; both halves keep latent labels."""
    if dataset.n < 4:
        raise ValueError("need at least 4 examples to split")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    k = int(round(dataset.n * train_fraction))
    k = min(max(k, 1), dataset.n - 1)
    perm = np.random.default_rng(seed).permutation(dataset.n)
    return dataset.subset(np.sort(perm[:k])), dataset.subset(np.sort(perm[k:]))


def save_csv(dataset: PUDataset, path) -> None:
    """Write header x1,...,xd,s,y; the y column is empty when latent labels are absent."""
    d = dataset.dim
    lines = [",".join([f"x{k + 1}" for k in range(d)] + ["s", "y"])]
    for i in range(dataset.n):
        fields = [repr(float(v)) for v in dataset.X[i]]
        fields.append(str(int(dataset.s[i])))
        fields.append("" if dataset.y is None else str(int(dataset.y[i])))
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_label(text: str, line_no: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"line {line_no}: invalid label {text!r}") from None
    if value not in (1, -1):
        raise ValueError(f"line {line_no}: label must be 1 or -1, got {value}")
    return value


def load_csv(path) -> PUDataset:
    """Read a dataset written by save_csv; errors carry the offending line number."""
    text = Path(path).read_text(encoding="utf-8")
    rows = text.splitlines()
    if not rows:
        raise ValueError("empty file")
    header = rows[0].split(",")
    d = len(header) - 2
    if d < 1 or header[-2:] != ["s", "y"] or header[:-2] != [f"x{k + 1}" for k in range(d)]:
        raise ValueError("malformed header, expected x1,...,xd,s,y")
    feats: list[list[float]] = []
    s_vals: list[int] = []
    y_vals: list[int | None] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if row == "":
            continue
        parts = row.split(",")
        if len(parts) != d + 2:
            raise ValueError(f"line {line_no}: expected {d + 2} fields, got {len(parts)}")
        try:
            feats.append([float(p) for p in parts[:d]])
        except ValueError:
            raise ValueError(f"line {line_no}: invalid feature value") from None
        for j, value in enumerate(feats[-1]):
            if not math.isfinite(value):
                raise ValueError(f"line {line_no}: features must be finite: x{j + 1} is {value}")
        s_vals.append(_parse_label(parts[d], line_no))
        y_vals.append(None if parts[d + 1] == "" else _parse_label(parts[d + 1], line_no))
    if not feats:
        raise ValueError("no data rows")
    have_y = [v is not None for v in y_vals]
    if any(have_y) and not all(have_y):
        raise ValueError("latent label column must be empty everywhere or filled everywhere")
    y = np.array(y_vals, dtype=int) if all(have_y) else None
    return PUDataset(np.asarray(feats, dtype=float), np.array(s_vals, dtype=int), y)

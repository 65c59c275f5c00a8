"""Observed probability gaps, boundary estimation, and confident relabelling of PU data.

The observed gap of an instance is P(s=+1|x) - P(s=-1|x) under the PU labels.
Unlabelled instances whose gap falls below a negative boundary l are safely
negative, those with positive gap are safely positive, and the band in
between is discarded.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .kernels import SplitKernel, check_labels
from .kmm import BetaWeights, solve_kmm
from .svm import SvmModel, _ascending_rows, _stratified_folds, train_prob_svm, train_weighted_svm

BOUNDARY_GRID: tuple[float, ...] = tuple(round(-0.90 + 0.01 * k, 2) for k in range(31))

_BOUNDARY_MARGIN = 1e-6
_N_PRIME = 3  # n': how many of the smallest observed-positive gaps estimate_boundary_min averages
_BOUNDARY_FOLDS = 5  # cross-validation folds of estimate_boundary_cv


@dataclass(frozen=True)
class RelabelResult:
    """Partition of instance indices into relabelled-positive, relabelled-negative, discarded."""

    positive_idx: np.ndarray
    negative_idx: np.ndarray
    discarded_idx: np.ndarray


@dataclass(frozen=True)
class FlipRateSpec:
    """Flip-rate family for turning clean positives into unlabelled examples.

    kinds: inverse (alpha/(alpha + gap*(1+beta))), linear (alpha*(1-gap)),
    constant (alpha). Rates are clipped into [0, 1] and are zero wherever the
    gap is negative, since only positive-region instances lose their label.
    """

    kind: str
    alpha: float
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("inverse", "linear", "constant"):
            raise ValueError(f"unknown flip kind: {self.kind!r}")
        for field in ("alpha",) if self.beta is None else ("alpha", "beta"):
            value = getattr(self, field)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{field} must be a real number, got {value!r}")
            try:
                object.__setattr__(self, field, float(value))
            except OverflowError:  # an integer too large for a float
                raise ValueError(f"{field} is too large for a float") from None
        if not 0 <= self.alpha < math.inf:  # an infinite alpha makes NaN rates
            raise ValueError("alpha must be finite and nonnegative")
        if self.kind == "inverse":
            if self.beta is None:
                raise ValueError("inverse flip rate requires beta")
            if not self.alpha > 0:
                raise ValueError("inverse flip rate requires alpha > 0")
            # NaN rates would flip nothing; beta <= -1 lets the denominator reach 0
            if not -1 < self.beta < math.inf:
                raise ValueError("inverse flip rate requires a finite beta > -1")
        elif self.beta is not None:
            raise ValueError(f"{self.kind} flip rate takes no beta")

    def rate(self, gaps) -> np.ndarray:
        g = np.asarray(gaps, dtype=float)
        pos = np.clip(g, 0.0, 1.0)
        if self.kind == "constant":
            rho = np.full_like(g, self.alpha)
        elif self.kind == "linear":
            rho = self.alpha * (1.0 - pos)
        else:
            rho = self.alpha / (self.alpha + pos * (1.0 + self.beta))
        rho = np.clip(rho, 0.0, 1.0)
        rho[g < 0.0] = 0.0
        return rho

    def describe(self) -> str:
        if self.kind == "inverse":
            return f"inverse({self.alpha:g},{self.beta:g})"
        return f"{self.kind}({self.alpha:g})"

    @classmethod
    def parse(cls, text: str) -> "FlipRateSpec":
        """Parse 'inverse:a,b', 'linear:a', or 'constant:a'."""
        kind, _, rest = text.partition(":")
        try:
            nums = [float(part) for part in rest.split(",") if part != ""]
        except ValueError:
            raise ValueError(f"invalid flip parameters in {text!r}") from None
        if kind == "inverse":
            if len(nums) != 2:
                raise ValueError("inverse flip needs two parameters, e.g. inverse:0.1,0.5")
            return cls("inverse", nums[0], nums[1])
        if kind in ("linear", "constant"):
            if len(nums) != 1:
                raise ValueError(f"{kind} flip needs one parameter, e.g. {kind}:0.3")
            return cls(kind, nums[0])
        raise ValueError(f"unknown flip kind: {kind!r}")


# The KMM matching kernel is rbf with gamma = KMM_GAMMA_SCALE/dim, sharper than the
# classifier kernel's 1/dim: the mean embedding has to resolve density differences at the
# width of the discarded band, which the classifier default smooths away.
KMM_GAMMA_SCALE = 20.0


def observed_gap(kernel: SplitKernel, labels, rows=None) -> np.ndarray:
    """Observed gaps 2P(s=+1|x) - 1 of the rows ``rows`` of the split (None: all; ascending),
    one per row, from the ``fitted`` of a calibrated SVM trained on them with their ``labels``."""
    model, calib = train_prob_svm(kernel, labels, rows=rows)
    return 2.0 * calib.posterior(model.fitted[_ascending_rows(rows, kernel.n)]) - 1.0


def _checked_gaps(gaps, observed_labels) -> tuple[np.ndarray, np.ndarray]:
    """Gaps and labels as arrays, after checking there is one gap in [-1, 1] per +-1 label."""
    g, s = np.asarray(gaps, dtype=float), check_labels(observed_labels, "observed labels")
    if g.ndim != 1 or s.shape != g.shape:
        raise ValueError("gaps must be a 1-d array with one gap per label")
    if not np.all((g >= -1.0) & (g <= 1.0)):
        raise ValueError("gaps must lie in [-1, 1]")
    return g, s


def estimate_boundary_min(gaps, observed_labels) -> float:
    """Mean of the n' = 3 smallest gaps among observed positives, clamped into (-1, 0).

    Averaging over n' > 1 points robustifies the plain minimum against
    calibration outliers.
    """
    g, s = _checked_gaps(gaps, observed_labels)
    pos = g[s == 1]
    if pos.size < _N_PRIME:
        raise ValueError(f"need at least {_N_PRIME} observed positives, got {pos.size}")
    smallest = np.partition(pos, _N_PRIME - 1)[:_N_PRIME]
    return float(np.clip(smallest.mean(), -1.0 + _BOUNDARY_MARGIN, -_BOUNDARY_MARGIN))


def relabel(gaps, observed_labels, boundary_l: float) -> RelabelResult:
    """Assign confident labels: observed positives stay positive, unlabelled
    instances become negative when gap <= boundary_l, positive when gap > 0,
    and are discarded inside the ambiguous band (boundary_l, 0]. Positives come in
    sample order, then negatives and discarded ones by ascending gap (ties in sample
    order): the same layout for every boundary, each led by its relabelled sample."""
    if not -1.0 < boundary_l < 0.0:
        raise ValueError("boundary_l must lie strictly inside (-1, 0)")
    g, s = _checked_gaps(gaps, observed_labels)
    positive = (s == 1) | (g > 0.0)
    rest = np.flatnonzero(~positive)
    rest = rest[np.argsort(g[rest], kind="stable")]
    cut = int(np.searchsorted(g[rest], boundary_l, side="right"))
    return RelabelResult(
        positive_idx=np.flatnonzero(positive),
        negative_idx=rest[:cut],
        discarded_idx=rest[cut:],
    )


def _matching_kernel(kernel: SplitKernel, result: RelabelResult, rows) -> SplitKernel:
    """The KMM kernel on sample rows ``rows`` of ``kernel`` in ``relabel``'s layout
    ``result``, which is the same for every boundary on the sample."""
    layout = np.concatenate([result.positive_idx, result.negative_idx, result.discarded_idx])
    gamma = KMM_GAMMA_SCALE / kernel.X.shape[1]
    return SplitKernel(gamma, kernel.X[np.asarray(rows, dtype=np.intp)[layout]])


def fit_relabelled_classifier(kernel: SplitKernel, s, gaps, boundary_l: float, rows=None,
                              matching: SplitKernel | None = None,
                              ) -> tuple[SvmModel, RelabelResult, BetaWeights]:
    """Relabel, correct the induced domain bias with KMM, and train the weighted SVM.

    The sample is the rows ``rows`` (None: all; strictly ascending) of the classifier
    kernel, with ``s`` and ``gaps`` given per sample row. The final SVM runs over the
    whole split with weight beta at the relabelled rows and 0 elsewhere, so its
    ``fitted`` scores every row. The KMM target is the full sample and the source is the
    relabelled subset, so the weights undo the bias from dropping the
    ambiguous band. ``matching`` (None: built here) is ``_matching_kernel``'s
    kernel on the sample in ``relabel``'s layout, whose leading run is the relabelled
    sample, so the KMM source block is a view; callers that fit many boundaries on one
    sample pass it. Relabelled-positive and relabelled-negative indices are sample
    positions; ``beta`` lines up with them, positives first.
    """
    idx = _ascending_rows(rows, kernel.n)
    result = relabel(gaps, s, boundary_l)
    n_pos, n_neg = result.positive_idx.size, result.negative_idx.size
    if n_pos == 0 or n_neg == 0:
        raise ValueError("relabelling produced one class")
    if matching is None:
        matching = _matching_kernel(kernel, result, idx)
    # source stays solve_kmm's third positional argument: perfbench/spans.py reads it there
    beta = solve_kmm(matching, None, np.arange(n_pos + n_neg))
    fit_rows = idx[np.concatenate([result.positive_idx, result.negative_idx])]
    labels, weights = np.ones(kernel.n, dtype=int), np.zeros(kernel.n)
    labels[fit_rows[n_pos:]] = -1
    weights[fit_rows] = beta.beta
    return train_weighted_svm(kernel, labels, weights), result, beta


def estimate_boundary_cv(kernel: SplitKernel, s, seed: int = 0) -> float:
    """Pick the boundary from ``BOUNDARY_GRID`` that maximizes 5-fold cross-validated accuracy.

    ``kernel`` is the classifier kernel of the training split and ``s`` its
    observed labels. Each candidate is scored by running the full
    relabel-KMM-SVM pipeline on the training folds and measuring accuracy
    against the held-out observed PU labels; every classifier kernel value
    comes from ``kernel.K``. Each fold relabels once for its layout and builds its
    matching kernel once, and every candidate's KMM source is a leading view of it;
    candidates that relabel a fold alike share one fit. Ties resolve to the candidate
    that comes first in the grid, the most negative boundary.
    Degenerate (candidate, fold) pairs (a ValueError) are skipped; if every candidate
    degenerates everywhere, this raises. A solver failure (RuntimeError) is not skipped: it
    propagates.
    """
    s = check_labels(s, "observed labels")
    if s.shape != (kernel.n,):
        raise ValueError("s must have one label per row of the kernel")
    if min(int((s == 1).sum()), int((s == -1).sum())) < _BOUNDARY_FOLDS:
        raise ValueError(f"each observed class needs at least {_BOUNDARY_FOLDS} examples "
                         f"for {_BOUNDARY_FOLDS}-fold CV")
    scores = _cv_scores(kernel, s, BOUNDARY_GRID, seed)
    if not np.isfinite(scores).any():
        raise ValueError("every boundary candidate was degenerate in cross-validation")
    return float(BOUNDARY_GRID[int(np.argmax(scores))])


def _cv_scores(kernel: SplitKernel, s: np.ndarray, grid, seed: int) -> np.ndarray:
    """Mean held-out accuracy of each grid candidate over the folds where it is not
    degenerate, -inf where it is degenerate in every fold."""
    fold = _stratified_folds(s, _BOUNDARY_FOLDS, np.random.default_rng(seed))

    sums = np.zeros(len(grid))
    counts = np.zeros(len(grid))
    for k in range(_BOUNDARY_FOLDS):
        fit_rows = np.flatnonzero(fold != k)
        hold_rows = np.flatnonzero(fold == k)
        try:
            fold_gaps = observed_gap(kernel, s[fit_rows], fit_rows)
        except ValueError:
            continue
        layout = relabel(fold_gaps, s[fit_rows], grid[0])
        matching = _matching_kernel(kernel, layout, fit_rows)
        # Negatives lead the layout's gap-sorted unlabelled rows at every boundary, so
        # candidates with equal negative counts relabel alike.
        ranked = fold_gaps[np.concatenate([layout.negative_idx, layout.discarded_idx])]
        n_negatives = np.searchsorted(ranked, grid, side="right")
        # distinct counts in grid order; np.unique's first call would import numpy.ma
        # inside a cell (4 ms, and 340 objects left for the garbage collector)
        for count in dict.fromkeys(n_negatives.tolist()):
            alike = n_negatives == count
            try:
                clf, _, _ = fit_relabelled_classifier(kernel, s[fit_rows], fold_gaps,
                                                      grid[int(np.argmax(alike))], fit_rows,
                                                      matching)
            except ValueError:  # a degenerate relabelling; solver failures propagate
                continue
            pred = np.where(clf.fitted[hold_rows] >= 0.0, 1, -1)
            sums[alike] += float(np.mean(pred == s[hold_rows]))
            counts[alike] += 1
    return np.where(counts > 0, sums / np.maximum(counts, 1.0), -np.inf)

"""Observed probability gaps, boundary estimation, and confident relabelling of PU data.

The observed gap of an instance is P(s=+1|x) - P(s=-1|x) under the PU labels.
Unlabelled instances whose gap falls below a negative boundary l are safely
negative, those with positive gap are safely positive, and the band in
between is discarded. ``relabel`` builds a relabelling once, as one layout of the
sample and two counts, and ``fit_relabelled_classifier`` fits it as given.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .kernels import SplitKernel, check_labels
from .kmm import BetaWeights, solve_kmm
from .svm import SvmModel, _stratified_folds, train_prob_svm, train_weighted_svm

BOUNDARY_GRID: tuple[float, ...] = tuple(round(-0.90 + 0.01 * k, 2) for k in range(31))

_BOUNDARY_MARGIN = 1e-6
_N_PRIME = 3  # n': how many of the smallest observed-positive gaps estimate_boundary_min averages
_BOUNDARY_FOLDS = 5  # cross-validation folds of estimate_boundary_cv


@dataclass(frozen=True)
class RelabelResult:
    """A relabelling: ``layout`` holds the sample's positives in sample order, then its other
    unlabelled rows by ascending gap. The first ``n_positive`` are relabelled positive, the
    next ``n_negative`` negative, and the rest are discarded."""

    layout: np.ndarray
    n_positive: int
    n_negative: int


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
        try:  # float("") fails, so an empty field is invalid as well
            nums = [float(part) for part in rest.split(",")] if rest else []
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


def observed_gap(kernel: SplitKernel, labels, fit=None) -> np.ndarray:
    """Observed gap 2P(s=+1|x) - 1 of every row of the split, from the ``fitted`` of a calibrated
    SVM trained on the rows of the boolean mask ``fit`` (None: all), one label per split row."""
    model, calib = train_prob_svm(kernel, labels, fit)
    return 2.0 * calib.posterior(model.fitted) - 1.0


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
    and are discarded inside the ambiguous band (boundary_l, 0]. Ties in gap keep
    sample order. Positives do not depend on the boundary and negatives lead the
    gap-sorted rest, so every boundary gives the same layout."""
    if not -1.0 < boundary_l < 0.0:
        raise ValueError("boundary_l must lie strictly inside (-1, 0)")
    g, s = _checked_gaps(gaps, observed_labels)
    positive = (s == 1) | (g > 0.0)
    pos, rest = np.flatnonzero(positive), np.flatnonzero(~positive)
    rest = rest[np.argsort(g[rest], kind="stable")]
    n_negative = int(np.searchsorted(g[rest], boundary_l, side="right"))
    return RelabelResult(np.concatenate([pos, rest]), pos.size, n_negative)


def _matching_kernel(kernel: SplitKernel, relabelled: RelabelResult) -> SplitKernel:
    """The KMM kernel on the rows ``relabelled.layout`` of ``kernel``, in that order. Its
    matrix, or on a large layout its factor, is computed on first use and kept: the solves
    that read the factor never build the matrix."""
    return SplitKernel(KMM_GAMMA_SCALE / kernel.X.shape[1], kernel.X[relabelled.layout])


def fit_relabelled_classifier(kernel: SplitKernel, relabelled: RelabelResult,
                              matching: SplitKernel | None = None,
                              ) -> tuple[SvmModel, BetaWeights]:
    """Correct the bias of the relabelling ``relabelled`` with KMM, and train the weighted SVM.

    ``relabelled.layout`` is read as rows of the classifier kernel. The final SVM runs over
    the whole split with weight beta at the relabelled rows and 0 elsewhere, so its
    ``fitted`` scores every row. The KMM target is the whole layout and the source is its
    relabelled lead, so the weights undo the bias from dropping the ambiguous band.
    ``matching`` (None: built here) is ``_matching_kernel``'s kernel on the layout, which
    callers that fit many relabellings of one layout build once; the KMM source block is a
    view of its matrix, or on a large layout of its factor, which it keeps for every solve.
    ``beta`` lines up with the relabelled rows of the layout, positives first.
    """
    n_pos, n_neg = relabelled.n_positive, relabelled.n_negative
    if n_pos == 0 or n_neg == 0:
        raise ValueError("relabelling produced one class")
    if matching is None:
        matching = _matching_kernel(kernel, relabelled)
    # source stays solve_kmm's third positional argument: perfbench/spans.py reads it there
    beta = solve_kmm(matching, None, np.arange(n_pos + n_neg))
    fit_rows = relabelled.layout[:n_pos + n_neg]
    labels, weights = np.ones(kernel.n, dtype=int), np.zeros(kernel.n)
    labels[fit_rows[n_pos:]] = -1
    weights[fit_rows] = beta.beta
    return train_weighted_svm(kernel, labels, weights), beta


def estimate_boundary_cv(kernel: SplitKernel, s, seed: int = 0) -> float:
    """Pick the boundary from ``BOUNDARY_GRID`` that maximizes 5-fold cross-validated accuracy.

    ``kernel`` is the classifier kernel of the training split and ``s`` its
    observed labels. Each candidate is scored by running the full
    relabel-KMM-SVM pipeline on the training folds and measuring accuracy
    against the held-out observed PU labels; every classifier kernel value
    comes from ``kernel.K``. Each fold is relabelled once and builds one matching kernel
    on its layout; a candidate only sets how many rows of it are negative, and candidates
    with the same count share one fit. Ties resolve to the candidate
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
    degenerate, -inf where it is degenerate in every fold. A fold's gaps come from one calibrated
    fit on the mask of the other folds; if that fit fails (a ValueError), the fold is skipped."""
    fold = _stratified_folds(s, _BOUNDARY_FOLDS, np.random.default_rng(seed))

    sums = np.zeros(len(grid))
    counts = np.zeros(len(grid))
    for k in range(_BOUNDARY_FOLDS):
        fit = fold != k
        fit_rows, hold_rows = np.flatnonzero(fit), np.flatnonzero(~fit)
        try:
            fold_gaps = observed_gap(kernel, s, fit)[fit_rows]
        except ValueError:
            continue
        relabelled = relabel(fold_gaps, s[fit_rows], grid[0])
        # the layout's unlabelled rows are gap-sorted and led by the negatives at every
        # boundary, so a candidate's relabelling is its count of negatives
        ranked = fold_gaps[relabelled.layout[relabelled.n_positive:]]
        n_negatives = np.searchsorted(ranked, grid, side="right")
        sample = replace(relabelled, layout=fit_rows[relabelled.layout])  # split rows
        matching = _matching_kernel(kernel, sample)
        # distinct counts in grid order; np.unique's first call would import numpy.ma
        # inside a cell (4 ms, and 340 objects left for the garbage collector)
        for count in dict.fromkeys(n_negatives.tolist()):
            alike = n_negatives == count
            try:
                clf, _ = fit_relabelled_classifier(kernel, replace(sample, n_negative=count),
                                                   matching)
            except ValueError:  # a degenerate relabelling; solver failures propagate
                continue
            pred = np.where(clf.fitted[hold_rows] >= 0.0, 1, -1)
            sums[alike] += float(np.mean(pred == s[hold_rows]))
            counts[alike] += 1
    return np.where(counts > 0, sums / np.maximum(counts, 1.0), -np.inf)

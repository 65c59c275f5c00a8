"""Observed probability gaps, boundary estimation, and confident relabelling of PU data.

The observed gap of an instance is P(s=+1|x) - P(s=-1|x) under the PU labels.
Unlabelled instances whose gap falls below a negative boundary l are safely
negative, those with positive gap are safely positive, and the band in
between is discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import KernelSpec, SplitKernel
from .kmm import BetaWeights, KmmConfig, solve_kmm
from .svm import (
    SvmConfig,
    SvmModel,
    decision_values,
    predict_proba_batch,
    train_prob_svm,
    train_weighted_svm,
)

BOUNDARY_GRID: tuple[float, ...] = tuple(round(-0.90 + 0.01 * k, 2) for k in range(31))

_BOUNDARY_MARGIN = 1e-6
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
        if not self.alpha >= 0:
            raise ValueError("alpha must be nonnegative")
        if self.kind == "inverse":
            if self.beta is None:
                raise ValueError("inverse flip rate requires beta")
            if not self.alpha > 0:
                raise ValueError("inverse flip rate requires alpha > 0")
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


KMM_GAMMA_SCALE = 20.0


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the relabel-reweight-retrain pipeline needs besides the data.

    The matching kernel for KMM defaults to a sharper bandwidth than the
    classifier kernel (gamma = 20/dim instead of 1/dim): the mean embedding
    has to resolve density differences at the width of the discarded band,
    which the classifier default smooths away.
    """

    svm: SvmConfig = SvmConfig()
    kmm: KmmConfig = KmmConfig()
    n_prime: int = 3
    kmm_kernel: KernelSpec | None = None

    def __post_init__(self) -> None:
        if self.n_prime < 1:
            raise ValueError("n_prime must be positive")

    def resolve_kmm_kernel(self, dim: int) -> KernelSpec:
        if self.kmm_kernel is not None:
            return self.kmm_kernel
        return KernelSpec(kind="rbf", gamma=KMM_GAMMA_SCALE / dim)


def observed_gap(kernel: SplitKernel, labels, config: SvmConfig = SvmConfig(),
                 rows=None) -> np.ndarray:
    """Observed gaps 2P(s=+1|x) - 1 of the rows ``rows`` of the split (None: all), one per
    row, from a calibrated SVM trained on those rows with their ``labels``."""
    model, calib = train_prob_svm(kernel, labels, config, rows=rows)
    return 2.0 * predict_proba_batch(model, calib, kernel, rows) - 1.0


def _checked_gaps(gaps, observed_labels) -> tuple[np.ndarray, np.ndarray]:
    """Gaps and labels as arrays, after checking there is one gap in [-1, 1] per label."""
    g, s = np.asarray(gaps, dtype=float), np.asarray(observed_labels, dtype=int)
    if g.ndim != 1 or s.shape != g.shape:
        raise ValueError("gaps must be a 1-d array with one gap per label")
    if not np.all((g >= -1.0) & (g <= 1.0)):
        raise ValueError("gaps must lie in [-1, 1]")
    return g, s


def estimate_boundary_min(gaps, observed_labels, n_prime: int = 3) -> float:
    """Mean of the n_prime smallest gaps among observed positives, clamped into (-1, 0).

    Averaging over n_prime > 1 points robustifies the plain minimum against
    calibration outliers.
    """
    if n_prime < 1:
        raise ValueError("n_prime must be positive")
    g, s = _checked_gaps(gaps, observed_labels)
    pos = g[s == 1]
    if pos.size < n_prime:
        raise ValueError(f"need at least {n_prime} observed positives, got {pos.size}")
    smallest = np.partition(pos, n_prime - 1)[:n_prime]
    return float(np.clip(smallest.mean(), -1.0 + _BOUNDARY_MARGIN, -_BOUNDARY_MARGIN))


def relabel(gaps, observed_labels, boundary_l: float) -> RelabelResult:
    """Assign confident labels: observed positives stay positive, unlabelled
    instances become negative when gap <= boundary_l, positive when gap > 0,
    and are discarded inside the ambiguous band (boundary_l, 0]."""
    if not -1.0 < boundary_l < 0.0:
        raise ValueError("boundary_l must lie strictly inside (-1, 0)")
    g, s = _checked_gaps(gaps, observed_labels)
    obs_pos = s == 1
    unl = ~obs_pos
    new_neg = unl & (g <= boundary_l)
    new_pos = unl & (g > 0.0)
    discard = unl & ~new_neg & ~new_pos
    return RelabelResult(
        positive_idx=np.flatnonzero(obs_pos | new_pos),
        negative_idx=np.flatnonzero(new_neg),
        discarded_idx=np.flatnonzero(discard),
    )


def fit_relabelled_classifier(kernel: SplitKernel, s, gaps, boundary_l: float,
                              config: PipelineConfig = PipelineConfig(), rows=None,
                              kmm_kernel: SplitKernel | None = None,
                              ) -> tuple[SvmModel, RelabelResult, BetaWeights]:
    """Relabel, correct the induced domain bias with KMM, and train the weighted SVM.

    The sample is the rows ``rows`` (None: all) of the classifier kernel, with
    ``s`` and ``gaps`` given per sample row; the final SVM reads its kernel
    rows from ``kernel.K``. The KMM target is the full sample and the source is the
    relabelled subset, so the weights undo the bias from dropping the
    ambiguous band. ``kmm_kernel``, the matching kernel on the sample's rows,
    is passed by callers that fit many boundaries on one sample; otherwise it
    is built here with the source rows first, so the source block is a view.
    Relabelled-positive and relabelled-negative indices are sample positions.
    """
    idx = np.arange(kernel.n) if rows is None else np.asarray(rows, dtype=np.intp)
    result = relabel(gaps, s, boundary_l)
    if result.positive_idx.size == 0 or result.negative_idx.size == 0:
        raise ValueError("relabelling produced one class")
    sel = np.concatenate([result.positive_idx, result.negative_idx])
    labels = np.concatenate([
        np.ones(result.positive_idx.size, dtype=int),
        -np.ones(result.negative_idx.size, dtype=int),
    ])
    if kmm_kernel is None:
        ordered = idx[np.concatenate([sel, result.discarded_idx])]
        kmm_kernel = SplitKernel(config.resolve_kmm_kernel(kernel.X.shape[1]), kernel.X[ordered])
        source = np.arange(sel.size)
    else:
        source = sel
    beta = solve_kmm(kmm_kernel, None, source, config.kmm)
    del kmm_kernel  # free the matching kernel before the SVM gathers its kernel rows
    model = train_weighted_svm(kernel, labels, beta.beta, config.svm.C, idx[sel])
    return model, result, beta


def _stratified_folds(s: np.ndarray, folds: int, rng: np.random.Generator) -> np.ndarray:
    fold = np.empty(s.size, dtype=int)
    for cls in (1, -1):
        idx = rng.permutation(np.flatnonzero(s == cls))
        fold[idx] = np.arange(idx.size) % folds
    return fold


def estimate_boundary_cv(kernel: SplitKernel, s, config: PipelineConfig = PipelineConfig(),
                         grid: Sequence[float] = BOUNDARY_GRID, seed: int = 0) -> float:
    """Pick the boundary from ``grid`` that maximizes 5-fold cross-validated accuracy.

    ``kernel`` is the classifier kernel of the training split and ``s`` its
    observed labels. Each candidate is scored by running the full
    relabel-KMM-SVM pipeline on the training folds and measuring accuracy
    against the held-out observed PU labels; every classifier kernel value
    comes from ``kernel.K``, and each fold builds its matching kernel once for
    all candidates. Grid candidates are scanned in ascending order, so ties
    resolve to the most negative boundary; each must lie inside (-1, 0).
    Degenerate (candidate, fold) pairs (a ValueError) are skipped; if every
    candidate degenerates everywhere, this raises. A solver failure
    (RuntimeError) is not skipped: it propagates.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    outside = [cand for cand in grid if not -1.0 < cand < 0.0]
    if outside:
        raise ValueError(f"boundary candidate {outside[0]!r} lies outside (-1, 0)")
    s = np.asarray(s, dtype=int)
    if s.shape != (kernel.n,):
        raise ValueError("s must have one label per row of the kernel")
    if min(int((s == 1).sum()), int((s == -1).sum())) < _BOUNDARY_FOLDS:
        raise ValueError(f"each observed class needs at least {_BOUNDARY_FOLDS} examples "
                         f"for {_BOUNDARY_FOLDS}-fold CV")
    fold = _stratified_folds(s, _BOUNDARY_FOLDS, np.random.default_rng(seed))
    kmm_spec = config.resolve_kmm_kernel(kernel.X.shape[1])

    sums = np.zeros(len(grid))
    counts = np.zeros(len(grid))
    for k in range(_BOUNDARY_FOLDS):
        fit_rows = np.flatnonzero(fold != k)
        hold_rows = np.flatnonzero(fold == k)
        try:
            fold_gaps = observed_gap(kernel, s[fit_rows], config.svm, fit_rows)
        except ValueError:
            continue
        kmm_kernel = SplitKernel(kmm_spec, kernel.X[fit_rows])
        for ci, cand in enumerate(grid):
            try:
                clf, _, _ = fit_relabelled_classifier(kernel, s[fit_rows], fold_gaps, cand, config,
                                                      fit_rows, kmm_kernel)
            except ValueError:  # a degenerate relabelling; solver failures propagate
                continue
            pred = np.where(decision_values(clf, kernel, hold_rows) >= 0.0, 1, -1)
            sums[ci] += float(np.mean(pred == s[hold_rows]))
            counts[ci] += 1
    if not (counts > 0).any():
        raise ValueError("every boundary candidate was degenerate in cross-validation")
    scores = np.where(counts > 0, sums / np.maximum(counts, 1.0), -np.inf)
    return float(grid[int(np.argmax(scores))])


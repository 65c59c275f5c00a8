"""Weighted soft-margin kernel SVM trained by SMO, plus sigmoid probability calibration.

The trainer solves the dual with a per-example box constraint
0 <= alpha_i <= C * weight_i, selecting the maximal violating pair each step.
The calibrator fits a two-parameter sigmoid to (cross-validated) decision
values so that models can emit class posteriors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (KernelSpec, SplitKernel, _as_run, _empty, check_finite, check_labels,
                      gram_matrix)

_TAU = 1e-12
_P_EPS = 1e-12
_PLATT_MAX_ITER = 100  # Newton rounds
_PLATT_GRAD_TOL = 1e-8
_PLATT_SIGMA = 1e-12  # added to the Hessian diagonal
_CV_MIN_SIZE = 30  # smallest sample whose Platt targets are cross-validated
_CV_FOLDS = 3


@dataclass
class SvmModel:
    """Dual-form classifier: f(x) = sum_i dual_coefs[i] * k(sv_i, x) + bias."""

    support_vectors: np.ndarray  # (m, d)
    dual_coefs: np.ndarray       # (m,), alpha_i * y_i, all nonzero
    bias: float
    kernel: KernelSpec
    fitted: np.ndarray | None = None  # decision value at each training example; None if hand-built


@dataclass(frozen=True)
class PlattCalibration:
    """Sigmoid parameters mapping decision values to P(y=+1|x) = 1/(1+exp(A*f+B))."""

    A: float
    B: float

    def posterior(self, decision_vals) -> np.ndarray:
        """P(y=+1|x) at each decision value, clipped into the open interval (0, 1)."""
        z = self.A * np.asarray(decision_vals, dtype=float) + self.B
        ez = np.exp(-np.abs(z))
        p = np.where(z >= 0.0, ez / (1.0 + ez), 1.0 / (1.0 + ez))
        return np.clip(p, _P_EPS, 1.0 - _P_EPS)


def smo_solve(K, y, c_box, tol: float = 1e-3, max_iter: int | None = None, rows=None):
    """Minimize 0.5 a'Qa - sum(a), Q_ij = y_i y_j K_ij, over the weighted box.

    The examples are the rows and columns ``rows`` of ``K`` (None: all of
    them; repeats allowed), with ``y`` and ``c_box`` given per entry of
    ``rows``. Consecutive ascending rows are read through a view of ``K``;
    otherwise each kernel row is gathered from ``K`` the first time a step
    uses it, so no block is copied whole. Either way the solver sees the
    values of the block ``K[rows][:, rows]``, and its results are those of
    that block.

    Constraints are 0 <= a_i <= c_box_i and sum_i a_i y_i = 0, for labels
    y_i of +1 or -1. The working pair is the maximal violating one, ties
    broken by lowest index, so identical inputs give bit-identical results.

    The solver keeps its state between steps (Fan, Chen & Lin, JMLR 2005):
    m = -y*grad and two penalty vectors, ``up_pen`` 0 where y_t*a_t may grow
    and -inf elsewhere, ``low_pen`` 0 where it may shrink and +inf elsewhere.
    The pair is argmax(m + up_pen), argmin(m + low_pen); a step changes m by
    two kernel rows and the penalties at its pair only.

    An example with cap 0 is never selected, so it leaves the solution as if
    it were dropped (ties break alike, the others keeping their order), but its
    m is kept up to date: every example's decision value is y_k - m_k + bias.

    Returns (alpha, bias, iterations, fitted), ``fitted`` those decision values.
    Raises RuntimeError if the pair still violates the optimality conditions by
    more than ``tol`` after ``max_iter`` steps (default max(10000, 100 n), n
    counting the examples with a positive cap).
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    c_box = np.asarray(c_box, dtype=float)
    n = y.size
    if max_iter is None:
        max_iter = max(10_000, 100 * int(np.count_nonzero(c_box > 0.0)))
    if not np.all((y == 1.0) | (y == -1.0)):
        raise ValueError("labels must be +1 or -1")
    src = None
    if rows is not None:
        if np.shape(rows) != (n,):
            raise ValueError("rows and y must have matching lengths")
        src = _as_run(rows, K.shape[0])
        if isinstance(src, slice):
            K, src = K[src, src], None
    if src is None:
        fetch = K.__getitem__
    else:
        gathered = _empty(n, n)  # filled in first-use order; only the pages of used rows are touched
        by_row = {}

        def fetch(k):  # examples listing the same row of K share its gathered row
            r = src.item(k)
            got = by_row.get(r)
            if got is None:  # _as_run checked src; with mode="clip", take fills out without a temporary
                got = by_row[r] = K[r].take(src, out=gathered[len(by_row)], mode="clip")
            return got
    cache = [None] * n  # example -> its kernel row; looked up inline, fetched once per example

    add, multiply, inf = np.add, np.multiply, math.inf
    alpha = np.zeros(n)
    m = y.copy()  # -y*grad at alpha = 0, where grad = -1
    pos, under_cap, over_zero = y > 0, alpha < c_box, alpha > 0.0
    up_pen = np.where(np.where(pos, under_cap, over_zero), 0.0, -inf)
    low_pen = np.where(np.where(pos, over_zero, under_cap), 0.0, inf)
    buf_i = np.empty(n)
    buf_j = np.empty(n)
    labels = y.tolist()
    caps = c_box.tolist()
    iters = 0
    while True:
        i = int(add(m, up_pen, out=buf_i).argmax())
        j = int(add(m, low_pen, out=buf_j).argmin())
        m_up = buf_i.item(i)
        m_low = buf_j.item(j)
        if not (math.isfinite(m_up) and math.isfinite(m_low)) or m_up - m_low <= tol:
            break
        if iters >= max_iter:
            raise RuntimeError(f"SMO reached its iteration cap max_iter={max_iter} with a "
                               f"violation of {m_up - m_low:.3g} > tol={tol:g}")
        iters += 1

        row_i = cache[i]
        if row_i is None:
            row_i = cache[i] = fetch(i)
        row_j = cache[j]
        if row_j is None:
            row_j = cache[j] = fetch(j)

        yi, yj = labels[i], labels[j]
        ci, cj = caps[i], caps[j]
        old_ai, old_aj = alpha.item(i), alpha.item(j)
        quad = row_i.item(i) + row_j.item(j) - 2.0 * row_i.item(j)
        if quad <= 0.0:
            quad = _TAU
        if yi != yj:
            delta = yi * (m_up - m_low) / quad  # (-grad_i - grad_j) / quad
            diff = old_ai - old_aj
            ai = old_ai + delta
            aj = old_aj + delta
            if diff > 0.0:
                if aj < 0.0:
                    aj = 0.0
                    ai = diff
            else:
                if ai < 0.0:
                    ai = 0.0
                    aj = -diff
            if diff > ci - cj:
                if ai > ci:
                    ai = ci
                    aj = ci - diff
            else:
                if aj > cj:
                    aj = cj
                    ai = cj + diff
        else:
            delta = yi * (m_low - m_up) / quad  # (grad_i - grad_j) / quad
            ssum = old_ai + old_aj
            ai = old_ai - delta
            aj = old_aj + delta
            if ssum > ci:
                if ai > ci:
                    ai = ci
                    aj = ssum - ci
            else:
                if aj < 0.0:
                    aj = 0.0
                    ai = ssum
            if ssum > cj:
                if aj > cj:
                    aj = cj
                    ai = ssum - cj
            else:
                if ai < 0.0:
                    ai = 0.0
                    aj = ssum
        alpha[i] = ai
        alpha[j] = aj
        # grad_k grows by y_k (K_ik y_i (ai - old_ai) + K_jk y_j (aj - old_aj)), so m_k
        # falls by the bracket; it is rounded as the product with Q's rows would be
        multiply(row_i, yi * (ai - old_ai), out=buf_i)
        multiply(row_j, yj * (aj - old_aj), out=buf_j)
        buf_i += buf_j
        m -= buf_i
        for k in (i, j):  # i == j leaves alpha[i] = aj, and both see it
            a = alpha.item(k)
            under_cap, over_zero = a < caps[k], a > 0.0
            up_ok, low_ok = (under_cap, over_zero) if labels[k] > 0 else (over_zero, under_cap)
            up_pen[k] = 0.0 if up_ok else -inf
            low_pen[k] = 0.0 if low_ok else inf

    free = (alpha > 0.0) & (alpha < c_box)
    # the mean m of the free examples, else the midpoint of m_low..m_up or its one finite end
    ends = [v for v in (m_up, m_low) if math.isfinite(v)]
    bias = float(m[free].mean()) if free.any() else sum(ends) / len(ends) if ends else 0.0
    return alpha, bias, iters, y - m + bias


def train_weighted_svm(kernel: SplitKernel, y, weights, C: float = 1.0, rows=None) -> SvmModel:
    """Train a soft-margin SVM where example i gets box constraint C * weights[i].

    The examples are the rows ``rows`` of the split (None: all of them, in
    order; repeats allowed), with labels ``y`` and ``weights`` given per
    entry of ``rows``; SMO reads their kernel rows from ``kernel.K`` and
    copies no block. A zero-weight example is a zero cap: the fit solves as
    if it were dropped, and the model's ``fitted`` still scores it. Both
    classes must be among the positively weighted examples.
    """
    idx = np.arange(kernel.n) if rows is None else np.asarray(rows, dtype=np.intp)
    y = check_labels(y, "labels")
    weights = np.asarray(weights, dtype=float)
    n = idx.size
    if idx.shape != (n,) or y.shape != (n,) or weights.shape != (n,):
        raise ValueError("rows, y, and weights must have matching lengths")
    if not np.isfinite(weights).all() or (weights < 0).any():
        raise ValueError("weights must be finite and nonnegative")
    if not C > 0:
        raise ValueError("C must be positive")
    active = weights > 0
    if not active.any():
        raise ValueError("all weights are zero")
    ya = y[active]
    if (ya > 0).all() or (ya < 0).all():
        raise ValueError("degenerate training set")

    alpha, bias, _, fitted = smo_solve(kernel.K, y.astype(float), C * weights, rows=rows)
    sv = alpha > 0.0
    return SvmModel(
        support_vectors=kernel.X[idx[sv]],
        dual_coefs=(alpha * y)[sv],
        bias=bias,
        kernel=kernel.spec,
        fitted=fitted,
    )


def decision_values(model: SvmModel, X) -> np.ndarray:
    """Decision function of the model on feature rows X, which must be finite.
    A fit's decision values at its own examples are its ``fitted``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.support_vectors.shape[1]:
        raise ValueError(
            f"dimension mismatch: model expects {model.support_vectors.shape[1]}, got {X.shape[1]}"
        )
    check_finite(X)  # a NaN decision value would read as a -1 prediction
    if model.support_vectors.shape[0] == 0:
        return np.full(X.shape[0], model.bias)
    return gram_matrix(model.kernel, X, model.support_vectors) @ model.dual_coefs + model.bias


def fit_platt(decision_vals, y) -> PlattCalibration:
    """Fit sigmoid parameters (A, B) by Newton descent on the calibration likelihood.

    Targets are the smoothed values (N+ + 1)/(N+ + 2) and 1/(N- + 2). Iterates
    until the gradient norm drops below 1e-8, for at most 100 rounds.
    """
    f = np.asarray(decision_vals, dtype=float)
    y = check_labels(y, "labels")
    if f.shape != y.shape or f.ndim != 1:
        raise ValueError("decision values and labels must be 1-d with equal length")
    n_pos = int((y > 0).sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("calibration requires both classes")
    if np.all(f == f[0]):
        raise ValueError("constant decision values cannot be calibrated")

    t = np.where(y > 0, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

    def objective(a: float, b: float) -> float:
        z = a * f + b
        return float(np.sum(np.where(z >= 0, t * z, (t - 1.0) * z) + np.log1p(np.exp(-np.abs(z)))))

    a_par = 0.0
    b_par = math.log((n_neg + 1.0) / (n_pos + 1.0))
    fval = objective(a_par, b_par)
    for _ in range(_PLATT_MAX_ITER):
        z = a_par * f + b_par
        ez = np.exp(-np.abs(z))
        p = np.where(z >= 0.0, ez / (1.0 + ez), 1.0 / (1.0 + ez))
        d1 = t - p
        g1 = float(np.dot(f, d1))
        g2 = float(d1.sum())
        if math.hypot(g1, g2) < _PLATT_GRAD_TOL:
            break
        d2 = p * (1.0 - p)
        h11 = float(np.dot(f * f, d2)) + _PLATT_SIGMA
        h22 = float(d2.sum()) + _PLATT_SIGMA
        h21 = float(np.dot(f, d2))
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(h11 * g2 - h21 * g1) / det
        gd = g1 * da + g2 * db
        step = 1.0
        while step >= 1e-10:
            cand_a = a_par + step * da
            cand_b = b_par + step * db
            cand_f = objective(cand_a, cand_b)
            if cand_f < fval + 1e-4 * step * gd:
                a_par, b_par, fval = cand_a, cand_b, cand_f
                break
            step *= 0.5
        else:
            break  # no further progress possible at float precision
    return PlattCalibration(A=a_par, B=b_par)


def predict_proba_batch(model: SvmModel, calib: PlattCalibration, X) -> np.ndarray:
    """Calibrated P(y=+1|x) for each feature row of X, clipped into the open interval (0, 1)."""
    return calib.posterior(decision_values(model, X))


def _ascending_rows(rows, n: int) -> np.ndarray:
    """Rows ``rows`` of an n-row split (None: all) as an index array, strictly ascending:
    a whole-split fit has one example per row, so a repeat cannot be a second example."""
    idx = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    if idx.ndim != 1 or (np.diff(idx) <= 0).any():
        raise ValueError("rows must be strictly ascending")
    _as_run(idx, n)  # raises IndexError for a row out of range
    return idx


def _stratified_folds(y: np.ndarray, k: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Fold of each example: each class dealt round robin into k folds, in sample order
    or, given ``rng``, in a random permutation."""
    fold = np.empty(y.size, dtype=int)
    for cls in (1, -1):
        idx = np.flatnonzero(y == cls)
        fold[idx if rng is None else rng.permutation(idx)] = np.arange(idx.size) % k
    return fold


def train_prob_svm(kernel: SplitKernel, y, rows=None) -> tuple[SvmModel, PlattCalibration]:
    """Train an SVM on rows ``rows`` of the split (None: all; strictly ascending) and
    calibrate its posteriors.

    Calibration targets come from 3-fold cross-validated decision values when
    the sample is large enough (at least 30 examples and 3 per class); smaller
    samples use raw training decision values, which avoids fitting a sigmoid
    on three points. Every fit runs over the whole split with weight 0 outside
    its rows, so the model's ``fitted`` scores every row of the split and each
    fold's fit scores its held-out rows, with no kernel product.
    """
    idx = _ascending_rows(rows, kernel.n)
    y = check_labels(y, "labels")
    if y.shape != idx.shape:
        raise ValueError("rows and y must have matching lengths")
    labels, weights = np.ones(kernel.n, dtype=int), np.zeros(kernel.n)
    labels[idx] = y  # a zero-weight row's label moves its decision value by last bits only
    weights[idx] = 1.0
    model = train_weighted_svm(kernel, labels, weights)

    n = y.size
    min_class = min(int((y > 0).sum()), int((y < 0).sum()))
    if n >= _CV_MIN_SIZE and min_class >= _CV_FOLDS:
        # each training fold keeps at least 2 examples of each class, so no fit degenerates
        dv = np.empty(n)
        fold = _stratified_folds(y, _CV_FOLDS)
        for k in range(_CV_FOLDS):
            hold = fold == k
            fold_weights = weights.copy()
            fold_weights[idx[hold]] = 0.0
            dv[hold] = train_weighted_svm(kernel, labels, fold_weights).fitted[idx[hold]]
    else:
        dv = model.fitted[idx]
    return model, fit_platt(dv, y)

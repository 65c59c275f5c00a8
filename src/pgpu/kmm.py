"""Kernel mean matching: importance weights that align a biased subsample with the full sample.

Solves min_beta || (1/n) sum_i phi(x_i) - (1/n') sum_j beta_j phi(x'_j) ||^2
subject to 0 <= beta_j <= B and |mean(beta) - 1| <= epsilon, by projected
gradient steps of size 1/L, L a Gershgorin bound on the objective's curvature.
On a sample of at least ``_FACTOR_ROWS`` rows the kernel is replaced by its
pivoted Cholesky factor, K ~ L L^T (``SplitKernel.factor``), when its rank allows
one. Each step is one product with the source block, or two thin ones with its
factor, on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _FACTOR_TOL, SplitKernel, _as_run

# The method's fixed settings; the mean slack is epsilon = (sqrt(n')-1)/sqrt(n') for n'
# source rows (Huang et al., NeurIPS 2006)
_B = 1000.0  # box cap on each weight
_MAX_ITERS = 5000  # descent steps
_TOL = 1e-6  # relative decrease of the objective below which the descent stops

# The low-rank path: a sample of at least _FACTOR_ROWS rows (a matching Gram of 32 MiB)
# is read through its factor, or through the Gram when the factor passes its rank budget
_FACTOR_ROWS = 2048


@dataclass
class BetaWeights:
    """Importance weights on the source sample, with solver diagnostics."""

    beta: np.ndarray
    trace: np.ndarray  # objective value after each solver iteration; the last is the final one


def _clip_to_sum(v: np.ndarray, cap: float, target: float) -> np.ndarray:
    """Project v onto {0 <= x <= cap, sum(x) = target}: x = clip(v + t, 0, cap) for one shift t.

    The sum is piecewise linear in t, with breakpoints where an entry leaves 0
    (t = -v_i) or reaches cap (t = cap - v_i). A binary search over the sorted
    breakpoints finds the segment holding the target, on which t is the
    solution of one linear equation.
    """
    rise, full = -v, cap - v  # the shifts at which each entry leaves 0 and reaches cap
    points = np.sort(np.concatenate([rise, full]))
    lo, hi = 0, points.size - 1  # the sum is 0 at points[0] and n * cap at points[-1]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if np.clip(v + points[mid], 0.0, cap).sum() <= target:
            lo = mid
        else:
            hi = mid
    capped = full <= points[lo]  # at cap all along the segment
    interior = (rise <= points[lo]) & ~capped
    n_int = int(interior.sum())  # 0 only on a flat segment, whose sum is the target up to rounding
    shift = (target - cap * int(capped.sum()) - v[interior].sum()) / n_int if n_int else points[lo]
    x = np.clip(v + shift, 0.0, cap)
    interior = (x > 0.0) & (x < cap)
    n_int = int(interior.sum())
    if n_int:  # polish the rounding residue of the sum on the unclipped entries
        x[interior] += (target - x.sum()) / n_int
        np.clip(x, 0.0, cap, out=x)
    return x


def _project(v: np.ndarray, cap: float, lo_sum: float, hi_sum: float,
             out: np.ndarray) -> np.ndarray:
    """v projected onto the feasible set: into ``out`` unless a sum constraint binds."""
    x = v.clip(0.0, cap, out=out)
    s = np.add.reduce(x)
    if s > hi_sum:
        return _clip_to_sum(v, cap, hi_sum)
    if s < lo_sum:
        return _clip_to_sum(v, cap, lo_sum)
    return x


def _projected_descent(k_ss, kappa, n_target, cap, eps, max_iters, tol, row_max):
    """KMM's projected descent on the source block ``k_ss``, or on a pair (F, G) of its
    factors, k_ss = F @ G, whose products go through the thin inner dimension."""
    ns = kappa.size
    inv2 = 1.0 / (ns * ns)
    lin = kappa / (n_target * ns)
    lo_sum = ns * (1.0 - eps)
    hi_sum = ns * (1.0 + eps)

    beta = np.ones(ns)  # feasible for cap >= 1 and 0 <= eps < 1
    k_beta, k_d = np.empty(ns), np.empty(ns)
    if isinstance(k_ss, tuple):
        left, right = k_ss
        inner = np.empty(right.shape[0])

        def product(v, out):
            np.matmul(left, np.matmul(right, v, out=inner), out=out)
    else:
        def product(v, out):
            np.matmul(k_ss, v, out=out)
    product(beta, k_beta)

    # The Gershgorin bound L, from ``row_max``, the largest row sum of |k_ss|, is at least
    # the largest Hessian eigenvalue, so the projected step of size 1/L lowers the
    # objective by at least (L/2)|d|^2 whatever the curvature.
    step = 1.0 / max(2.0 * inv2 * row_max, 1e-300)

    obj = float(beta @ k_beta * inv2 - 2.0 * (lin @ beta))
    if not math.isfinite(obj):
        raise RuntimeError("KMM objective is non-finite at the starting point beta = 1")
    trace = [obj]
    grad_scale, lin2 = 2.0 * inv2, 2.0 * lin
    # A step makes one product (or two thin ones, above) and a fixed set of length-ns
    # calls into these buffers; at ns of about 100 the calls, not the product, dominate.
    grad, moved, proj = np.empty(ns), np.empty(ns), np.empty(ns)
    for _ in range(max_iters):
        np.multiply(k_beta, grad_scale, out=grad)
        np.subtract(grad, lin2, out=grad)
        np.multiply(grad, step, out=moved)
        np.subtract(beta, moved, out=moved)
        d = _project(moved, cap, lo_sum, hi_sum, proj)  # the projected point, then the step to it
        d -= beta
        # max |d| is max(max d, -min d) exactly, NaN included; k_d is free until the product
        if np.maximum.reduce(np.abs(d, out=k_d)) <= 1e-14 * max(1.0, np.maximum.reduce(beta)):
            break  # beta is never negative
        product(d, k_d)
        beta += d
        k_beta += k_d
        new_obj = float(beta.dot(k_beta)) * inv2 - 2.0 * float(lin.dot(beta))
        if not math.isfinite(new_obj):
            raise RuntimeError("KMM objective became non-finite")
        trace.append(new_obj)
        if obj - new_obj <= tol * max(1.0, abs(obj)):
            break
        obj = new_obj
    else:
        raise RuntimeError(f"KMM reached its iteration cap max_iters={max_iters} with a "
                           f"relative decrease above tol={tol:g}")
    return beta, np.asarray(trace)


def solve_kmm(kernel: SplitKernel, target, source) -> BetaWeights:
    """Importance weights beta for the source rows relative to the target rows.

    ``target`` and ``source`` index the rows of ``kernel`` (target None: all
    rows; repeats allowed). Every kernel value is a block of ``kernel.K``: the
    source block, the row sums kappa over the target, and their total (with
    target None, the kernel's cached ``row_sums``). A source of consecutive
    ascending rows, such as the leading run ``arange(ns)`` every pipeline fit
    passes, reads its block as a view of ``K``; any other index set reads a copy.
    The returned trace (objective per iteration, offset so it equals the true
    squared mean discrepancy) is monotonically non-increasing. Each step costs
    one product with the source block and a fixed set of vector passes into
    buffers allocated once per solve; a step whose sum constraint binds also
    runs the closed-form projection ``_clip_to_sum``. The box cap, step cap and
    tolerance are the module's ``_B``, ``_MAX_ITERS`` and ``_TOL``, and the
    slack is epsilon = (sqrt(ns) - 1)/sqrt(ns) for ns source rows. Raises
    RuntimeError if the descent still makes progress above ``_TOL`` after
    ``_MAX_ITERS`` steps, or if its objective is or becomes non-finite.

    With target None and a kernel of at least ``_FACTOR_ROWS`` rows, the descent
    reads the kernel's ``factor``, K ~ L L^T, computed from its features once for
    every solve on the kernel, and ``K`` is never computed: the descent runs on
    L, each product as L_s (L_s^T v), with kappa = L_s (L^T 1) and the offset
    |L^T 1|^2 / n^2, so the trace is the discrepancy under L L^T. Its residual
    E = K - L L^T is PSD with a diagonal of at most ``kernels._FACTOR_TOL``, so
    the true discrepancy at the returned beta exceeds the last trace value by
    w^T E w <= trace(E) |w|^2, w the target's weights 1/n less the source's
    beta/ns. A kernel whose factor would pass its rank budget (``factor`` None)
    takes the path above instead, with the same bits.
    """
    source = np.asarray(source, dtype=np.intp)
    n = kernel.n if target is None else np.asarray(target).size
    ns = source.size
    if n < 1 or ns < 1:
        raise ValueError("target and source must be nonempty")
    root = math.sqrt(ns)
    eps = (root - 1.0) / root

    run = _as_run(source, kernel.n)  # raises IndexError for an index out of range, not wrapping it
    factor = kernel.factor if target is None and kernel.n >= _FACTOR_ROWS else None
    if factor is not None:
        ls_t = factor[:, run] if isinstance(run, slice) else factor[:, source]  # L_s^T
        total = factor.sum(axis=1)  # L^T 1, so that K 1 ~ L (L^T 1)
        kappa = total @ ls_t
        const = float(total @ total) / (n * n)
        k_ss = (ls_t.T, ls_t)
        # |E_ij| <= _FACTOR_TOL bounds the negative entries of L L^T, and so its row sums
        # of absolute values
        row_max = float((ls_t.sum(axis=1) @ ls_t).max()) + 2.0 * _FACTOR_TOL * ns
    else:
        k_ss = kernel.K[run, run] if isinstance(run, slice) else kernel.K[np.ix_(source, source)]
        if target is None:
            row_sums = kernel.row_sums
            kappa = row_sums[source]
        else:
            target = np.asarray(target, dtype=np.intp)
            _as_run(target, kernel.n)
            kappa = kernel.K[np.ix_(source, target)].sum(axis=1)
            row_sums = kernel.K[np.ix_(target, target)].sum(axis=1)
        const = row_sums.sum() / (n * n)
        row_max = float(k_ss.sum(axis=1).max())  # rbf entries are never negative: those of |k_ss|
    beta, trace = _projected_descent(k_ss, kappa, n, _B, eps, _MAX_ITERS, _TOL, row_max)
    trace = trace + const
    return BetaWeights(beta=beta, trace=trace)

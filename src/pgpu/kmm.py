"""Kernel mean matching: importance weights that align a biased subsample with the full sample.

Solves min_beta || (1/n) sum_i phi(x_i) - (1/n') sum_j beta_j phi(x'_j) ||^2
subject to 0 <= beta_j <= B and |mean(beta) - 1| <= epsilon, by projected
gradient steps of size 1/L, L a Gershgorin bound on the objective's curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import SplitKernel, _in_two, _shares_work

_ROWS = 256  # rows per step of the Gershgorin bound, bounding its temporary


@dataclass(frozen=True)
class KmmConfig:
    """Box cap B, mean-constraint slack epsilon (None: (sqrt(n')-1)/sqrt(n')), and solver limits."""

    upper_bound_B: float = 1000.0
    epsilon: float | None = None
    max_iters: int = 5000
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if not self.upper_bound_B >= 1.0:
            raise ValueError("upper_bound_B must be at least 1")
        if self.epsilon is not None and not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass
class BetaWeights:
    """Importance weights on the source sample, with solver diagnostics."""

    beta: np.ndarray
    trace: np.ndarray  # objective value after each solver iteration; the last is the final one


def default_epsilon(n_source: int) -> float:
    root = math.sqrt(n_source)
    return (root - 1.0) / root


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """np.unique(a) for floats without NaN, to the bit: the same sort keeps the same one
    of ±0.0. Unlike np.unique, its first call imports no numpy.ma."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _clip_to_sum(v: np.ndarray, cap: float, target: float) -> np.ndarray:
    """Project v onto {0 <= x <= cap, sum(x) = target}: x = clip(v + t, 0, cap) for one shift t.

    The sum is piecewise linear in t, with breakpoints where an entry leaves 0
    (t = -v_i) or reaches cap (t = cap - v_i). A binary search over the sorted
    breakpoints finds the segment holding the target, on which t is the
    solution of one linear equation.
    """
    rise, full = -v, cap - v  # the shifts at which each entry leaves 0 and reaches cap
    points = _sorted_distinct(np.concatenate([rise, full]))
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


def _projected_descent(k_ss, kappa, n_target, cap, eps, max_iters, tol):
    ns = k_ss.shape[0]
    inv2 = 1.0 / (ns * ns)
    lin = kappa / (n_target * ns)
    lo_sum = ns * (1.0 - eps)
    hi_sum = ns * (1.0 + eps)

    beta = np.ones(ns)  # feasible, as KmmConfig keeps B >= 1 and 0 <= eps < 1
    k_beta, k_d = np.empty(ns), np.empty(ns)
    # A large source block's products run as two row ranges, the second on a helper
    # thread, into the two halves of one output. OpenBLAS sums a row by its place in a
    # group of 4 rows, so a split at a multiple of 4 rows, with at least 4 on each
    # side, keeps every bit; h is 0 (no split) below 8 rows.
    h = 4 * (ns // 8) if _shares_work(8 * ns * ns) else 0
    if h:
        top, bottom, d_top, d_bottom = k_ss[:h], k_ss[h:], k_d[:h], k_d[h:]
        _in_two([(top, beta, k_beta[:h]), (bottom, beta, k_beta[h:])], np.matmul)
    else:
        np.matmul(k_ss, beta, out=k_beta)

    # The Gershgorin bound L is at least the largest Hessian eigenvalue, so the projected
    # step of size 1/L lowers the objective by at least (L/2)|d|^2 whatever the curvature.
    row_max = max(float(np.abs(k_ss[i:i + _ROWS]).sum(axis=1).max()) for i in range(0, ns, _ROWS))
    step = 1.0 / max(2.0 * inv2 * row_max, 1e-300)

    obj = float(beta @ k_beta * inv2 - 2.0 * (lin @ beta))
    if not math.isfinite(obj):
        raise RuntimeError("KMM objective is non-finite at the starting point beta = 1")
    trace = [obj]
    grad_scale, lin2 = 2.0 * inv2, 2.0 * lin
    # A step makes one matrix-vector product (two halves of one, above) and a fixed set
    # of length-ns calls into these buffers; at ns of about 100 the calls, not the
    # product, dominate.
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
        if h:
            _in_two([(top, d, d_top), (bottom, d, d_bottom)], np.matmul)
        else:
            np.matmul(k_ss, d, out=k_d)
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


def solve_kmm(kernel: SplitKernel, target, source, config: KmmConfig = KmmConfig()) -> BetaWeights:
    """Importance weights beta for the source rows relative to the target rows.

    ``target`` and ``source`` index the rows of ``kernel`` (target None: all
    rows; repeats allowed). Every kernel value is a block of ``kernel.K``: the
    source block, the row sums kappa over the target, and their total (with
    target None, the kernel's cached ``row_sums``). A leading run ``arange(ns)``
    as the source, as every pipeline fit passes, makes its block a view, not a copy.
    The returned trace (objective per iteration, offset so it equals the true
    squared mean discrepancy) is monotonically non-increasing. Each step costs
    one product with the source block and a fixed set of vector passes into
    buffers allocated once per solve; a step whose sum constraint binds also
    runs the closed-form projection ``_clip_to_sum``. A source block of at least
    ``kernels._SPLIT_BYTES`` computes each product as two row ranges, one on a
    helper thread, when the process may use two CPUs; with a single-threaded
    BLAS its bits are those of the whole product. Raises
    RuntimeError if the descent still makes progress above ``config.tol``
    after ``config.max_iters`` steps, or if its objective is or becomes non-finite.
    """
    source = np.asarray(source, dtype=np.intp)
    n = kernel.n if target is None else np.asarray(target).size
    ns = source.size
    if n < 1 or ns < 1:
        raise ValueError("target and source must be nonempty")
    eps = config.epsilon if config.epsilon is not None else default_epsilon(ns)

    k_ss = kernel.block(source, source)
    if target is None:
        row_sums = kernel.row_sums
        kappa = row_sums[source]
    else:
        kappa = kernel.block(source, target).sum(axis=1)
        row_sums = kernel.block(target, target).sum(axis=1)
    const = row_sums.sum() / (n * n)
    beta, trace = _projected_descent(k_ss, kappa, n, config.upper_bound_B, eps,
                                     config.max_iters, config.tol)
    trace = trace + const
    return BetaWeights(beta=beta, trace=trace)

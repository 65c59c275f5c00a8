"""The rbf kernel: dense Gram matrices, low-rank factors, and the one kernel each split shares."""

from __future__ import annotations

import math
import mmap
import os
import weakref
from contextlib import suppress
from functools import cached_property

import numpy as np

# Rows and columns per block of a Gram matrix. Block shapes are part of the
# determinism guarantee: OpenBLAS rounds a product's last columns by the shape
# of its operands, so another block size moves last bits (128 does at 1500 rows).
_BLOCK = 256
_MAPPED_BYTES = 1 << 20  # matrices at least this large get a memory mapping of their own
_HUGE_PAGE = 2 << 20  # a mapping is a whole number of these, so huge pages can back all of it
_SPLIT_BYTES = 16 << 20  # Gram matrices at least this large are shared with one helper thread
_released = []  # the mapping most recently released by its matrix, kept for the next one

# A factor K ~ L L^T (``_factor``) takes pivots until no residual diagonal entry exceeds
# _FACTOR_TOL, up to _FACTOR_BLOCK at a time, and gives up beyond isqrt(_FACTOR_BUDGET * n)
# pivots: rank r costs about n r^2 flops of Schur updates and the Gram about n^2
# exponentials, so a budget growing as sqrt(n) keeps the work wasted on a kernel that is not
# low-rank near the Gram's own.
_FACTOR_TOL = 1e-4
_FACTOR_BLOCK = 64
_FACTOR_BUDGET = 32


def check_finite(X: np.ndarray) -> None:
    """Raise ValueError naming the first non-finite feature of X."""
    if not np.isfinite(X).all():
        i, j = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"features must be finite: data row {i}, x{j + 1} is {X[i, j]}")


def check_labels(labels, name: str) -> np.ndarray:
    """``labels`` as an int array. Raises ValueError("<name> must be +1 or -1") unless
    every given value is +1 or -1: 1.7 or 0 fails instead of casting to a label."""
    labels = np.asarray(labels)
    if not ((labels == 1) | (labels == -1)).all():
        raise ValueError(f"{name} must be +1 or -1")
    return labels.astype(int, copy=False)


def _check_gamma(gamma) -> None:
    if not 0 < gamma < math.inf:  # an infinite gamma makes the diagonal 0 * -inf = NaN
        raise ValueError(f"rbf kernel requires a finite gamma > 0, got {gamma!r}")


def _empty(rows: int, cols: int) -> np.ndarray:
    """An uninitialised float matrix; a large one in a memory mapping of its own.

    On the heap, a small array put in the space a freed matrix left (from 1.8 MB
    up) made the next matrix miss it and the heap grow by a whole matrix, so peak
    memory hung on unrelated earlier allocations. Whole huge pages, which the kernel
    aligns, make a mapping's memory cheap. A mapping released (its matrix's last view
    gone) is kept, its pages faulted in but free for the system to reclaim, until the
    next request: one of its size is built in it, one of another size unmaps it first.
    gram_matrix, the one caller, writes every entry before any is read.
    """
    if 8 * rows * cols < _MAPPED_BYTES or not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.empty((rows, cols))
    size = -(-8 * rows * cols // _HUGE_PAGE) * _HUGE_PAGE
    buf = None
    with suppress(IndexError):
        buf = _released.pop()  # atomic: two requests never get one mapping
    if buf is None or len(buf) != size:
        buf = None  # unmapped before the new mapping is made
        buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        with suppress(OSError):  # a kernel without huge pages: 4 KiB pages, just slower
            buf.madvise(mmap.MADV_HUGEPAGE)
    flat = np.frombuffer(buf, count=rows * cols)  # the base of every view of the matrix
    weakref.finalize(flat, _keep, buf).atexit = False
    return flat.reshape(rows, cols)


def _keep(buf: mmap.mmap) -> None:  # a released mapping, kept in place of any kept before
    with suppress(OSError):  # the system may take its pages back, which zeroes them
        buf.madvise(mmap.MADV_FREE)
    _released[:] = [buf]


def _in_two(parts, work) -> None:
    """Run ``work(*parts[0])`` here and ``work(*parts[1])`` on one helper thread.

    The helper is a one-worker executor's thread, started in this call and
    joined before this returns or raises. An exception in the helper, any
    ``BaseException`` included, is raised here; when both parts raise, this
    thread's exception wins. ``work`` may call numpy only: numpy releases the
    interpreter lock in its BLAS and element loops, so the two halves run at once.
    The executor is imported here: ``concurrent.futures`` loads ``logging``, ``queue``
    and ``traceback``, which a process that never splits a matrix does without.
    """
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:  # leaving the block joins the helper
        helper = pool.submit(work, *parts[1])
        work(*parts[0])
    helper.result()


def gram_matrix(gamma: float, X, Z) -> np.ndarray:
    """Pairwise rbf kernel matrix with entry (i, j) = exp(-gamma ||X[i] - Z[j]||^2).

    Each block is computed in one contiguous scratch tile, allocated once per
    call, and then stored, so no temporary is larger than one block. Passing
    the same array object for X and Z computes the upper blocks only and
    mirrors each in one copy, so the result is exactly symmetric. A matrix of
    at least ``_SPLIT_BYTES`` deals its blocks alternately to this thread and one
    helper thread, each with its own tiles, when the process may use two CPUs;
    every block goes through the same operations, so the bytes do not change.
    """
    _check_gamma(gamma)
    same = X is Z
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = X if same else np.atleast_2d(np.asarray(Z, dtype=float))
    if X.size == 0 or Z.size == 0:
        raise ValueError("gram_matrix requires nonempty inputs")
    if X.shape[1] != Z.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Z.shape[1]}")
    # the output comes before the row norms, so a small one on the heap takes the
    # exact space a freed matrix of its size left (see _empty)
    n, m = X.shape[0], Z.shape[0]
    out = _empty(n, m)
    with np.errstate(over="ignore"):  # an overflow is reported below, naming its row
        sx = np.sum(X * X, axis=1)
        sz = sx if same else np.sum(Z * Z, axis=1)
        largest = sx.max() + sz.max()
    if not math.isfinite(largest):  # every squared distance, and so the kernel, needs it finite
        name, norms = ("Z", sz) if sz.max() > sx.max() else ("X", sx)
        i = int(np.argmax(norms))
        raise ValueError(f"features too large for the rbf kernel: row {i} of {name} has "
                         f"squared norm {norms[i]:g}")
    # no entry's bound 1e-13 * (sx[i] + sz[j]) exceeds this, as rounding is monotone
    bound = 1e-13 * largest
    pairs = [(i, j) for i in range(0, n, _BLOCK) for j in range(i if same else 0, m, _BLOCK)]
    split = len(pairs) > 1 and 8 * n * m >= _SPLIT_BYTES and 1 < (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    size = min(_BLOCK, n) * min(_BLOCK, m)
    # a tile set per thread, made here: the helper thread allocates no array
    tiles = [(np.empty(size), np.empty(size), np.empty(size, dtype=bool)) for _ in range(1 + split)]
    lower = np.tri(min(_BLOCK, n), k=-1, dtype=bool) if same else None

    def blocks(todo, tile, norms, below):
        for i, j in todo:
            rows, cols = min(_BLOCK, n - i), min(_BLOCK, m - j)
            blk, nrm, mask = (b[:rows * cols].reshape(rows, cols) for b in (tile, norms, below))
            np.matmul(X[i:i + _BLOCK], Z[j:j + _BLOCK].T, out=blk)
            np.add(sx[i:i + _BLOCK, None], sz[None, j:j + _BLOCK], out=nrm)
            blk *= -2.0
            blk += nrm  # squared distances ||x||^2 + ||z||^2 - 2 x.z
            # values below the cancellation-error bound of the expansion are noise; a block
            # off the diagonal whose smallest value is above ``bound`` has none
            if (same and i == j) or not blk.min() > bound:
                nrm *= 1e-13
                np.less_equal(blk, nrm, out=mask)
                np.copyto(blk, 0.0, where=mask)
            blk *= -gamma
            np.exp(blk, out=blk)
            out[i:i + rows, j:j + cols] = blk
            if same and j > i:
                np.copyto(out[j:j + cols, i:i + rows], blk.T)
            elif same:
                np.copyto(out[i:i + rows, i:i + rows], blk.T, where=lower[:rows, :rows])

    if split:  # the two threads write disjoint parts of out
        _in_two([(pairs[0::2], *tiles[0]), (pairs[1::2], *tiles[1])], blocks)
    else:
        blocks(pairs, *tiles[0])
    return out


def _pivots(block: np.ndarray) -> np.ndarray:
    """The pivots, in order, of a pivoted Cholesky of the symmetric PSD ``block``: each the
    largest residual diagonal entry left, until none exceeds ``_FACTOR_TOL``."""
    b = block.shape[0]
    res = block.diagonal().copy()
    cols = np.zeros((b, b))
    order = []
    for j in range(b):
        p = int(res.argmax())
        if not res[p] > _FACTOR_TOL:
            break
        col = block[:, p] - cols[:, :j] @ cols[p, :j]
        col /= math.sqrt(res[p])
        cols[:, j] = col
        res -= col * col
        order.append(p)
    return np.asarray(order, dtype=np.intp)


def _factor(gamma: float, X: np.ndarray) -> np.ndarray | None:
    """A factor L (n x r) of the rbf Gram matrix K of the rows X, K ~ L L^T, computed from
    the features without K, and returned as the rows of L^T; None once its rank would
    exceed its budget of isqrt(_FACTOR_BUDGET * n) pivots.

    A blocked pivoted Cholesky (Harbrecht, Peters & Schneider, Appl. Numer. Math. 2012):
    the up to ``_FACTOR_BLOCK`` rows of largest residual diagonal are screened by a pivoted
    Cholesky of their own residual block, and only the pivots it accepts get full kernel
    columns. It stops once no residual diagonal entry exceeds ``_FACTOR_TOL``, so the
    residual E = K - L L^T, which is PSD, has |E_ij| <= _FACTOR_TOL everywhere.
    """
    n = X.shape[0]
    budget = math.isqrt(_FACTOR_BUDGET * n)
    lt = np.empty((budget, n))  # L^T: each pivot's column is one contiguous row
    res = np.ones(n)  # the residual diagonal; rbf kernels are 1 on the diagonal
    r = 0
    while True:
        top = np.argpartition(res, n - _FACTOR_BLOCK)[n - _FACTOR_BLOCK:]
        cand = top[np.lexsort((top, -res[top]))]  # largest first, ties by row
        cand = cand[res[cand] > _FACTOR_TOL]
        if cand.size == 0:
            return lt[:r]
        Xc, lc = X[cand], lt[:r, cand]
        block = gram_matrix(gamma, Xc, Xc)
        block -= lc.T @ lc
        rows = cand[_pivots(block)]
        if r + rows.size > budget:
            return None
        if rows.size == 0:  # the candidates' residuals are at the tolerance up to rounding
            return lt[:r]
        cols = gram_matrix(gamma, X[rows], X)
        cols -= lt[:r, rows].T @ lt[:r]  # the pivots' residual kernel rows, S
        # the pivots' residual block is R R^T, and their rows of L^T are R^-1 S
        new = lt[r:r + rows.size]
        np.matmul(np.linalg.inv(np.linalg.cholesky(cols[:, rows])), cols, out=new)
        r += rows.size
        res -= np.einsum("ij,ij->j", new, new)


def _as_run(idx, n: int):
    """``idx`` checked against n rows: a slice if consecutive and ascending, else an index array."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"index out of range for a kernel matrix of {n} rows")
    if idx.size and idx[-1] - idx[0] == idx.size - 1 and np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class SplitKernel:
    """The rows of one sample (a training split) and their rbf kernel matrix at
    bandwidth ``gamma``, computed once, on first use.

    Every fit, fold and decision value on the sample reads ``K`` (SMO the
    kernel rows it uses, KMM its source block) instead of recomputing
    kernels from features. ``K`` is exactly symmetric, so every
    block on the diagonal is too. KMM on a large matching kernel reads its
    ``factor`` instead, computed from ``X`` and kept in the same way, and
    ``K`` is never computed.
    """

    def __init__(self, gamma: float, X) -> None:
        _check_gamma(gamma)
        self.gamma = gamma
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        check_finite(self.X)

    @cached_property
    def K(self) -> np.ndarray:
        """The kernel matrix, computed on first use and kept for every later caller."""
        return gram_matrix(self.gamma, self.X, self.X)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @cached_property
    def row_sums(self) -> np.ndarray:
        """``K.sum(axis=1)``, summed on first use and kept for every later caller."""
        return self.K.sum(axis=1)

    @cached_property
    def factor(self) -> np.ndarray | None:
        """``_factor(gamma, X)``, the rows of L^T in K ~ L L^T, factored on first use and
        kept for every later caller; None when the kernel's rank passes the budget."""
        return _factor(self.gamma, self.X)

"""Kernel functions, dense Gram matrices, and the one kernel matrix each training split shares."""

from __future__ import annotations

import math
import mmap
import os
import threading
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_VALID_KINDS = ("linear", "rbf")
# Rows and columns per block of a Gram matrix. Block shapes are part of the
# determinism guarantee: OpenBLAS rounds a product's last columns by the shape
# of its operands, so another block size moves last bits (128 does at 1500 rows).
_BLOCK = 256
_PANEL = 16  # columns of the lower half written at a time when mirroring a block
_MAPPED_BYTES = 4 << 20  # matrices at least this large get a memory mapping of their own
_SPLIT_BYTES = 16 << 20  # work on matrices at least this large is shared with one helper thread


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and rbf bandwidth; ``gamma`` is ignored for linear kernels."""

    kind: str = "rbf"
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if self.kind == "rbf" and not 0 < self.gamma < math.inf:
            raise ValueError(f"rbf kernel requires a finite gamma > 0, got {self.gamma!r}")


def default_kernel(dim: int) -> KernelSpec:
    """rbf kernel with gamma = 1/dim, the usual SVM-library default."""
    if dim < 1:
        raise ValueError("dim must be positive")
    return KernelSpec(kind="rbf", gamma=1.0 / dim)


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


def _empty(rows: int, cols: int) -> np.ndarray:
    """An uninitialised float matrix; a large one in a memory mapping of its own.

    On the heap, a small array put in the space a freed matrix left makes the
    next matrix miss it and the heap grow by a whole matrix, so peak memory
    hung on unrelated earlier allocations. A mapping goes back to the system
    on release; huge pages keep the cost of its fresh memory low.
    """
    if 8 * rows * cols < _MAPPED_BYTES or not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.empty((rows, cols))
    buf = mmap.mmap(-1, 8 * rows * cols, flags=mmap.MAP_PRIVATE)
    with suppress(OSError):  # a kernel without huge pages: 4 KiB pages, just slower
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf).reshape(rows, cols)


def _shares_work(nbytes: int) -> bool:
    """Whether work on a matrix of ``nbytes`` is split with a helper thread: a large
    matrix, in a process that may run on more than one CPU."""
    if nbytes < _SPLIT_BYTES:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) > 1


def _in_two(parts, work) -> None:
    """Run ``work(*parts[0])`` here and ``work(*parts[1])`` on one helper thread.

    The helper is joined before this returns or raises, and an exception in it
    is raised here. ``work`` may call numpy only: numpy releases the interpreter
    lock in its BLAS and element loops, so the two halves run at once.
    """
    errors = []

    def helper():
        try:
            work(*parts[1])
        except BaseException as exc:  # handed to the calling thread, which raises it
            errors.append(exc)

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        work(*parts[0])
    finally:
        thread.join()
    if errors:
        raise errors[0]


def gram_matrix(spec: KernelSpec, X, Z) -> np.ndarray:
    """Pairwise kernel matrix with entry (i, j) = k(X[i], Z[j]).

    Each block is computed in one contiguous scratch tile, allocated once per
    call, and then stored, so no temporary is larger than one block. Passing
    the same array object for X and Z computes the upper blocks only and
    mirrors them, so the result is exactly symmetric. A matrix of at least
    ``_SPLIT_BYTES`` deals its blocks alternately to this thread and one helper
    thread, each with its own tiles, when the process may use two CPUs; every
    block goes through the same operations, so the bytes do not change.
    """
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
    sx = np.sum(X * X, axis=1)
    sz = sx if same else np.sum(Z * Z, axis=1)
    pairs = [(i, j) for i in range(0, n, _BLOCK) for j in range(i if same else 0, m, _BLOCK)]
    split = len(pairs) > 1 and _shares_work(8 * n * m)
    size = min(_BLOCK, n) * min(_BLOCK, m)
    # a tile set per thread, made here: the helper thread allocates no array
    tiles = [(np.empty(size), np.empty(size), np.empty(size, dtype=bool)) for _ in range(1 + split)]
    lower = np.tri(min(_BLOCK, n), k=-1, dtype=bool) if same else None

    def blocks(todo, tile, norms, below):
        for i, j in todo:
            rows, cols = min(_BLOCK, n - i), min(_BLOCK, m - j)
            blk, nrm, mask = (b[:rows * cols].reshape(rows, cols) for b in (tile, norms, below))
            np.matmul(X[i:i + _BLOCK], Z[j:j + _BLOCK].T, out=blk)
            if spec.kind == "rbf":
                np.add(sx[i:i + _BLOCK, None], sz[None, j:j + _BLOCK], out=nrm)
                blk *= -2.0
                blk += nrm  # squared distances ||x||^2 + ||z||^2 - 2 x.z
                # values below the cancellation-error bound of the expansion are noise
                nrm *= 1e-13
                np.less_equal(blk, nrm, out=mask)
                np.copyto(blk, 0.0, where=mask)
                blk *= -spec.gamma
                np.exp(blk, out=blk)
            out[i:i + rows, j:j + cols] = blk
            if not same:
                continue
            if j > i:  # the transpose, _PANEL columns at a time: the tile rows read stay in cache
                for k in range(0, rows, _PANEL):
                    out[j:j + cols, i + k:i + k + _PANEL] = blk[k:k + _PANEL].T
            else:
                np.copyto(out[i:i + rows, i:i + rows], blk.T, where=lower[:rows, :rows])

    if split:  # the two threads write disjoint parts of out
        _in_two([(pairs[0::2], *tiles[0]), (pairs[1::2], *tiles[1])], blocks)
    else:
        blocks(pairs, *tiles[0])
    return out


def _as_run(idx, n: int):
    """A slice for None (everything) or for consecutive ascending indices, else an index array."""
    if idx is None:
        return slice(None)
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"index out of range for a kernel matrix of {n} rows")
    if idx.size and idx[-1] - idx[0] == idx.size - 1 and np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class SplitKernel:
    """The rows of one sample (a training split) and their kernel matrix, computed once.

    Every fit, fold and decision value on the sample reads ``K`` (SMO the
    kernel rows it uses, KMM a block by index sets) instead of recomputing
    kernels from features. ``K`` is exactly symmetric, so every
    block on the diagonal is too.
    """

    def __init__(self, spec: KernelSpec, X) -> None:
        self.spec = spec
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        check_finite(self.X)
        self.K = gram_matrix(spec, self.X, self.X)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @cached_property
    def row_sums(self) -> np.ndarray:
        """``K.sum(axis=1)``, summed on first use and kept for every later caller."""
        return self.K.sum(axis=1)

    def block(self, rows=None, cols=None) -> np.ndarray:
        """K[rows][:, cols] for index sets (None: all). Consecutive ascending
        indices give a view, anything else a copy; indices may repeat."""
        r, c = _as_run(rows, self.n), _as_run(cols, self.n)
        if isinstance(r, slice) and isinstance(c, slice):
            return self.K[r, c]
        # Copies are laid out as numpy lays out the same indexing, since matrix products
        # sum in an order set by the layout; a large one is a mapping (see _empty). _as_run
        # checked the indices, and with mode="clip" take fills out without a temporary.
        if isinstance(r, slice):  # column-major: rows c of K are its columns, K being symmetric
            return self.block(cols, rows).T
        if isinstance(c, slice):
            n_c = len(range(self.n)[c])
            return np.take(self.K[:, c], r, axis=0, out=_empty(r.size, n_c), mode="clip")
        out = _empty(r.size, c.size)
        for row, i in zip(out, r.tolist()):
            self.K[i].take(c, out=row, mode="clip")
        return out

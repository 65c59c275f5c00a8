"""Kernel functions, dense Gram matrices, and the one kernel matrix each training split shares."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_VALID_KINDS = ("linear", "rbf")
_BLOCK = 256  # rows and columns per block of a Gram matrix


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and rbf bandwidth; ``gamma`` is ignored for linear kernels."""

    kind: str = "rbf"
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if self.kind == "rbf" and not self.gamma > 0:
            raise ValueError("rbf kernel requires gamma > 0")


def default_kernel(dim: int) -> KernelSpec:
    """rbf kernel with gamma = 1/dim, the usual SVM-library default."""
    if dim < 1:
        raise ValueError("dim must be positive")
    return KernelSpec(kind="rbf", gamma=1.0 / dim)


def kernel_eval(spec: KernelSpec, x, z) -> float:
    """Evaluate the kernel on a single pair of feature vectors."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.ndim != 1 or x.shape != z.shape:
        raise ValueError(f"feature vectors must share one dimension, got {x.shape} and {z.shape}")
    if spec.kind == "linear":
        return float(np.dot(x, z))
    diff = x - z
    return float(np.exp(-spec.gamma * np.dot(diff, diff)))


def gram_matrix(spec: KernelSpec, X, Z) -> np.ndarray:
    """Pairwise kernel matrix with entry (i, j) = k(X[i], Z[j]).

    Built block by block in the output array, so no temporary is larger than
    one block. Passing the same array object for X and Z computes the upper
    blocks only and mirrors them, so the result is exactly symmetric.
    """
    same = X is Z
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = X if same else np.atleast_2d(np.asarray(Z, dtype=float))
    if X.size == 0 or Z.size == 0:
        raise ValueError("gram_matrix requires nonempty inputs")
    if X.shape[1] != Z.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Z.shape[1]}")
    # The output is allocated before the row norms. A matrix the size of one
    # freed earlier then takes exactly the space it left; a small array taken
    # from that space first would leave it a few kilobytes short, and the heap
    # would grow by a whole matrix.
    out = np.empty((X.shape[0], Z.shape[0]))
    sx = np.sum(X * X, axis=1)
    sz = sx if same else np.sum(Z * Z, axis=1)
    for i in range(0, X.shape[0], _BLOCK):
        for j in range(i if same else 0, Z.shape[0], _BLOCK):
            blk = out[i:i + _BLOCK, j:j + _BLOCK]
            np.matmul(X[i:i + _BLOCK], Z[j:j + _BLOCK].T, out=blk)
            if spec.kind == "rbf":
                norms = sx[i:i + _BLOCK, None] + sz[None, j:j + _BLOCK]
                blk *= -2.0
                blk += norms  # squared distances ||x||^2 + ||z||^2 - 2 x.z
                # values below the cancellation-error bound of the expansion are noise
                norms *= 1e-13
                blk[blk <= norms] = 0.0
                blk *= -spec.gamma
                np.exp(blk, out=blk)
            if not same:
                continue
            if j > i:
                out[j:j + _BLOCK, i:i + _BLOCK] = blk.T
            else:
                lower = np.tril_indices(blk.shape[0], -1)
                blk[lower] = blk.T[lower]
    return out


def _as_run(idx):
    """A slice for None (everything) or for consecutive ascending indices, else an index array."""
    if idx is None:
        return slice(None)
    idx = np.asarray(idx, dtype=np.intp)
    if (idx.size and idx[0] >= 0 and idx[-1] - idx[0] == idx.size - 1
            and np.all(np.diff(idx) == 1)):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class SplitKernel:
    """The rows of one sample (a training split) and their kernel matrix, computed once.

    Every fit, fold and decision value on the sample takes a block of ``K``
    by index sets instead of recomputing kernels from features. ``K`` is
    exactly symmetric, so every block on the diagonal is too.
    """

    def __init__(self, spec: KernelSpec, X) -> None:
        self.spec = spec
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.K = gram_matrix(spec, self.X, self.X)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def block(self, rows=None, cols=None) -> np.ndarray:
        """K[rows][:, cols] for index sets (None: all). Consecutive ascending
        indices give a view, anything else a copy; indices may repeat."""
        r, c = _as_run(rows), _as_run(cols)
        if isinstance(r, slice) or isinstance(c, slice):
            return self.K[r, c]
        return self.K[np.ix_(r, c)]

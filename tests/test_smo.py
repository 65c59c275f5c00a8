"""The SMO solver against its plain reference (bit-equal) and an independent QP solution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import smo_reference, svm_dual_scipy
from pgpu import (
    FlipRateSpec,
    SplitKernel,
    estimate_clean_gap,
    flip_labels,
    gen_triangles,
    rank_normalized_gap,
    split,
)
from pgpu.kernels import gram_matrix
from pgpu.svm import smo_solve


def _gram(kind, gamma, X):
    """An rbf Gram matrix, or the linear one ``X @ X.T`` as a raw matrix."""
    return gram_matrix(gamma, X, X) if kind == "rbf" else X @ X.T


def _assert_same_solve(K, y, c_box, tol, max_iter=None):
    ref_alpha, ref_bias, ref_iters = smo_reference(K, y, c_box, tol=tol, max_iter=max_iter)
    if ref_iters == max_iter:  # the reference gave up with a partial answer
        with pytest.raises(RuntimeError, match=f"max_iter={max_iter}"):
            smo_solve(K, y, c_box, tol=tol, max_iter=max_iter)
        return
    alpha, bias, iters, fitted = smo_solve(K, y, c_box, tol=tol, max_iter=max_iter)
    assert np.array_equal(alpha, ref_alpha)
    assert bias == ref_bias
    assert iters == ref_iters
    # the decision values read from the kept gradient, against the product they stand for
    exact = K @ (alpha * y) + bias
    scale = (1.0 + iters) * (1.0 + alpha.sum() * np.abs(K).max())
    assert np.abs(fitted - exact).max() <= 1e-12 * scale


@given(
    n=st.integers(2, 40),
    dim=st.integers(1, 3),
    duplicates=st.integers(0, 20),
    kind=st.sampled_from(["rbf", "linear"]),
    gamma=st.sampled_from([0.1, 1.0, 5.0]),
    C=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
    equal_boxes=st.booleans(),
    tol=st.sampled_from([1e-1, 1e-3, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_smo_matches_reference_bit_for_bit(n, dim, duplicates, kind, gamma, C, equal_boxes, tol,
                                           seed):
    # duplicated rows make K_ii + K_jj - 2 K_ij vanish, the solver's quad <= 0 branch;
    # small equal boxes leave no alpha strictly inside its box, the bias's other branch
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    copies = rng.integers(0, n, size=min(duplicates, n - 1))
    X[rng.choice(n, copies.size, replace=False)] = X[copies]
    y = rng.choice([-1.0, 1.0], size=n)
    c_box = np.full(n, C) if equal_boxes else C * rng.uniform(0.1, 3.0, size=n)
    K = _gram(kind, gamma, X)
    # a low cap: rank-deficient problems at tol=1e-6 can take tens of thousands of steps
    _assert_same_solve(K, y, c_box, tol, max_iter=2000)


@given(
    n=st.integers(2, 30),
    size=st.integers(2, 40),
    layout=st.sampled_from(["repeats", "run", "shuffled"]),
    kind=st.sampled_from(["rbf", "linear"]),
    gamma=st.sampled_from([0.1, 1.0, 5.0]),
    C=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
    equal_boxes=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_smo_on_rows_matches_the_copied_block(n, size, layout, kind, gamma, C, equal_boxes, seed):
    # rows index the full matrix, and are gathered row by row, a consecutive run too
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    K = _gram(kind, gamma, X)
    if layout == "repeats":
        idx = rng.integers(0, n, size=size)
    elif layout == "run":
        start = int(rng.integers(0, n - 1))
        idx = np.arange(start, min(n, start + size))
    else:
        idx = rng.permutation(n)[:size]
    y = rng.choice([-1.0, 1.0], size=idx.size)
    c_box = np.full(idx.size, C) if equal_boxes else C * rng.uniform(0.1, 3.0, size=idx.size)
    block = K[np.ix_(idx, idx)]
    try:
        ref_alpha, ref_bias, ref_iters, ref_fitted = smo_solve(block, y, c_box, max_iter=2000)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="max_iter=2000"):
            smo_solve(K, y, c_box, max_iter=2000, rows=idx)
        return
    alpha, bias, iters, fitted = smo_solve(K, y, c_box, max_iter=2000, rows=idx)
    assert np.array_equal(alpha, ref_alpha)
    assert bias == ref_bias
    assert iters == ref_iters
    assert np.array_equal(fitted, ref_fitted)


def test_smo_rejects_rows_outside_the_matrix():
    K = gram_matrix(1.0, np.arange(8.0)[:, None], np.arange(8.0)[:, None])
    y = np.array([1.0, -1.0, 1.0])
    for rows in ([0, 3, 8], [-1, 2, 5], [5, 6, 8]):  # scattered, negative, a run past the end
        with pytest.raises(IndexError, match="out of range"):
            smo_solve(K, y, np.ones(3), rows=rows)
    with pytest.raises(ValueError, match="matching lengths"):
        smo_solve(K, y, np.ones(3), rows=[0, 1])


def test_smo_matches_reference_on_a_triangles_split():
    # the first fit of train_prob_svm on a split of the paper's headline setting
    clean = gen_triangles(1000, 1000, seed=4)
    gap = rank_normalized_gap(estimate_clean_gap(clean), clean.y)
    pu = flip_labels(clean, gap, FlipRateSpec("inverse", 0.1, 0.5), seed=5)
    train, _ = split(pu, 0.75, seed=6)
    assert train.n == 1500
    kernel = SplitKernel(1.0 / train.dim, train.X)
    _assert_same_solve(kernel.K, train.s.astype(float), np.ones(train.n), 1e-3)


def test_smo_raises_at_its_iteration_cap():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(20, 2))
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    K = gram_matrix(0.5, X, X)
    with pytest.raises(RuntimeError, match="max_iter=1"):
        smo_solve(K, y, np.ones(20), max_iter=1)
    _, _, iters, _ = smo_solve(K, y, np.ones(20))
    assert iters > 1
    # a problem solved within the cap does not raise
    assert smo_solve(K, y, np.ones(20), max_iter=iters)[2] == iters


def test_smo_rejects_labels_other_than_plus_minus_one():
    with pytest.raises(ValueError, match="labels"):
        smo_solve(np.eye(3), np.array([1.0, -1.0, 0.5]), np.ones(3))


@pytest.mark.parametrize("n, seed", [(40, 0), (60, 1), (80, 2), (50, 3)])
def test_smo_dual_objective_matches_scipy(n, seed):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = np.where(X[:, 0] + 0.7 * rng.normal(size=n) > 0, 1.0, -1.0)
    c_box = rng.uniform(0.1, 2.0) * rng.uniform(0.2, 3.0, size=n)  # random C and weights
    K = gram_matrix(0.5, X, X)

    alpha, _, _, _ = smo_solve(K, y, c_box, tol=1e-6)
    assert np.all((alpha >= 0.0) & (alpha <= c_box))
    assert abs(alpha @ y) <= 1e-9
    _, ref_obj = svm_dual_scipy(K, y, c_box)
    smo_obj = 0.5 * (alpha * y) @ K @ (alpha * y) - alpha.sum()
    assert abs(smo_obj - ref_obj) <= 1e-8 * max(1.0, abs(ref_obj))


@pytest.mark.parametrize("n, seed", [(2000, 4), (4000, 7)])  # 1500 and 3000 training rows
def test_smo_duality_gap_on_pipeline_fits(n, seed):
    # a certificate that needs no second solver: with the maximal violating pair within
    # tol and the bias between its ends, each example adds at most c_i * tol to P - D
    clean = gen_triangles(n // 2, n // 2, seed=seed)
    gap = rank_normalized_gap(estimate_clean_gap(clean), clean.y)
    pu = flip_labels(clean, gap, FlipRateSpec("inverse", 0.1, 0.5), seed=seed + 1)
    train, _ = split(pu, 0.75, seed=seed + 2)
    kernel = SplitKernel(1.0 / train.dim, train.X)
    y = train.s.astype(float)
    rng = np.random.default_rng(seed)
    fold = np.ones(train.n)
    fold[::3] = 0.0  # a Platt fold: its held-out rows are zero caps
    weighted = rng.uniform(0.0, 3.0, train.n)  # a reweighted fit, dropped rows at zero
    weighted[rng.random(train.n) < 0.3] = 0.0
    tol = 1e-3
    for c_box in (np.ones(train.n), fold, weighted):
        alpha, bias, _, fitted = smo_solve(kernel.K, y, c_box, tol=tol)
        v = alpha * y
        Kv = kernel.K @ v
        primal = 0.5 * v @ Kv + c_box @ np.maximum(0.0, 1.0 - y * (Kv + bias))
        dual = alpha.sum() - 0.5 * v @ Kv
        assert 0.0 <= primal - dual <= tol * c_box.sum()
        # the O(n) form from the solver's own decision values
        from_fitted = v @ (fitted - bias) + c_box @ np.maximum(0.0, 1.0 - y * fitted) - alpha.sum()
        assert abs(from_fitted - (primal - dual)) <= 1e-10 * (1.0 + primal)

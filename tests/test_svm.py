import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import svm_kkt_residuals
from pgpu import KernelSpec, SplitKernel, default_kernel, gen_triangles
from pgpu.kernels import gram_matrix
from pgpu.svm import (
    PlattCalibration,
    SvmModel,
    decision_values,
    fit_platt,
    predict_proba_batch,
    smo_solve,
    train_prob_svm,
    train_weighted_svm,
)

SEPARABLE_X = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0], [3.0, 1.0]])
SEPARABLE_Y = np.array([-1, -1, 1, 1])


def _split(X, spec=None):
    X = np.asarray(X, dtype=float)
    return SplitKernel(spec if spec is not None else default_kernel(X.shape[1]), X)


def test_separable_points_classified_perfectly():
    model = train_weighted_svm(_split(SEPARABLE_X), SEPARABLE_Y, np.ones(4), C=1.0)
    pred = np.where(decision_values(model, SEPARABLE_X) >= 0, 1, -1)
    assert np.array_equal(pred, SEPARABLE_Y)


def test_integer_weight_equals_duplication():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(6, 2))
    y = np.array([1, 1, 1, -1, -1, -1])
    w = np.ones(6)
    w[2] = 3.0
    spec = default_kernel(2)
    grid = rng.uniform(-2.0, 2.0, size=(40, 2))
    values = []  # at C = 1, the box of each example is its weight
    for pts, labels, c_box in ((X, y, w), (np.vstack([X, X[2], X[2]]), np.concatenate([y, [1, 1]]),
                                           np.ones(8))):
        alpha, bias, _, _ = smo_solve(gram_matrix(spec, pts, pts), labels.astype(float), c_box,
                                      tol=1e-10)
        values.append(gram_matrix(spec, grid, pts) @ (alpha * labels) + bias)
    assert np.abs(values[0] - values[1]).max() <= 1e-6


def test_single_class_is_degenerate():
    with pytest.raises(ValueError, match="degenerate training set"):
        train_weighted_svm(_split(SEPARABLE_X), np.ones(4, dtype=int), np.ones(4), C=1.0)


def test_zero_weights_rejected():
    with pytest.raises(ValueError, match="weights"):
        train_weighted_svm(_split(SEPARABLE_X), SEPARABLE_Y, np.zeros(4), C=1.0)
    # weights that silence one class leave a degenerate problem
    with pytest.raises(ValueError, match="degenerate"):
        train_weighted_svm(_split(SEPARABLE_X), SEPARABLE_Y, np.array([1.0, 1.0, 0.0, 0.0]), C=1.0)


def test_kkt_residuals_within_tolerance():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(4, 26))
        X = rng.normal(size=(n, 2))
        y = np.where(rng.random(n) < 0.5, 1, -1)
        if np.abs(y.sum()) == n:
            y[0] = -y[0]
        weights = rng.uniform(0.2, 2.0, size=n)
        C = float(rng.choice([0.5, 1.0, 10.0]))
        kernel = KernelSpec("rbf", 0.7) if trial % 2 else KernelSpec("linear")
        K = gram_matrix(kernel, X, X)
        alpha, bias, _, _ = smo_solve(K, y.astype(float), C * weights, tol=1e-3)
        resid = svm_kkt_residuals(K, y, alpha, C * weights, bias)
        assert resid.max() <= 1e-3 + 1e-12


def test_box_constraint_respected():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 2))
    y = np.where(X[:, 0] + 0.3 * rng.normal(size=12) > 0, 1, -1)
    if np.abs(y.sum()) == 12:
        y[0] = -y[0]
    w = rng.uniform(0.1, 3.0, size=12)
    model = train_weighted_svm(_split(X), y, w, C=2.0)
    assert np.all(np.abs(model.dual_coefs) <= 2.0 * w.max() + 1e-12)
    assert len(model.dual_coefs) == len(model.support_vectors)
    assert np.all(model.dual_coefs != 0.0)


def test_decision_value_empty_support_returns_bias():
    model = SvmModel(np.empty((0, 2)), np.empty(0), bias=1.25, kernel=KernelSpec("linear"))
    assert decision_values(model, [[5.0, -3.0]])[0] == 1.25


def test_decision_value_hand_built():
    sv = np.array([[1.0, 1.0]])  # ||sv||^2 = 2
    model = SvmModel(sv, np.array([1.0]), bias=0.0, kernel=KernelSpec("linear"))
    assert decision_values(model, [[1.0, 1.0]])[0] == pytest.approx(2.0)


def test_decision_value_dimension_mismatch():
    model = SvmModel(np.ones((1, 2)), np.array([1.0]), 0.0, KernelSpec("linear"))
    with pytest.raises(ValueError, match="dimension"):
        decision_values(model, [[1.0, 2.0, 3.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decision_values_reject_non_finite_features(bad):
    # a NaN decision value would be counted as a -1 prediction
    data = gen_triangles(20, 20, seed=3)
    model = train_weighted_svm(_split(data.X), data.y, np.ones(40), C=1.0)
    rows = [[0.1, 0.2], [0.3, -0.4], [bad, 0.0]]
    with pytest.raises(ValueError, match="features must be finite: data row 2, x1 is"):
        decision_values(model, rows)
    empty = SvmModel(np.empty((0, 2)), np.empty(0), bias=0.5, kernel=KernelSpec("linear"))
    with pytest.raises(ValueError, match="data row 2, x1"):
        decision_values(empty, rows)


def test_training_is_deterministic():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 2))
    y = np.where(X[:, 0] > 0, 1, -1)
    a = train_weighted_svm(_split(X), y, np.ones(30), C=1.0)
    b = train_weighted_svm(_split(X), y, np.ones(30), C=1.0)
    assert np.array_equal(a.dual_coefs, b.dual_coefs)
    assert np.array_equal(a.support_vectors, b.support_vectors)
    assert a.bias == b.bias


def test_platt_symmetric_balanced_offset_vanishes():
    f = np.concatenate([np.ones(10), -np.ones(10)])
    y = np.concatenate([np.ones(10, dtype=int), -np.ones(10, dtype=int)])
    calib = fit_platt(f, y)
    assert abs(calib.B) <= 1e-6
    assert calib.A < 0


def test_platt_confident_on_separated_values():
    rng = np.random.default_rng(7)
    f = np.concatenate([rng.uniform(1.0, 2.0, 25), rng.uniform(-2.0, -1.0, 25)])
    y = np.concatenate([np.ones(25, dtype=int), -np.ones(25, dtype=int)])
    calib = fit_platt(f, y)
    for fi, yi in zip(f, y):
        z = calib.A * fi + calib.B
        p_pos = 1.0 / (1.0 + np.exp(z))
        assert (p_pos if yi == 1 else 1.0 - p_pos) > 0.9


def test_platt_constant_values_rejected():
    with pytest.raises(ValueError, match="constant"):
        fit_platt(np.zeros(6), np.array([1, 1, 1, -1, -1, -1]))


def test_platt_single_class_rejected():
    with pytest.raises(ValueError, match="both classes"):
        fit_platt(np.linspace(-1, 1, 5), np.ones(5, dtype=int))


@pytest.mark.parametrize("bad", [1.5, -1.2, 0])
def test_labels_are_checked_before_they_are_cast(bad):
    y = np.array([-1.0, -1.0, 1.0, bad])
    with pytest.raises(ValueError, match=r"labels must be \+1 or -1"):
        train_weighted_svm(_split(SEPARABLE_X), y, np.ones(4))
    with pytest.raises(ValueError, match=r"labels must be \+1 or -1"):
        train_prob_svm(_split(SEPARABLE_X), y)
    with pytest.raises(ValueError, match=r"labels must be \+1 or -1"):
        fit_platt(np.array([-2.0, -1.0, 1.0, 2.0]), y)


def test_float_labels_of_plus_or_minus_one_fit_as_integer_labels():
    y = SEPARABLE_Y.astype(float)
    model = train_weighted_svm(_split(SEPARABLE_X), y, np.ones(4))
    expected = train_weighted_svm(_split(SEPARABLE_X), SEPARABLE_Y, np.ones(4))
    assert np.array_equal(model.dual_coefs, expected.dual_coefs) and model.bias == expected.bias
    assert train_prob_svm(_split(SEPARABLE_X), y)[1] == train_prob_svm(_split(SEPARABLE_X),
                                                                        SEPARABLE_Y)[1]
    dv = np.array([-2.0, -1.0, 1.0, 2.0])
    assert fit_platt(dv, y) == fit_platt(dv, SEPARABLE_Y)


def _toy_model_calib():
    model = train_weighted_svm(_split(SEPARABLE_X), SEPARABLE_Y, np.ones(4), C=1.0)
    dv = decision_values(model, SEPARABLE_X)
    return model, fit_platt(dv, SEPARABLE_Y)


def test_predict_proba_midpoint():
    model, _ = _toy_model_calib()
    # choose x with decision value f, then craft a calibration with A*f+B = 0
    x = np.array([[1.5, 0.5]])
    f = decision_values(model, x)[0]
    calib = PlattCalibration(A=-2.0, B=2.0 * f)
    assert predict_proba_batch(model, calib, x)[0] == pytest.approx(0.5, abs=1e-12)


def test_predict_proba_sums_to_one_exactly():
    model, calib = _toy_model_calib()
    rng = np.random.default_rng(13)
    p_pos = predict_proba_batch(model, calib, rng.uniform(-4, 7, size=(25, 2)))
    assert np.all(p_pos + (1.0 - p_pos) == 1.0)
    assert np.all((0.0 < p_pos) & (p_pos < 1.0))


def test_predict_proba_monotone_in_decision_value():
    model, calib = _toy_model_calib()
    assert calib.A < 0
    xs = np.column_stack([np.linspace(-1.0, 4.0, 60), np.full(60, 0.5)])
    f = decision_values(model, xs)
    order = np.argsort(f)
    p = predict_proba_batch(model, calib, xs)[order]
    assert np.all(np.diff(p) > 0)


def test_train_prob_svm_runs_on_small_and_large_samples():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(12, 2))
    y = np.where(X[:, 0] > 0, 1, -1)
    if np.abs(y.sum()) == 12:
        y[0] = -y[0]
    model, calib = train_prob_svm(_split(X), y)  # raw decision values branch
    assert calib.A < 0

    X = rng.normal(size=(90, 2))
    y = np.where(X[:, 0] + 0.1 * rng.normal(size=90) > 0, 1, -1)
    model, calib = train_prob_svm(_split(X), y)  # cross-validated branch
    p = predict_proba_batch(model, calib, X)
    assert ((y == 1) == (p > 0.5)).mean() > 0.9


def test_fitted_matches_features_at_fit_and_held_out_rows():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(50, 2))
    y = np.where(X[:, 0] + 0.5 * rng.normal(size=50) > 0, 1, -1)
    kernel = _split(X)
    weights = np.where(np.arange(50) % 2 == 0, 1.0, 0.0)  # odd rows held out as zero caps
    model = train_weighted_svm(kernel, y, weights, C=1.0)
    assert model.fitted.shape == (50,)
    assert np.abs(model.fitted - decision_values(model, X)).max() <= 1e-12
    # with rows, one decision value per entry of rows, repeats included
    rows = np.array([7, 3, 3, 40, 12, 41, 18, 25])
    labels = np.array([1, 1, -1, 1, -1, -1, 1, -1])
    model = train_weighted_svm(kernel, labels, np.array([1.0, 0.5, 0.5, 0, 1, 1, 0, 2]), rows=rows)
    assert np.abs(model.fitted - decision_values(model, X[rows])).max() <= 1e-12


@given(n=st.integers(2, 30), size=st.integers(2, 40), gather=st.booleans(),
       C=st.sampled_from([1e-3, 0.1, 1.0, 10.0]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_zero_caps_solve_bit_identically_to_dropped_examples(n, size, gather, C, seed):
    # zeros interleaved among the examples, which are the whole matrix in order (a view)
    # or scattered, repeated rows of it (gathered row by row)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    K = gram_matrix(KernelSpec("rbf", 1.0), X, X)
    rows = rng.integers(0, n, size=size) if gather else None
    m = size if gather else n
    y = rng.choice([-1.0, 1.0], size=m)
    c_box = C * rng.uniform(0.1, 3.0, size=m) * (rng.random(m) < 0.7)
    keep = c_box > 0.0
    if not keep.any():
        return
    kept_rows = np.flatnonzero(keep) if rows is None else rows[keep]
    try:
        ref = smo_solve(K, y[keep], c_box[keep], max_iter=2000, rows=kept_rows)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="max_iter=2000"):
            smo_solve(K, y, c_box, max_iter=2000, rows=rows)
        return
    alpha, bias, iters, fitted = smo_solve(K, y, c_box, max_iter=2000, rows=rows)
    assert np.array_equal(alpha[keep], ref[0]) and not alpha[~keep].any()
    assert bias == ref[1] and iters == ref[2]
    assert np.array_equal(fitted[keep], ref[3])


def test_repeated_rows_equal_duplicated_features():
    # a row listed twice trains exactly like a duplicated feature row
    rng = np.random.default_rng(9)
    X = rng.normal(size=(8, 2))
    y = np.array([1, 1, 1, 1, -1, -1, -1, -1])
    rows = np.concatenate([np.arange(8), [1, 5]])
    labels = np.concatenate([y, [-1, 1]])
    weights = rng.uniform(0.2, 1.0, size=10)
    by_rows = train_weighted_svm(_split(X), labels, weights, C=1.0, rows=rows)
    by_copies = train_weighted_svm(_split(X[rows]), labels, weights, C=1.0)
    grid = rng.uniform(-2.0, 2.0, size=(30, 2))
    assert np.abs(decision_values(by_rows, grid) - decision_values(by_copies, grid)).max() <= 1e-12


def test_scattered_and_repeated_rows_train_without_copying_a_block(monkeypatch):
    rng = np.random.default_rng(10)
    X = rng.normal(size=(60, 2))
    kernel = _split(X)
    rows = np.concatenate([rng.permutation(60)[:40], [3, 3, 17]])
    y = np.where(X[rows, 0] + 0.5 * rng.normal(size=rows.size) > 0, 1, -1)
    weights = rng.uniform(0.2, 2.0, size=rows.size)
    weights[5] = 0.0  # a zero cap: the fit solves as if it were dropped

    # the positively weighted examples with their kernel block as a matrix of its own
    keep = rows[weights > 0]
    dense = SplitKernel.__new__(SplitKernel)
    dense.spec, dense.X, dense.K = kernel.spec, X[keep], kernel.K[np.ix_(keep, keep)]
    expected = train_weighted_svm(dense, y[weights > 0], weights[weights > 0], C=1.0)

    def no_copy(self, rows=None, cols=None):
        raise AssertionError("SplitKernel.block called")

    monkeypatch.setattr(SplitKernel, "block", no_copy)
    model = train_weighted_svm(kernel, y, weights, C=1.0, rows=rows)
    assert np.array_equal(model.dual_coefs, expected.dual_coefs)
    assert model.bias == expected.bias
    assert np.array_equal(model.support_vectors, expected.support_vectors)


@pytest.mark.parametrize("rows", [[0, 2, 2, 5], [5, 2, 0], [[0, 1], [2, 3]]])
def test_prob_svm_rows_must_be_strictly_ascending(rows):
    kernel = _split(np.random.default_rng(4).normal(size=(8, 2)))
    with pytest.raises(ValueError, match="rows must be strictly ascending"):
        train_prob_svm(kernel, np.resize([1, -1], np.size(rows)), rows=rows)
    with pytest.raises(IndexError, match="out of range"):
        train_prob_svm(kernel, [1, -1, 1], rows=[-1, 2, 5])

import numpy as np
import pytest

from _oracles import svm_kkt_residuals
from pgpu import KernelSpec, SplitKernel, SvmConfig, default_kernel
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
    weighted = train_weighted_svm(_split(X), y, w, C=1.0, tol=1e-10)
    duplicated = train_weighted_svm(
        _split(np.vstack([X, X[2], X[2]])),
        np.concatenate([y, [1, 1]]),
        np.ones(8),
        C=1.0,
        tol=1e-10,
    )
    grid = rng.uniform(-2.0, 2.0, size=(40, 2))
    diff = np.abs(decision_values(weighted, grid) - decision_values(duplicated, grid))
    assert diff.max() <= 1e-6


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
        alpha, bias, _ = smo_solve(K, y.astype(float), C * weights, tol=1e-3)
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
    model, calib = train_prob_svm(_split(X), y, SvmConfig())  # raw decision values branch
    assert calib.A < 0

    X = rng.normal(size=(90, 2))
    y = np.where(X[:, 0] + 0.1 * rng.normal(size=90) > 0, 1, -1)
    model, calib = train_prob_svm(_split(X), y, SvmConfig())  # cross-validated branch
    p = predict_proba_batch(model, calib, X)
    assert ((y == 1) == (p > 0.5)).mean() > 0.9


def test_split_decision_values_match_features():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(50, 2))
    y = np.where(X[:, 0] + 0.5 * rng.normal(size=50) > 0, 1, -1)
    kernel = _split(X)
    rows = np.arange(0, 50, 2)
    model = train_weighted_svm(kernel, y[rows], np.ones(rows.size), C=1.0, rows=rows)
    held = np.arange(1, 50, 2)
    assert np.abs(decision_values(model, kernel, held) - decision_values(model, X[held])).max() <= 1e-12
    assert np.abs(decision_values(model, kernel) - decision_values(model, X)).max() <= 1e-12
    with pytest.raises(ValueError, match="not trained on this split kernel"):
        decision_values(model, _split(X + 1.0), held)


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
    weights[5] = 0.0  # dropped before training

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
    assert np.array_equal(model.support_idx, keep[expected.support_idx])
    assert np.array_equal(model.support_vectors, expected.support_vectors)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgpu
from _oracles import boundary_cv_reference, forward_gap, kmm_descent_reference, monotone_rate
from pgpu import FlipRateSpec, observed_gap
from pgpu.core import (
    BOUNDARY_GRID,
    _matching_kernel,
    estimate_boundary_cv,
    estimate_boundary_min,
    fit_relabelled_classifier,
    relabel,
)
from pgpu.kmm import solve_kmm
from pgpu.svm import decision_values, predict_proba_batch, train_prob_svm


def test_observed_gap_is_the_calibrated_svm_gap_of_its_rows():
    kernel, s = _cv_dataset(1.5)
    rows = np.flatnonzero(np.arange(s.size) % 4 != 0)
    model, calib = train_prob_svm(kernel, s[rows], rows=rows)
    got = observed_gap(kernel, s[rows], rows)
    assert np.array_equal(got, 2.0 * calib.posterior(model.fitted[rows]) - 1.0)
    # the fit's own decision values, read from SMO's gradient, are the features-based ones
    assert np.abs(model.fitted - decision_values(model, kernel.X)).max() <= 1e-12
    by_features = 2.0 * predict_proba_batch(model, calib, kernel.X[rows]) - 1.0
    assert np.abs(got - by_features).max() <= 1e-12
    assert got.shape == rows.shape and np.all(np.abs(got) < 1.0)
    # far-apart blobs: each labelled positive gets a positive gap, each other row a negative one
    kernel, s = _cv_dataset(0.2)
    assert np.array_equal(np.sign(observed_gap(kernel, s)), s)


@pytest.mark.parametrize("gaps, labels, match", [
    (np.zeros((2, 2)), np.ones(2), "1-d"),
    (np.zeros(3), np.ones(2), "one gap per label"),
    (np.array([0.5, 1.2]), np.ones(2), r"\[-1, 1\]"),
    (np.array([-1.01, 0.5]), np.ones(2), r"\[-1, 1\]"),
    (np.array([0.5, np.nan]), np.ones(2), r"\[-1, 1\]"),
])
def test_gaps_are_checked_before_use(gaps, labels, match):
    with pytest.raises(ValueError, match=match):
        relabel(gaps, labels, -0.5)
    with pytest.raises(ValueError, match=match):
        estimate_boundary_min(gaps, labels)


def test_forward_gap_examples():
    assert forward_gap(1.0, 0.0) == 1.0
    # (1 - 0.2) * (0.5 + 1) - 1 = 0.2
    assert forward_gap(0.5, 0.2) == pytest.approx(0.2, abs=1e-15)
    # at the decision boundary the observed gap equals minus the flip rate
    assert forward_gap(0.0, 0.3) == pytest.approx(-0.3, abs=1e-15)


def test_forward_gap_validates_ranges():
    with pytest.raises(ValueError):
        forward_gap(1.5, 0.1)
    with pytest.raises(ValueError):
        forward_gap(0.5, 1.0)
    with pytest.raises(ValueError):
        forward_gap(0.5, -0.1)


@given(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.999999, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_forward_gap_matches_expanded_form(gap, rho):
    assert forward_gap(gap, rho) == pytest.approx((1.0 - rho) * gap - rho, abs=1e-12)


def test_forward_gap_never_exceeds_true_gap():
    gaps = np.linspace(-1.0, 1.0, 201)
    for rho in np.linspace(0.0, 0.99, 12):
        assert np.all(forward_gap(gaps, rho) <= gaps + 1e-15)


def test_composite_map_monotone_for_decreasing_rates():
    gaps = np.linspace(-1.0, 1.0, 10_001)
    rates = [
        monotone_rate(FlipRateSpec("constant", 0.3)),
        monotone_rate(FlipRateSpec("linear", 0.4)),
        monotone_rate(FlipRateSpec("inverse", 0.2, 1.0)),
    ]
    for rho in rates:
        r = rho(gaps)
        assert np.all(r >= 0.0) and np.all(r < 1.0)
        assert np.all(np.diff(r) <= 0.0)
        composite = forward_gap(gaps, r)
        assert np.all(np.diff(composite) >= 0.0)


def test_boundary_min_examples(monkeypatch):
    gaps = np.array([-0.2, -0.1, 0.3, -0.9, 0.7])
    s = np.array([1, 1, 1, -1, -1])  # positives hold gaps -0.2, -0.1, 0.3
    monkeypatch.setattr(pgpu.core, "_N_PRIME", 1)
    assert estimate_boundary_min(gaps, s) == pytest.approx(-0.2)
    monkeypatch.setattr(pgpu.core, "_N_PRIME", 2)
    assert estimate_boundary_min(gaps, s) == pytest.approx(-0.15)


def test_boundary_min_requires_enough_positives():
    gaps = np.array([-0.2, 0.3])
    with pytest.raises(ValueError, match="observed positives"):
        estimate_boundary_min(gaps, np.array([1, -1]))


def test_boundary_min_clamped_into_open_interval():
    gaps = np.array([0.4, 0.6, 0.8])
    s = np.ones(3, dtype=int)
    assert estimate_boundary_min(gaps, s) == pytest.approx(-1e-6)
    gaps = np.array([-1.0, -1.0, -1.0])
    got = estimate_boundary_min(gaps, s)
    assert -1.0 < got < 0.0


def test_relabel_rules():
    gaps = np.array([0.5, -0.5, -0.1, -0.9])
    s = np.array([-1, -1, -1, 1])
    result = relabel(gaps, s, -0.3)
    assert list(result.positive_idx) == [0, 3]  # gap > 0, and the observed positive
    assert list(result.negative_idx) == [1]     # gap <= l
    assert list(result.discarded_idx) == [2]    # inside (l, 0]


def test_relabel_boundary_validation():
    gaps = np.array([0.1])
    for bad in (-1.0, 0.0, 0.4, -1.3):
        with pytest.raises(ValueError):
            relabel(gaps, np.array([-1]), bad)


@given(st.integers(0, 100_000), st.floats(min_value=-0.99, max_value=-0.01))
@settings(max_examples=80, deadline=None)
def test_relabel_partitions_everything(seed, boundary):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    gaps = rng.uniform(-1.0, 1.0, n)
    s = np.where(rng.random(n) < 0.4, 1, -1)
    result = relabel(gaps, s, boundary)
    parts = [result.positive_idx, result.negative_idx, result.discarded_idx]
    merged = np.concatenate(parts)
    assert len(merged) == n
    assert len(np.unique(merged)) == n
    assert np.all(np.isin(np.flatnonzero(s == 1), result.positive_idx))
    for i in result.negative_idx:
        assert s[i] == -1 and gaps[i] <= boundary
    for i in result.discarded_idx:
        assert s[i] == -1 and boundary < gaps[i] <= 0.0


@given(st.integers(0, 100_000), st.floats(min_value=-0.99, max_value=-0.01),
       st.floats(min_value=-0.99, max_value=-0.01))
@settings(max_examples=80, deadline=None)
def test_relabel_positives_ignore_the_boundary_and_negatives_nest(seed, l1, l2):
    lo, hi = sorted((l1, l2))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    # coarse gaps, so some fall exactly on a boundary or on zero
    gaps = np.round(rng.uniform(-1.0, 1.0, n), 1)
    s = np.where(rng.random(n) < 0.4, 1, -1)
    low, high = relabel(gaps, s, lo), relabel(gaps, s, hi)
    assert np.array_equal(low.positive_idx, high.positive_idx)
    assert np.all(np.isin(low.negative_idx, high.negative_idx))
    assert np.all(np.isin(high.discarded_idx, low.discarded_idx))


# boundaries, with -0.5 often enough that some gaps fall exactly on one
_BOUNDARIES = st.one_of(st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True), st.just(-0.5))


@given(st.lists(st.tuples(st.sampled_from([1, -1]),
                          st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-0.5, 0.0]))),
                min_size=1, max_size=40),
       _BOUNDARIES, _BOUNDARIES)
@settings(max_examples=150, deadline=None)
def test_relabel_lays_out_every_boundary_alike_with_its_relabelled_sample_first(rows, l1, l2):
    lo, hi = sorted((l1, l2))
    s = np.array([label for label, _ in rows])
    gaps = np.array([gap for _, gap in rows])
    low, high = relabel(gaps, s, lo), relabel(gaps, s, hi)
    layout = np.concatenate([high.positive_idx, high.negative_idx, high.discarded_idx])
    assert np.array_equal(np.sort(layout), np.arange(s.size))  # the parts partition the sample
    assert np.all(np.diff(high.positive_idx) > 0)
    for part in (high.negative_idx, high.discarded_idx):
        # ascending gap, ties in sample order
        assert np.array_equal(part, part[np.lexsort((part, gaps[part]))])
    assert np.array_equal(
        layout, np.concatenate([low.positive_idx, low.negative_idx, low.discarded_idx]))
    assert np.array_equal(high.negative_idx[:low.negative_idx.size], low.negative_idx)


@pytest.mark.parametrize("spec", [FlipRateSpec("constant", 0.3), FlipRateSpec("linear", 0.6)])
def test_relabelling_with_oracle_gaps_matches_bayes_sign(spec):
    rng = np.random.default_rng(17)
    true_gap = rng.uniform(-1.0, 1.0, 4000)
    rho = spec.rate(true_gap)
    observed = forward_gap(true_gap, rho)
    boundary = -float(spec.rate(np.array([0.0]))[0])
    result = relabel(observed, -np.ones(4000, dtype=int), boundary)
    assert np.all(true_gap[result.positive_idx] > 0)
    assert np.all(true_gap[result.negative_idx] < 0)


def test_single_class_relabelling_is_surfaced():
    gaps = np.array([0.5, 0.6, 0.7, 0.8])
    s = np.array([1, 1, -1, -1])  # no unlabelled gap falls below any boundary
    with pytest.raises(ValueError, match="relabelling produced one class"):
        X = np.random.default_rng(0).normal(size=(4, 2))
        fit_relabelled_classifier(pgpu.SplitKernel(0.5, X), s, gaps, -0.5)


def test_boundary_grid_matches_protocol():
    assert len(BOUNDARY_GRID) == 31
    assert BOUNDARY_GRID[0] == -0.90
    assert BOUNDARY_GRID[-1] == -0.60
    assert np.allclose(np.diff(BOUNDARY_GRID), 0.01)
    # ascending, so ties resolve to the most negative candidate; each a valid boundary
    assert all(-1.0 < a < b < 0.0 for a, b in zip(BOUNDARY_GRID, BOUNDARY_GRID[1:]))


def _cv_dataset(spread, seed=3):
    rng = np.random.default_rng(seed)
    pos = rng.normal(loc=(2.0, 2.0), scale=spread, size=(40, 2))
    neg = rng.normal(loc=(-2.0, -2.0), scale=spread, size=(60, 2))
    X = np.vstack([pos, neg])
    s = np.concatenate([np.ones(40, dtype=int), -np.ones(60, dtype=int)])
    return pgpu.SplitKernel(0.5, X), s


def test_boundary_cv_single_candidate(monkeypatch):
    kernel, s = _cv_dataset(0.8)
    monkeypatch.setattr(pgpu.core, "BOUNDARY_GRID", (-0.75,))
    assert estimate_boundary_cv(kernel, s, seed=1) == -0.75


def test_boundary_cv_ties_resolve_to_most_negative():
    # tight, far-apart blobs: every candidate relabels identically, so all tie
    kernel, s = _cv_dataset(0.2)
    got = estimate_boundary_cv(kernel, s, seed=1)
    assert got == -0.90


def test_boundary_cv_skips_degenerate_candidates_but_not_solver_failures(monkeypatch):
    kernel, s = _cv_dataset(0.2)  # unlabelled gaps lie in [-0.97, -0.95], so -0.96 splits them
    monkeypatch.setattr(pgpu.core, "BOUNDARY_GRID", (-0.96, -0.90))
    assert estimate_boundary_cv(kernel, s, seed=1) == -0.96  # a tie
    real = pgpu.core.fit_relabelled_classifier

    def degenerate_if_rows_discarded(kernel, s, gaps, boundary_l, *args):
        # fails a relabelling, not a boundary value: candidates that relabel alike fail alike
        if relabel(gaps, s, boundary_l).discarded_idx.size:
            raise ValueError("relabelling discarded rows")
        return real(kernel, s, gaps, boundary_l, *args)

    monkeypatch.setattr(pgpu.core, "fit_relabelled_classifier", degenerate_if_rows_discarded)
    assert estimate_boundary_cv(kernel, s, seed=1) == -0.90

    def capped(*args):
        raise RuntimeError("SMO reached its iteration cap max_iter=1")

    monkeypatch.setattr(pgpu.core, "fit_relabelled_classifier", capped)
    with pytest.raises(RuntimeError, match="max_iter=1"):
        estimate_boundary_cv(kernel, s, seed=1)


def _pu_triangles(n, seed):
    """pgpu_cv's benchmark data: n triangles points with inverse(0.1, 0.5) label flips."""
    clean = pgpu.gen_triangles(n // 2, n - n // 2, seed=seed)
    gap = pgpu.rank_normalized_gap(pgpu.estimate_clean_gap(clean), clean.y)
    pu = pgpu.flip_labels(clean, gap, FlipRateSpec("inverse", 0.1, 0.5), seed=seed + 1)
    return pgpu.SplitKernel(0.5, pu.X), pu.s


@pytest.mark.parametrize("n", [200, 800], ids=["200", "800"])
def test_boundary_cv_fits_each_relabelling_once_with_the_scores_of_one_fit_per_candidate(
        n, monkeypatch):
    kernel, s = _pu_triangles(n, seed=n)
    expected_l, expected_scores = boundary_cv_reference(kernel, s, BOUNDARY_GRID, seed=2)

    fits, fold_gaps = [], {}
    fit, cv_scores = pgpu.core.fit_relabelled_classifier, pgpu.core._cv_scores
    scores = []

    def counted_fit(kernel, s, gaps, boundary_l, rows, *args):
        fold_gaps[rows.tobytes()] = (s, gaps)
        fits.append((rows.tobytes(), relabel(gaps, s, boundary_l).negative_idx.size))
        return fit(kernel, s, gaps, boundary_l, rows, *args)

    def recorded_scores(*args):
        scores.append(cv_scores(*args))
        return scores[-1]

    monkeypatch.setattr(pgpu.core, "fit_relabelled_classifier", counted_fit)
    monkeypatch.setattr(pgpu.core, "_cv_scores", recorded_scores)
    assert estimate_boundary_cv(kernel, s, seed=2) == expected_l
    assert np.array_equal(scores[0], expected_scores)
    # one fit per distinct (fold, negatives count) pair, and every such pair fitted
    distinct = {(fold, relabel(gaps, fold_s, cand).negative_idx.size)
                for fold, (fold_s, gaps) in fold_gaps.items() for cand in BOUNDARY_GRID}
    assert len(fold_gaps) == 5
    assert len(fits) == len(distinct) and set(fits) == distinct


def test_boundary_cv_needs_enough_of_each_class():
    X = np.random.default_rng(0).normal(size=(12, 2))
    s = np.array([1, 1, 1, -1, -1, -1, -1, -1, -1, -1, -1, -1])
    with pytest.raises(ValueError, match="5-fold"):
        estimate_boundary_cv(pgpu.SplitKernel(0.5, X), s, seed=0)


@pytest.mark.parametrize("bad", [1.5, -1.2, 0])
def test_observed_labels_are_checked_before_they_are_cast(bad):
    # cast to int, 1.5 would read as a labelled positive and -1.2 as an unlabelled row
    labels = np.array([bad, 1, 1, 1, -1, -1])
    gaps = np.array([-0.5, -0.4, -0.3, -0.2, 0.2, -0.8])
    with pytest.raises(ValueError, match=r"observed labels must be \+1 or -1"):
        relabel(gaps, labels, -0.3)
    with pytest.raises(ValueError, match=r"observed labels must be \+1 or -1"):
        estimate_boundary_min(gaps, labels)
    kernel, s = _cv_dataset(0.8)
    s = s.astype(float)
    s[7] = bad
    with pytest.raises(ValueError, match=r"observed labels must be \+1 or -1"):
        estimate_boundary_cv(kernel, s, seed=1)


@pytest.mark.parametrize("rows", [[0, 3, 3, 9], [9, 3, 0]])
def test_sample_rows_must_be_strictly_ascending(rows):
    # a whole-split fit has one example per row: a repeated row cannot be a second example
    kernel, s = _cv_dataset(0.8)
    labels = s[rows]
    with pytest.raises(ValueError, match="rows must be strictly ascending"):
        observed_gap(kernel, labels, rows)
    with pytest.raises(ValueError, match="rows must be strictly ascending"):
        fit_relabelled_classifier(kernel, labels, np.array([0.5, -0.9, 0.5, -0.9]), -0.5, rows)


def test_flip_rate_spec_validation_and_parse():
    with pytest.raises(ValueError):
        FlipRateSpec("inverse", 0.1)  # missing beta
    with pytest.raises(ValueError):
        FlipRateSpec("linear", 0.5, beta=1.0)
    with pytest.raises(ValueError):
        FlipRateSpec("weird", 0.5)
    with pytest.raises(ValueError):
        FlipRateSpec("inverse", 0.0, 0.5)
    assert FlipRateSpec("inverse", 0.1, -0.5).rate(np.array([1.0])) == pytest.approx(1 / 6)
    # numpy floats and plain integers are real numbers too
    assert FlipRateSpec("inverse", np.float32(0.25), 1).describe() == "inverse(0.25,1)"
    assert FlipRateSpec("linear", np.float64(0.5)) == FlipRateSpec("linear", 0.5)
    assert FlipRateSpec("constant", 0).rate(np.array([0.5])) == 0.0

    spec = FlipRateSpec.parse("inverse:0.1,0.5")
    assert spec == FlipRateSpec("inverse", 0.1, 0.5)
    assert FlipRateSpec.parse("linear:0.4") == FlipRateSpec("linear", 0.4)
    assert FlipRateSpec.parse("constant:0.3").describe() == "constant(0.3)"
    assert spec.describe() == "inverse(0.1,0.5)"
    with pytest.raises(ValueError):
        FlipRateSpec.parse("inverse:0.1")
    with pytest.raises(ValueError):
        FlipRateSpec.parse("nope:1")


@pytest.mark.parametrize("args, field", [
    (("inverse", 0.1, math.nan), "beta"), (("inverse", 0.1, math.inf), "beta"),
    (("inverse", 0.1, -1.0), "beta"), (("inverse", 0.1, -2.0), "beta"),
    (("inverse", math.inf, 0.5), "alpha"), (("inverse", math.nan, 0.5), "alpha"),
    (("linear", math.inf), "alpha"), (("constant", math.nan), "alpha"),
    # unchecked, an integer too large for a float makes rate() raise OverflowError
    (("linear", 10**400), "alpha"), (("inverse", 0.1, 10**400), "beta"),
])
def test_flip_rate_spec_rejects_non_finite_parameters_and_an_inverse_beta_of_at_most_minus_one(
        args, field):
    with pytest.raises(ValueError, match=field):
        FlipRateSpec(*args)


@pytest.mark.parametrize("args, field", [
    (("constant", "0.1"), "alpha"), (("linear", True), "alpha"), (("inverse", 0.1, "0.5"), "beta"),
    (("inverse", None, 0.5), "alpha"), (("inverse", 0.1, False), "beta"),
])
def test_flip_rate_spec_rejects_a_parameter_that_is_not_a_real_number(args, field):
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got "):
        FlipRateSpec(*args)


def test_flip_rate_spec_stores_float_parameters():
    spec = FlipRateSpec("inverse", 1, np.float32(0.5))
    assert (type(spec.alpha), type(spec.beta)) == (float, float)
    assert spec == FlipRateSpec("inverse", 1.0, 0.5) and spec.describe() == "inverse(1,0.5)"


def test_flip_rate_zero_below_boundary():
    spec = FlipRateSpec("inverse", 0.2, 1.0)
    gaps = np.array([-0.5, -1e-9, 0.0, 0.3, 1.0])
    rho = spec.rate(gaps)
    assert rho[0] == 0.0 and rho[1] == 0.0
    assert rho[2] == 1.0  # formula saturates at the boundary
    assert rho[3] == pytest.approx(0.2 / (0.2 + 0.3 * 2.0))
    assert np.all((rho >= 0) & (rho <= 1))


def test_matching_kernel_is_rbf_with_gamma_20_over_dim():
    s = np.array([1, 1, -1, -1, -1, -1])
    gaps = np.array([0.5, 0.4, 0.2, -0.3, -0.8, -0.6])
    for dim, gamma in ((2, 10.0), (5, 4.0)):
        X = np.random.default_rng(dim).normal(size=(6, dim))
        matching = _matching_kernel(pgpu.SplitKernel(1.0 / dim, X), relabel(gaps, s, -0.7),
                                    np.arange(6))
        assert matching.gamma == gamma
        assert np.array_equal(matching.X, X[[0, 1, 2, 4, 5, 3]])


def test_every_kmm_source_of_a_pgpu_cv_run_is_a_leading_view_of_its_kernel(monkeypatch):
    kernel, s = _pu_triangles(200, seed=200)
    leading_views, matching = [], []
    solve, descent = pgpu.core.solve_kmm, pgpu.kmm._projected_descent

    def solved(kmm_kernel, *args):
        matching.append(kmm_kernel.K)
        return solve(kmm_kernel, *args)

    def checked(k_ss, *args):  # the source block starts at the matching kernel's first entry
        leading_views.append(np.shares_memory(k_ss, matching[-1])
                             and k_ss.ctypes.data == matching[-1].ctypes.data)
        return descent(k_ss, *args)

    monkeypatch.setattr(pgpu.core, "solve_kmm", solved)
    monkeypatch.setattr(pgpu.kmm, "_projected_descent", checked)
    boundary = estimate_boundary_cv(kernel, s, seed=2)
    fit_relabelled_classifier(kernel, s, observed_gap(kernel, s), boundary)
    assert len(leading_views) == len(matching) > 5 * 2 and all(leading_views)


def test_kmm_descent_of_every_pgpu_cv_fit_is_byte_identical_to_the_plain_loop(monkeypatch):
    kernel, s = _pu_triangles(200, seed=201)
    descent = pgpu.kmm._projected_descent
    same = []

    def compared(k_ss, *args):
        beta, trace = descent(k_ss, *args)
        ref_beta, ref_trace = kmm_descent_reference(k_ss, *args)
        same.append(k_ss.base is not None  # a leading view of the fold's matching kernel
                    and beta.tobytes() == ref_beta.tobytes()
                    and trace.tobytes() == ref_trace.tobytes())
        return beta, trace

    monkeypatch.setattr(pgpu.kmm, "_projected_descent", compared)
    estimate_boundary_cv(kernel, s, seed=3)
    assert len(same) > 5 * 2 and all(same)


def test_fit_on_a_built_or_a_shared_matching_kernel_is_identical_and_beta_follows_the_relabelling():
    kernel, s = _pu_triangles(200, seed=200)
    rows = np.arange(1, 200, 2)
    gaps = observed_gap(kernel, s[rows], rows)
    for boundary in (estimate_boundary_min(gaps, s[rows]), -0.9):
        built, result, beta = fit_relabelled_classifier(kernel, s[rows], gaps, boundary,
                                                        rows=rows)
        shared, _, shared_beta = fit_relabelled_classifier(
            kernel, s[rows], gaps, boundary, rows=rows,
            matching=_matching_kernel(kernel, relabel(gaps, s[rows], -0.5), rows))
        assert np.array_equal(built.support_vectors, shared.support_vectors)
        assert np.array_equal(built.dual_coefs, shared.dual_coefs) and built.bias == shared.bias
        assert np.array_equal(beta.beta, shared_beta.beta)
        # the fit's KMM is the one on the matching kernel in relabel's layout, bit for bit
        laid_out = np.concatenate([result.positive_idx, result.negative_idx, result.discarded_idx])
        pool = pgpu.SplitKernel(10.0, kernel.X[rows[laid_out]])
        direct = solve_kmm(pool, None, np.arange(beta.beta.size))
        assert beta.beta.size == result.positive_idx.size + result.negative_idx.size
        assert direct.beta.tobytes() == beta.beta.tobytes()

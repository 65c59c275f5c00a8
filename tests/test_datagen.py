import numpy as np
import pytest

from pgpu import (
    FlipRateSpec,
    PUDataset,
    SplitKernel,
    estimate_clean_gap,
    flip_labels,
    gen_overlap_square,
    gen_triangles,
    load_csv,
    observed_gap,
    rank_normalized_gap,
    save_csv,
    split,
)
from pgpu.datagen import overlap_positive_prob
from pgpu.svm import decision_values, train_weighted_svm


def test_triangles_counts_and_bounds():
    data = gen_triangles(1000, 1000, seed=0)
    assert data.n == 2000
    assert (data.y == 1).sum() == 1000
    assert (data.y == -1).sum() == 1000
    assert np.all(np.abs(data.X) <= 1.0)
    assert np.array_equal(data.s, data.y)


def test_triangles_classes_live_in_their_triangles():
    data = gen_triangles(500, 500, seed=1)
    above = data.X[:, 1] >= data.X[:, 0]  # on or above the diagonal x2 = x1
    assert np.all(above[data.y == 1])
    assert np.all(~above[data.y == -1] | (data.X[data.y == -1, 0] == data.X[data.y == -1, 1]))


def test_overlap_probability_formula():
    # P(+1) = max(0, 0.5 - 10*(x1 - x2)), clamped into [0, 1]
    assert overlap_positive_prob(np.array([[0.05, 0.0]]))[0] == 0.0
    assert overlap_positive_prob(np.array([[-0.05, 0.0]]))[0] == 1.0
    assert overlap_positive_prob(np.array([[0.01, 0.0]]))[0] == pytest.approx(0.4)


def test_overlap_square_sample():
    data = gen_overlap_square(2000, seed=2)
    assert data.n == 2000
    assert np.all(np.abs(data.X) <= 1.0)
    assert np.array_equal(data.s, data.y)
    p = overlap_positive_prob(data.X)
    overlap_fraction = ((p > 0.0) & (p < 1.0)).mean()
    assert overlap_fraction >= 0.025
    assert np.all(data.y[p == 0.0] == -1)


def _clean_with_gap(n=1000, seed=3):
    rng = np.random.default_rng(seed)
    gap = rng.uniform(-1.0, 1.0, n)
    X = np.column_stack([gap, rng.normal(size=n)])
    y = np.where(rng.random(n) < 0.6, 1, -1)
    return PUDataset(X, y.copy(), y), gap


def test_flip_zero_rate_changes_nothing():
    clean, gap = _clean_with_gap()
    flipped = flip_labels(clean, gap, FlipRateSpec("constant", 0.0), seed=4)
    assert np.array_equal(flipped.s, clean.s)
    assert np.array_equal(flipped.X, clean.X)


def test_flip_rate_one_unlabels_every_positive_region_positive():
    clean, gap = _clean_with_gap()
    flipped = flip_labels(clean, gap, FlipRateSpec("constant", 1.0), seed=5)
    positives_in_region = (clean.s == 1) & (gap >= 0.0)
    assert np.all(flipped.s[positives_in_region] == -1)
    # positives sitting below the boundary keep their label: the rate is zero there
    assert np.all(flipped.s[(clean.s == 1) & (gap < 0.0)] == 1)


def test_flip_count_within_binomial_bounds():
    n = 1000
    clean = PUDataset(np.random.default_rng(6).normal(size=(n, 2)),
                      np.ones(n, dtype=int), np.ones(n, dtype=int))
    gap = np.full(n, 0.5)
    flipped = flip_labels(clean, gap, FlipRateSpec("constant", 0.3), seed=7)
    n_flipped = int((flipped.s == -1).sum())
    assert 255 <= n_flipped <= 345


def test_flip_leaves_negatives_and_features_alone():
    clean, gap = _clean_with_gap()
    flipped = flip_labels(clean, gap, FlipRateSpec("linear", 0.8), seed=8)
    negatives = clean.s == -1
    assert np.array_equal(flipped.s[negatives], clean.s[negatives])
    assert np.array_equal(flipped.X, clean.X)
    assert np.array_equal(flipped.y, clean.y)


def test_flip_requires_clean_dataset():
    clean, gap = _clean_with_gap(n=50)
    noisy = flip_labels(clean, gap, FlipRateSpec("constant", 0.5), seed=9)
    with pytest.raises(ValueError, match="clean"):
        flip_labels(noisy, gap[: noisy.n], FlipRateSpec("constant", 0.5), seed=9)
    with pytest.raises(ValueError, match="gap"):
        flip_labels(clean, gap[:10], FlipRateSpec("constant", 0.5), seed=9)
    with pytest.raises(ValueError, match="-1, 1"):
        flip_labels(clean, np.full(50, 2.0), FlipRateSpec("constant", 0.5), seed=9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_flip_rejects_non_finite_gaps(bad):
    # a NaN gap has a NaN rate, which no uniform draw falls below: its row would never flip
    clean, gap = _clean_with_gap(n=50)
    gap = gap.copy()
    gap[clean.y == 1] = bad
    with pytest.raises(ValueError, match=r"gap values must lie in \[-1, 1\]"):
        flip_labels(clean, gap, FlipRateSpec("linear", 1.0), seed=9)


def test_rank_normalized_gap_spreads_each_class_uniformly():
    rng = np.random.default_rng(10)
    gap = np.concatenate([rng.uniform(0.8, 1.0, 50), rng.uniform(-1.0, -0.8, 70)])
    y = np.concatenate([np.ones(50, dtype=int), -np.ones(70, dtype=int)])
    ranked = rank_normalized_gap(gap, y)
    pos = np.sort(ranked[y == 1])
    assert np.allclose(pos, np.arange(1, 51) / 50.0)
    neg = np.sort(ranked[y == -1])
    assert np.allclose(neg, -np.arange(70, 0, -1) / 70.0)
    # ordering within the positive class is preserved
    order_raw = np.argsort(gap[y == 1])
    order_ranked = np.argsort(ranked[y == 1])
    assert np.array_equal(order_raw, order_ranked)
    # a class with no members is simply absent
    assert np.array_equal(rank_normalized_gap([0.5, 0.1], [1, 1]), [1.0, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rank_normalized_gap_rejects_non_finite_scores(bad):
    with pytest.raises(ValueError, match="finite"):
        rank_normalized_gap([0.5, bad, -0.1], [1, 1, -1])


def test_rank_normalized_gap_rejects_labels_other_than_plus_minus_one():
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        rank_normalized_gap([0.5, 0.2, 0.1], [1, 0, -1])


@pytest.mark.parametrize("bad", [1.5, -1.2, 0])
def test_labels_are_checked_before_they_are_cast(bad):
    labels = np.array([1.0, -1.0, bad])
    with pytest.raises(ValueError, match=r"observed labels must be \+1 or -1"):
        PUDataset(np.zeros((3, 2)), labels)
    with pytest.raises(ValueError, match=r"latent labels must be \+1 or -1"):
        PUDataset(np.zeros((3, 2)), -np.ones(3), labels)
    with pytest.raises(ValueError, match=r"latent labels must be \+1 or -1"):
        rank_normalized_gap([0.5, 0.2, 0.1], labels)


def test_float_labels_of_plus_or_minus_one_are_accepted():
    data = PUDataset(np.zeros((2, 2)), [1.0, -1.0], [1.0, -1.0])
    assert data.s.dtype == data.y.dtype == int
    assert data.s.tolist() == data.y.tolist() == [1, -1]
    assert rank_normalized_gap([0.5, 0.2], [1.0, -1.0]).tolist() == [1.0, -1.0]


def test_estimate_clean_gap_on_triangles():
    clean = gen_triangles(300, 300, seed=11)
    score = estimate_clean_gap(clean)
    kernel = SplitKernel(1.0 / clean.dim, clean.X)
    model = train_weighted_svm(kernel, clean.y, np.ones(clean.n))
    assert np.array_equal(score, model.fitted)
    assert np.abs(score - decision_values(model, clean.X)).max() <= 1e-12
    assert (score[clean.y == 1] > 0).mean() >= 0.95
    assert np.array_equal(score, estimate_clean_gap(clean))


@pytest.mark.parametrize("make", [lambda: gen_triangles(1000, 1000, seed=0),
                                  lambda: gen_overlap_square(2000, seed=0)],
                         ids=["triangles", "overlap_square"])
def test_clean_scores_untie_and_keep_the_calibrated_order(make):
    # at n=2000 the calibrated gaps saturate into hundreds of within-class ties
    clean = make()
    score = estimate_clean_gap(clean)
    gap = observed_gap(SplitKernel(1.0 / clean.dim, clean.X), clean.y)
    gap_ties = 0
    for cls in (1, -1):
        order = np.argsort(score[clean.y == cls])
        assert np.all(np.diff(score[clean.y == cls][order]) > 0)
        # sorted by score, the gaps never decrease: every untied pair of gaps is ordered alike
        assert np.all(np.diff(gap[clean.y == cls][order]) >= 0)
        gap_ties += int((np.diff(np.sort(gap[clean.y == cls])) == 0).sum())
    assert gap_ties > 100


def test_estimate_clean_gap_requires_latent_labels():
    clean = gen_triangles(20, 20, seed=12)
    with pytest.raises(ValueError, match="latent"):
        estimate_clean_gap(clean.without_latent())


def test_csv_round_trip_with_latent_labels(tmp_path):
    data = gen_overlap_square(40, seed=13)
    path = tmp_path / "square.csv"
    save_csv(data, path)
    back = load_csv(path)
    assert np.array_equal(back.X, data.X)
    assert np.array_equal(back.s, data.s)
    assert np.array_equal(back.y, data.y)


def test_csv_round_trip_without_latent_labels(tmp_path):
    data = gen_overlap_square(25, seed=14).without_latent()
    path = tmp_path / "pu.csv"
    save_csv(data, path)
    back = load_csv(path)
    assert back.y is None
    assert np.array_equal(back.X, data.X)
    assert np.array_equal(back.s, data.s)


def test_csv_row_with_empty_latent_column(tmp_path):
    path = tmp_path / "row.csv"
    path.write_text("x1,x2,s,y\n0.3,-0.7,-1,\n", encoding="utf-8")
    data = load_csv(path)
    assert data.n == 1
    assert data.X[0, 0] == 0.3 and data.X[0, 1] == -0.7
    assert data.s[0] == -1
    assert data.y is None


def test_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad_label.csv"
    path.write_text("x1,x2,s,y\n0.0,0.0,1,1\n0.1,0.2,2,\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(path)

    path = tmp_path / "bad_width.csv"
    path.write_text("x1,x2,s,y\n0.0,0.0,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(path)

    path = tmp_path / "bad_feature.csv"
    path.write_text("x1,x2,s,y\n0.0,oops,1,\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(path)

    path = tmp_path / "bad_header.csv"
    path.write_text("a,b,s,y\n0.0,0.0,1,\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_csv(path)

    path = tmp_path / "mixed_y.csv"
    path.write_text("x1,x2,s,y\n0.0,0.0,1,1\n0.1,0.2,-1,\n", encoding="utf-8")
    with pytest.raises(ValueError, match="latent label column"):
        load_csv(path)


def test_split_sizes_match_protocol():
    data = gen_overlap_square(2000, seed=15)
    train, test = split(data, 0.75, seed=16)
    assert train.n == 1500 and test.n == 500
    assert test.y is not None


def test_split_is_a_partition_and_deterministic():
    data = gen_triangles(30, 30, seed=17)
    a_train, a_test = split(data, 0.75, seed=18)
    b_train, b_test = split(data, 0.75, seed=18)
    assert np.array_equal(a_train.X, b_train.X)
    assert np.array_equal(a_test.X, b_test.X)
    stacked = np.vstack([a_train.X, a_test.X])
    assert stacked.shape[0] == data.n
    # every original row appears exactly once
    order = np.lexsort(stacked.T)
    original = np.lexsort(data.X.T)
    assert np.allclose(stacked[order], data.X[original])


def test_split_rejects_tiny_datasets():
    data = gen_triangles(2, 1, seed=19)
    with pytest.raises(ValueError):
        split(data, 0.75, seed=0)


def test_dataset_invariants_enforced():
    with pytest.raises(ValueError, match="observed positives"):
        PUDataset(np.ones((2, 2)), np.array([1, 1]), np.array([1, -1]))
    with pytest.raises(ValueError, match="\\+1 or -1"):
        PUDataset(np.ones((2, 2)), np.array([1, 0]))
    data = PUDataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1, -1]), np.array([1, 1]))
    sub = data.subset([1])
    assert sub.n == 1 and sub.y[0] == 1 and sub.s[0] == -1 and sub.X[0, 0] == 3.0
    blind = data.without_latent()
    assert blind.y is None and np.array_equal(blind.s, data.s)


def test_features_need_a_column():
    # the classifier kernel's bandwidth is 1/dim
    for X in (np.empty((4, 0)), np.zeros((4, 2, 1))):
        with pytest.raises(ValueError, match="X must be a matrix with at least one feature column"):
            PUDataset(X, np.array([1, -1, -1, 1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(bad):
    X = np.zeros((4, 2))
    X[2, 1] = bad
    with pytest.raises(ValueError, match="features must be finite: data row 2, x2"):
        PUDataset(X, np.array([1, -1, -1, 1]))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_csv_with_non_finite_feature_rejected(tmp_path, cell):
    path = tmp_path / "nan.csv"
    path.write_text(f"x1,x2,s,y\n0.1,0.2,1,\n0.3,{cell},-1,\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^line 3: features must be finite: x2 is"):
        load_csv(path)
    # a blank line shifts the file line, not the data row
    path.write_text(f"x1,x2,s,y\n0.1,0.2,1,\n\n0.3,{cell},-1,\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^line 4: features must be finite: x2 is"):
        load_csv(path)

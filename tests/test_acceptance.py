"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the measured values behind them. Everything is deterministic:
suites run under pinned master seeds and fixed RNG streams.
"""

import numpy as np
import pytest

from _oracles import forward_gap, kmm_brute_force_min, monotone_rate, svm_kkt_residuals
import pgpu
from pgpu import (
    ExperimentConfig,
    FlipRateSpec,
    KernelSpec,
    PUDataset,
    SplitKernel,
    default_kernel,
    observed_gap,
    run_suite,
    write_results,
)
from pgpu.core import estimate_boundary_min, relabel
from pgpu.kernels import gram_matrix
from pgpu.kmm import KmmConfig, solve_kmm
from pgpu.svm import (
    fit_platt,
    predict_proba_batch,
    smo_solve,
    train_weighted_svm,
)

MASTER_SEED = 2


def _kmm(spec, target, source, config):
    """solve_kmm on separate target and source samples: one kernel over both, stacked."""
    pool = SplitKernel(spec, np.vstack([target, source]))
    return solve_kmm(pool, np.arange(len(target)), np.arange(len(target), pool.n), config)


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def _suite_means(dataset, flip):
    cfg = ExperimentConfig(dataset_source=dataset, flip=flip,
                           methods=("svm_naive", "pgpu"), n_splits=10,
                           master_seed=MASTER_SEED)
    records = {r.method: r for r in run_suite(cfg)}
    assert all(not r.errors for r in records.values())
    return 100.0 * records["svm_naive"].accuracy_mean, 100.0 * records["pgpu"].accuracy_mean


def test_criterion_1_triangles_inverse_regression():
    naive, pgpu_acc = _suite_means("triangles", FlipRateSpec("inverse", 0.1, 0.5))
    ok = abs(pgpu_acc - 95.36) <= 3.0 and abs(naive - 92.00) <= 3.0 and pgpu_acc > naive
    _report(1, "triangles + inverse(0.1,0.5): accuracies near the reference table",
            ok, f"pgpu={pgpu_acc:.2f} (target 95.36+-3.0), naive={naive:.2f} (target 92.00+-3.0)")


def test_criterion_2_overlap_linear_trend():
    naive, pgpu_acc = _suite_means("overlap_square", FlipRateSpec("linear", 1.0))
    ok = abs(pgpu_acc - 92.14) <= 3.0 and pgpu_acc > naive
    _report(2, "overlap square + linear(1.0): reweighted pipeline beats the naive baseline",
            ok, f"pgpu={pgpu_acc:.2f} (target 92.14+-3.0), naive={naive:.2f}")


def test_criterion_3_forward_map_identity_and_ordering():
    gaps = np.linspace(-1.0, 1.0, 81)
    rhos = np.linspace(0.0, 0.99, 15)
    gg, rr = np.meshgrid(gaps, rhos)
    got = forward_gap(gg.ravel(), rr.ravel())
    expanded = (1.0 - rr.ravel()) * gg.ravel() - rr.ravel()
    identity_ok = got.size >= 1000 and np.max(np.abs(got - expanded)) <= 1e-12
    ordering_ok = np.all(got <= gg.ravel())

    fine = np.linspace(-1.0, 1.0, 1001)
    monotone_ok = True
    for spec in (FlipRateSpec("constant", 0.3), FlipRateSpec("linear", 0.4),
                 FlipRateSpec("inverse", 0.2, 1.0)):
        composite = forward_gap(fine, monotone_rate(spec)(fine))
        monotone_ok = monotone_ok and bool(np.all(np.diff(composite) >= 0.0))

    _report(3, "forward gap identity to 1e-12 plus ordering with zero violations",
            identity_ok and ordering_ok and monotone_ok,
            f"grid={got.size} points, max identity error={np.max(np.abs(got - expanded)):.2e}")


def test_criterion_4_relabelling_consistency():
    # oracle half: analytic gaps, boundary at minus the flip rate at zero
    rng = np.random.default_rng(17)
    oracle_ok = True
    for spec in (FlipRateSpec("constant", 0.3), FlipRateSpec("linear", 0.6)):
        true_gap = rng.uniform(-1.0, 1.0, 4000)
        observed = forward_gap(true_gap, spec.rate(true_gap))
        boundary = -float(spec.rate(np.array([0.0]))[0])
        result = relabel(observed, -np.ones(4000, dtype=int), boundary)
        oracle_ok = oracle_ok and bool(
            np.all(true_gap[result.positive_idx] > 0) and np.all(true_gap[result.negative_idx] < 0)
        )

    # estimated half: overlap square, full estimation pipeline
    clean = pgpu.gen_overlap_square(2000, seed=11)
    drive = pgpu.rank_normalized_gap(pgpu.estimate_clean_gap(clean), clean.y)
    pu = pgpu.flip_labels(clean, drive, FlipRateSpec("linear", 0.6), seed=12)
    kernel = SplitKernel(default_kernel(pu.dim), pu.X)
    gaps = observed_gap(kernel, pu.s)
    boundary = estimate_boundary_min(gaps, pu.s)
    result = relabel(gaps, pu.s, boundary)
    bayes = np.where(pu.X[:, 1] > pu.X[:, 0], 1, -1)
    assigned = np.concatenate([np.ones(result.positive_idx.size, dtype=int),
                               -np.ones(result.negative_idx.size, dtype=int)])
    reference = np.concatenate([bayes[result.positive_idx], bayes[result.negative_idx]])
    agreement = float(np.mean(assigned == reference))

    _report(4, "relabelled instances match the optimal labels (oracle 100%, estimated >= 98%)",
            oracle_ok and agreement >= 0.98,
            f"oracle exact={oracle_ok}, estimated agreement={100 * agreement:.2f}%")


def test_criterion_5_kmm_against_oracles():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(8, 2))
    ident = _kmm(KernelSpec("rbf", 0.5), pts, pts, KmmConfig())
    identity_ok = ident.trace[-1] <= 1e-6 and np.abs(ident.beta - 1.0).mean() <= 0.05

    oracle_ok = True
    worst_gap = 0.0
    for seed in (3, 8):
        gen = np.random.default_rng(seed)
        target = gen.uniform(-1, 1, size=(5, 2))
        source = gen.uniform(-1, 1, size=(4, 2))
        config = KmmConfig(upper_bound_B=1.0, epsilon=0.3, tol=1e-10, max_iters=20000)
        got = _kmm(KernelSpec("rbf", 1.0), target, source, config)
        oracle = kmm_brute_force_min(1.0, target, source, cap=1.0, eps=0.3)
        worst_gap = max(worst_gap, abs(got.trace[-1] - oracle))
        oracle_ok = oracle_ok and abs(got.trace[-1] - oracle) <= 1e-4

    feasibility_ok = True
    gen = np.random.default_rng(99)
    for _ in range(100):
        n_t = int(gen.integers(1, 16))
        n_s = int(gen.integers(1, 13))
        d = int(gen.integers(1, 4))
        cap = float(gen.choice([1.0, 2.0, 5.0, 1000.0]))
        eps = float(gen.uniform(0.05, 0.9))
        out = _kmm(KernelSpec("rbf", 1.0 / d), gen.normal(size=(n_t, d)),
                   gen.normal(size=(n_s, d)), KmmConfig(upper_bound_B=cap, epsilon=eps))
        feasibility_ok = feasibility_ok and bool(
            np.all(out.beta >= -1e-12)
            and np.all(out.beta <= cap + 1e-12)
            and abs(out.beta.mean() - 1.0) <= eps + 1e-9
        )

    _report(5, "KMM identity, brute-force oracle match, and feasibility on 100 random solves",
            identity_ok and oracle_ok and feasibility_ok,
            f"identity objective={ident.trace[-1]:.2e}, worst oracle gap={worst_gap:.2e}")


def test_criterion_6_svm_and_calibration_suite():
    rng = np.random.default_rng(42)
    worst_kkt = 0.0
    for trial in range(50):
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
        worst_kkt = max(worst_kkt, float(svm_kkt_residuals(K, y, alpha, C * weights, bias).max()))
    kkt_ok = worst_kkt <= 1e-3 + 1e-12

    X = rng.normal(size=(6, 2))
    y = np.array([1, 1, 1, -1, -1, -1])
    w = np.ones(6)
    w[2] = 3.0
    grid = rng.uniform(-2, 2, size=(40, 2))
    values = []  # SMO at C = 1 with weight 3 on one example, then with that example thrice
    for pts, labels, c_box in ((X, y, w), (np.vstack([X, X[2], X[2]]), np.concatenate([y, [1, 1]]),
                                           np.ones(8))):
        K = gram_matrix(default_kernel(2), pts, pts)
        alpha, bias, _, _ = smo_solve(K, labels.astype(float), c_box, tol=1e-10)
        values.append(gram_matrix(default_kernel(2), grid, pts) @ (alpha * labels) + bias)
    dup_gap = float(np.abs(values[0] - values[1]).max())
    dup_ok = dup_gap <= 1e-6
    # the library gives example i the box C * weights[i]: the same SMO solution, bit for bit
    w_box = np.array([1.0, 1.0, 3.0, 1.0, 0.25, 1.0])
    model = train_weighted_svm(SplitKernel(default_kernel(2), X), y, w_box, C=2.0)
    alpha, bias, _, _ = smo_solve(gram_matrix(default_kernel(2), X, X), y.astype(float),
                                  2.0 * w_box)
    box_ok = (np.array_equal(model.support_vectors, X[alpha > 0.0])
              and np.array_equal(model.dual_coefs, (alpha * y)[alpha > 0.0]) and model.bias == bias)

    f = np.concatenate([rng.uniform(0.5, 2.0, 30), rng.uniform(-2.0, -0.5, 30)])
    labels = np.concatenate([np.ones(30, dtype=int), -np.ones(30, dtype=int)])
    calib = fit_platt(f, labels)
    probe = np.sort(rng.uniform(-3, 3, 200))
    p = 1.0 / (1.0 + np.exp(calib.A * probe + calib.B))
    monotone_ok = calib.A < 0 and bool(np.all(np.diff(p) > 0))

    model = train_weighted_svm(SplitKernel(default_kernel(2), X), y, np.ones(6), C=1.0)
    p_pos = predict_proba_batch(model, calib, rng.uniform(-2, 2, size=(50, 2)))
    sums_ok = bool(np.all(p_pos + (1.0 - p_pos) == 1.0))

    _report(6, "KKT residuals, duplication equivalence, weighted boxes, calibration "
            "monotonicity, exact sums", kkt_ok and dup_ok and box_ok and monotone_ok and sums_ok,
            f"worst KKT={worst_kkt:.2e}, duplication gap={dup_gap:.2e}")


def test_criterion_7_flip_statistics():
    n = 100_000
    rng = np.random.default_rng(123)
    gap_pos = rng.uniform(0.0, 1.0, n)
    n_neg = 20_000
    gap_neg = rng.uniform(-1.0, 0.0, n_neg) - 1e-9
    gaps = np.concatenate([gap_pos, gap_neg])
    y = np.concatenate([np.ones(n, dtype=int), -np.ones(n_neg, dtype=int)])
    X = np.column_stack([gaps, gaps])
    clean = PUDataset(X, y.copy(), y)

    bands_ok = True
    worst_z = 0.0
    negatives_ok = True
    for spec in (FlipRateSpec("inverse", 0.2, 1.0), FlipRateSpec("linear", 0.6),
                 FlipRateSpec("constant", 0.3)):
        pu = pgpu.flip_labels(clean, gaps, spec, seed=77)
        negatives_ok = negatives_ok and bool(np.all(pu.s[y == -1] == -1))
        flipped = (pu.s == -1) & (y == 1)
        rho = spec.rate(gaps)
        edges = np.quantile(gap_pos, np.linspace(0.0, 1.0, 11))
        for k in range(10):
            if k < 9:
                mask = (y == 1) & (gaps >= edges[k]) & (gaps < edges[k + 1])
            else:
                mask = (y == 1) & (gaps >= edges[k]) & (gaps <= edges[k + 1])
            count = int(mask.sum())
            emp = float(flipped[mask].mean())
            expected = float(rho[mask].mean())
            band = 2.5758 * float(np.sqrt((rho[mask] * (1 - rho[mask])).sum())) / count
            z = abs(emp - expected) / max(band / 2.5758, 1e-12)
            worst_z = max(worst_z, z)
            bands_ok = bands_ok and abs(emp - expected) <= band

    _report(7, "per-decile flip frequencies inside 99% binomial bands, negatives untouched",
            bands_ok and negatives_ok, f"worst |z|={worst_z:.2f} (limit 2.576)")


def test_criterion_8_suite_reruns_are_byte_identical(tmp_path):
    cfg = ExperimentConfig(dataset_source="triangles", flip=FlipRateSpec("inverse", 0.2, 1.0),
                           methods=("svm_naive", "pgpu", "elkan"), n_splits=3,
                           master_seed=MASTER_SEED, dataset_n=400)
    write_results(run_suite(cfg), tmp_path / "first")
    write_results(run_suite(cfg), tmp_path / "second")
    same = all(
        (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
        for name in ("results.csv", "summary.json")
    )
    _report(8, "rerunning a suite with the same master seed reproduces result files byte-for-byte",
            same, "results.csv and summary.json compared")

"""The KMM solver against its plain reference, brute force and an independent QP solution.

KMM is certified against an independent optimum only on samples of at most 200 points
until ROADMAP item 4 makes its problem strongly convex; larger solves replay the reference
descent bit for bit, which pins last bits, not optimality.
"""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    clip_to_sum_bisection,
    kmm_brute_force_min,
    kmm_descent_reference,
    kmm_objective_direct,
    kmm_qp_scipy,
)
import pgpu
from pgpu import FlipRateSpec, SplitKernel, gen_triangles, kernels
from pgpu import kmm as kmm_module
from pgpu.kernels import gram_matrix
from pgpu.core import _matching_kernel, estimate_boundary_min, relabel
from pgpu.kmm import BetaWeights, _clip_to_sum, _sorted_distinct, solve_kmm


def _slack(ns):
    """The method's mean slack epsilon for ns source rows (Huang et al., NeurIPS 2006)."""
    root = math.sqrt(ns)
    return (root - 1.0) / root


def _descent_args(K, source, target=None, cap=1000.0, eps=None, max_iters=5000, tol=1e-6):
    """The arguments solve_kmm passes _projected_descent for a kernel matrix K (a raw
    matrix, such as a linear Gram block, or a SplitKernel's K; target None: every row),
    at the given settings. The defaults are the method's fixed ones."""
    source = np.asarray(source)
    run = kernels._as_run(source, K.shape[0])
    k_ss = K[run, run] if isinstance(run, slice) else K[np.ix_(source, source)]
    if target is None:
        kappa, n = K.sum(axis=1)[source], K.shape[0]
    else:
        kappa, n = K[np.ix_(source, target)].sum(axis=1), len(target)
    return k_ss, kappa, n, cap, _slack(source.size) if eps is None else eps, max_iters, tol


def _solve_raw(K, source, target=None, **settings):
    """solve_kmm's weights and trace on a raw kernel matrix K, at the given settings:
    its descent, with the trace offset it adds."""
    beta, trace = kmm_module._projected_descent(*_descent_args(K, source, target, **settings))
    row_sums = K.sum(axis=1) if target is None else K[np.ix_(target, target)].sum(axis=1)
    return BetaWeights(beta, trace + row_sums.sum() / row_sums.size ** 2)


def kmm(gamma, target, source, **settings):
    """solve_kmm on separate target and source samples: one kernel over both, stacked.
    Given settings other than the method's, its descent on the same problem instead."""
    target = np.atleast_2d(target)
    n_t = target.shape[0]
    pool = SplitKernel(gamma, np.vstack([target, source]))
    if settings:
        return _solve_raw(pool.K, np.arange(n_t, pool.n), np.arange(n_t), **settings)
    return solve_kmm(pool, np.arange(n_t), np.arange(n_t, pool.n))


def _assert_fixed_settings(kernel, ns):
    """Assert that solve_kmm on the leading ns rows of kernel is, bit for bit, the descent
    at the method's settings written out: B = 1000, epsilon = (sqrt(ns) - 1)/sqrt(ns),
    5000 steps and tol = 1e-6, its trace offset by the constant term. Return the solve."""
    result = solve_kmm(kernel, None, np.arange(ns))
    root = math.sqrt(ns)
    beta, trace = kmm_module._projected_descent(kernel.K[:ns, :ns], kernel.row_sums[:ns],
                                                kernel.n, 1000.0, (root - 1.0) / root,
                                                5000, 1e-6)
    assert result.beta.tobytes() == beta.tobytes()
    assert result.trace.tobytes() == (trace + kernel.row_sums.sum() / kernel.n ** 2).tobytes()
    return result


def test_fixed_settings_on_a_pipeline_matching_kernel():
    # pgpu's KMM solve on a triangles split, which the tolerance ends
    clean = gen_triangles(150, 150, seed=3)
    gap = pgpu.rank_normalized_gap(pgpu.estimate_clean_gap(clean), clean.y)
    pu = pgpu.flip_labels(clean, gap, FlipRateSpec("inverse", 0.1, 0.5), seed=4)
    train, _ = pgpu.split(pu, 0.75, seed=5)
    kernel = SplitKernel(1.0 / train.X.shape[1], train.X)
    gaps = pgpu.observed_gap(kernel, train.s)
    result = relabel(gaps, train.s, estimate_boundary_min(gaps, train.s))
    matching = _matching_kernel(kernel, result, np.arange(kernel.n))
    weights = _assert_fixed_settings(matching, result.positive_idx.size + result.negative_idx.size)
    assert 10 <= weights.trace.size - 1 < 5000


def test_fixed_settings_where_the_sum_constraint_binds():
    # 16 source rows in a tight cluster and 80 target-only rows far from them: the
    # weights fall until the sum constraint holds their mean at 1 - epsilon = 1/4
    rng = np.random.default_rng(11)
    X = np.vstack([rng.normal(scale=0.3, size=(16, 2)), rng.normal(size=(80, 2)) + 8.0])
    weights = _assert_fixed_settings(SplitKernel(0.5, X), 16)
    assert weights.beta.mean() == pytest.approx(0.25, abs=1e-12)


def test_fixed_box_cap_binds_on_a_lone_matched_row():
    # the only target row is source row 0, and the 1100 other source rows lie far from
    # it and from each other: row 0's weight would be about ns = 1101 without the cap
    grid = np.stack(np.meshgrid(np.arange(1, 35), np.arange(1, 35)), axis=-1).reshape(-1, 2)
    X = np.vstack([[[0.0, 0.0]], 10.0 * grid[:1100]])
    result = solve_kmm(SplitKernel(1.0, X), [0], np.arange(X.shape[0]))
    assert result.beta[0] == 1000.0 and result.beta[1:].max() < 1.0


def test_fixed_step_cap_ends_a_slow_descent():
    # a tight cloud of 250 source rows and one target row off its edge: the weights
    # creep toward the target along a direction of small curvature
    X = np.vstack([[[0.0, 0.6]], np.random.default_rng(0).normal(scale=0.05, size=(250, 2))])
    kernel, source = SplitKernel(0.5, X), np.arange(1, 251)
    with pytest.raises(RuntimeError, match="max_iters=5000 "):
        solve_kmm(kernel, [0], source)
    _, trace = kmm_module._projected_descent(*_descent_args(kernel.K, source, [0],
                                                            max_iters=50_000))
    assert 5000 < trace.size - 1 < 50_000  # the tolerance would end it later


def test_identical_source_and_target_keeps_unit_weights():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(8, 2))
    result = kmm(0.5, pts, pts)
    assert result.trace[-1] <= 1e-6
    assert np.abs(result.beta - 1.0).mean() <= 0.05


def test_reported_objective_matches_direct_recomputation():
    rng = np.random.default_rng(2)
    target = rng.normal(size=(9, 2))
    source = rng.normal(size=(5, 2))
    result = kmm(0.7, target, source)
    direct = kmm_objective_direct(0.7, target, source, result.beta)
    assert result.trace[-1] == pytest.approx(direct, abs=1e-10)


def test_four_point_instance_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    target = rng.uniform(-1, 1, size=(5, 2))
    source = rng.uniform(-1, 1, size=(4, 2))
    result = kmm(1.0, target, source, cap=1.0, eps=0.3, tol=1e-10, max_iters=20000)
    oracle = kmm_brute_force_min(1.0, target, source, cap=1.0, eps=0.3)
    assert abs(result.trace[-1] - oracle) <= 1e-4


def test_feasibility_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n_t = int(rng.integers(1, 15))
        n_s = int(rng.integers(1, 12))
        d = int(rng.integers(1, 4))
        cap = float(rng.choice([1.0, 1.5, 3.0, 10.0]))
        eps = float(rng.uniform(0.05, 0.9))
        target = rng.normal(size=(n_t, d))
        source = rng.normal(size=(n_s, d))
        result = kmm(1.0 / d, target, source, cap=cap, eps=eps)
        assert np.all(result.beta >= -1e-12)
        assert np.all(result.beta <= cap + 1e-12)
        assert abs(result.beta.mean() - 1.0) <= eps + 1e-9


def _indefinite(rng, ns, low, high):
    """A symmetric ns x ns matrix with eigenvalues spread evenly over [low, high]."""
    q, _ = np.linalg.qr(rng.normal(size=(ns, ns)))
    k = (q * np.linspace(low, high, ns)) @ q.T
    return (k + k.T) / 2.0


def _assert_descends_feasibly(beta, trace, cap, eps):
    assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))
    assert beta.min() >= 0.0 and beta.max() <= cap
    assert abs(beta.mean() - 1.0) <= eps + 1e-12


@given(st.integers(0, 100_000), st.sampled_from(["rbf", "linear", "rank-deficient", "indefinite"]),
       st.integers(2, 40), st.sampled_from([1.0, 1.5, 5.0, 1000.0]),
       st.sampled_from([0.0, 0.05, 0.3, 0.9]))
@settings(max_examples=80, deadline=None)
def test_objective_trace_never_increases(seed, kind, ns, cap, eps):
    # the descent lemma: a projected step of size 1/L, L at least the largest
    # Hessian eigenvalue, never raises the objective, whatever the curvature
    rng = np.random.default_rng(seed)
    if kind == "indefinite":  # no kernel has such a Gram block; passed to the descent directly
        beta, trace = kmm_module._projected_descent(
            _indefinite(rng, ns, -1.0, 1.0), rng.uniform(0.0, 2.0, size=ns) * ns, 2 * ns,
            cap, eps, 100_000, 1e-6)
    else:
        if kind == "rank-deficient":  # a linear block of rank at most 2, rows repeated
            X = np.repeat(rng.normal(size=(int(rng.integers(1, 4)), 3)), 2 * ns, axis=0)
            X = X[rng.permutation(X.shape[0])]
        else:
            X = rng.normal(size=(2 * ns, 2))
        gamma = float(rng.choice([0.5, 2.0, 10.0]))
        source = np.sort(rng.choice(X.shape[0], ns, replace=False))
        # an rbf kernel matrix, or a linear Gram block as a raw matrix
        K = SplitKernel(gamma, X).K if kind == "rbf" else X @ X.T
        result = _solve_raw(K, source, cap=cap, eps=eps, max_iters=100_000)
        beta, trace = result.beta, result.trace
    _assert_descends_feasibly(beta, trace, cap, eps)


@pytest.mark.parametrize("cap", [1.5, 10.0])
def test_descent_on_an_indefinite_block_falls_strictly_and_stays_feasible(cap):
    rng = np.random.default_rng(8)
    k_ss = _indefinite(rng, 40, -8.0, 10.0)
    kappa = rng.uniform(0.0, 60.0, size=40)
    beta, trace = kmm_module._projected_descent(k_ss, kappa, 60, cap, 0.3, 5000, 1e-6)
    assert trace.size > 10 and np.all(np.diff(trace) < 0.0)
    _assert_descends_feasibly(beta, trace, cap, 0.3)


def test_overflowing_kernel_raises_non_finite():
    X = np.array([[1e160, 2e160], [3e160, 1e160], [2e160, 2e160]])  # finite features
    with np.errstate(over="ignore", invalid="ignore"):
        K = X @ X.T  # their linear Gram block
        assert np.isinf(K).all()
        with pytest.raises(RuntimeError, match="non-finite at the starting point"):
            _solve_raw(K, np.arange(2))


def test_oversampled_region_gets_downweighted():
    target = np.linspace(0.0, 1.0, 60)[:, None]
    extra = target[target[:, 0] < 0.3]
    source = np.vstack([target, extra])  # doubles the density below 0.3
    result = kmm(10.0, target, source, cap=10.0, eps=0.5)
    inside = source[:, 0] < 0.3
    assert result.beta[inside].mean() < result.beta[~inside].mean()


def test_iteration_cap_raises_without_a_ridge_retry(monkeypatch):
    rng = np.random.default_rng(6)
    target = rng.normal(size=(60, 2))
    source = target[target[:, 0] > -0.2]  # a biased subsample, so the weights must move
    assert kmm(1.0, target, source).trace.size > 2  # needs more than one step

    calls = []
    descent = kmm_module._projected_descent
    monkeypatch.setattr(kmm_module, "_projected_descent",
                        lambda *args: calls.append(args) or descent(*args))
    monkeypatch.setattr(kmm_module, "_MAX_ITERS", 1)
    with pytest.raises(RuntimeError, match="max_iters=1 "):
        kmm(1.0, target, source)
    assert len(calls) == 1  # no second solve


def test_input_validation():
    pool = SplitKernel(1.0, np.ones((3, 2)))
    with pytest.raises(ValueError, match="nonempty"):
        solve_kmm(pool, np.arange(0), np.arange(3))
    with pytest.raises(ValueError, match="nonempty"):
        solve_kmm(pool, None, np.arange(0))


def test_solve_kmm_rejects_out_of_range_indices():
    # numpy would wrap a negative index to a row from the end
    pool = SplitKernel(1.0, np.random.default_rng(0).normal(size=(5, 2)))
    for bad in ([0, 5], [-1, 2], [3, 4, 5]):  # past the end, negative, a run past the end
        with pytest.raises(IndexError, match="out of range"):
            solve_kmm(pool, None, bad)
        with pytest.raises(IndexError, match="out of range"):
            solve_kmm(pool, bad, [0, 1])


@pytest.mark.parametrize("source_first", [False, True])
def test_sliced_target_kernel_on_triangles_matches_direct_objective(source_first):
    # the pipeline's shape: the source is a subset of the target, and every
    # kernel value solve_kmm uses is a slice of the target's kernel
    X = gen_triangles(100, 100, seed=4).X
    rng = np.random.default_rng(5)
    source = np.sort(rng.choice(X.shape[0], 150, replace=False))
    gamma = 10.0
    if source_first:  # the source block is then a view of the kernel
        rest = np.setdiff1d(np.arange(X.shape[0]), source)
        result = solve_kmm(SplitKernel(gamma, X[np.concatenate([source, rest])]),
                           None, np.arange(source.size))
    else:
        result = solve_kmm(SplitKernel(gamma, X), None, source)
    direct = kmm_objective_direct(gamma, X, X[source], result.beta)
    assert abs(result.trace[-1] - direct) <= 1e-8
    assert np.all(result.beta >= 0.0)
    assert np.all(result.beta <= 1000.0)
    assert abs(result.beta.mean() - 1.0) <= _slack(source.size) + 1e-12


def _qp_problem(i):
    """Problem i of a fixed set in the pipeline's shape: the source is a biased
    subsample of a sample of 40-200 points, and the target is the whole sample.
    The nine problems cover every box B and slack epsilon, alternating rbf kernel
    matrices and linear Gram blocks, on which the descent runs as on a raw matrix."""
    rng = np.random.default_rng(i)
    gamma = float(rng.choice([0.5, 2.0, 10.0]))
    X = rng.normal(size=(int(rng.integers(40, 201)), 2))
    source = np.flatnonzero(X[:, 0] + 0.5 * rng.normal(size=X.shape[0]) > -0.3)
    cap, eps = (1.5, 5.0, 1000.0)[i % 3], (0.05, 0.3, _slack(source.size))[i // 3]
    if i % 2:
        K = matrix = X @ X.T
    else:  # the oracle takes the direct formula, the descent the library's kernel matrix
        K = np.exp(-gamma * ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
        matrix = SplitKernel(gamma, X).K

    def solve(**limits):
        result = _solve_raw(matrix, source, cap=cap, eps=eps, **limits)
        return result.beta, result.trace
    _, optimum = kmm_qp_scipy(K, source, cap, eps)
    return solve, cap, eps, optimum


@pytest.mark.parametrize("i", range(9))
def test_kmm_is_feasible_and_approaches_the_qp_optimum(i):
    pytest.importorskip("scipy")
    solve, cap, eps, optimum = _qp_problem(i)
    for tight in (False, True):
        try:
            beta, trace = solve(tol=1e-12, max_iters=200_000) if tight else solve()
        except RuntimeError as exc:
            assert tight and "max_iters=200000" in str(exc)
            continue
        assert beta.min() >= 0.0 and beta.max() <= cap
        assert abs(beta.mean() - 1.0) <= eps + 1e-12
        assert trace[-1] >= optimum - 1e-10
        if tight:  # the linear kernels' optimum is 0 up to rounding
            assert trace[-1] - optimum <= 1e-3 * optimum + 1e-10


@pytest.mark.xfail(strict=True, reason="KMM stops once a step lowers its objective by "
                   "tol * max(1, |objective|), which is an absolute 1e-6 at tol=1e-6, as the "
                   "objective without its constant is below 1 in magnitude")
def test_default_kmm_reaches_the_qp_optimum():
    pytest.importorskip("scipy")
    # the pipeline's matching kernel and solver settings on triangles, 80% of rows as source
    X = gen_triangles(50, 50, seed=0).X
    source = np.sort(np.random.default_rng(0).choice(100, 80, replace=False))
    K = np.exp(-10.0 * ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    _, optimum = kmm_qp_scipy(K, source, 1000.0, _slack(80))
    result = solve_kmm(SplitKernel(10.0, X), None, source)
    assert result.trace[-1] - optimum <= 0.01 * optimum


@given(st.integers(0, 100_000), st.integers(1, 60), st.sampled_from([1.0, 1.5, 5.0, 1000.0]),
       st.sampled_from([0.0, 1.0, 0.5, 0.9]), st.sampled_from([0.1, 1.0, 10.0]))
@settings(max_examples=150, deadline=None)
def test_clip_to_sum_is_a_feasible_idempotent_projection(seed, n, cap, frac, scale):
    rng = np.random.default_rng(seed)
    v = rng.normal(scale=scale, size=n) + rng.normal()
    target = frac * n * cap
    x = _clip_to_sum(v, cap, target)
    assert x.min() >= 0.0 and x.max() <= cap
    assert abs(x.sum() - target) <= 1e-12 * max(1.0, target)
    assert np.abs(_clip_to_sum(x, cap, target) - x).max() <= 1e-12 * cap
    assert np.abs(x - clip_to_sum_bisection(v, cap, target)).max() <= 1e-12 * cap


def _biased_problem(kind):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(120, 2))
    source = np.flatnonzero(X[:, 0] + 0.5 * rng.normal(size=120) > -0.3)
    return (gram_matrix(2.0, X, X) if kind == "rbf" else X @ X.T), source


def _repeated_point_problem():
    """A linear kernel whose 5 source rows are one point: their Gram block is
    rank one with equal row sums, so the Gershgorin step is exactly the inverse
    of the largest curvature, and an exact line search lands on the full step
    up to rounding, here an ulp short of it."""
    X = np.array([[1.0, 1.0]] * 5 + [[2.0, 0.5]])
    return X @ X.T, np.arange(5)


def _first_theta(k_ss, kappa, n_target, cap, eps, *_):
    """The line-search fraction of the descent's first step, from its start beta = 1."""
    ns = k_ss.shape[0]
    grad = 2.0 * (k_ss @ np.ones(ns)) / ns**2 - 2.0 * kappa / (n_target * ns)
    step = ns**2 / (2.0 * np.abs(k_ss).sum(axis=1).max())
    d = np.clip(1.0 - step * grad, 0.0, cap) - 1.0
    assert abs(d.sum()) <= ns * eps  # the step keeps the sum constraint
    return -(grad @ d) / (2.0 * (d @ k_ss @ d) / ns**2)


@pytest.mark.parametrize("kind, settings", [
    pytest.param("rbf", {}, id="rbf"),
    pytest.param("linear", {}, id="linear"),
    pytest.param("rbf", {"eps": 0.0}, id="sum-bound"),
    pytest.param("rbf", {"cap": 1.5}, id="box-bound"),
    pytest.param("repeated", {"eps": 0.5}, id="short-step"),
])
def test_descent_is_byte_identical_to_the_plain_loop(kind, settings, monkeypatch):
    problem = _repeated_point_problem() if kind == "repeated" else _biased_problem(kind)
    args = _descent_args(*problem, **settings)
    projections = []
    clip_to_sum = kmm_module._clip_to_sum
    monkeypatch.setattr(kmm_module, "_clip_to_sum",
                        lambda *a: projections.append(a) or clip_to_sum(*a))
    beta, trace = kmm_module._projected_descent(*args)
    steps, projected = trace.size - 1, len(projections)
    ref_beta, ref_trace = kmm_descent_reference(*args)
    assert beta.tobytes() == ref_beta.tobytes()
    if kind == "repeated":  # one step, which the reference's line search takes an ulp short
        assert steps == 1 and _first_theta(*args) < 1.0
        assert trace[0] == ref_trace[0]  # the full step lands on the same beta, its objective
        assert abs(trace[1] - ref_trace[1]) <= 4 * np.spacing(abs(ref_trace[1]))  # rounds apart
    else:
        assert trace.tobytes() == ref_trace.tobytes()
        assert steps >= 10
    # the case each problem is there for: every step leaves the sum constraint, the box binds
    assert (projected == steps) == (settings.get("eps") == 0.0)
    assert (beta.max() == 1.5) == (settings.get("cap") == 1.5)


@pytest.mark.parametrize("eps", [pytest.param(None, id="default"),
                                 pytest.param(0.0, id="sum-bound")])
@pytest.mark.parametrize("ns", range(296, 304))  # every residue of ns % 8
def test_two_thread_kmm_is_byte_identical_to_the_plain_loop(ns, eps, monkeypatch):
    # the pipeline's shape: one kernel over the sample, its leading rows the source, as a view
    kernel = SplitKernel(10.0, gen_triangles(200, 200, seed=ns).X)
    source = np.arange(ns)
    monkeypatch.setattr(kernels, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    # solve_kmm, or at another slack its descent on the same view of the kernel
    if eps is None:
        result = solve_kmm(kernel, None, source)
    else:
        result = _solve_raw(kernel.K, source, eps=eps)
    ref_beta, ref_trace = kmm_descent_reference(*_descent_args(kernel.K, source, eps=eps))
    assert result.beta.tobytes() == ref_beta.tobytes()
    assert result.trace.tobytes() == (ref_trace + kernel.row_sums.sum() / kernel.n**2).tobytes()
    assert result.trace.size >= 10
    assert len(started) == result.trace.size  # the first product and one per step, each split
    for thread in started:
        thread.join(timeout=10)
        assert not thread.is_alive()


def _python(code, **env):
    """Run code in a fresh interpreter that imports this pgpu; return its stdout words."""
    src = str(Path(pgpu.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, **env, "PYTHONPATH": path}, timeout=120, check=True)
    return out.stdout.split()


def test_a_product_split_at_a_multiple_of_four_rows_keeps_every_bit():
    # The property of BLAS the two-thread KMM steps rely on, for source blocks
    # that are row-major, contiguous or the leading block of a kernel matrix. It
    # is one of the single-threaded product: a threaded BLAS splits a large
    # product at its own row counts, which moves bits with or without this split.
    code = "\n".join([
        "import numpy as np",
        "from pgpu import kernels",
        "for ns in [*range(720, 728), *range(1449, 1457)]:",
        "    rng = np.random.default_rng(ns)",
        "    matrix = rng.uniform(size=(ns + 5, ns + 5))",
        "    v = rng.normal(size=ns)",
        "    h = 4 * (ns // 8)",
        "    for k_ss in (matrix[:ns, :ns], np.ascontiguousarray(matrix[:ns, :ns])):",
        "        out = np.empty(ns)",
        "        kernels._in_two([(k_ss[:h], v, out[:h]), (k_ss[h:], v, out[h:])], np.matmul)",
        "        print(ns, out.tobytes() == (k_ss @ v).tobytes())",
    ])
    words = _python(code, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    assert len(words) == 64
    assert [ns for ns, same in zip(words[::2], words[1::2]) if same != "True"] == []


def test_sorted_distinct_is_unique_to_the_bit():
    rng = np.random.default_rng(12)
    for size in (1, 2, 9, 200, 5000):
        v = rng.integers(-6, 7, size=size) * 0.25  # many ties
        v[rng.random(size) < 0.2] = -0.0
        v[rng.random(size) < 0.2] = 0.0
        cap = float(rng.choice([0.25, 1.0, 1.5]))
        for a in (v, np.concatenate([-v, cap - v]), rng.normal(size=size)):
            assert _sorted_distinct(a).tobytes() == np.unique(a).tobytes()


def test_a_sum_bound_kmm_solve_imports_no_numpy_ma():
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from pgpu import SplitKernel, kmm",
        "calls, clip = [], kmm._clip_to_sum",
        "kmm._clip_to_sum = lambda *a: calls.append(a) or clip(*a)",
        "X = np.random.default_rng(7).normal(size=(120, 2))",
        "K = SplitKernel(2.0, X).K",
        "before = 'numpy.ma' in sys.modules",
        "kmm._projected_descent(K[:80, :80], K.sum(axis=1)[:80], 120, 1000.0, 0.0, 5000, 1e-6)",
        "print(len(calls), before, 'numpy.ma' in sys.modules)",
    ])
    projections, before, after = _python(code)
    assert int(projections) > 0  # the sum constraint bound
    assert after == before  # numpy 1.x imports numpy.ma with numpy itself

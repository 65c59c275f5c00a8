import dataclasses
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
from pgpu import SplitKernel, gen_triangles, kernels
from pgpu import kmm as kmm_module
from pgpu.kernels import gram_matrix
from pgpu.kmm import KmmConfig, _clip_to_sum, _sorted_distinct, default_epsilon, solve_kmm


def kmm(gamma, target, source, config):
    """solve_kmm on separate target and source samples: one kernel over both, stacked."""
    target = np.atleast_2d(target)
    n_t = target.shape[0]
    pool = SplitKernel(gamma, np.vstack([target, source]))
    return solve_kmm(pool, np.arange(n_t), np.arange(n_t, pool.n), config)


def test_config_validation():
    with pytest.raises(ValueError):
        KmmConfig(upper_bound_B=0.5)
    with pytest.raises(ValueError):
        KmmConfig(epsilon=1.0)
    with pytest.raises(ValueError):
        KmmConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        KmmConfig(max_iters=0)
    with pytest.raises(ValueError):
        KmmConfig(tol=0.0)


def test_default_epsilon_formula():
    assert default_epsilon(4) == pytest.approx(0.5)
    assert default_epsilon(100) == pytest.approx(0.9)


def test_identical_source_and_target_keeps_unit_weights():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(8, 2))
    result = kmm(0.5, pts, pts, KmmConfig())
    assert result.trace[-1] <= 1e-6
    assert np.abs(result.beta - 1.0).mean() <= 0.05


def test_reported_objective_matches_direct_recomputation():
    rng = np.random.default_rng(2)
    target = rng.normal(size=(9, 2))
    source = rng.normal(size=(5, 2))
    result = kmm(0.7, target, source, KmmConfig())
    direct = kmm_objective_direct(0.7, target, source, result.beta)
    assert result.trace[-1] == pytest.approx(direct, abs=1e-10)


def test_four_point_instance_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    target = rng.uniform(-1, 1, size=(5, 2))
    source = rng.uniform(-1, 1, size=(4, 2))
    config = KmmConfig(upper_bound_B=1.0, epsilon=0.3, tol=1e-10, max_iters=20000)
    result = kmm(1.0, target, source, config)
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
        config = KmmConfig(upper_bound_B=cap, epsilon=eps)
        target = rng.normal(size=(n_t, d))
        source = rng.normal(size=(n_s, d))
        result = kmm(1.0 / d, target, source, config)
        assert np.all(result.beta >= -1e-12)
        assert np.all(result.beta <= cap + 1e-12)
        assert abs(result.beta.mean() - 1.0) <= eps + 1e-9


def _descent_args(K, source, config):
    """The arguments solve_kmm passes _projected_descent for a kernel matrix K (a raw
    matrix, such as a linear Gram block, or a SplitKernel's K) with every row as the target."""
    run = kernels._as_run(source, K.shape[0])
    k_ss = K[run, run] if isinstance(run, slice) else K[np.ix_(source, source)]
    eps = config.epsilon if config.epsilon is not None else default_epsilon(source.size)
    return (k_ss, K.sum(axis=1)[source], K.shape[0], config.upper_bound_B, eps,
            config.max_iters, config.tol)


def _solve_raw(K, source, config):
    """solve_kmm's weights and trace on a raw kernel matrix K, every row the target."""
    beta, trace = kmm_module._projected_descent(*_descent_args(K, source, config))
    return beta, trace + K.sum(axis=1).sum() / K.shape[0] ** 2


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
    config = KmmConfig(upper_bound_B=cap, epsilon=eps, max_iters=100_000)
    if kind == "indefinite":  # no kernel has such a Gram block; passed to the descent directly
        beta, trace = kmm_module._projected_descent(
            _indefinite(rng, ns, -1.0, 1.0), rng.uniform(0.0, 2.0, size=ns) * ns, 2 * ns,
            cap, eps, config.max_iters, config.tol)
    else:
        if kind == "rank-deficient":  # a linear block of rank at most 2, rows repeated
            X = np.repeat(rng.normal(size=(int(rng.integers(1, 4)), 3)), 2 * ns, axis=0)
            X = X[rng.permutation(X.shape[0])]
        else:
            X = rng.normal(size=(2 * ns, 2))
        gamma = float(rng.choice([0.5, 2.0, 10.0]))
        source = np.sort(rng.choice(X.shape[0], ns, replace=False))
        if kind == "rbf":
            result = solve_kmm(SplitKernel(gamma, X), None, source, config)
            beta, trace = result.beta, result.trace
        else:  # a linear Gram block, passed to the descent as a raw matrix
            beta, trace = _solve_raw(X @ X.T, source, config)
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
            _solve_raw(K, np.arange(2), KmmConfig())


def test_oversampled_region_gets_downweighted():
    target = np.linspace(0.0, 1.0, 60)[:, None]
    extra = target[target[:, 0] < 0.3]
    source = np.vstack([target, extra])  # doubles the density below 0.3
    result = kmm(10.0, target, source, KmmConfig(upper_bound_B=10.0, epsilon=0.5))
    inside = source[:, 0] < 0.3
    assert result.beta[inside].mean() < result.beta[~inside].mean()


def test_iteration_cap_raises_without_a_ridge_retry(monkeypatch):
    rng = np.random.default_rng(6)
    target = rng.normal(size=(60, 2))
    source = target[target[:, 0] > -0.2]  # a biased subsample, so the weights must move
    assert kmm(1.0, target, source, KmmConfig()).trace.size > 2  # needs more than one step

    calls = []
    descent = kmm_module._projected_descent
    monkeypatch.setattr(kmm_module, "_projected_descent",
                        lambda *args: calls.append(args) or descent(*args))
    with pytest.raises(RuntimeError, match="max_iters=1"):
        kmm(1.0, target, source, KmmConfig(max_iters=1))
    assert len(calls) == 1  # no second solve


def test_input_validation():
    pool = SplitKernel(1.0, np.ones((3, 2)))
    with pytest.raises(ValueError, match="nonempty"):
        solve_kmm(pool, np.arange(0), np.arange(3), KmmConfig())
    with pytest.raises(ValueError, match="nonempty"):
        solve_kmm(pool, None, np.arange(0), KmmConfig())


def test_solve_kmm_rejects_out_of_range_indices():
    # numpy would wrap a negative index to a row from the end
    pool = SplitKernel(1.0, np.random.default_rng(0).normal(size=(5, 2)))
    for bad in ([0, 5], [-1, 2], [3, 4, 5]):  # past the end, negative, a run past the end
        with pytest.raises(IndexError, match="out of range"):
            solve_kmm(pool, None, bad, KmmConfig())
        with pytest.raises(IndexError, match="out of range"):
            solve_kmm(pool, bad, [0, 1], KmmConfig())


@pytest.mark.parametrize("source_first", [False, True])
def test_sliced_target_kernel_on_triangles_matches_direct_objective(source_first):
    # the pipeline's shape: the source is a subset of the target, and every
    # kernel value solve_kmm uses is a slice of the target's kernel
    X = gen_triangles(100, 100, seed=4).X
    rng = np.random.default_rng(5)
    source = np.sort(rng.choice(X.shape[0], 150, replace=False))
    gamma = 10.0
    config = KmmConfig()
    if source_first:  # the source block is then a view of the kernel
        rest = np.setdiff1d(np.arange(X.shape[0]), source)
        result = solve_kmm(SplitKernel(gamma, X[np.concatenate([source, rest])]),
                           None, np.arange(source.size), config)
    else:
        result = solve_kmm(SplitKernel(gamma, X), None, source, config)
    direct = kmm_objective_direct(gamma, X, X[source], result.beta)
    assert abs(result.trace[-1] - direct) <= 1e-8
    eps = default_epsilon(source.size)
    assert np.all(result.beta >= 0.0)
    assert np.all(result.beta <= config.upper_bound_B)
    assert abs(result.beta.mean() - 1.0) <= eps + 1e-12


def _qp_problem(i):
    """Problem i of a fixed set in the pipeline's shape: the source is a biased
    subsample of a sample of 40-200 points, and the target is the whole sample.
    The nine problems cover every box B and slack epsilon, alternating rbf kernels, which
    solve_kmm solves, and linear Gram blocks, whose descent runs on the raw matrix."""
    rng = np.random.default_rng(i)
    gamma = float(rng.choice([0.5, 2.0, 10.0]))
    X = rng.normal(size=(int(rng.integers(40, 201)), 2))
    source = np.flatnonzero(X[:, 0] + 0.5 * rng.normal(size=X.shape[0]) > -0.3)
    config = KmmConfig(upper_bound_B=(1.5, 5.0, 1000.0)[i % 3], epsilon=(0.05, 0.3, None)[i // 3])
    if i % 2:
        K = X @ X.T

        def solve(cfg):
            return _solve_raw(K, source, cfg)
    else:
        K = np.exp(-gamma * ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))

        def solve(cfg):
            result = solve_kmm(SplitKernel(gamma, X), None, source, cfg)
            return result.beta, result.trace
    eps = config.epsilon if config.epsilon is not None else default_epsilon(source.size)
    _, optimum = kmm_qp_scipy(K, source, config.upper_bound_B, eps)
    return solve, source, config, optimum


@pytest.mark.parametrize("i", range(9))
def test_kmm_is_feasible_and_approaches_the_qp_optimum(i):
    pytest.importorskip("scipy")
    solve, source, config, optimum = _qp_problem(i)
    eps = config.epsilon if config.epsilon is not None else default_epsilon(source.size)
    tight = dataclasses.replace(config, tol=1e-12, max_iters=200_000)
    for cfg in (config, tight):
        try:
            beta, trace = solve(cfg)
        except RuntimeError as exc:
            assert cfg is tight and "max_iters=200000" in str(exc)
            continue
        assert beta.min() >= 0.0 and beta.max() <= cfg.upper_bound_B
        assert abs(beta.mean() - 1.0) <= eps + 1e-12
        assert trace[-1] >= optimum - 1e-10
        if cfg is tight:  # the linear kernels' optimum is 0 up to rounding
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
    _, optimum = kmm_qp_scipy(K, source, 1000.0, default_epsilon(80))
    result = solve_kmm(SplitKernel(10.0, X), None, source, KmmConfig())
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


@pytest.mark.parametrize("kind, config", [
    pytest.param("rbf", KmmConfig(), id="rbf"),
    pytest.param("linear", KmmConfig(), id="linear"),
    pytest.param("rbf", KmmConfig(epsilon=0.0), id="sum-bound"),
    pytest.param("rbf", KmmConfig(upper_bound_B=1.5), id="box-bound"),
    pytest.param("repeated", KmmConfig(epsilon=0.5), id="short-step"),
])
def test_descent_is_byte_identical_to_the_plain_loop(kind, config, monkeypatch):
    problem = _repeated_point_problem() if kind == "repeated" else _biased_problem(kind)
    args = _descent_args(*problem, config)
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
    assert (projected == steps) == (config.epsilon == 0.0)
    assert (beta.max() == 1.5) == (config.upper_bound_B == 1.5)


@pytest.mark.parametrize("config", [pytest.param(KmmConfig(), id="default"),
                                    pytest.param(KmmConfig(epsilon=0.0), id="sum-bound")])
@pytest.mark.parametrize("ns", range(296, 304))  # every residue of ns % 8
def test_two_thread_kmm_is_byte_identical_to_the_plain_loop(ns, config, monkeypatch):
    # the pipeline's shape: one kernel over the sample, its leading rows the source, as a view
    kernel = SplitKernel(10.0, gen_triangles(200, 200, seed=ns).X)
    source = np.arange(ns)
    monkeypatch.setattr(kernels, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    result = solve_kmm(kernel, None, source, config)
    ref_beta, ref_trace = kmm_descent_reference(*_descent_args(kernel.K, source, config))
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
        "before = 'numpy.ma' in sys.modules",
        "kmm.solve_kmm(SplitKernel(2.0, X), None, np.arange(80),",
        "              kmm.KmmConfig(epsilon=0.0))",
        "print(len(calls), before, 'numpy.ma' in sys.modules)",
    ])
    projections, before, after = _python(code)
    assert int(projections) > 0  # the sum constraint bound
    assert after == before  # numpy 1.x imports numpy.ma with numpy itself

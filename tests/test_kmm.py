import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import kmm_brute_force_min, kmm_objective_direct, kmm_qp_scipy
from pgpu import KernelSpec, KmmConfig, SplitKernel, gen_triangles
from pgpu import kmm as kmm_module
from pgpu.kmm import _clip_to_sum, default_epsilon, solve_kmm


def kmm(spec, target, source, config):
    """solve_kmm on separate target and source samples: one kernel over both, stacked."""
    target = np.atleast_2d(target)
    n_t = target.shape[0]
    pool = SplitKernel(spec, np.vstack([target, source]))
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
    result = kmm(KernelSpec("rbf", 0.5), pts, pts, KmmConfig())
    assert result.trace[-1] <= 1e-6
    assert np.abs(result.beta - 1.0).mean() <= 0.05


def test_reported_objective_matches_direct_recomputation():
    rng = np.random.default_rng(2)
    target = rng.normal(size=(9, 2))
    source = rng.normal(size=(5, 2))
    result = kmm(KernelSpec("rbf", 0.7), target, source, KmmConfig())
    direct = kmm_objective_direct(0.7, target, source, result.beta)
    assert result.trace[-1] == pytest.approx(direct, abs=1e-10)


def test_four_point_instance_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    target = rng.uniform(-1, 1, size=(5, 2))
    source = rng.uniform(-1, 1, size=(4, 2))
    config = KmmConfig(upper_bound_B=1.0, epsilon=0.3, tol=1e-10, max_iters=20000)
    result = kmm(KernelSpec("rbf", 1.0), target, source, config)
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
        result = kmm(KernelSpec("rbf", 1.0 / d), target, source, config)
        assert np.all(result.beta >= -1e-12)
        assert np.all(result.beta <= cap + 1e-12)
        assert abs(result.beta.mean() - 1.0) <= eps + 1e-9


def test_objective_trace_never_increases():
    rng = np.random.default_rng(5)
    target = rng.normal(size=(40, 2))
    source = rng.normal(loc=0.5, size=(25, 2))
    result = kmm(KernelSpec("rbf", 2.0), target, source, KmmConfig(epsilon=0.3))
    assert np.all(np.diff(result.trace) <= 1e-12)
    assert len(result.trace) >= 2


def test_oversampled_region_gets_downweighted():
    target = np.linspace(0.0, 1.0, 60)[:, None]
    extra = target[target[:, 0] < 0.3]
    source = np.vstack([target, extra])  # doubles the density below 0.3
    result = kmm(
        KernelSpec("rbf", 10.0), target, source, KmmConfig(upper_bound_B=10.0, epsilon=0.5)
    )
    inside = source[:, 0] < 0.3
    assert result.beta[inside].mean() < result.beta[~inside].mean()


def test_iteration_cap_raises_without_a_ridge_retry(monkeypatch):
    rng = np.random.default_rng(6)
    target = rng.normal(size=(60, 2))
    source = target[target[:, 0] > -0.2]  # a biased subsample, so the weights must move
    spec = KernelSpec("rbf", 1.0)
    assert kmm(spec, target, source, KmmConfig()).trace.size > 2  # needs more than one step

    ridges = []
    descent = kmm_module._projected_descent

    def recording(*args, ridge=0.0):
        ridges.append(ridge)
        return descent(*args, ridge=ridge)

    monkeypatch.setattr(kmm_module, "_projected_descent", recording)
    with pytest.raises(RuntimeError, match="max_iters=1"):
        kmm(spec, target, source, KmmConfig(max_iters=1))
    assert ridges == [0.0]  # no retry with a ridge


def test_input_validation():
    pool = SplitKernel(KernelSpec("linear"), np.ones((3, 2)))
    with pytest.raises(ValueError, match="nonempty"):
        solve_kmm(pool, np.arange(0), np.arange(3), KmmConfig())
    with pytest.raises(ValueError, match="nonempty"):
        solve_kmm(pool, None, np.arange(0), KmmConfig())


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
        result = solve_kmm(SplitKernel(KernelSpec("rbf", gamma), X[np.concatenate([source, rest])]),
                           None, np.arange(source.size), config)
    else:
        result = solve_kmm(SplitKernel(KernelSpec("rbf", gamma), X), None, source, config)
    direct = kmm_objective_direct(gamma, X, X[source], result.beta)
    assert abs(result.trace[-1] - direct) <= 1e-8
    eps = default_epsilon(source.size)
    assert np.all(result.beta >= 0.0)
    assert np.all(result.beta <= config.upper_bound_B)
    assert abs(result.beta.mean() - 1.0) <= eps + 1e-12


def _qp_problem(i):
    """Problem i of a fixed set in the pipeline's shape: the source is a biased
    subsample of a sample of 40-200 points, and the target is the whole sample.
    The nine problems cover every box B and slack epsilon, alternating kernels."""
    rng = np.random.default_rng(i)
    spec = KernelSpec(("rbf", "linear")[i % 2], float(rng.choice([0.5, 2.0, 10.0])))
    X = rng.normal(size=(int(rng.integers(40, 201)), 2))
    source = np.flatnonzero(X[:, 0] + 0.5 * rng.normal(size=X.shape[0]) > -0.3)
    config = KmmConfig(upper_bound_B=(1.5, 5.0, 1000.0)[i % 3], epsilon=(0.05, 0.3, None)[i // 3])
    if spec.kind == "linear":
        K = X @ X.T
    else:
        K = np.exp(-spec.gamma * ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    eps = config.epsilon if config.epsilon is not None else default_epsilon(source.size)
    _, optimum = kmm_qp_scipy(K, source, config.upper_bound_B, eps)
    return SplitKernel(spec, X), source, config, optimum


@pytest.mark.parametrize("i", range(9))
def test_kmm_is_feasible_and_approaches_the_qp_optimum(i):
    pytest.importorskip("scipy")
    kernel, source, config, optimum = _qp_problem(i)
    eps = config.epsilon if config.epsilon is not None else default_epsilon(source.size)
    tight = dataclasses.replace(config, tol=1e-12, max_iters=200_000)
    for cfg in (config, tight):
        try:
            result = solve_kmm(kernel, None, source, cfg)
        except RuntimeError as exc:
            assert cfg is tight and "max_iters=200000" in str(exc)
            continue
        assert result.beta.min() >= 0.0 and result.beta.max() <= cfg.upper_bound_B
        assert abs(result.beta.mean() - 1.0) <= eps + 1e-12
        assert result.trace[-1] >= optimum - 1e-10
        if cfg is tight:  # the linear kernels' optimum is 0 up to rounding
            assert result.trace[-1] - optimum <= 1e-3 * optimum + 1e-10


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
    result = solve_kmm(SplitKernel(KernelSpec("rbf", 10.0), X), None, source, KmmConfig())
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

import numpy as np
import pytest

from _oracles import kmm_brute_force_min, kmm_objective_direct
from pgpu import KernelSpec, KmmConfig, SplitKernel, gen_triangles
from pgpu import kmm as kmm_module
from pgpu.kmm import default_epsilon, solve_kmm


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

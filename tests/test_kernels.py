import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import gram_direct, gram_reference
from pgpu import KernelSpec, SplitKernel, default_kernel
from pgpu import kernels
from pgpu.kernels import gram_matrix

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def _pair(spec, x, z):
    """The kernel on one pair of feature vectors, as a 1x1 Gram matrix."""
    return gram_matrix(spec, np.array([x], dtype=float), np.array([z], dtype=float))[0, 0]


def test_rbf_same_point_is_one():
    spec = KernelSpec("rbf", 1.0)
    assert _pair(spec, [0.3, -0.7], [0.3, -0.7]) == 1.0


def test_linear_dot_product():
    assert _pair(KernelSpec("linear"), [1.0, 2.0], [3.0, 4.0]) == 11.0


def test_rbf_hand_computed():
    # exp(-0.5 * ||(0,0)-(2,0)||^2) = exp(-2)
    got = _pair(KernelSpec("rbf", 0.5), [0.0, 0.0], [2.0, 0.0])
    assert got == pytest.approx(math.exp(-2.0), abs=1e-12)
    assert got == pytest.approx(0.1353352832366127, abs=1e-12)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        gram_matrix(KernelSpec("rbf", 1.0), np.ones((1, 2)), np.ones((1, 3)))
    with pytest.raises(ValueError):
        gram_matrix(KernelSpec("linear"), np.ones((3, 2)), np.ones((3, 4)))


def test_rbf_requires_positive_gamma():
    with pytest.raises(ValueError):
        KernelSpec("rbf", 0.0)
    with pytest.raises(ValueError):
        KernelSpec("rbf", -1.0)
    with pytest.raises(ValueError, match="finite gamma"):
        KernelSpec("rbf", float("inf"))  # its Gram diagonal would be 0 * -inf = NaN
    with pytest.raises(ValueError):
        KernelSpec("sigmoid", 1.0)


def test_default_kernel_is_inverse_dimension():
    spec = default_kernel(4)
    assert spec.kind == "rbf"
    assert spec.gamma == pytest.approx(0.25)


@given(st.lists(finite_floats, min_size=1, max_size=6), st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_symmetric(xs, data):
    zs = data.draw(st.lists(finite_floats, min_size=len(xs), max_size=len(xs)))
    for spec in (KernelSpec("linear"), KernelSpec("rbf", 0.7)):
        assert _pair(spec, xs, zs) == _pair(spec, zs, xs)


def test_gram_identical_points_all_ones():
    X = np.tile([0.4, -1.2], (2, 1))
    G = gram_matrix(KernelSpec("rbf", 2.0), X, X)
    assert np.array_equal(G, np.ones((2, 2)))


def test_gram_symmetric_for_random_sample():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7, 3))
    for spec in (KernelSpec("linear"), KernelSpec("rbf", 0.5)):
        G = gram_matrix(spec, X, X)
        assert np.array_equal(G, G.T)


def test_gram_cross_matches_direct():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(4, 2))
    Z = rng.normal(size=(3, 2))
    G = gram_matrix(KernelSpec("rbf", 0.8), X, Z)
    assert np.abs(G - gram_direct(0.8, X, Z)).max() <= 1e-12


def test_gram_psd_five_points():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(5, 2))
    G = gram_matrix(KernelSpec("rbf", 1.0), X, X)
    assert np.linalg.eigvalsh(G).min() >= -1e-9


@given(st.integers(min_value=1, max_value=20), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_gram_psd_up_to_twenty_points(n, seed):
    X = np.random.default_rng(seed).uniform(-3, 3, size=(n, 2))
    for spec in (KernelSpec("linear"), KernelSpec("rbf", 0.9)):
        G = gram_matrix(spec, X, X)
        assert np.linalg.eigvalsh(G).min() >= -1e-8


def test_gram_rejects_empty():
    with pytest.raises(ValueError):
        gram_matrix(KernelSpec("linear"), np.empty((0, 2)), np.ones((2, 2)))


def _index_sets(n):
    """Random index sets (repeats allowed), consecutive runs (which slice as views), or None (all)."""
    runs = st.integers(0, n - 1).flatmap(
        lambda start: st.integers(start + 1, n).map(lambda stop: list(range(start, stop))))
    return st.one_of(st.none(), runs, st.lists(st.integers(0, n - 1), min_size=1, max_size=n))


@given(st.integers(1, 60), st.integers(1, 5), st.integers(0, 10_000), st.data())
@settings(max_examples=80, deadline=None)
def test_split_kernel_blocks_equal_recomputation(n, d, seed, data):
    X = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n, d))
    a = data.draw(_index_sets(n))
    b = data.draw(_index_sets(n))
    ia = np.arange(n) if a is None else np.array(a)
    ib = np.arange(n) if b is None else np.array(b)
    for spec in (KernelSpec("linear"), KernelSpec("rbf", 0.7)):
        split = SplitKernel(spec, X)
        expected = X[ia] @ X[ib].T if spec.kind == "linear" else gram_direct(0.7, X[ia], X[ib])
        got = split.block(a, b)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-12
        diagonal = split.block(a, a)
        assert np.array_equal(diagonal, diagonal.T)


def test_mapped_matrices_equal_heap_ones(monkeypatch):
    # matrices of 4 MiB and more live in mappings of their own; here every one does
    X = np.random.default_rng(5).normal(size=(300, 2))
    spec = KernelSpec("rbf", 0.5)
    rng = np.random.default_rng(6)
    subset = np.sort(rng.choice(300, 170, replace=False))
    repeats = rng.integers(0, 300, size=90)
    pairs = [(subset, subset), (repeats, subset), (None, subset), (subset, None),
             (np.arange(40, 80), repeats)]
    heap = SplitKernel(spec, X)
    expected = [heap.block(a, b) for a, b in pairs]
    monkeypatch.setattr(kernels, "_MAPPED_BYTES", 1)
    mapped = SplitKernel(spec, X)
    assert heap.K.flags.owndata and not mapped.K.flags.owndata
    assert np.array_equal(mapped.K, heap.K)
    for (a, b), want in zip(pairs, expected):
        got = mapped.block(a, b)
        assert not got.flags.owndata
        assert np.array_equal(got, want)
        # the same memory layout, so products with the block sum in the same order
        assert got.flags.f_contiguous == want.flags.f_contiguous
        v = rng.normal(size=got.shape[1])
        assert np.array_equal(got @ v, want @ v)


def test_block_rejects_out_of_range_indices():
    split = SplitKernel(KernelSpec("linear"), np.ones((5, 2)))
    for bad in ([0, 5], [-1, 2]):
        with pytest.raises(IndexError):
            split.block(bad, [0, 1])
        with pytest.raises(IndexError):
            split.block(None, bad)


def test_gram_symmetric_across_blocks():
    # more rows than one block, so the mirrored off-diagonal blocks are exercised
    X = np.random.default_rng(3).normal(size=(600, 2))
    for spec in (KernelSpec("linear"), KernelSpec("rbf", 0.5)):
        G = gram_matrix(spec, X, X)
        assert np.array_equal(G, G.T)
        assert np.abs(G - gram_matrix(spec, X, X.copy())).max() <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["rbf", "linear"])
def test_split_kernel_rejects_non_finite_features(kind, bad):
    X = np.zeros((4, 2))
    X[2, 1] = bad
    with pytest.raises(ValueError, match="features must be finite: data row 2, x2"):
        SplitKernel(KernelSpec(kind, 0.5), X)


def _gram_cases(n, d):
    """Features at three scales, with repeated rows; each kernel once with the
    same array object (mirrored blocks) and once against other rows."""
    rng = np.random.default_rng(1000 * n + d)
    for scale in (1e-3, 1.0, 1e3):
        X = rng.normal(size=(n, d)) * scale
        X[n // 2] = X[0]  # repeated rows cancel in the norm expansion; the threshold zeroes them
        X[-1] = X[n // 3]
        Z = np.vstack([X[::3], rng.normal(size=(n // 2 + 5, d)) * scale])
        for spec in KernelSpec("rbf", 1.0 / d), KernelSpec("rbf", 20.0 / d), KernelSpec("linear"):
            yield spec, X, X
            yield spec, X, Z


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 255, 256, 257, 600, 1500])
def test_gram_bytes_equal_the_in_place_reference(n, d):
    for spec, X, Z in _gram_cases(n, d):
        got = gram_matrix(spec, X, Z)
        assert got.tobytes() == gram_reference(spec, X, Z).tobytes()
        if Z is X:
            assert np.array_equal(got, got.T)
            if spec.kind == "rbf" and n > 2:
                assert got[0, n // 2] == got[n // 2, 0] == 1.0


def test_mapped_gram_bytes_equal_the_reference(monkeypatch):
    monkeypatch.setattr(kernels, "_MAPPED_BYTES", 1)
    for spec, X, Z in _gram_cases(600, 2):
        got = gram_matrix(spec, X, Z)
        assert not got.flags.owndata
        assert got.tobytes() == gram_reference(spec, X, Z).tobytes()


def _count_threads(monkeypatch):
    """A list that grows by one for every thread started from now on."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    return started


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 255, 257, 600])
def test_two_thread_gram_bytes_equal_the_reference(n, d, monkeypatch):
    monkeypatch.setattr(kernels, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = _count_threads(monkeypatch)
    for spec, X, Z in _gram_cases(n, d):
        got = gram_matrix(spec, X, Z)
        assert got.tobytes() == gram_reference(spec, X, Z).tobytes()
        if Z is X:
            assert np.array_equal(got, got.T)
    assert (len(started) > 0) == (n > 256)  # a matrix of one block is not split
    for thread in started:
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_in_two_raises_the_helpers_exception_after_joining_it():
    seen = []

    def work(name):
        seen.append(threading.current_thread())
        if name == "helper":
            time.sleep(0.05)
            raise ValueError("from the helper")

    with pytest.raises(ValueError, match="from the helper"):
        kernels._in_two([("caller",), ("helper",)], work)
    assert len(seen) == 2 and threading.current_thread() in seen
    helper = next(t for t in seen if t is not threading.current_thread())
    helper.join(timeout=10)
    assert not helper.is_alive()


def test_in_two_joins_the_helper_when_the_caller_raises():
    finished = []

    def work(name):
        if name == "caller":
            raise KeyError("caller")
        time.sleep(0.05)  # still running when the caller's part raises
        finished.append(threading.current_thread())

    with pytest.raises(KeyError):
        kernels._in_two([("caller",), ("helper",)], work)
    assert len(finished) == 1  # the helper ran to its end before the exception left _in_two
    finished[0].join(timeout=10)
    assert not finished[0].is_alive()


def test_two_thread_gram_is_stable_under_frequent_thread_switches(monkeypatch):
    monkeypatch.setattr(kernels, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    X = np.random.default_rng(8).normal(size=(700, 3))
    spec = KernelSpec("rbf", 0.4)
    want = gram_reference(spec, X, X).tobytes()
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline, runs = time.monotonic() + 2.0, 0
        while runs < 3 or (runs < 40 and time.monotonic() < deadline):
            assert gram_matrix(spec, X, X).tobytes() == want
            assert gram_matrix(spec, X, X[::-1]).tobytes() == gram_reference(spec, X, X[::-1]).tobytes()
            runs += 1
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads  # no helper outlives its call


def test_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(kernels, "_SPLIT_BYTES", 1)
    X = np.random.default_rng(9).normal(size=(600, 2))
    spec = KernelSpec("rbf", 0.5)
    want = gram_reference(spec, X, X).tobytes()
    started = _count_threads(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert gram_matrix(spec, X, X).tobytes() == want
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # where only cpu_count exists
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert gram_matrix(spec, X, X).tobytes() == want
    assert started == []
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert gram_matrix(spec, X, X).tobytes() == want
    assert len(started) == 1
    started[0].join(timeout=10)
    assert not started[0].is_alive()

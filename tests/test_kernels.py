import math
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import gram_direct, gram_reference
from pgpu import SplitKernel
from pgpu import kernels
from pgpu.kernels import gram_matrix

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def _pair(gamma, x, z):
    """The kernel on one pair of feature vectors, as a 1x1 Gram matrix."""
    return gram_matrix(gamma, np.array([x], dtype=float), np.array([z], dtype=float))[0, 0]


def test_rbf_same_point_is_one():
    assert _pair(1.0, [0.3, -0.7], [0.3, -0.7]) == 1.0


def test_rbf_hand_computed():
    # exp(-0.5 * ||(0,0)-(2,0)||^2) = exp(-2)
    got = _pair(0.5, [0.0, 0.0], [2.0, 0.0])
    assert got == pytest.approx(math.exp(-2.0), abs=1e-12)
    assert got == pytest.approx(0.1353352832366127, abs=1e-12)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimension mismatch"):
        gram_matrix(1.0, np.ones((1, 2)), np.ones((1, 3)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        gram_matrix(0.5, np.ones((3, 2)), np.ones((3, 4)))


def test_rbf_requires_positive_gamma():
    for gamma in (0.0, -1.0, math.inf, math.nan):  # inf: the Gram diagonal would be 0 * -inf = NaN
        with pytest.raises(ValueError, match="finite gamma > 0"):
            gram_matrix(gamma, np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="finite gamma > 0"):
            SplitKernel(gamma, np.ones((2, 2)))


@given(st.lists(finite_floats, min_size=1, max_size=6), st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_symmetric(xs, data):
    zs = data.draw(st.lists(finite_floats, min_size=len(xs), max_size=len(xs)))
    assert _pair(0.7, xs, zs) == _pair(0.7, zs, xs)


def test_gram_names_a_row_whose_squared_norms_overflow():
    X = np.ones((5, 2))
    X[3] = [1e160, 0.0]  # finite, but its square is not
    with pytest.raises(ValueError, match="too large for the rbf kernel: row 3 of X has "
                                         "squared norm inf$"):
        gram_matrix(0.5, X, X)
    with pytest.raises(ValueError, match="row 3 of Z has squared norm inf$"):
        gram_matrix(0.5, np.ones((2, 2)), X)
    X[3] = [1e154, 0.0]  # a finite square, 1e308, but two of them overflow a distance
    with pytest.raises(ValueError, match="row 3 of X has squared norm 1e\\+308$"):
        gram_matrix(0.5, X, X)
    assert np.isfinite(gram_matrix(0.5, np.ones((2, 2)), X)).all()


def test_gram_identical_points_all_ones():
    X = np.tile([0.4, -1.2], (2, 1))
    G = gram_matrix(2.0, X, X)
    assert np.array_equal(G, np.ones((2, 2)))


def test_gram_symmetric_for_random_sample():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7, 3))
    G = gram_matrix(0.5, X, X)
    assert np.array_equal(G, G.T)


def test_gram_cross_matches_direct():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(4, 2))
    Z = rng.normal(size=(3, 2))
    G = gram_matrix(0.8, X, Z)
    assert np.abs(G - gram_direct(0.8, X, Z)).max() <= 1e-12


def test_gram_psd_five_points():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(5, 2))
    G = gram_matrix(1.0, X, X)
    assert np.linalg.eigvalsh(G).min() >= -1e-9


@given(st.integers(min_value=1, max_value=20), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_gram_psd_up_to_twenty_points(n, seed):
    X = np.random.default_rng(seed).uniform(-3, 3, size=(n, 2))
    G = gram_matrix(0.9, X, X)
    assert np.linalg.eigvalsh(G).min() >= -1e-8


def test_gram_rejects_empty():
    with pytest.raises(ValueError):
        gram_matrix(1.0, np.empty((0, 2)), np.ones((2, 2)))


@given(st.integers(1, 60), st.integers(1, 5), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_split_kernel_equals_recomputation(n, d, seed):
    X = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n, d))
    split = SplitKernel(0.7, X)
    assert split.gamma == 0.7 and split.n == n
    assert np.abs(split.K - gram_direct(0.7, X, X)).max() <= 1e-12
    assert np.array_equal(split.K, split.K.T)
    assert np.array_equal(split.row_sums, split.K.sum(axis=1))


def test_mapped_matrices_equal_heap_ones(monkeypatch):
    # matrices of 1 MiB and more live in mappings of their own; here every one does
    X = np.random.default_rng(5).normal(size=(300, 2))
    heap = SplitKernel(0.5, X).K  # computed on first use, so before the patch
    monkeypatch.setattr(kernels, "_MAPPED_BYTES", 1)
    mapped = SplitKernel(0.5, X).K
    assert heap.flags.owndata and not mapped.flags.owndata
    assert np.array_equal(mapped, heap)
    # views of either are laid out alike, so products with them sum in the same order
    v = np.random.default_rng(6).normal(size=170)
    assert np.array_equal(mapped[:170, :170] @ v, heap[:170, :170] @ v)


def test_a_matrix_of_a_mebibyte_gets_a_mapping_of_whole_huge_pages():
    # a 600 x 600 kernel (2.9 MB) on the heap made peak memory hang on earlier allocations
    X = np.random.default_rng(7).normal(size=(600, 2))
    K = SplitKernel(0.5, X).K
    assert not K.flags.owndata and K.flags.c_contiguous and K.shape == (600, 600)
    assert K.base.base.nbytes == 2 * kernels._HUGE_PAGE
    assert gram_matrix(0.5, X[:361], X[:362]).flags.owndata  # just under 1 MiB: the heap


def test_gram_symmetric_across_blocks():
    # more rows than one block, so the mirrored off-diagonal blocks are exercised
    X = np.random.default_rng(3).normal(size=(600, 2))
    G = gram_matrix(0.5, X, X)
    assert np.array_equal(G, G.T)
    assert np.abs(G - gram_matrix(0.5, X, X.copy())).max() <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_split_kernel_rejects_non_finite_features(bad):
    X = np.zeros((4, 2))
    X[2, 1] = bad
    with pytest.raises(ValueError, match="features must be finite: data row 2, x2"):
        SplitKernel(0.5, X)


def _gram_cases(n, d):
    """Features at three scales, with repeated rows; each pipeline bandwidth once with the
    same array object (mirrored blocks) and once against other rows."""
    rng = np.random.default_rng(1000 * n + d)
    for scale in (1e-3, 1.0, 1e3):
        X = rng.normal(size=(n, d)) * scale
        X[n // 2] = X[0]  # repeated rows cancel in the norm expansion; the threshold zeroes them
        X[-1] = X[n // 3]
        Z = np.vstack([X[::3], rng.normal(size=(n // 2 + 5, d)) * scale])
        for gamma in 1.0 / d, 20.0 / d:  # the classifier and the matching kernel
            yield gamma, X, X
            yield gamma, X, Z


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 255, 256, 257, 600, 1500])
def test_gram_bytes_equal_the_in_place_reference(n, d):
    for gamma, X, Z in _gram_cases(n, d):
        got = gram_matrix(gamma, X, Z)
        assert got.tobytes() == gram_reference(gamma, X, Z).tobytes()
        if Z is X:
            assert np.array_equal(got, got.T)
            if n > 2:
                assert got[0, n // 2] == got[n // 2, 0] == 1.0
        elif n > 2:  # Z[0] is X[0]: the one block holding a repeat is masked, cross blocks too
            assert got[0, 0] == got[n // 2, 0] == 1.0


@pytest.mark.parametrize("threads", [1, 2])
def test_a_released_mapping_holds_the_next_gram_of_its_size(threads, monkeypatch):
    if threads == 2:
        monkeypatch.setattr(kernels, "_SPLIT_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    X = np.random.default_rng(11).normal(size=(600, 2))
    released = gram_matrix(0.5, X, X)
    address = released.ctypes.data
    released[...] = np.nan  # stale bytes, which the next Gram must overwrite everywhere
    del released
    for gamma, Z in ((2.0, X), (0.5, X[::-1])):  # mirrored blocks, then cross blocks
        got = gram_matrix(gamma, X, Z)
        assert got.ctypes.data == address  # the released pages, not a fresh mapping
        assert got.tobytes() == gram_reference(gamma, X, Z).tobytes()
        del got


def test_a_live_matrix_or_view_is_never_handed_out_again():
    X = np.random.default_rng(12).normal(size=(600, 2))
    a = gram_matrix(0.5, X, X)
    want = a.tobytes()
    b = gram_matrix(2.0, X, X)
    assert not np.shares_memory(a, b) and a.tobytes() == want
    del b  # its mapping is kept for the next Gram of its size
    corner = a[:300, :300]
    want = corner.tobytes()
    del a  # the view keeps the matrix live
    c = gram_matrix(3.0, X, X)
    d = gram_matrix(4.0, X, X)
    assert not np.shares_memory(corner, c) and not np.shares_memory(corner, d)
    assert corner.tobytes() == want


def test_a_request_of_another_size_unmaps_the_kept_mapping():
    X = np.random.default_rng(13).normal(size=(600, 2))
    gram_matrix(0.5, X, X)  # released at once: its 4 MiB mapping is kept
    kept = weakref.ref(kernels._released[0])
    assert len(kept()) == 2 * kernels._HUGE_PAGE
    other = gram_matrix(0.5, X[:400], X[:400])  # 1.3 MB, in a mapping of 2 MiB
    assert kept() is None and not kernels._released  # only the live matrix is mapped
    assert other.tobytes() == gram_reference(0.5, X[:400], X[:400]).tobytes()


def test_mapped_gram_bytes_equal_the_reference(monkeypatch):
    monkeypatch.setattr(kernels, "_MAPPED_BYTES", 1)
    for gamma, X, Z in _gram_cases(600, 2):
        got = gram_matrix(gamma, X, Z)
        assert not got.flags.owndata
        assert got.tobytes() == gram_reference(gamma, X, Z).tobytes()


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
    for gamma, X, Z in _gram_cases(n, d):
        got = gram_matrix(gamma, X, Z)
        assert got.tobytes() == gram_reference(gamma, X, Z).tobytes()
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


@pytest.mark.parametrize("helper_raises", [False, True])
def test_in_two_joins_the_helper_when_the_caller_raises(helper_raises):
    finished = []

    def work(name):
        if name == "caller":
            raise KeyError("caller")
        time.sleep(0.05)  # still running when the caller's part raises
        finished.append(threading.current_thread())
        if helper_raises:
            raise ValueError("helper")

    with pytest.raises(KeyError):  # the caller's exception, not the helper's
        kernels._in_two([("caller",), ("helper",)], work)
    assert len(finished) == 1  # the helper ran to its end before the exception left _in_two
    finished[0].join(timeout=10)
    assert not finished[0].is_alive()


def test_two_thread_gram_is_stable_under_frequent_thread_switches(monkeypatch):
    monkeypatch.setattr(kernels, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    X = np.random.default_rng(8).normal(size=(700, 3))
    gamma = 0.4
    want = gram_reference(gamma, X, X).tobytes()
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline, runs = time.monotonic() + 2.0, 0
        while runs < 3 or (runs < 40 and time.monotonic() < deadline):
            assert gram_matrix(gamma, X, X).tobytes() == want
            assert gram_matrix(gamma, X, X[::-1]).tobytes() == gram_reference(gamma, X, X[::-1]).tobytes()
            runs += 1
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads  # no helper outlives its call


def test_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(kernels, "_SPLIT_BYTES", 1)
    X = np.random.default_rng(9).normal(size=(600, 2))
    gamma = 0.5
    want = gram_reference(gamma, X, X).tobytes()
    started = _count_threads(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert gram_matrix(gamma, X, X).tobytes() == want
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # where only cpu_count exists
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert gram_matrix(gamma, X, X).tobytes() == want
    assert started == []
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert gram_matrix(gamma, X, X).tobytes() == want
    assert len(started) == 1
    started[0].join(timeout=10)
    assert not started[0].is_alive()

"""The up-sweep/down-sweep scans ode._forward and ode._backward against the
per-step sweeps they replace, the prefix and suffix causality that lets a
slice of the step maps give a slice of the output bit for bit, and the
up-sweep levels of the longest maps serving a scan over any prefix."""

import numpy as np
import pytest

from robustkb.ode import _backward, _forward, _levels

from per_step import backward_per_step, forward_per_step

# Powers of two and their neighbours, where the last level of the scan
# covers all, all but one or one more than half of the rows.
SIZES = (0, 1, 2, 3, 7, 8, 9, 1023, 1024, 1025, 2000)

N = 3

# Shapes of y0 (and of each e_k): a vector, a column and a matrix.
Y_SHAPES = {"vector": (N,), "column": (N, 1), "matrix": (N, N)}


def _maps(k_steps, seed):
    """Near-identity step maps I + 0.01 X, shape (K, N, N), read-only."""
    rng = np.random.default_rng(seed)
    T = np.eye(N) + 0.01 * rng.standard_normal((k_steps, N, N))
    T.setflags(write=False)
    return T


def _close(got, want):
    assert got.shape == want.shape
    err = float(np.max(np.abs(got - want), initial=0.0))
    assert err <= 1e-12 * (1.0 + float(np.max(np.abs(want), initial=0.0))), err


def _cut_points(k_steps):
    return sorted({0, 1, k_steps // 2, k_steps - 1, k_steps} & set(range(k_steps + 1)))


@pytest.mark.parametrize("shape", sorted(Y_SHAPES))
@pytest.mark.parametrize("k_steps", SIZES)
def test_forward_scan_matches_the_per_step_sweep(k_steps, shape):
    T = _maps(k_steps, seed=k_steps)
    rng = np.random.default_rng(1000 + k_steps)
    y0 = rng.standard_normal(Y_SHAPES[shape])
    e = 0.01 * rng.standard_normal((k_steps,) + Y_SHAPES[shape])
    e.setflags(write=False)
    T_bytes, e_bytes = T.tobytes(), e.tobytes()
    for forcing in (None, e):
        got = _forward(T, y0, forcing)
        _close(got, forward_per_step(T, y0, forcing))
        assert got[0].tobytes() == y0.tobytes()
        for k in _cut_points(k_steps):
            head = _forward(T[:k], y0, None if forcing is None else forcing[:k])
            assert head.tobytes() == got[: k + 1].tobytes(), k
    # From y0 = 0 the forcing alone drives the path.
    _close(_forward(T, np.zeros_like(y0), e),
           forward_per_step(T, np.zeros_like(y0), e))
    assert T.tobytes() == T_bytes and e.tobytes() == e_bytes


def test_levels_of_a_prefix_are_prefixes_of_the_levels():
    T = _maps(max(SIZES), seed=23)
    levels = _levels(T)
    assert levels[0] is T
    assert [len(M) for M in levels] == [max(SIZES) >> l for l in range(len(levels))]
    for k_steps in SIZES:
        own = _levels(T[:k_steps])
        assert len(own) == max(1, k_steps.bit_length()), k_steps
        for l, M in enumerate(own):
            assert M.tobytes() == levels[l][: k_steps >> l].tobytes(), (k_steps, l)


@pytest.mark.parametrize("shape", sorted(Y_SHAPES))
def test_forward_on_shared_levels_matches_its_own_levels(shape):
    # One level set of the longest maps serves the scan over every prefix,
    # with and without forcing, and is not written to.
    k_full = max(SIZES)
    T = _maps(k_full, seed=23)
    levels = _levels(T)
    for M in levels:
        M.setflags(write=False)
    rng = np.random.default_rng(24)
    y0 = rng.standard_normal(Y_SHAPES[shape])
    e = 0.01 * rng.standard_normal((k_full,) + Y_SHAPES[shape])
    for k_steps in SIZES:
        for forcing in (None, e[:k_steps]):
            want = _forward(T[:k_steps], y0, forcing)
            got = _forward(T[:k_steps], y0, forcing, levels)
            assert got.tobytes() == want.tobytes(), (k_steps, forcing is None)


@pytest.mark.parametrize("last_shape", [(N,), (N, N), (2, N)])
@pytest.mark.parametrize("k_steps", SIZES)
def test_backward_scan_matches_the_per_step_sweep(k_steps, last_shape):
    T = _maps(k_steps, seed=7 + k_steps)
    T_bytes = T.tobytes()
    last = (np.eye(N) if last_shape == (N, N)
            else np.random.default_rng(k_steps).standard_normal(last_shape))
    got = _backward(T, last)
    _close(got, backward_per_step(T, last))
    assert got[-1].tobytes() == last.tobytes()
    for j in _cut_points(k_steps):
        assert _backward(T[j:], last).tobytes() == got[j:].tobytes(), j
    assert T.tobytes() == T_bytes


def test_scans_hold_over_a_long_horizon():
    # 2^15 + 1 contracting maps: sixteen levels, and the last map, left
    # unpaired, carries node 2^15 to the last node.
    k_steps = 2**15 + 1
    T = 0.97 * _maps(k_steps, seed=15)
    rng = np.random.default_rng(15)
    y0 = rng.standard_normal(N)
    e = 0.01 * rng.standard_normal((k_steps, N))
    got = _forward(T, y0, e)
    _close(got, forward_per_step(T, y0, e))
    for k in _cut_points(k_steps):
        assert _forward(T[:k], y0, e[:k]).tobytes() == got[: k + 1].tobytes(), k
    rows = _backward(T, np.eye(N))
    _close(rows, backward_per_step(T, np.eye(N)))
    for j in _cut_points(k_steps):
        assert _backward(T[j:], np.eye(N)).tobytes() == rows[j:].tobytes(), j

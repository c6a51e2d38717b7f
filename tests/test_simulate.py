"""Path simulation, seeding discipline and measure-change weights."""

import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

import robustkb as rk
from robustkb import (
    DimensionMismatch,
    GridMismatch,
    InvalidPathCount,
    InvalidSeed,
    ModelSchedule,
    TimeGrid,
    UnsupportedTilt,
    constant_model,
    girsanov_log_density,
    reweighted_mean,
    simulate_paths,
    validate_model,
)
from robustkb.filtering import _filter_batch
from robustkb.minimax import _mse_mc_runs
from robustkb.model import _live_terms
from robustkb.simulate import _increments, _log_density_batch, _signal_noise

import path_major


@pytest.fixture(scope="module")
def free_model():
    """Driftless unit-diffusion signal, T = 1, dt = 0.02."""
    return constant_model(0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                          horizon=1.0, n_steps=50)


def _const_theta(model, value):
    return np.full((model.n_steps, model.n), value)


# ---------------------------------------------------------------------------
# Determinism


def test_rerun_is_bitwise_identical(free_model):
    theta = _const_theta(free_model, 0.3)
    a = simulate_paths(free_model, theta, 50, master_seed=7)
    b = simulate_paths(free_model, theta, 50, master_seed=7)
    for field in ("x", "m", "dw", "dv", "log_density"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_thread_count_does_not_change_paths(free_model):
    theta = _const_theta(free_model, 0.0)
    a = simulate_paths(free_model, theta, 2500, master_seed=3, threads=1)
    b = simulate_paths(free_model, theta, 2500, master_seed=3, threads=4)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.m, b.m)


def test_split_run_matches_monolithic(free_model):
    theta = _const_theta(free_model, 0.2)
    whole = simulate_paths(free_model, theta, 10, master_seed=11)
    head = simulate_paths(free_model, theta, 4, master_seed=11)
    tail = simulate_paths(free_model, theta, 6, master_seed=11, path_offset=4)
    assert np.array_equal(whole.x, np.concatenate([head.x, tail.x]))
    assert np.array_equal(whole.dv, np.concatenate([head.dv, tail.dv]))
    assert np.array_equal(whole.log_density,
                          np.concatenate([head.log_density, tail.log_density]))
    assert head.path_offset == 0 and tail.path_offset == 4


def test_noise_streams_ignore_the_tilt(free_model):
    """Changing theta must shift the drift only, never the noise draws."""
    base = simulate_paths(free_model, _const_theta(free_model, 0.0), 20,
                          master_seed=5)
    tilted = simulate_paths(free_model, _const_theta(free_model, 0.5), 20,
                            master_seed=5)
    assert np.array_equal(base.dv, tilted.dv)
    dt = free_model.grid.dt
    assert np.max(np.abs((tilted.dw - base.dw) - 0.5 * dt)) <= 1e-12
    # With F = 0 the path difference integrates the tilt exactly.
    k = np.arange(free_model.n_steps + 1)
    want = 0.5 * dt * k
    assert np.max(np.abs((tilted.x - base.x)[:, :, 0] - want)) <= 1e-12


def test_initial_conditions(free_model):
    ens = simulate_paths(free_model, _const_theta(free_model, 0.0), 5,
                         master_seed=1)
    assert np.all(ens.x[:, 0] == 0.0)
    assert np.all(ens.m[:, 0] == 0.0)
    assert ens.n_paths == 5
    assert not ens.x.flags.writeable


def test_rejects_empty_request(free_model):
    with pytest.raises(ValueError, match="n_paths"):
        simulate_paths(free_model, _const_theta(free_model, 0.0), 0,
                       master_seed=1)
    with pytest.raises(GridMismatch, match="theta"):
        simulate_paths(free_model, np.zeros((7, 1)), 5, master_seed=1)


def _coupled_model(n_steps=6):
    """n=2, m=1, non-diagonal Q and a non-unit R."""
    F = np.array([[-0.5, 0.3], [0.0, -1.0]])
    Q = np.array([[1.5, 0.4], [0.4, 0.7]])
    return constant_model(F, np.zeros(2), np.array([[1.0, 0.5]]), np.zeros(1),
                          Q, np.array([[0.6]]), np.zeros(2),
                          horizon=n_steps * 0.05, n_steps=n_steps)


def _reference_noise(model, theta, n_paths, seed, offset):
    """dw and dv rebuilt from one NumPy generator per stream."""
    k_steps, dt = model.n_steps, model.grid.dt

    def draws(tag, width):
        return np.array([
            np.random.default_rng(np.random.SeedSequence((seed, offset + j, tag)))
            .standard_normal((k_steps, width)) for j in range(n_paths)])

    dw = (np.einsum("kij,bkj->bki", model.Q_sqrt, draws(0, model.n)) * np.sqrt(dt)
          + theta * dt)
    dv = np.einsum("kij,bkj->bki", model.R_chol, draws(1, model.m)) * np.sqrt(dt)
    return dw, dv


def _assert_streams_match(seed, offset, n_paths):
    model = _coupled_model()
    theta = np.tile([0.3, -0.2], (model.n_steps, 1))
    ens = simulate_paths(model, theta, n_paths, master_seed=seed,
                         path_offset=offset)
    dw, dv = _reference_noise(model, theta, n_paths, seed, offset)
    assert np.array_equal(ens.dw, dw)
    assert np.array_equal(ens.dv, dv)


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**70 + 3])
@pytest.mark.parametrize("offset", [0, 2**32 - 3, 2**64 - 2])
def test_streams_match_numpy_seed_sequence(seed, offset):
    """Batched seeding equals one SeedSequence and generator per stream,
    across path indices that need one, two and three 32-bit words."""
    _assert_streams_match(seed, offset, 6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**80),
       offset=st.one_of(st.integers(0, 2**70),
                        st.integers(2**32 - 4, 2**32 + 4)),
       n_paths=st.integers(1, 5))
def test_streams_match_numpy_seed_sequence_random(seed, offset, n_paths):
    _assert_streams_match(seed, offset, n_paths)


def test_signal_noise_is_the_untilted_dw(free_model):
    ens = simulate_paths(free_model, _const_theta(free_model, 0.0), 7,
                         master_seed=4, path_offset=3)
    assert np.array_equal(_signal_noise(free_model, 4, 3, 7), ens.dw)


@pytest.mark.parametrize("kwargs", [
    {"master_seed": 2.5}, {"master_seed": 3.0}, {"master_seed": -1},
    {"master_seed": True}, {"master_seed": np.float64(2.0)},
    {"master_seed": "3"}, {"master_seed": 1, "path_offset": -4},
    {"master_seed": 1, "path_offset": 1.0}, {"master_seed": 1, "path_offset": False},
])
def test_invalid_seed_raises_before_allocation(free_model, kwargs):
    # 10**12 paths cannot be allocated: the seed must be refused first.
    with pytest.raises(InvalidSeed) as info:
        simulate_paths(free_model, _const_theta(free_model, 0.0), 10**12, **kwargs)
    assert isinstance(info.value, ValueError)
    assert isinstance(info.value, rk.RobustKBError)


def test_numpy_integer_seeds_are_accepted(free_model):
    theta = _const_theta(free_model, 0.0)
    a = simulate_paths(free_model, theta, 3, master_seed=np.int64(8),
                       path_offset=np.uint32(2))
    b = simulate_paths(free_model, theta, 3, master_seed=8, path_offset=2)
    assert np.array_equal(a.x, b.x)
    assert type(a.master_seed) is int and type(a.path_offset) is int


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_monte_carlo_rejects_invalid_seed(fast_model, monkeypatch, seed):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    monkeypatch.setattr(rk.minimax, "solve_riccati", no_work)
    monkeypatch.setattr(rk.minimax, "_simulate_chunk", no_work)
    theta = np.zeros((fast_model.n_steps, 1))
    with pytest.raises(InvalidSeed):
        rk.mse_monte_carlo(fast_model, theta, theta, 1.0, n_paths=10**12,
                           seed=seed)


@pytest.mark.parametrize("n_paths", [10**12, 0, -3, 2.0, True, np.float64(5), "5"])
def test_bad_path_count_raises_before_allocation(free_model, monkeypatch, n_paths):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before n_paths was checked")

    monkeypatch.setattr(rk.simulate, "_simulate_chunk", no_work)
    # A count that passed the check would reach np.empty and fail there.
    with pytest.raises(InvalidPathCount, match="n_paths") as info:
        simulate_paths(free_model, _const_theta(free_model, 0.0), n_paths,
                       master_seed=1)
    assert isinstance(info.value, ValueError)


def test_path_count_cap_is_the_ensemble_size(free_model):
    # 50 steps, n = m = 1: 8 * (101 * 2 + 1) bytes per path.
    cap = rk.simulate._MAX_ENSEMBLE_BYTES // (8 * 203)
    with pytest.raises(InvalidPathCount, match=str(cap)):
        simulate_paths(free_model, _const_theta(free_model, 0.0), cap + 1,
                       master_seed=1)
    ens = simulate_paths(free_model, _const_theta(free_model, 0.0), np.int64(3),
                         master_seed=1)
    assert ens.n_paths == 3


def test_signal_streams_reject_a_negative_seed(free_model):
    with pytest.raises(InvalidSeed):
        _signal_noise(free_model, -7, 0, 2)


# ---------------------------------------------------------------------------
# Time-major, component-major (K, d, batch) layout against the path-major loops


LAYOUT_MODELS = path_major.layout_models()


def _layout_tilt(model):
    k = np.arange(model.n_steps)[:, None]
    return 0.4 * np.cos(k + np.arange(model.n)) - 0.1


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(LAYOUT_MODELS))
@pytest.mark.parametrize("n_paths", [1, 1024, 1025, 2049])
@pytest.mark.parametrize("offset", [0, 1025])
def test_simulation_matches_the_path_major_loop(name, n_paths, offset):
    model = LAYOUT_MODELS[name]
    theta = _layout_tilt(model)
    ens = simulate_paths(model, theta, n_paths, master_seed=21, path_offset=offset)
    want = path_major.simulate(model, theta, n_paths, 21, offset)
    for field, ref in zip(("x", "m", "dw", "dv", "log_density"), want):
        assert _same_bits(getattr(ens, field), ref), field


SPLITS = {"1+rest": (1, 2048), "1024+1": (1024, 1), "1025+1024": (1025, 1024)}


def _split_parts(model, theta, counts, seed, first=0):
    """simulate_paths over consecutive runs of counts paths from index first."""
    offsets = first + np.cumsum((0,) + counts[:-1])
    return [simulate_paths(model, theta, count, master_seed=seed, path_offset=int(off))
            for off, count in zip(offsets, counts)]


def test_log_density_ignores_the_chunking():
    model = LAYOUT_MODELS["n2"]
    theta = _layout_tilt(model)
    whole = simulate_paths(model, theta, 2049, master_seed=4)
    parts = _split_parts(model, theta, (1025, 1024), 4)
    assert _same_bits(np.concatenate([p.x for p in parts]), whole.x)
    assert _same_bits(np.concatenate([p.log_density for p in parts]),
                      whole.log_density)


@pytest.mark.parametrize("name", sorted(LAYOUT_MODELS))
@pytest.mark.parametrize("split", sorted(SPLITS))
def test_split_runs_join_to_the_whole_run(name, split):
    """Every array of a path is the same whether the path runs alone, at the
    end of a chunk or in a chunk of its own."""
    model = LAYOUT_MODELS[name]
    theta = _layout_tilt(model)
    counts = SPLITS[split]
    whole = simulate_paths(model, theta, sum(counts), master_seed=13, path_offset=5)
    parts = _split_parts(model, theta, counts, 13, first=5)
    for field in ("x", "m", "dw", "dv", "log_density"):
        got = np.concatenate([getattr(p, field) for p in parts])
        assert _same_bits(got, getattr(whole, field)), field


@pytest.mark.parametrize("name", sorted(LAYOUT_MODELS))
def test_filter_matches_the_path_major_loop(name):
    model = LAYOUT_MODELS[name]
    riccati = rk.solve_riccati(model)
    ens = simulate_paths(model, _layout_tilt(model), 7, master_seed=8)
    dm = np.diff(ens.m, axis=1)
    theta_hat = -0.5 * _layout_tilt(model)
    want_x, want_i = path_major.filter_paths(model, riccati, dm, theta_hat)
    got_x, got_i = _filter_batch(model, riccati, dm, theta_hat)
    assert _same_bits(got_x, want_x) and _same_bits(got_i, want_i)
    # One path gives the bits of its row in the batch.
    run = rk.run_robust_filter(model, riccati, theta_hat, ens.m[4])
    assert _same_bits(run.xhat, got_x[4]) and _same_bits(run.innovations, got_i[4])


def test_one_scalar_path_matches_its_row_on_a_long_grid(default_model,
                                                        default_riccati):
    """One path of the bundled scenario (K = 2000) steps on Python floats;
    under a time-varying tilt it gives the bits of its row in a batch."""
    model = default_model
    theta = 0.6 * np.sin(0.01 * np.arange(model.n_steps))[:, None] - 0.2
    whole = simulate_paths(model, theta, 3, master_seed=31)
    dm = np.diff(whole.m, axis=1)
    want_x, want_i = _filter_batch(model, default_riccati, dm, -theta)
    for offset in (0, 1):
        one = simulate_paths(model, theta, 1, master_seed=31, path_offset=offset)
        for field in ("x", "m", "dw", "dv", "log_density"):
            assert _same_bits(getattr(one, field),
                              getattr(whole, field)[offset:offset + 1]), field
        run = rk.run_robust_filter(model, default_riccati, -theta, whole.m[offset])
        assert _same_bits(run.xhat, want_x[offset])
        assert _same_bits(run.innovations, want_i[offset])


def test_one_scalar_path_keeps_the_bits_of_inf_and_nan():
    """A path that overflows gives its row's bits, infinities and NaN
    payloads included, whether it runs alone or in a batch."""
    model = constant_model(900.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                           horizon=2.0, n_steps=2000)
    theta = _const_theta(model, 0.3)
    riccati = rk.solve_riccati(model)
    with np.errstate(over="ignore", invalid="ignore"):
        whole = simulate_paths(model, theta, 3, master_seed=0)
        want_x, want_i = _filter_batch(model, riccati, np.diff(whole.m, axis=1),
                                       theta)
        one = simulate_paths(model, theta, 1, master_seed=0, path_offset=1)
        got_x, got_i = _filter_batch(model, riccati, np.diff(one.m, axis=1), theta)
    assert np.isinf(one.x).sum() == 897
    assert np.isnan(got_x[0, -1, 0])
    for field in ("x", "m", "dw", "dv", "log_density"):
        assert np.array_equal(getattr(one, field).view(np.uint64),
                              getattr(whole, field)[1:2].view(np.uint64)), field
    assert np.array_equal(got_x.view(np.uint64), want_x[1:2].view(np.uint64))
    assert np.array_equal(got_i.view(np.uint64), want_i[1:2].view(np.uint64))


@pytest.mark.parametrize("d", range(1, 9))
def test_noise_increments_sum_in_einsum_order(free_model, d):
    """The multiply-adds give the bits of an explicit j-ordered loop from
    0.0, zero factor entries included, and so einsum's bits for d <= 2,
    where einsum adds in the same order.  A column or a row of the factor
    that is zero on every interval, whose terms are skipped, gives the same
    bits and no -0.0."""
    rng = np.random.default_rng(d)
    factor = rng.normal(size=(free_model.n_steps, d, d))
    factor[::3] = 0.0
    factor[1::3, :, 0] = 0.0
    xi = path_major.normals(6, 2, 9, 1, (free_model.n_steps, d))
    # _increments returns (K, d, count); compare it as (count, K, d).
    got = np.moveaxis(_increments(free_model, 6, 2, 9, 1, factor,
                                  _live_terms(factor)), -1, 0)
    assert _same_bits(got, path_major.transform(factor, xi, free_model.grid.dt))
    assert not np.signbit(got[:, ::3]).any()
    if d <= 2:
        want = (np.einsum("kij,bkj->bki", factor, xi)
                * np.sqrt(free_model.grid.dt))
        assert _same_bits(got, want)
    dead_column, dead_row = factor.copy(), factor.copy()
    dead_column[:, :, 0] = 0.0
    dead_row[:, d - 1] = 0.0
    for dead in (dead_column, dead_row):
        got = np.moveaxis(_increments(free_model, 6, 2, 9, 1, dead,
                                      _live_terms(dead)), -1, 0)
        assert _same_bits(got, path_major.transform(dead, xi, free_model.grid.dt))
        assert not np.signbit(got[got == 0.0]).any()
    assert not got[..., d - 1].any()  # the dead row's component is 0.0


def test_truncated_model_keeps_the_full_grid_noise_masks():
    """A truncated model adds the terms that are zero on its own intervals
    but live on the full grid: the same bits as the mask of the truncated
    factor, for one path and for 400."""
    n_steps, half = 40, 20
    grid = TimeGrid(1.0, n_steps)
    Q = np.tile(np.array([[1.0, 0.4, 0.2], [0.4, 2.0, 0.3], [0.2, 0.3, 1.5]]),
                (n_steps, 1, 1))
    Q[:half] = np.diag([1.0, 2.0, 0.0])
    R = np.tile(np.array([[1.0, 0.3], [0.3, 2.0]]), (n_steps, 1, 1))
    R[:half] = np.diag([1.0, 2.0])
    model = validate_model(ModelSchedule(
        F=np.tile(-np.eye(3), (n_steps, 1, 1)), f=np.zeros((n_steps, 3)),
        G=np.tile([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], (n_steps, 1, 1)),
        g=np.zeros((n_steps, 2)), Q=Q, R=R, x0=np.zeros(3)), grid)
    sub = model.truncate(half)
    for tag, factor, live in ((0, sub.Q_sqrt, sub.Q_sqrt_live),
                              (1, sub.R_chol, sub.R_chol_live)):
        own = np.any(factor != 0.0, axis=0)
        assert live is getattr(model, "Q_sqrt_live" if tag == 0 else "R_chol_live")
        # live marks every term of the truncated factor, and more.
        assert (own <= live).all() and (live & ~own).any()
        assert not live.flags.writeable
        for count in (1, 400):
            got = _increments(sub, 5, 3, count, tag, factor, live)
            want = _increments(sub, 5, 3, count, tag, factor,
                               _live_terms(factor))
            assert _same_bits(got, want), (tag, count)
            assert not np.signbit(got[got == 0.0]).any()


# With 9 paths of 50 steps, a 1-byte stage holds one path's draws and one
# step's block at a time; 1600 d bytes hold 4 paths and blocks of 11, 14 and
# 16 steps for d = 1, 2 and 3, neither a divisor; 2**40 bytes hold all 9
# paths and all 50 steps.
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("stage", ["one", "part", "all"])
def test_staged_increments_keep_their_bits(free_model, monkeypatch, d, stage):
    """Whatever the stage, the increments are the bits of the whole-array
    draws put through the j-ordered loop, dead rows and columns included."""
    monkeypatch.setattr(rk.simulate, "_STAGE_BYTES",
                        {"one": 1, "part": 1600 * d, "all": 1 << 40}[stage])
    rng = np.random.default_rng(d)
    factor = rng.normal(size=(free_model.n_steps, d, d))
    factor[::3] = 0.0
    factor[1::3, :, 0] = 0.0
    dead_column, dead_row = factor.copy(), factor.copy()
    dead_column[:, :, 0] = 0.0
    dead_row[:, d - 1] = 0.0
    xi = path_major.normals(6, 2, 9, 1, (free_model.n_steps, d))
    for f in (factor, dead_column, dead_row):
        got = np.moveaxis(_increments(free_model, 6, 2, 9, 1, f,
                                      _live_terms(f)), -1, 0)
        assert _same_bits(got, path_major.transform(f, xi, free_model.grid.dt))


@pytest.mark.parametrize("name", sorted(LAYOUT_MODELS))
@pytest.mark.parametrize("n_paths", [1, 7])
@pytest.mark.parametrize("span", [1, 5, None])
def test_staged_states_keep_their_bits(monkeypatch, name, n_paths, span):
    """simulate_paths gives the bits of the unstaged path-major loop with
    its Euler states staged one step, 5 steps (not a divisor of the 13
    states) or all K + 1 steps at a time."""
    model = LAYOUT_MODELS[name]
    monkeypatch.setattr(rk.simulate, "_STAGE_BYTES", 1 << 40 if span is None
                        else 8 * (model.n + model.m) * n_paths * span)
    theta = _layout_tilt(model)
    ens = simulate_paths(model, theta, n_paths, master_seed=21)
    want = path_major.simulate(model, theta, n_paths, 21)
    for field, ref in zip(("x", "m", "dw", "dv", "log_density"), want):
        assert _same_bits(getattr(ens, field), ref), field


def _traced_peak(call) -> int:
    """Bytes a second call() allocated at its peak, beyond what was traced
    before it; the first call makes NumPy's one-time allocations."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_noise_is_held_once(monkeypatch):
    """The traced peak of _increments is its (K, d, count) output and one
    stage, and that of an n = 3 Monte-Carlo chunk its two noise arrays and
    one stage, each with 512 KiB to spare (the seeding takes about 200 KiB):
    a whole-chunk copy of the draws, or one (K, count) product, would not
    fit.  The outputs come from np.empty here, which tracemalloc sees, and
    not from the mappings of _mapped, which it does not."""
    monkeypatch.setattr(rk.simulate, "_mapped", np.empty)
    model = path_major.layout_models(500)["n3"]
    stage, slack = rk.simulate._STAGE_BYTES, 512 << 10
    signal = 8 * model.n_steps * model.n * 1024
    peak = _traced_peak(lambda: _increments(model, 3, 0, 1024, 0, model.Q_sqrt,
                                            model.Q_sqrt_live))
    assert peak <= signal + stage + slack, peak - signal
    run = rk.minimax._MCRun(model, rk.solve_riccati(model), _layout_tilt(model),
                            np.zeros((model.n_steps, model.n)), [model.n_steps],
                            1024, 3)
    noise = signal + 8 * model.n_steps * model.m * 1024
    peak = _traced_peak(lambda: run.fill(0, 1024))
    assert peak <= noise + stage + slack, peak - noise


# ---------------------------------------------------------------------------
# No noise thread


def test_no_thread_is_started(default_cfg, monkeypatch):
    """On 4 usable CPUs at the package's process floors, long noise streams
    of simulate_paths, the Monte-Carlo MSE and check_girsanov start no
    thread, in the calling process or in a forked child: a start fails the
    call."""
    model = path_major.layout_models(1200)["n1"]  # 1200-value streams
    theta = _layout_tilt(model)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))

    def refused(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refused)
    simulate_paths(model, theta, 600, master_seed=4)
    _mse_mc_runs(model, rk.solve_riccati(model),
                 [(theta, 0.5 * theta, [1200], 600, seed) for seed in (1, 2)])
    assert rk.verification.check_girsanov(default_cfg, 3).passed


def _use_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _count_thread_starts(monkeypatch) -> list:
    """A list that gains an entry per threading.Thread started."""
    starts, start = [], threading.Thread.start

    def counted(self):
        starts.append(self)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


# (model, intervals): n = 1 with streams of 200 and 1200 values, and n = 3,
# m = 2 with signal streams of 600 and 1200 values (observation streams of
# 400 and 800).  The path counts leave remainders for 2, 3 and 4 blocks.
THREAD_CASES = [("n1", 200), ("n1", 1200), ("n3", 200), ("n3", 400)]
THREAD_PATHS = (255, 300, 517)


def _noise_outputs(model, riccati):
    """Every output of simulate_paths, _signal_noise and the Monte-Carlo MSE
    at THREAD_PATHS paths, as one list of arrays."""
    theta = _layout_tilt(model)
    out = []
    for count in THREAD_PATHS:
        ens = simulate_paths(model, theta, count, master_seed=13, path_offset=3)
        out += [getattr(ens, f) for f in ("x", "m", "dw", "dv", "log_density")]
        out.append(_signal_noise(model, 13, 7, count))
    t_idx = [model.n_steps // 2, model.n_steps]
    out += _mse_mc_runs(model, riccati,
                        [(theta, 0.5 * theta, t_idx, 517, 5)])[0]
    return out


@pytest.mark.parametrize("name,k_steps", THREAD_CASES)
def test_noise_threads_keep_the_bits_of_one_cpu(name, k_steps, monkeypatch):
    """With 2, 3 or 4 usable CPUs the simulated paths, the signal noise and
    the Monte-Carlo MSE have the bits of a 1-CPU run, and no noise thread is
    started at any CPU count."""
    model = path_major.layout_models(k_steps)[name]
    riccati = rk.solve_riccati(model)
    with monkeypatch.context() as patch:
        _use_cpus(patch, 1)
        starts = _count_thread_starts(patch)
        want = _noise_outputs(model, riccati)
        assert not starts
    for cpus in (2, 3, 4):
        with monkeypatch.context() as patch:
            _use_cpus(patch, cpus)
            starts = _count_thread_starts(patch)
            got = _noise_outputs(model, riccati)
        assert len(got) == len(want)
        for i, (a, b) in enumerate(zip(got, want)):
            assert _same_bits(a, b), (cpus, i)
        assert not starts, cpus


# ---------------------------------------------------------------------------
# Exactness and law checks


def test_noiseless_model_is_exact():
    # Q = 0, F = 0, f = 1: the path is x0 + k dt with dt a binary fraction.
    model = constant_model(0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.25,
                           horizon=1.0, n_steps=1024)
    ens = simulate_paths(model, _const_theta(model, 0.0), 1, master_seed=9)
    want = 0.25 + np.arange(1025) / 1024.0
    assert np.array_equal(ens.x[0, :, 0], want)
    assert np.array_equal(ens.dw, np.zeros_like(ens.dw))


def test_terminal_variance_matches_brownian_law():
    model = constant_model(0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                           horizon=1.0, n_steps=100)
    n_paths = 20_000
    ens = simulate_paths(model, _const_theta(model, 0.0), n_paths,
                         master_seed=17, threads=2)
    xT = ens.x[:, -1, 0]
    assert abs(np.mean(xT)) <= 3.0 / np.sqrt(n_paths)
    assert abs(np.var(xT) - 1.0) <= 3.0 * np.sqrt(2.0 / n_paths)


# ---------------------------------------------------------------------------
# Likelihood ratio


def test_zero_tilt_log_density_is_exactly_zero(free_model):
    ens = simulate_paths(free_model, _const_theta(free_model, 0.0), 10,
                         master_seed=2)
    assert np.array_equal(ens.log_density, np.zeros(10))
    assert girsanov_log_density(_const_theta(free_model, 0.0), ens.dw[0],
                                free_model) == 0.0


def _varying_q_model(n_steps=40):
    """n=3, m=2 with a time-varying, non-diagonal Q."""
    grid = TimeGrid(1.0, n_steps)
    t = grid.times[:-1]
    base = np.array([[1.0, 0.3, -0.2], [0.3, 0.8, 0.1], [-0.2, 0.1, 0.6]])
    Q = base[None] * (1.0 + 0.5 * np.sin(4.0 * t))[:, None, None]
    Q[:, 0, 1] = Q[:, 1, 0] = 0.3 * np.cos(3.0 * t)
    F = np.tile(-np.eye(3), (n_steps, 1, 1))
    G = np.tile(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]]), (n_steps, 1, 1))
    R = np.tile(np.eye(2) * 0.5, (n_steps, 1, 1))
    return validate_model(
        ModelSchedule(F=F, f=np.zeros((n_steps, 3)), G=G, g=np.zeros((n_steps, 2)),
                      Q=Q, R=R, x0=np.zeros(3)), grid)


def test_contracted_log_density_matches_triangular_solves():
    model = _varying_q_model()
    rng = np.random.default_rng(12)
    k_steps, dt = model.n_steps, model.grid.dt
    theta = rng.normal(size=(k_steps, 3))
    theta[5:9] = 0.0  # inactive intervals take the subset path
    dw = rng.normal(scale=np.sqrt(dt), size=(6, k_steps, 3))
    want = np.empty(6)
    for b in range(6):
        total = 0.0
        for k in range(k_steps):
            chol = np.linalg.cholesky(model.Q[k])
            total += theta[k] @ solve_triangular(chol, dw[b, k], lower=True)
        want[b] = total - 0.5 * dt * np.sum(theta * theta)
    got = _log_density_batch(theta, dw, model)
    assert np.max(np.abs(got - want)) <= 1e-12
    for b in range(6):
        assert abs(girsanov_log_density(theta, dw[b], model) - want[b]) <= 1e-12
    full = rng.normal(size=(k_steps, 3))
    want_full = [sum(full[k] @ solve_triangular(np.linalg.cholesky(model.Q[k]),
                                                dw[b, k], lower=True)
                     for k in range(k_steps)) - 0.5 * dt * np.sum(full * full)
                 for b in range(6)]
    assert np.max(np.abs(_log_density_batch(full, dw, model) - want_full)) <= 1e-12


@pytest.mark.parametrize("n_paths", [1, 5, 2048])
def test_unit_q_log_density_matches_per_path_solves_bitwise(default_model, n_paths):
    """With Q = 1 the contraction gives the bits of one batched solve per
    path and interval."""
    rng = np.random.default_rng(5)
    k_steps, dt = default_model.n_steps, default_model.grid.dt
    theta = np.full((k_steps, 1), 0.5)
    theta[:7] = 0.0
    dw = rng.normal(scale=np.sqrt(dt), size=(n_paths, k_steps, 1))
    active = np.arange(7, k_steps)
    chol = np.linalg.cholesky(default_model.Q[active])
    dw_std = np.linalg.solve(chol, dw[:, active, :, None])[..., 0]
    want = np.zeros(n_paths)
    norm = 0.0
    for k in range(active.size):
        want += theta[active[k], 0] * dw_std[:, k, 0]
        norm += theta[active[k], 0] * theta[active[k], 0]
    want -= 0.5 * dt * norm
    assert np.array_equal(_log_density_batch(theta, dw, default_model), want)


def test_log_density_shape_guard(free_model):
    theta = _const_theta(free_model, 0.1)
    with pytest.raises(GridMismatch, match="dw"):
        girsanov_log_density(theta, np.zeros((10, 1)), free_model)


def test_singular_diffusion_rejects_active_tilt():
    model = constant_model(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0,
                           horizon=1.0, n_steps=16)
    with pytest.raises(UnsupportedTilt, match="interval"):
        simulate_paths(model, _const_theta(model, 0.5), 2, master_seed=1)
    ens = simulate_paths(model, _const_theta(model, 0.0), 2, master_seed=1)
    assert np.array_equal(ens.log_density, np.zeros(2))


def test_tilt_active_only_where_diffusion_lives():
    # Q vanishes on the second half; a tilt supported on the first half is fine.
    n_steps = 16
    grid = TimeGrid(1.0, n_steps)
    Q = np.ones((n_steps, 1, 1))
    Q[n_steps // 2:] = 0.0
    ones = np.ones((n_steps, 1, 1))
    zeros = np.zeros((n_steps, 1))
    model = validate_model(
        ModelSchedule(F=zeros[:, :, None] * 0.0, f=zeros, G=ones, g=zeros,
                      Q=Q, R=ones, x0=np.zeros(1)), grid)
    theta = np.zeros((n_steps, 1))
    theta[: n_steps // 2] = 0.4
    ens = simulate_paths(model, theta, 4, master_seed=3)
    assert np.all(np.isfinite(ens.log_density))
    bad = np.zeros((n_steps, 1))
    bad[-1] = 0.4
    with pytest.raises(UnsupportedTilt):
        simulate_paths(model, bad, 2, master_seed=3)


def test_likelihood_ratio_is_a_martingale(free_model):
    """E[exp(zeta)] = 1 exactly in discrete time; checked by Monte Carlo."""
    n_paths = 8000
    theta = _const_theta(free_model, 0.5)
    ens = simulate_paths(free_model, _const_theta(free_model, 0.0), n_paths,
                         master_seed=23, threads=2)
    logs = np.array([girsanov_log_density(theta, ens.dw[i], free_model)
                     for i in range(n_paths)])
    w = np.exp(logs)
    se = np.std(w) / np.sqrt(n_paths)
    assert abs(np.mean(w) - 1.0) <= 3.0 * se
    # Same estimate through the public reweighting helper.
    via_helper = reweighted_mean(ens, np.ones(n_paths), theta)
    assert abs(via_helper - np.mean(w)) <= 1e-12

    w2 = np.exp(2.0 * logs)
    se2 = np.std(w2) / np.sqrt(n_paths)
    want = np.exp(0.25)
    assert abs(np.mean(w2) - want) <= 3.0 * se2


def test_tilted_run_kl_matches_constant_drift(free_model):
    # Under its own tilt the mean log ratio is +0.5 c^2 T.
    n_paths = 8000
    c = 0.5
    ens = simulate_paths(free_model, _const_theta(free_model, c), n_paths,
                         master_seed=29, threads=2)
    se = np.std(ens.log_density) / np.sqrt(n_paths)
    assert abs(np.mean(ens.log_density) - 0.5 * c * c) <= 3.0 * se


def test_reweighting_recovers_tilted_moments(free_model):
    """Reweighted driftless paths must match the tilted law's moments."""
    n_paths = 8000
    c = 0.6
    theta = _const_theta(free_model, c)
    base = simulate_paths(free_model, _const_theta(free_model, 0.0), n_paths,
                          master_seed=31, threads=2)
    xT = base.x[:, -1, 0]
    logs = np.array([girsanov_log_density(theta, base.dw[i], free_model)
                     for i in range(n_paths)])
    w = np.exp(logs)

    for payoff, want in [(xT, c), (xT * xT, 1.0 + c * c)]:
        got = reweighted_mean(base, payoff, theta)
        se = np.std(w * payoff) / np.sqrt(n_paths)
        assert abs(got - want) <= 3.0 * se, (got, want, se)

    exact = reweighted_mean(base, np.full(n_paths, 2.5),
                            _const_theta(free_model, 0.0))
    assert exact == 2.5


def test_reweighted_mean_payoff_guard(free_model):
    ens = simulate_paths(free_model, _const_theta(free_model, 0.0), 6,
                         master_seed=1)
    with pytest.raises(DimensionMismatch, match="payoff"):
        reweighted_mean(ens, np.ones(5), _const_theta(free_model, 0.0))

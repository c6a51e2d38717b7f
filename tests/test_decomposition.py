"""Estimator decomposition: dual kernels, corrections, impulse response."""

import math

import numpy as np
import pytest

import block_system
import robustkb as rk
from robustkb import (
    GridMismatch,
    OutOfGrid,
    TransitionCache,
    constant_model,
    correction_kernel,
    correction_path,
    correction_term,
    decomposed_estimate,
    impulse_response,
    run_classical_filter,
    run_robust_filter,
    simulate_paths,
    solve_error_stats,
    solve_riccati,
)


@pytest.fixture(scope="module")
def wide_model():
    """Doubled diffusion so the two kernels genuinely differ."""
    return constant_model(-1.0, 0.0, 1.0, 0.0, 2.0, 1.0, 0.0,
                          horizon=2.0, n_steps=200)


def _time_varying_n3_model():
    """n=3, m=2 model whose F and non-identity Q vary on every interval."""
    n_steps = 400
    grid = rk.TimeGrid(2.0, n_steps)
    phase = np.pi * grid.times[:-1]
    F0 = np.array([[-1.0, 0.3, 0.0], [0.0, -0.5, 0.2], [0.1, 0.0, -2.0]])
    E = np.array([[0.1, -0.2, 0.05], [0.15, 0.0, -0.1], [-0.05, 0.2, 0.1]])
    Q0 = np.array([[1.0, 0.2, 0.0], [0.2, 1.5, 0.0], [0.0, 0.0, 0.8]])
    schedule = rk.ModelSchedule(
        F=F0 + np.sin(phase)[:, None, None] * E, f=np.zeros((n_steps, 3)),
        G=np.tile([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], (n_steps, 1, 1)),
        g=np.zeros((n_steps, 2)),
        Q=Q0 * (1.0 + 0.3 * np.cos(phase))[:, None, None],
        R=np.tile([[1.0, 0.1], [0.1, 2.0]], (n_steps, 1, 1)), x0=np.zeros(3))
    return rk.validate_model(schedule, grid)


def test_kernel_values_on_the_diagonal(fast_model, fast_riccati):
    kern = correction_kernel(fast_model, fast_riccati, 1.0)
    assert kern.t_index == 100
    assert kern.s_times.shape == (101,)
    assert kern.s_times[-1] == 1.0
    assert np.array_equal(kern.ode[-1], np.eye(1))
    assert np.array_equal(kern.printed[-1], fast_model.Q[100])
    assert not kern.ode.flags.writeable


def test_printed_kernel_is_q_times_ode(fast_model, fast_riccati, wide_model):
    # The closed form Psi(t,s) Q(s) against the block-system reference.
    # X = Phi(t,s) - Acc(t,s) - Psi(t,s) solves dX/ds = -X F with X(t,t) = 0,
    # so the two agree to rounding, for any F and Q.
    kern = correction_kernel(fast_model, fast_riccati, 1.5)
    ref = block_system.printed_kernel_rows(fast_model, fast_riccati, kern.t_index)
    assert np.max(np.abs(kern.printed - ref)) <= 1e-9
    assert np.array_equal(kern.printed, kern.ode)
    wide_ric = solve_riccati(wide_model)
    kern2 = correction_kernel(wide_model, wide_ric, 1.5)
    ref2 = block_system.printed_kernel_rows(wide_model, wide_ric, kern2.t_index)
    assert np.max(np.abs(kern2.printed - ref2)) <= 1e-9
    assert np.max(np.abs(kern2.printed - 2.0 * kern2.ode)) <= 1e-9
    # Away from the diagonal the two kernels are far apart here.
    assert np.max(np.abs(kern2.printed - kern2.ode)) >= 0.1

    # n=3 with time-varying F and Q.
    model3 = _time_varying_n3_model()
    ric3 = solve_riccati(model3)
    kern3 = correction_kernel(model3, ric3, 1.5)
    ref3 = block_system.printed_kernel_rows(model3, ric3, kern3.t_index)
    assert np.max(np.abs(kern3.printed - ref3)) <= 1e-9
    q_nodes = model3.Q[[*range(kern3.t_index), model3.coeff_index(kern3.t_index)]]
    assert np.max(np.abs(kern3.printed - kern3.ode @ q_nodes)) <= 1e-9
    theta = np.random.default_rng(3).uniform(-1.0, 1.0, (model3.n_steps, 3))
    printed = correction_path(model3, ric3, theta, "printed")
    ref_path = block_system.printed_correction_path(model3, ric3, theta)
    assert np.max(np.abs(printed - ref_path)) <= 1e-12
    ode = correction_path(model3, ric3, np.einsum("kij,kj->ki", model3.Q, theta), "ode")
    assert np.max(np.abs(printed - ode)) <= 1e-12
    term = correction_term(model3, ric3, theta, 1.5, "printed")
    ref_term = block_system.printed_correction_term(model3, ric3, theta,
                                                    kern3.t_index)
    assert np.max(np.abs(term - ref_term)) <= 1e-9


def test_zero_drift_gives_zero_correction(fast_model, fast_riccati):
    zeros = np.zeros((200, 1))
    for kernel in ("ode", "printed"):
        term = correction_term(fast_model, fast_riccati, zeros, 1.0, kernel)
        assert np.array_equal(term, np.zeros(1))
        path = correction_path(fast_model, fast_riccati, zeros, kernel)
        assert np.array_equal(path, np.zeros((201, 1)))
    assert np.array_equal(
        correction_term(fast_model, fast_riccati, zeros, 0.0), np.zeros(1))


def test_ode_correction_equals_exact_bias(default_model, default_riccati):
    """The ode-kernel correction and the bias ODE share one solution."""
    ones = np.ones((default_model.n_steps, 1))
    stats = solve_error_stats(default_model, ones, np.zeros_like(ones),
                              default_riccati)
    k = default_model.grid.index_of(1.0)
    term = correction_term(default_model, default_riccati, ones, 1.0, "ode")
    assert abs(term[0] - stats.bias[k, 0]) <= 1e-7

    path = correction_path(default_model, default_riccati, ones, "ode")
    assert np.max(np.abs(path - stats.bias)) <= 1e-12


def test_path_and_term_agree(fast_model, fast_riccati):
    theta = np.full((200, 1), 0.8)
    for kernel in ("ode", "printed"):
        path = correction_path(fast_model, fast_riccati, theta, kernel)
        for t in (1.0, 2.0):
            term = correction_term(fast_model, fast_riccati, theta, t, kernel)
            k = fast_model.grid.index_of(t)
            assert np.max(np.abs(term - path[k])) <= 1e-4, (kernel, t)


def test_unit_diffusion_collapses_the_pair(fast_model, fast_riccati):
    theta = np.full((200, 1), 0.8)
    ode = correction_path(fast_model, fast_riccati, theta, "ode")
    printed = correction_path(fast_model, fast_riccati, theta, "printed")
    ref = block_system.printed_correction_path(fast_model, fast_riccati, theta)
    assert np.max(np.abs(printed - ref)) <= 1e-12
    # Q = 1 exactly, so Q theta is theta and the two paths share every bit.
    assert np.array_equal(ode, printed)


def test_doubled_diffusion_separates_the_pair(wide_model):
    riccati = solve_riccati(wide_model)
    theta = np.full((200, 1), 0.8)
    ode = correction_path(wide_model, riccati, theta, "ode")
    printed = correction_path(wide_model, riccati, theta, "printed")
    ref = block_system.printed_correction_path(wide_model, riccati, theta)
    assert np.max(np.abs(printed - ref)) <= 1e-12
    assert np.max(np.abs(printed - 2.0 * ode)) <= 1e-9 * np.max(np.abs(printed))
    assert np.max(np.abs(printed - ode)) >= 0.1


def test_impulse_response_values(fast_model, fast_riccati):
    # At s = t the closed-loop flow is the identity, leaving the gain.
    k = fast_model.grid.index_of(1.0)
    want = (fast_riccati.P[k] @ fast_model.G[k].T @ fast_model.Rinv[k])
    assert np.array_equal(impulse_response(fast_model, fast_riccati, 1.0, 1.0),
                          want)

    silent = constant_model(-0.5, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0,
                            horizon=1.0, n_steps=64)
    ric0 = solve_riccati(silent)
    assert np.array_equal(impulse_response(silent, ric0, 0.25, 0.75),
                          np.zeros((1, 1)))


def test_impulse_response_steady_state_profile():
    """Late-time impulse response decays like the steady closed loop."""
    model = constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                           horizon=12.0, n_steps=1200)
    riccati = solve_riccati(model)
    p_bar = rk.steady_state_scalar(-1.0, 1.0, 1.0, 1.0)
    a_cl = -1.0 - p_bar
    cache = TransitionCache(model, "closed_loop", riccati)
    for s, t in [(10.0, 11.0), (10.0, 12.0), (11.0, 11.5)]:
        got = impulse_response(model, riccati, s, t, cache=cache)[0, 0]
        want = math.exp(a_cl * (t - s)) * p_bar
        assert abs(got - want) <= 1e-9, (s, t)


def test_decomposition_tracks_the_robust_filter(fast_model, fast_riccati):
    """classical + correction replays the robust filter to first order."""
    theta_hat = np.full((200, 1), 0.6)
    ens = simulate_paths(fast_model, np.ones((200, 1)), 1, master_seed=14)
    classical = run_classical_filter(fast_model, fast_riccati, ens.m[0])
    robust = run_robust_filter(fast_model, fast_riccati, theta_hat, ens.m[0])
    corr = correction_path(fast_model, fast_riccati, theta_hat, "ode")
    decomposed = decomposed_estimate(classical, corr)
    gap = np.max(np.abs(decomposed - robust.xhat))
    assert gap <= 10.0 * fast_model.grid.dt
    assert gap > 0.0


def test_zero_correction_leaves_classical_untouched(fast_model, fast_riccati):
    ens = simulate_paths(fast_model, np.zeros((200, 1)), 1, master_seed=15)
    classical = run_classical_filter(fast_model, fast_riccati, ens.m[0])
    corr = correction_path(fast_model, fast_riccati, np.zeros((200, 1)))
    assert np.array_equal(decomposed_estimate(classical, corr), classical.xhat)


def test_correction_determinism(fast_model, fast_riccati):
    theta = np.full((200, 1), 0.3)
    a = correction_path(fast_model, fast_riccati, theta, "printed")
    b = correction_path(fast_model, fast_riccati, theta, "printed")
    assert np.array_equal(a, b)
    ka = correction_kernel(fast_model, fast_riccati, 2.0)
    kb = correction_kernel(fast_model, fast_riccati, 2.0)
    assert np.array_equal(ka.ode, kb.ode)
    assert np.array_equal(ka.printed, kb.printed)


def test_decomposition_guards(fast_model, fast_riccati):
    theta = np.zeros((200, 1))
    small = solve_riccati(fast_model.truncate(100))
    with pytest.raises(GridMismatch):
        correction_kernel(fast_model, small, 1.0)
    with pytest.raises(GridMismatch):
        correction_term(fast_model, small, theta, 1.0)
    with pytest.raises(GridMismatch):
        correction_path(fast_model, small, theta)
    with pytest.raises(ValueError, match="kernel"):
        correction_term(fast_model, fast_riccati, theta, 1.0, "dual")
    with pytest.raises(OutOfGrid):
        correction_term(fast_model, fast_riccati, theta, 0.00123)

    ens = simulate_paths(fast_model, theta, 1, master_seed=1)
    classical = run_classical_filter(fast_model, fast_riccati, ens.m[0])
    with pytest.raises(GridMismatch, match="correction"):
        decomposed_estimate(classical, np.zeros((10, 1)))


# ---------------------------------------------------------------------------
# The closed-loop memo on the covariance path


@pytest.fixture(scope="module", params=["n1", "n3"])
def memo_case(request):
    """The bundled scalar scenario and a time-varying n = 3 schedule."""
    model = (request.getfixturevalue("default_model") if request.param == "n1"
             else _time_varying_n3_model())
    return model, solve_riccati(model)


def _decomposition_outputs(model, riccati):
    """Every array the decomposition memo callers return, for two policies."""
    rng = np.random.default_rng(21)
    out = []
    for t in (0.5, 2.0):
        theta = rng.uniform(-1.0, 1.0, (model.n_steps, model.n))
        for kernel in ("ode", "printed"):
            out.append(correction_path(model, riccati, theta, kernel))
            out.append(correction_term(model, riccati, theta, t, kernel))
        kern = correction_kernel(model, riccati, t)
        out += [kern.ode, kern.printed]
    return out


def test_memo_hits_match_a_fresh_path(memo_case):
    model, riccati = memo_case
    fresh = rk.RiccatiPath(riccati.grid, riccati.P, riccati.min_eigenvalue)
    cold = _decomposition_outputs(model, fresh)
    _decomposition_outputs(model, riccati)
    assert "T" in vars(riccati._memo[id(model)])
    hot = _decomposition_outputs(model, riccati)
    assert [a.tobytes() for a in hot] == [a.tobytes() for a in cold]


def test_one_sweep_builds_the_stages_once(monkeypatch):
    # The moments-n3 benchmark sweep, scaled down: every call shares one
    # closed loop, where each used to rebuild its stages.
    calls = []

    class Counted(rk.ode._ClosedLoop):
        def __init__(self, *args):
            calls.append(1)
            super().__init__(*args)

    # Every build goes through ode._closed_loop.
    monkeypatch.setattr(rk.ode, "_ClosedLoop", Counted)
    model = _time_varying_n3_model()
    riccati = solve_riccati(model)
    zero = rk.zero_policy(model)
    rng = np.random.default_rng(22)
    for t in (0.5, 1.0, 1.5, 2.0):
        theta = rng.uniform(-1.0, 1.0, (model.n_steps, 3))
        solve_error_stats(model, theta, zero, riccati)
        correction_path(model, riccati, theta, "ode")
        correction_path(model, riccati, theta, "printed")
        correction_term(model, riccati, theta, t, "ode")
    for t in (0.5, 1.0, 1.5, 2.0):
        correction_kernel(model, riccati, t)
    cache = TransitionCache(model, "closed_loop", riccati)
    for s in (0, 100, 200, 300):
        cache.trajectory(s)
    assert len(calls) == 1


def _fresh(riccati):
    """The same covariance path with an empty closed-loop memo."""
    return rk.RiccatiPath(riccati.grid, riccati.P, riccati.min_eigenvalue)


def test_kernel_row_hits_match_misses_and_are_read_only():
    model = _time_varying_n3_model()
    riccati = solve_riccati(model)
    theta = np.random.default_rng(23).uniform(-1.0, 1.0, (model.n_steps, 3))
    for t in (0.5, 2.0):
        cold = correction_kernel(model, _fresh(riccati), t)
        terms = {kernel: correction_term(model, _fresh(riccati), theta, t, kernel)
                 for kernel in rk.KERNELS}
        for _ in range(2):
            hot = correction_kernel(model, riccati, t)
            assert hot.ode.tobytes() == cold.ode.tobytes()
            assert hot.printed.tobytes() == cold.printed.tobytes()
            for kernel, want in terms.items():
                got = correction_term(model, riccati, theta, t, kernel)
                assert got.tobytes() == want.tobytes(), kernel
        loop = riccati._memo[id(model)]
        assert loop._rows[hot.t_index] is hot.ode
        assert correction_kernel(model, riccati, t).ode is hot.ode
        for arr in (hot.ode, hot.printed):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0


def test_kernel_rows_evict_the_node_read_least_recently():
    # K = 400 keeps at most 1600 rows, and node k has k + 1 of them.
    model = _time_varying_n3_model()
    riccati = solve_riccati(model)
    times = model.grid.times
    cold = {k: correction_kernel(model, _fresh(riccati), times[k]).ode
            for k in (100, 397, 398, 399, 400)}
    theta = np.zeros((model.n_steps, 3))
    loop = rk.ode._closed_loop(model, riccati)
    for k in (400, 399, 398, 397):
        correction_kernel(model, riccati, times[k])
    assert list(loop._rows) == [400, 399, 398, 397]  # 1598 rows
    correction_term(model, riccati, theta, times[400])
    assert list(loop._rows) == [399, 398, 397, 400]
    correction_kernel(model, riccati, times[100])  # 101 rows do not fit
    assert list(loop._rows) == [398, 397, 400, 100]
    again = correction_kernel(model, riccati, times[399]).ode
    assert list(loop._rows) == [397, 400, 100, 399]
    assert again.tobytes() == cold[399].tobytes()
    assert sum(map(len, loop._rows.values())) <= 4 * model.n_steps
    for k, rows in loop._rows.items():
        assert rows.tobytes() == cold[k].tobytes(), k


def test_one_sweep_composes_the_levels_once_and_sweeps_each_node_once(monkeypatch):
    # The moments-n3 policy and kernel sweep, scaled down, and the minimax
    # responses: every forward scan over a prefix of T reads one level set,
    # and each probe node is swept backward once.
    model = _time_varying_n3_model()
    riccati = solve_riccati(model)
    T = rk.ode._closed_loop(model, riccati).T
    start = T.__array_interface__["data"][0]
    composed, sweeps = [], []
    levels, backward = rk.ode._levels, rk.ode._backward

    def counted_levels(M):
        if M.__array_interface__["data"][0] == start and M.strides == T.strides:
            composed.append(len(M))
        return levels(M)

    monkeypatch.setattr(rk.ode, "_levels", counted_levels)
    monkeypatch.setattr(rk.ode, "_backward",
                        lambda *args: sweeps.append(len(args[0])) or backward(*args))
    zero = rk.zero_policy(model)
    rng = np.random.default_rng(22)
    times = (0.5, 1.0, 1.5, 2.0)
    for i in range(8):
        theta = rng.uniform(-1.0, 1.0, (model.n_steps, 3))
        t = times[i % len(times)]
        solve_error_stats(model, theta, zero, riccati)
        correction_path(model, riccati, theta, "ode")
        correction_path(model, riccati, theta, "printed")
        correction_term(model, riccati, theta, t, "ode")
    for t in times:
        correction_kernel(model, riccati, t)
    bound = rk.UncertaintyBound(np.full(3, 0.5))
    rk.saddle_report(model, bound, 1.0, riccati=riccati)
    rk.g_profile(model, bound, 1.0, n_points=3, riccati=riccati)
    assert composed == [model.n_steps]
    assert sweeps == [100, 200, 300, 400]

"""Estimator decomposition: dual kernels, corrections, impulse response."""

import math

import numpy as np
import pytest

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
    kern = correction_kernel(fast_model, fast_riccati, 1.5)
    assert np.max(np.abs(kern.printed - kern.ode)) <= 1e-9
    kern2 = correction_kernel(wide_model, solve_riccati(wide_model), 1.5)
    assert np.max(np.abs(kern2.printed - 2.0 * kern2.ode)) <= 1e-9
    # Away from the diagonal the two kernels are far apart here.
    assert np.max(np.abs(kern2.printed - kern2.ode)) >= 0.1

    # n=3 with time-varying F and Q.  X = Phi(t,s) - Acc(t,s) - Psi(t,s)
    # solves dX/ds = -X F with X(t,t) = 0, so printed(t,s) = Psi(t,s) Q(s).
    model3 = _time_varying_n3_model()
    ric3 = solve_riccati(model3)
    kern3 = correction_kernel(model3, ric3, 1.5)
    q_nodes = model3.Q[[*range(kern3.t_index), model3.coeff_index(kern3.t_index)]]
    assert np.max(np.abs(kern3.printed - kern3.ode @ q_nodes)) <= 1e-9
    theta = np.random.default_rng(3).uniform(-1.0, 1.0, (model3.n_steps, 3))
    printed = correction_path(model3, ric3, theta, "printed")
    ode = correction_path(model3, ric3, np.einsum("kij,kj->ki", model3.Q, theta), "ode")
    assert np.max(np.abs(printed - ode)) <= 1e-12


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
    assert np.max(np.abs(ode - printed)) <= 1e-12


def test_doubled_diffusion_separates_the_pair(wide_model):
    riccati = solve_riccati(wide_model)
    theta = np.full((200, 1), 0.8)
    ode = correction_path(wide_model, riccati, theta, "ode")
    printed = correction_path(wide_model, riccati, theta, "printed")
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

"""Filter recursion, innovations and whiteness diagnostics."""

import numpy as np
import pytest

import robustkb as rk
from robustkb import (
    GridMismatch,
    constant_model,
    filter_gains,
    innovation_diagnostics,
    run_classical_filter,
    run_robust_filter,
    simulate_paths,
    solve_riccati,
)


def _filter_all(model, riccati, ensemble):
    return [run_classical_filter(model, riccati, ensemble.m[i])
            for i in range(ensemble.n_paths)]


def test_zero_correction_reduces_to_classical(fast_model, fast_riccati):
    ens = simulate_paths(fast_model, np.zeros((200, 1)), 3, master_seed=4)
    for i in range(3):
        robust = run_robust_filter(fast_model, fast_riccati,
                                   np.zeros((200, 1)), ens.m[i])
        classical = run_classical_filter(fast_model, fast_riccati, ens.m[i])
        assert np.array_equal(robust.xhat, classical.xhat)
        assert np.array_equal(robust.innovations, classical.innovations)


def test_uninformative_observations_keep_the_prior():
    # G = 0 zeroes the gain; the estimate never moves off x0.
    model = constant_model(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.5,
                           horizon=1.0, n_steps=64)
    riccati = solve_riccati(model)
    assert np.array_equal(filter_gains(model, riccati),
                          np.zeros((64, 1, 1)))
    rng = np.random.default_rng(0)
    obs = np.cumsum(rng.normal(size=(65, 1)), axis=0)
    obs[0] = 0.0
    run = run_classical_filter(model, riccati, obs)
    assert np.all(run.xhat == 0.5)
    assert np.array_equal(run.innovations, np.diff(obs, axis=0))


def test_drift_correction_integrates_exactly():
    # With zero gain and binary-fraction dt the correction adds c k dt.
    n_steps = 1024
    model = constant_model(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.25,
                           horizon=1.0, n_steps=n_steps)
    riccati = solve_riccati(model)
    obs = np.zeros((n_steps + 1, 1))
    run = run_robust_filter(model, riccati, np.full((n_steps, 1), 0.5), obs)
    want = 0.25 + 0.5 * np.arange(n_steps + 1) / n_steps
    assert np.array_equal(run.xhat[:, 0], want)


def test_noiseless_signal_is_tracked_bitwise():
    """Q = 0 forces P = 0 and zero gain: the filter replays the true path."""
    model = constant_model(-0.5, 0.3, 1.0, 0.0, 0.0, 1.0, 0.7,
                           horizon=1.0, n_steps=1024)
    riccati = solve_riccati(model)
    assert np.array_equal(riccati.P, np.zeros_like(riccati.P))
    ens = simulate_paths(model, np.zeros((1024, 1)), 1, master_seed=21)
    run = run_classical_filter(model, riccati, ens.m[0])
    assert np.array_equal(run.xhat, ens.x[0])


def test_innovations_match_their_definition(fast_model, fast_riccati):
    ens = simulate_paths(fast_model, np.zeros((200, 1)), 1, master_seed=6)
    obs = ens.m[0]
    run = run_classical_filter(fast_model, fast_riccati, obs)
    dm = np.diff(obs, axis=0)
    dt = fast_model.grid.dt
    for k in (0, 57, 199):
        want = dm[k] - (run.xhat[k] @ fast_model.G[k].T + fast_model.g[k]) * dt
        assert np.array_equal(run.innovations[k], want)


def test_gain_orientation_two_states_one_sensor():
    # Observing x0 + 0.5 x1 pins the (n, m) orientation of the gain.
    F = np.array([[-1.0, 0.4], [0.0, -0.5]])
    G = np.array([[1.0, 0.5]])
    model = constant_model(F, np.zeros(2), G, 0.0, np.eye(2), 1.0,
                           np.zeros(2), horizon=1.0, n_steps=100)
    riccati = solve_riccati(model)
    gains = filter_gains(model, riccati)
    assert gains.shape == (100, 2, 1)
    k = 60
    want = riccati.P[k] @ model.G[k].T @ model.Rinv[k]
    assert np.max(np.abs(gains[k] - want)) <= 1e-15


def test_filter_is_affine_in_the_observations(fast_model, fast_riccati):
    ens = simulate_paths(fast_model, np.zeros((200, 1)), 2, master_seed=8)
    lam = 0.375
    mixed_obs = (1.0 - lam) * ens.m[0] + lam * ens.m[1]
    mixed = run_classical_filter(fast_model, fast_riccati, mixed_obs)
    a = run_classical_filter(fast_model, fast_riccati, ens.m[0])
    b = run_classical_filter(fast_model, fast_riccati, ens.m[1])
    blend = (1.0 - lam) * a.xhat + lam * b.xhat
    assert np.max(np.abs(mixed.xhat - blend)) <= 1e-12


def test_matched_mse_agrees_with_riccati(fast_model, fast_riccati):
    """Monte Carlo filter error at T must match the covariance path."""
    n_paths = 400
    ens = simulate_paths(fast_model, np.zeros((200, 1)), n_paths,
                         master_seed=13)
    sq = np.empty(n_paths)
    for i in range(n_paths):
        run = run_classical_filter(fast_model, fast_riccati, ens.m[i])
        sq[i] = (run.xhat[-1, 0] - ens.x[i, -1, 0]) ** 2
    se = np.std(sq) / np.sqrt(n_paths)
    want = fast_riccati.P[-1, 0, 0]
    assert abs(np.mean(sq) - want) <= 3.0 * se + 0.01


# ---------------------------------------------------------------------------
# Whiteness diagnostics


def test_matched_innovations_are_white(fast_model, fast_riccati):
    n_paths = 50
    ens = simulate_paths(fast_model, np.zeros((200, 1)), n_paths,
                         master_seed=123)
    report = innovation_diagnostics(_filter_all(fast_model, fast_riccati, ens),
                                    max_lag=5)
    assert report.n_increments == n_paths * 200
    assert np.array_equal(report.lags, np.arange(1, 6))
    bound = 3.0 / np.sqrt(report.n_increments)
    assert report.max_abs_autocorr <= bound
    assert abs(report.standardized_mean[0]) <= bound
    ratio = report.increment_cov[0, 0] / report.expected_cov[0, 0]
    assert abs(ratio - 1.0) <= 0.05


def test_single_run_is_accepted(fast_model, fast_riccati):
    ens = simulate_paths(fast_model, np.zeros((200, 1)), 1, master_seed=2)
    run = run_classical_filter(fast_model, fast_riccati, ens.m[0])
    report = innovation_diagnostics(run, max_lag=3)
    assert report.n_increments == 200
    assert report.autocorr.shape == (3, 1)


def test_ignored_drift_shows_up_in_the_mean():
    """A drift the filter does not model biases the innovations."""
    model = constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                           horizon=2.0, n_steps=20)
    riccati = solve_riccati(model)
    n_paths = 1000
    ens = simulate_paths(model, np.ones((20, 1)), n_paths, master_seed=9)
    runs = [run_classical_filter(model, riccati, ens.m[i])
            for i in range(n_paths)]
    report = innovation_diagnostics(runs, max_lag=5)
    assert report.standardized_mean[0] > 3.0 / np.sqrt(report.n_increments)

    # The same size is quiet when the drift is matched by the simulation.
    ens0 = simulate_paths(model, np.zeros((20, 1)), n_paths, master_seed=9)
    runs0 = [run_classical_filter(model, riccati, ens0.m[i])
             for i in range(n_paths)]
    report0 = innovation_diagnostics(runs0, max_lag=5)
    assert abs(report0.standardized_mean[0]) <= 3.0 / np.sqrt(report0.n_increments)


def test_diagnostics_guards(fast_model, fast_riccati):
    with pytest.raises(ValueError, match="run"):
        innovation_diagnostics([])
    ens = simulate_paths(fast_model, np.zeros((200, 1)), 1, master_seed=2)
    run = run_classical_filter(fast_model, fast_riccati, ens.m[0])
    other_model = fast_model.truncate(100)
    other_riccati = solve_riccati(other_model)
    ens2 = simulate_paths(other_model, np.zeros((100, 1)), 1, master_seed=2)
    run2 = run_classical_filter(other_model, other_riccati, ens2.m[0])
    with pytest.raises(GridMismatch):
        innovation_diagnostics([run, run2])
    one = fast_model.truncate(1)
    ens1 = simulate_paths(one, np.zeros((1, 1)), 1, master_seed=2)
    run1 = run_classical_filter(one, solve_riccati(one), ens1.m[0])
    with pytest.raises(ValueError, match="runs of 1 interval"):
        innovation_diagnostics(run1)
    with pytest.raises(ValueError, match="max_lag = 0 and runs of 200"):
        innovation_diagnostics(run, max_lag=0)


def test_filter_shape_guards(fast_model, fast_riccati):
    with pytest.raises(GridMismatch, match="obs"):
        run_classical_filter(fast_model, fast_riccati, np.zeros((100, 1)))
    with pytest.raises(GridMismatch, match="theta_hat"):
        run_robust_filter(fast_model, fast_riccati, np.zeros((10, 1)),
                          np.zeros((201, 1)))
    with pytest.raises(GridMismatch):
        filter_gains(fast_model, solve_riccati(fast_model.truncate(100)))

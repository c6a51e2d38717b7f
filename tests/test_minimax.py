"""Worst-case MSE search and the restricted saddle report."""

import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustkb as rk
from robustkb import (
    BoxTooLarge,
    OutOfGrid,
    UncertaintyBound,
    UnsupportedClassWarning,
    clamp_policy,
    constant_model,
    constant_policy,
    g_profile,
    minimax,
    mse_exact,
    mse_monte_carlo,
    robust_theta_hat,
    saddle_report,
    solve_riccati,
    worst_case_mse,
    zero_policy,
)

import path_major
from oracles import UPPER_ONE


# ---------------------------------------------------------------------------
# Exact and Monte Carlo MSE


def test_matched_mse_is_the_covariance_trace(default_model, default_riccati):
    theta = np.full((default_model.n_steps, 1), 0.4)
    got = mse_exact(default_model, theta, theta, 1.0, default_riccati)
    assert abs(got - default_riccati.at(1.0)[0, 0]) <= 1e-9
    assert mse_exact(default_model, theta, theta, 0.0, default_riccati) == 0.0


def test_unit_drift_mse_hits_frozen_value(default_model, default_riccati):
    ones = np.ones((default_model.n_steps, 1))
    zeros = np.zeros_like(ones)
    got = mse_exact(default_model, ones, zeros, 1.0, default_riccati)
    assert abs(got - UPPER_ONE) <= 1e-9


@pytest.mark.parametrize("n", [1, 3])
def test_mse_exact_equals_the_full_grid_moments(n):
    # mse_exact reads the full-grid moments at t, with or without a path.
    if n == 1:
        model = constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                               horizon=2.0, n_steps=200)
    else:
        model = constant_model(N3_F, np.zeros(3), N3_G, np.zeros(2), N3_Q,
                               N3_R, np.zeros(3), horizon=2.0, n_steps=200)
    riccati = solve_riccati(model)
    rng = np.random.default_rng(5)
    theta_true = rng.normal(size=(model.n_steps, n))
    theta_hat = rk.DriftPolicy(rng.normal(size=(model.n_steps, n)))
    full = rk.solve_error_stats(model, theta_true, theta_hat, riccati).mse
    for k in (0, 1, 73, model.n_steps):
        t = float(model.grid.times[k])
        for ric in (riccati, None):
            got = mse_exact(model, theta_true, theta_hat, t, ric)
            assert got.hex() == float(full[k]).hex(), (k, ric is None)
    # A path on a longer grid with the same step is still a foreign grid.
    longer = model.truncate(100)
    with pytest.raises(rk.GridMismatch):
        mse_exact(longer, theta_true[:100], theta_true[:100], 0.5, riccati)


BENCH_N3 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "minimax_n3.json")


def _moments_n3_schedule(seed=4242):
    """The time-varying n = 3 schedule the moments-n3 benchmark builds."""
    base = rk.load_scenario(BENCH_N3).model
    rng = np.random.default_rng(seed)
    E = 0.2 * rng.standard_normal((3, 3))
    phase = 2.0 * np.pi * base.grid.times[:-1] / base.grid.horizon
    return rk.validate_model(rk.ModelSchedule(
        F=base.F[0] + np.sin(phase)[:, None, None] * E, f=base.f, G=base.G,
        g=base.g, Q=base.Q[0] * (1.0 + 0.3 * np.cos(phase))[:, None, None],
        R=base.R, x0=base.x0), base.grid)


def _stiff_n2_model():
    """A fast mode that grows the Hamiltonian's X by up to e^(500 dt) per
    step, where a prefix of the Riccati scan must still be a prefix of the
    path bitwise."""
    return constant_model(np.array([[-500.0, 1.0], [0.0, -1.0]]), np.zeros(2),
                          np.array([[1.0, 0.0]]), np.zeros(1), np.eye(2), 1.0,
                          np.zeros(2), horizon=2.0, n_steps=2000)


@pytest.mark.parametrize("which", ["n1", "minimax-n3", "moments-n3", "stiff-n2"])
def test_truncated_moments_equal_the_sliced_full_horizon(which, default_model):
    # mse_exact reads the full-horizon moments at t: the truncated model on
    # the prefix path must give the same bits as the slice of the full one.
    model = {"n1": lambda: default_model,
             "minimax-n3": lambda: rk.load_scenario(BENCH_N3).model,
             "moments-n3": _moments_n3_schedule,
             "stiff-n2": _stiff_n2_model}[which]()
    riccati = solve_riccati(model)
    rng = np.random.default_rng(11)
    th_true, th_hat = rng.uniform(-1.0, 1.0, (2, model.n_steps, model.n))
    full = rk.solve_error_stats(model, th_true, th_hat, riccati)
    for t in (0.5, 1.0, 1.5):
        k = model.grid.index_of(t)
        sub = model.truncate(k)
        sub_ric = solve_riccati(sub)
        assert sub_ric.P.tobytes() == riccati.P[: k + 1].tobytes(), t
        part = rk.solve_error_stats(sub, th_true[:k], th_hat[:k], riccati.prefix(k))
        for name in ("bias", "Sigma", "mse"):
            got, want = getattr(part, name), getattr(full, name)[: k + 1]
            assert got.tobytes() == want.tobytes(), (t, name)


def test_monte_carlo_agrees_with_exact(fast_model, fast_riccati):
    theta = np.full((200, 1), 0.5)
    zeros = np.zeros_like(theta)
    exact = mse_exact(fast_model, theta, zeros, 2.0, fast_riccati)
    est, se = mse_monte_carlo(fast_model, theta, zeros, 2.0, n_paths=3000,
                              seed=77, riccati=fast_riccati, threads=2)
    assert se > 0.0
    # 3 sigma plus first-order discretization slack.
    assert abs(est - exact) <= 3.0 * se + 0.02


def test_monte_carlo_single_path_has_nan_stderr(fast_model, fast_riccati):
    theta = np.zeros((200, 1))
    est, se = mse_monte_carlo(fast_model, theta, theta, 1.0, n_paths=1,
                              seed=5, riccati=fast_riccati)
    assert math.isnan(se)
    assert est >= 0.0


def test_monte_carlo_at_time_zero_is_exactly_zero(fast_model, fast_riccati):
    # The initial state is known exactly: no path is simulated or counted,
    # and the zero-filled squared errors give a zero mean and stderr.
    theta = np.full((200, 1), 0.3)
    before = dict(rk.simulate._work)
    assert mse_monte_carlo(fast_model, theta, 0.5 * theta, 0.0, n_paths=500,
                           seed=9, riccati=fast_riccati) == (0.0, 0.0)
    assert rk.simulate._work == before


def test_monte_carlo_is_deterministic(fast_model, fast_riccati):
    theta = np.full((200, 1), 0.3)
    a = mse_monte_carlo(fast_model, theta, theta, 1.0, n_paths=500, seed=9,
                        riccati=fast_riccati, threads=1)
    b = mse_monte_carlo(fast_model, theta, theta, 1.0, n_paths=500, seed=9,
                        riccati=fast_riccati, threads=4)
    assert a == b


LAYOUT_MODELS = path_major.layout_models()


@pytest.mark.parametrize("name", sorted(LAYOUT_MODELS))
@pytest.mark.parametrize("n_paths", [1, 1024, 1025, 2049])
def test_monte_carlo_matches_the_path_major_loop(name, n_paths):
    """The time-major MC with its rolling state gives the bits of the
    path-major simulate, np.diff and filter chunks."""
    model = LAYOUT_MODELS[name]
    riccati = solve_riccati(model)
    k = np.arange(model.n_steps)[:, None]
    theta_true = 0.5 * np.sin(k + np.arange(model.n))
    theta_hat = np.full((model.n_steps, model.n), -0.2)
    K = model.n_steps
    for idx in ([0, K], [K // 2], [3, 0, K, 3], [0]):
        got = minimax._mse_mc_multi(model, riccati, theta_true, theta_hat, idx,
                                    n_paths, 12)
        want = path_major.mse_mc(model, riccati, theta_true, theta_hat, idx,
                                 n_paths, 12)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), (idx, g, w)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("nodes", [1, 4])
def test_squared_errors_ignore_the_input_layout(n, nodes):
    """C-contiguous (nodes, count, n) inputs and transposed views of
    (nodes, n, count) arrays holding the same values give the same bits, so
    the streamed-against-batch comparison of check_determinism cannot turn
    on the layout it is fed."""
    rng = np.random.default_rng(40 + n)
    count = 37
    x = rng.normal(size=(nodes, count, n)) * 10.0 ** rng.integers(-8, 8, (nodes, count, n))
    xhat = x + rng.normal(size=x.shape)
    want = minimax._squared_errors(x, xhat)
    x_t = np.ascontiguousarray(np.swapaxes(x, 1, 2))
    xhat_t = np.ascontiguousarray(np.swapaxes(xhat, 1, 2))
    for a, b in ((np.swapaxes(x_t, 1, 2), np.swapaxes(xhat_t, 1, 2)),
                 (x, np.swapaxes(xhat_t, 1, 2)), (np.swapaxes(x_t, 1, 2), xhat)):
        got = minimax._squared_errors(a, b)
        assert got.shape == (count, nodes)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_paths", [10**12, minimax._MAX_MC_PATHS + 1, 0, 2.5,
                                     True, np.float64(3.0)])
def test_monte_carlo_rejects_bad_path_counts(fast_model, monkeypatch, n_paths):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before n_paths was checked")

    monkeypatch.setattr(minimax, "solve_riccati", no_work)
    monkeypatch.setattr(minimax, "_simulate_chunk", no_work)
    theta = np.zeros((fast_model.n_steps, 1))
    with pytest.raises(rk.InvalidPathCount, match="n_paths") as info:
        mse_monte_carlo(fast_model, theta, theta, 1.0, n_paths=n_paths, seed=0)
    assert isinstance(info.value, ValueError)


def test_monte_carlo_accepts_numpy_path_counts(fast_model, fast_riccati):
    theta = np.zeros((fast_model.n_steps, 1))
    a = mse_monte_carlo(fast_model, theta, theta, 0.5, n_paths=np.int32(40),
                        seed=2, riccati=fast_riccati)
    assert a == mse_monte_carlo(fast_model, theta, theta, 0.5, n_paths=40,
                                seed=2, riccati=fast_riccati)


# ---------------------------------------------------------------------------
# Worst case over the box


def test_zero_bound_pins_the_adversary(fast_model, fast_riccati):
    bound = UncertaintyBound(0.0)
    value, policy = worst_case_mse(fast_model, bound, zero_policy(fast_model),
                                   1.0, riccati=fast_riccati)
    assert np.array_equal(policy.theta, np.zeros((200, 1)))
    assert abs(value - fast_riccati.at(1.0)[0, 0]) <= 1e-12


def test_worst_case_sits_on_a_vertex(fast_model, fast_riccati):
    bound = UncertaintyBound(1.0)
    value, policy = worst_case_mse(fast_model, bound, zero_policy(fast_model),
                                   1.0, riccati=fast_riccati)
    # Symmetric problem; ties break toward +mu.
    assert np.all(policy.theta == 1.0)
    assert abs(value - mse_exact(fast_model, policy, zero_policy(fast_model),
                                 1.0, fast_riccati)) <= 1e-8


def test_worst_case_dominates_feasible_drifts(fast_model, fast_riccati):
    bound = UncertaintyBound(1.0)
    theta_hat = np.full((200, 1), 0.25)
    value, _ = worst_case_mse(fast_model, bound, theta_hat, 1.5,
                              riccati=fast_riccati)
    rng = np.random.default_rng(3)
    for theta_c in rng.uniform(-1.0, 1.0, 5):
        feasible = np.full((200, 1), theta_c)
        assert value + 1e-9 >= mse_exact(fast_model, feasible, theta_hat,
                                         1.5, fast_riccati)


def test_bang_bang_diagonal_two_states():
    F = np.diag([-1.0, -0.5])
    model = constant_model(F, np.zeros(2), np.eye(2), np.zeros(2), np.eye(2),
                           np.eye(2), np.zeros(2), horizon=1.0, n_steps=100)
    riccati = solve_riccati(model)
    bound = UncertaintyBound(np.array([1.0, 0.5]))
    theta_hat = np.zeros((100, 2))
    vb, pb = worst_case_mse(model, bound, theta_hat, 1.0,
                            adversary="bang_bang", riccati=riccati)
    vc, pc = worst_case_mse(model, bound, theta_hat, 1.0,
                            adversary="constant", riccati=riccati)
    assert np.all(pb.theta == np.array([1.0, 0.5]))
    assert abs(vb - vc) <= 1e-9
    assert np.max(np.abs(pb.theta - pc.theta)) <= 1e-6


def test_bang_bang_coupled_loop_falls_back():
    F = np.array([[-1.0, 0.8], [0.0, -0.5]])
    model = constant_model(F, np.zeros(2), np.eye(2), np.zeros(2), np.eye(2),
                           np.eye(2), np.zeros(2), horizon=1.0, n_steps=100)
    riccati = solve_riccati(model)
    bound = UncertaintyBound(np.array([1.0, 1.0]))
    theta_hat = np.zeros((100, 2))
    with pytest.warns(UnsupportedClassWarning):
        vb, pb = worst_case_mse(model, bound, theta_hat, 1.0,
                                adversary="bang_bang", riccati=riccati)
    vc, pc = worst_case_mse(model, bound, theta_hat, 1.0,
                            adversary="constant", riccati=riccati)
    assert vb == vc
    assert np.array_equal(pb.theta, pc.theta)


def test_worst_case_guards(fast_model, fast_riccati):
    bound = UncertaintyBound(1.0)
    zeros = zero_policy(fast_model)
    with pytest.raises(ValueError, match="adversary"):
        worst_case_mse(fast_model, bound, zeros, 1.0, adversary="markov",
                       riccati=fast_riccati)
    with pytest.raises(ValueError, match="dim"):
        worst_case_mse(fast_model, UncertaintyBound(np.ones(2)), zeros, 1.0,
                       riccati=fast_riccati)
    with pytest.raises(OutOfGrid):
        worst_case_mse(fast_model, bound, zeros, 0.00123, riccati=fast_riccati)


# ---------------------------------------------------------------------------
# Robust estimator and the saddle


def test_robust_drift_is_zero_by_symmetry(default_model, default_riccati,
                                          default_bound):
    policy, upper = robust_theta_hat(default_model, default_bound, 1.0,
                                     riccati=default_riccati)
    assert np.max(np.abs(policy.theta)) <= default_bound.mu[0] / 100.0
    assert abs(upper - UPPER_ONE) <= 1e-4


def test_robust_drift_with_no_uncertainty(fast_model, fast_riccati):
    policy, upper = robust_theta_hat(fast_model, UncertaintyBound(0.0), 1.0,
                                     riccati=fast_riccati)
    assert np.array_equal(policy.theta, np.zeros((200, 1)))
    assert abs(upper - fast_riccati.at(1.0)[0, 0]) <= 1e-12


def test_worst_value_grows_with_the_bound(fast_model, fast_riccati):
    zeros = zero_policy(fast_model)
    values = []
    for mu in (0.0, 0.5, 1.0, 1.5):
        v, _ = worst_case_mse(fast_model, UncertaintyBound(mu), zeros, 1.0,
                              riccati=fast_riccati)
        values.append(v)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_saddle_report_structure(default_model, default_riccati, default_bound):
    report = saddle_report(default_model, default_bound, 1.0,
                           riccati=default_riccati)
    trace_p = default_riccati.at(1.0)[0, 0]
    assert report.t == 1.0
    assert report.estimator_class == "constant"
    assert report.adversary_class == "constant"
    assert abs(report.lower_value - trace_p) <= 1e-9
    assert abs(report.baseline_trace_p - trace_p) <= 1e-12
    assert report.lower_value <= report.upper_value + 1e-9
    assert abs(report.duality_gap - (report.upper_value - report.lower_value)) == 0.0
    assert abs(report.upper_value - UPPER_ONE) <= 1e-4
    assert report.notes

    # Returned policies already live inside the box.
    for policy in (report.theta_hat_star, report.theta_star):
        clamped = clamp_policy(policy, default_bound)
        assert np.array_equal(clamped.theta, policy.theta)

    blob = json.dumps(report.to_dict(), sort_keys=True)
    round_trip = json.loads(blob)
    assert round_trip["upper_value"] == report.upper_value
    assert set(round_trip) == {
        "t", "estimator_class", "adversary_class", "theta_hat_star",
        "theta_star", "upper_value", "lower_value", "duality_gap",
        "baseline_trace_p", "notes",
    }


def test_saddle_report_builds_one_game_core(default_model, default_riccati,
                                            default_bound, monkeypatch):
    # The robust drift is 0 by robust_theta_hat's proof, so the report
    # integrates M_t once, for the worst case against it.
    calls = []
    build = minimax._game_core

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(minimax, "_game_core", counted)
    report = saddle_report(default_model, default_bound, 1.0,
                           riccati=default_riccati)
    assert len(calls) == 1
    policy, upper = robust_theta_hat(default_model, default_bound, 1.0,
                                     riccati=default_riccati)
    assert np.array_equal(report.theta_hat_star.theta, policy.theta)
    assert report.upper_value == upper


def test_a_missing_covariance_path_gives_the_same_bits(fast_model, fast_riccati):
    bound = UncertaintyBound(1.0)
    theta, zeros = constant_policy(fast_model, 0.5), zero_policy(fast_model)
    outputs = []
    for riccati in (None, fast_riccati):
        mc = mse_monte_carlo(fast_model, theta, zeros, 1.0, 50, 3, riccati=riccati)
        policy, value = robust_theta_hat(fast_model, bound, 1.0, riccati=riccati)
        profile = g_profile(fast_model, bound, 1.0, n_points=5, riccati=riccati)
        report = saddle_report(fast_model, bound, 1.0, riccati=riccati)
        arrays = [np.array(mc), policy.theta, np.array(value),
                  report.theta_hat_star.theta, report.theta_star.theta,
                  np.array([getattr(report, key) for key in (
                      "t", "upper_value", "lower_value", "duality_gap",
                      "baseline_trace_p")])]
        arrays += [a for _, values, gs in profile for a in (values, gs)]
        outputs.append([a.tobytes() for a in arrays])
    assert outputs[0] == outputs[1]


def test_g_profile_is_convex_and_symmetric(fast_model, fast_riccati):
    profiles = g_profile(fast_model, UncertaintyBound(1.0), 1.0, n_points=11,
                         riccati=fast_riccati)
    assert len(profiles) == 1
    i, values, gs = profiles[0]
    assert i == 0
    assert values[0] == -1.0 and values[-1] == 1.0
    mid = gs[1:-1]
    assert np.all(gs[:-2] + gs[2:] - 2.0 * mid >= -1e-9)
    assert np.max(np.abs(gs - gs[::-1])) <= 1e-9


# ---------------------------------------------------------------------------
# Brute-force vertex oracle on an n=3, m=2 model with a non-diagonal loop
# (the constant coefficients of bench/minimax_n3.json on a coarser grid).
# mse_exact integrates the bias and Sigma moment ODEs, not M_t, so it is an
# independent reference for the vertex maximum.

N3_F = np.array([[-1.0, 0.3, 0.0], [0.0, -0.5, 0.2], [0.1, 0.0, -2.0]])
N3_G = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
N3_Q = np.array([[1.0, 0.2, 0.0], [0.2, 1.5, 0.0], [0.0, 0.0, 0.8]])
N3_R = np.array([[1.0, 0.1], [0.1, 2.0]])
N3_MU = np.array([1.0, 0.5, 0.8])


@pytest.fixture(scope="module")
def n3_game():
    model = constant_model(N3_F, np.zeros(3), N3_G, np.zeros(2), N3_Q, N3_R,
                           np.zeros(3), horizon=1.0, n_steps=200)
    return model, UncertaintyBound(N3_MU), solve_riccati(model)


def _vertex_oracle(model, riccati, theta_hat, t):
    """(max MSE, argmax vertex) over the 8 box vertices via mse_exact."""
    best = None
    for signs in itertools.product((1.0, -1.0), repeat=3):
        v = np.array(signs) * N3_MU
        val = mse_exact(model, constant_policy(model, v), theta_hat, t, riccati)
        if best is None or val > best[0]:
            best = (val, v)
    return best


@pytest.mark.parametrize("kind", ["constant", "time_varying"])
def test_worst_case_matches_vertex_oracle_n3(n3_game, kind):
    model, bound, riccati = n3_game
    if kind == "constant":
        theta_hat = constant_policy(model, [0.3, -0.2, 0.1])
    else:
        rng = np.random.default_rng(11)
        theta_hat = rng.uniform(-1.0, 1.0, (model.n_steps, 3)) * N3_MU
    value, policy = worst_case_mse(model, bound, theta_hat, 1.0, riccati=riccati)
    want, vertex = _vertex_oracle(model, riccati, theta_hat, 1.0)
    assert abs(value - want) <= 1e-9
    assert np.array_equal(policy.theta, np.tile(vertex, (model.n_steps, 1)))


def test_best_response_is_the_worst_case_vertex_n3(n3_game):
    model, bound, riccati = n3_game
    theta_hat = constant_policy(model, [0.3, -0.2, 0.1])
    policy = rk.best_response_theta(model, bound, theta_hat, 1.0, riccati=riccati)
    _, worst = worst_case_mse(model, bound, theta_hat, 1.0, riccati=riccati)
    _, vertex = _vertex_oracle(model, riccati, theta_hat, 1.0)
    assert np.array_equal(policy.theta, worst.theta)
    assert np.array_equal(policy.theta, np.tile(vertex, (model.n_steps, 1)))
    # The n = 3 closed loop is coupled: no bang-bang best response.
    with pytest.warns(UnsupportedClassWarning):
        bang = rk.best_response_theta(model, bound, theta_hat, 1.0,
                                      adversary="bang_bang", riccati=riccati)
    assert np.array_equal(bang.theta, policy.theta)


@pytest.mark.parametrize("t_idx", [1, 37, 200])
def test_bang_bang_builds_stages_for_the_first_intervals_only(n3_game, t_idx,
                                                              monkeypatch):
    # The diagonality test reads the stage closed loops of the first t_idx
    # intervals, built for those alone; the coupled loop falls back to the
    # constant class with its value and policy bits.
    model, bound, riccati = n3_game
    theta_hat = constant_policy(model, [0.3, -0.2, 0.1])
    t = model.grid.times[t_idx]
    want_value, want_policy = worst_case_mse(model, bound, theta_hat, t,
                                             riccati=riccati)
    nodes, stages = [], rk.ode._stage_covariances
    monkeypatch.setattr(rk.ode, "_stage_covariances",
                        lambda m, P: nodes.append(len(P)) or stages(m, P))
    with pytest.warns(UnsupportedClassWarning):
        value, policy = worst_case_mse(model, bound, theta_hat, t,
                                       adversary="bang_bang", riccati=riccati)
    assert nodes == [t_idx + 1]
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
    assert policy.theta.tobytes() == want_policy.theta.tobytes()


def test_robust_drift_matches_vertex_oracle_n3(n3_game):
    model, bound, riccati = n3_game
    policy, upper = robust_theta_hat(model, bound, 1.0, riccati=riccati)
    assert np.all(policy.theta == 0.0)
    want, _ = _vertex_oracle(model, riccati, zero_policy(model), 1.0)
    assert abs(upper - want) <= 1e-9


# ---------------------------------------------------------------------------
# Oversized boxes


def test_oversized_box_raises_before_any_ode_work(monkeypatch):
    n = 21
    model = constant_model(-np.eye(n), np.zeros(n), np.eye(1, n), 0.0,
                           np.eye(n), 1.0, np.zeros(n), horizon=0.1, n_steps=1)
    bound = UncertaintyBound(np.ones(n))

    def no_ode_work(*args, **kwargs):
        raise AssertionError("ODE work ran before the box check")

    monkeypatch.setattr(minimax, "solve_riccati", no_ode_work)
    monkeypatch.setattr(minimax, "_closed_loop", no_ode_work)
    calls = [
        lambda: worst_case_mse(model, bound, zero_policy(model), 0.1),
        lambda: robust_theta_hat(model, bound, 0.1),
        lambda: g_profile(model, bound, 0.1),
        lambda: saddle_report(model, bound, 0.1),
    ]
    for call in calls:
        with pytest.raises(BoxTooLarge, match=r"21 .*capped at 20"):
            call()
    assert issubclass(BoxTooLarge, rk.RobustKBError)


def test_zero_radii_do_not_count_toward_the_vertex_cap():
    n = 21
    model = constant_model(-np.eye(n), np.zeros(n), np.eye(1, n), 0.0,
                           np.eye(n), 1.0, np.zeros(n), horizon=0.1, n_steps=1)
    mu = np.zeros(n)
    mu[[0, 7]] = [1.0, 0.5]
    value, policy = worst_case_mse(model, UncertaintyBound(mu), zero_policy(model), 0.1)
    assert np.all(np.abs(policy.theta) == mu)
    assert value >= np.trace(solve_riccati(model).P[-1])


# ---------------------------------------------------------------------------
# Properties of the game over random stable models


@st.composite
def _games(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, n))
    unit = st.floats(-1.0, 1.0)

    def matrix(rows, cols):
        return np.array(draw(st.lists(unit, min_size=rows * cols,
                                      max_size=rows * cols))).reshape(rows, cols)

    # Gershgorin: the coupling moves eigenvalues by at most 0.9 < 1.
    F = -draw(st.floats(1.0, 2.0)) * np.eye(n) + 0.3 * matrix(n, n)
    G = np.eye(m, n) + 0.5 * matrix(m, n)
    Q = np.diag(draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
    mu = draw(st.lists(st.just(0.0) | st.floats(0.0, 2.0), min_size=n, max_size=n))
    model = constant_model(F, np.zeros(n), G, np.zeros(m), Q, np.eye(m),
                           np.zeros(n), horizon=1.0, n_steps=20)
    drifts = matrix(5, n) * np.array(mu)
    return model, UncertaintyBound(np.array(mu)), drifts


@settings(max_examples=25, deadline=None)
@given(game=_games())
def test_game_is_even_convex_and_centered(game):
    model, bound, drifts = game
    riccati = solve_riccati(model)
    for _, values, gs in g_profile(model, bound, 1.0, riccati=riccati):
        assert np.max(np.abs(gs - gs[::-1])) <= 1e-12
        assert np.all(gs[:-2] + gs[2:] - 2.0 * gs[1:-1] >= -1e-9)
    zeros = zero_policy(model)
    worst, _ = worst_case_mse(model, bound, zeros, 1.0, riccati=riccati)
    for v in drifts:
        assert worst >= mse_exact(model, constant_policy(model, v), zeros, 1.0,
                                  riccati) - 1e-9
    report = saddle_report(model, bound, 1.0, riccati=riccati)
    assert np.all(report.theta_hat_star.theta == 0.0)

"""Riccati path, transition matrices and exact error moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import robustkb as rk
from robustkb import (
    DegenerateG,
    GridMismatch,
    LostPositivity,
    MissingRiccati,
    ModelSchedule,
    OutOfGrid,
    TimeGrid,
    TransitionCache,
    constant_model,
    riccati_scalar_solution,
    solve_error_stats,
    solve_riccati,
    steady_state_scalar,
    transition,
    validate_model,
)
from robustkb.minimax import _game_core

from oracles import J_ONE, P_HALF, P_INF, P_ONE, P_TWO


# ---------------------------------------------------------------------------
# Riccati path


def test_riccati_zero_process_noise_stays_zero():
    # Q = 0 with P(0) = 0 makes every RK4 stage vanish identically.
    model = constant_model(-1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0,
                           horizon=1.0, n_steps=100)
    path = solve_riccati(model)
    assert np.array_equal(path.P, np.zeros_like(path.P))
    assert path.min_eigenvalue == 0.0


def test_riccati_pure_diffusion_grows_linearly():
    # No observations (G = 0): dP = Q, so P(t) = t for Q = 1.
    model = constant_model(-0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0,
                           horizon=1.0, n_steps=1000)
    path = solve_riccati(model)
    assert np.max(np.abs(path.P[:, 0, 0] - model.grid.times)) <= 1e-9


def test_riccati_default_scenario_frozen_nodes(default_model, default_riccati):
    grid = default_model.grid
    for t, want in [(0.5, P_HALF), (1.0, P_ONE), (2.0, P_TWO)]:
        got = default_riccati.at(t)[0, 0]
        assert abs(got - want) <= 1e-9, (t, got, want)
    assert default_riccati.P[0, 0, 0] == 0.0
    assert default_riccati.min_eigenvalue >= 0.0
    assert default_riccati.grid == grid


def test_riccati_ignores_affine_terms():
    base = constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                          horizon=1.0, n_steps=200)
    shifted = constant_model(-1.0, 0.7, 1.0, -0.3, 1.0, 1.0, 2.0,
                             horizon=1.0, n_steps=200)
    assert np.array_equal(solve_riccati(base).P, solve_riccati(shifted).P)


def test_riccati_converges_at_fourth_order():
    """Halving dt should shrink the transient error by about 16x."""
    ref = riccati_scalar_solution(-1.0, 1.0, 1.0, 1.0, 1.0)
    errs = []
    for n_steps in (20, 40):
        model = constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                               horizon=1.0, n_steps=n_steps)
        errs.append(abs(solve_riccati(model).P[-1, 0, 0] - ref))
    assert errs[0] / errs[1] >= 8.0, errs


def test_riccati_reports_lost_positivity():
    # Stiff instance (S = 20) on a dt = 0.5 grid; RK4 overshoots below zero.
    model = constant_model(0.0, 0.0, 1.0, 0.0, 1.0, 0.05, 0.0,
                           horizon=4.0, n_steps=8)
    with pytest.raises(LostPositivity, match="node"):
        solve_riccati(model)


def _segment_model_2d():
    """Piecewise-constant 2-d model with four coefficient segments."""
    n_steps, seg = 400, 100
    rng = np.random.default_rng(11)
    F_seg = rng.normal(0.0, 0.5, (4, 2, 2))
    F = np.repeat(F_seg, seg, axis=0)
    G = np.broadcast_to(np.array([[1.0, 0.4], [0.0, 0.8]]), (n_steps, 2, 2)).copy()
    Q = np.broadcast_to(np.array([[0.6, 0.2], [0.2, 0.5]]), (n_steps, 2, 2)).copy()
    R = np.broadcast_to(np.eye(2), (n_steps, 2, 2)).copy()
    zeros = np.zeros((n_steps, 2))
    schedule = ModelSchedule(F=F, f=zeros, G=G, g=zeros, Q=Q, R=R,
                             x0=np.zeros(2))
    return validate_model(schedule, TimeGrid(1.0, n_steps)), F_seg, seg


def _integrate_segments(model, F_seg, seg, rhs_from_F, y0):
    """Chain solve_ivp across the constant-coefficient segments."""
    dt = model.grid.dt
    y = np.asarray(y0, dtype=float)
    for j, F in enumerate(F_seg):
        sol = solve_ivp(rhs_from_F(F), (j * seg * dt, (j + 1) * seg * dt), y,
                        method="DOP853", rtol=1e-12, atol=1e-13)
        y = sol.y[:, -1]
    return y


def test_riccati_2d_matches_independent_integrator():
    model, F_seg, seg = _segment_model_2d()
    S = model.S[0]
    Q = model.Q[0]

    def rhs_from_F(F):
        def rhs(_t, y):
            P = y.reshape(2, 2)
            dP = F @ P + P @ F.T - P @ S @ P + Q
            return dP.ravel()
        return rhs

    ref = _integrate_segments(model, F_seg, seg, rhs_from_F, np.zeros(4))
    ours = solve_riccati(model).P[-1]
    assert np.max(np.abs(ours - ref.reshape(2, 2))) <= 1e-9


def test_error_stats_2d_matches_independent_integrator():
    model, F_seg, seg = _segment_model_2d()
    S = model.S[0]
    Q = model.Q[0]
    theta = np.array([0.3, -0.4])

    def rhs_from_F(F):
        def rhs(_t, y):
            P = y[:4].reshape(2, 2)
            b = y[4:6]
            Sig = y[6:].reshape(2, 2)
            A = F - P @ S
            dP = F @ P + P @ F.T - P @ S @ P + Q
            db = A @ b + theta
            dSig = A @ Sig + Sig @ A.T + Q + P @ S @ P
            return np.concatenate([dP.ravel(), db, dSig.ravel()])
        return rhs

    ref = _integrate_segments(model, F_seg, seg, rhs_from_F, np.zeros(10))
    riccati = solve_riccati(model)
    theta_path = np.broadcast_to(theta, (model.n_steps, 2)).copy()
    stats = solve_error_stats(model, theta_path, np.zeros((model.n_steps, 2)),
                              riccati)
    assert np.max(np.abs(stats.bias[-1] - ref[4:6])) <= 1e-9
    assert np.max(np.abs(stats.Sigma[-1] - ref[6:].reshape(2, 2))) <= 1e-9
    want_mse = ref[6] + ref[9] + ref[4] ** 2 + ref[5] ** 2
    assert abs(stats.mse[-1] - want_mse) <= 1e-8


# ---------------------------------------------------------------------------
# Independent oracles for an n=3, m=2 model with constant coefficients:
# non-diagonal F, non-identity Q, correlated R.

N3_F = np.array([[-1.0, 0.3, 0.0], [0.0, -0.5, 0.2], [0.1, 0.0, -2.0]])
N3_G = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
N3_Q = np.array([[1.0, 0.2, 0.0], [0.2, 1.5, 0.0], [0.0, 0.0, 0.8]])
N3_R = np.array([[1.0, 0.1], [0.1, 2.0]])
N3_CHECK_TIMES = (0.5, 1.0, 2.0)


@pytest.fixture(scope="module")
def n3_model():
    return constant_model(N3_F, np.zeros(3), N3_G, np.zeros(2), N3_Q, N3_R,
                          np.zeros(3), horizon=2.0, n_steps=2000)


@pytest.fixture(scope="module")
def n3_riccati(n3_model):
    return solve_riccati(n3_model)


@pytest.fixture(scope="module")
def n3_joint_reference():
    """P, Psi(t, 0), M_t, the unit-drift bias and Sigma from one DOP853 run
    of the joint ODE, at each of N3_CHECK_TIMES."""
    S = N3_G.T @ np.linalg.solve(N3_R, N3_G)
    eye = np.eye(3)
    sizes = (9, 9, 9, 3, 9)

    def rhs(_t, y):
        P, Psi, M, b, Sig = np.split(y, np.cumsum(sizes)[:-1])
        P, Psi, M, Sig = (a.reshape(3, 3) for a in (P, Psi, M, Sig))
        A = N3_F - P @ S
        return np.concatenate([
            (N3_F @ P + P @ N3_F.T - P @ S @ P + N3_Q).ravel(),
            (A @ Psi).ravel(),
            (A @ M + eye).ravel(),
            A @ b + 1.0,
            (A @ Sig + Sig @ A.T + N3_Q + P @ S @ P).ravel(),
        ])

    y0 = np.concatenate([np.zeros(9), eye.ravel(), np.zeros(9 + 3 + 9)])
    sol = solve_ivp(rhs, (0.0, 2.0), y0, method="DOP853", rtol=1e-12,
                    atol=1e-13, t_eval=N3_CHECK_TIMES)
    out = {}
    for j, t in enumerate(N3_CHECK_TIMES):
        P, Psi, M, b, Sig = np.split(sol.y[:, j], np.cumsum(sizes)[:-1])
        out[t] = {"P": P.reshape(3, 3), "Psi": Psi.reshape(3, 3),
                  "M": M.reshape(3, 3), "bias": b, "Sigma": Sig.reshape(3, 3)}
    return out


def test_riccati_n3_matches_hamiltonian_exponential(n3_model, n3_riccati):
    # P = Y X^-1 with [X; Y](t) = expm(H t) [I; 0], H = [[-F', S], [Q, F]].
    S = n3_model.S[0]
    H = np.block([[-N3_F.T, S], [N3_Q, N3_F]])
    for t in N3_CHECK_TIMES:
        XY = expm(H * t)[:, :3]
        want = np.linalg.solve(XY[:3].T, XY[3:].T).T
        got = n3_riccati.at(t)
        assert np.max(np.abs(got - want)) <= 1e-8, t


def test_state_transition_n3_matches_expm(n3_model):
    cache = TransitionCache(n3_model)
    for s, t in [(0.0, 2.0), (0.5, 1.0), (1.25, 2.0)]:
        got = transition(n3_model, s, t, cache=cache)
        want = expm(N3_F * (t - s))
        assert np.max(np.abs(got - want)) <= 1e-8, (s, t)


def test_n3_moments_match_joint_integrator(n3_model, n3_riccati,
                                           n3_joint_reference):
    ones = np.ones((n3_model.n_steps, 3))
    stats = solve_error_stats(n3_model, ones, np.zeros_like(ones), n3_riccati)
    cache = TransitionCache(n3_model, "closed_loop", n3_riccati)
    for t, ref in n3_joint_reference.items():
        k = n3_model.grid.index_of(t)
        got = {
            "P": n3_riccati.P[k],
            "Psi": cache.matrix(0, k),
            "M": _game_core(n3_model, n3_riccati, t).M,
            "bias": stats.bias[k],
            "Sigma": stats.Sigma[k],
        }
        for name, value in got.items():
            err = np.max(np.abs(value - ref[name]))
            assert err <= 1e-8, (t, name, err)


# ---------------------------------------------------------------------------
# Scalar closed forms


def test_steady_state_scalar_values():
    assert abs(steady_state_scalar(-1.0, 1.0, 1.0, 1.0) - (math.sqrt(2.0) - 1.0)) <= 1e-15
    assert abs(steady_state_scalar(-1.0, 1.0, 1.0, 1.0) - P_INF) <= 1e-15
    assert steady_state_scalar(0.0, 1.0, 1.0, 1.0) == 1.0
    assert steady_state_scalar(-1.0, 1.0, 0.0, 1.0) == 0.0


def test_steady_state_scalar_rejects_bad_inputs():
    with pytest.raises(DegenerateG):
        steady_state_scalar(-1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="R"):
        steady_state_scalar(-1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="Q"):
        steady_state_scalar(-1.0, 1.0, -0.5, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    F=st.floats(-3.0, 3.0),
    G=st.floats(0.2, 3.0),
    Q=st.floats(0.0, 5.0),
    R=st.floats(0.1, 5.0),
)
def test_steady_state_scalar_is_a_nonnegative_root(F, G, Q, R):
    p = steady_state_scalar(F, G, Q, R)
    assert p >= 0.0
    residual = 2.0 * F * p - p * p * G * G / R + Q
    scale = 1.0 + abs(F) * p + p * p * G * G / R + Q
    assert abs(residual) <= 1e-9 * scale


def test_scalar_solution_starts_at_zero():
    assert riccati_scalar_solution(-1.0, 1.0, 1.0, 1.0, 0.0) == 0.0


def test_scalar_solution_without_observations():
    # G = 0 reduces to a linear ODE with solution Q (e^{2Ft} - 1) / (2F).
    F, Q, t = -0.5, 2.0, 1.5
    want = Q * (math.exp(2.0 * F * t) - 1.0) / (2.0 * F)
    assert abs(riccati_scalar_solution(F, 0.0, Q, 1.0, t) - want) <= 1e-12
    assert abs(riccati_scalar_solution(0.0, 0.0, Q, 1.0, t) - Q * t) <= 1e-12


def test_scalar_solution_matches_frozen_transient():
    assert abs(riccati_scalar_solution(-1.0, 1.0, 1.0, 1.0, 1.0) - P_ONE) <= 1e-12


def test_scalar_solution_reaches_steady_state():
    late = riccati_scalar_solution(-1.0, 1.0, 1.0, 1.0, 40.0)
    assert abs(late - steady_state_scalar(-1.0, 1.0, 1.0, 1.0)) <= 1e-12


def test_scalar_solution_rejects_bad_inputs():
    with pytest.raises(ValueError, match="R"):
        riccati_scalar_solution(-1.0, 1.0, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="Q"):
        riccati_scalar_solution(-1.0, 1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="t"):
        riccati_scalar_solution(-1.0, 1.0, 1.0, 1.0, -0.1)


@settings(max_examples=40, deadline=None)
@given(
    F=st.floats(-2.0, 2.0),
    G=st.floats(0.5, 2.0),
    Q=st.floats(0.0, 3.0),
    R=st.floats(0.5, 3.0),
    t=st.floats(0.1, 3.0),
)
def test_scalar_solution_satisfies_the_ode(F, G, Q, R, t):
    h = 1e-5
    deriv = (riccati_scalar_solution(F, G, Q, R, t + h)
             - riccati_scalar_solution(F, G, Q, R, t - h)) / (2.0 * h)
    p = riccati_scalar_solution(F, G, Q, R, t)
    assert abs(deriv - (2.0 * F * p - p * p * G * G / R + Q)) <= 1e-5


# ---------------------------------------------------------------------------
# Transition matrices


def test_transition_zero_generator_is_identity():
    model = constant_model(np.zeros((2, 2)), np.array([1.0, -2.0]),
                           np.array([[1.0, 0.0]]), 0.0, np.eye(2), 1.0,
                           np.zeros(2), horizon=1.0, n_steps=50)
    assert np.array_equal(transition(model, 0.0, 1.0), np.eye(2))


@pytest.mark.parametrize("a", [2.0, -2.0, -1.0])
def test_transition_matches_scalar_exponential(a):
    model = constant_model(a, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                           horizon=5.0, n_steps=5000)
    got = transition(model, 0.0, 5.0)[0, 0]
    want = math.exp(5.0 * a)
    assert abs(got - want) <= 1e-8 * max(1.0, want)


def _wavy_scalar_model(n_steps=200, horizon=2.0):
    grid = TimeGrid(horizon, n_steps)
    F = (-1.0 + 0.8 * np.sin(grid.times[:-1])).reshape(n_steps, 1, 1)
    ones = np.ones((n_steps, 1, 1))
    zeros = np.zeros((n_steps, 1))
    schedule = ModelSchedule(F=F, f=zeros, G=ones, g=zeros, Q=ones, R=ones,
                             x0=np.zeros(1))
    return validate_model(schedule, grid)


@pytest.mark.parametrize("generator", ["state", "closed_loop"])
def test_transition_semigroup_property(generator):
    model = _wavy_scalar_model()
    riccati = solve_riccati(model) if generator == "closed_loop" else None
    cache = TransitionCache(model, generator, riccati)
    whole = cache.matrix(0, 200)
    first = cache.matrix(0, 100)
    second = cache.matrix(100, 200)
    assert np.max(np.abs(second @ first - whole)) <= 1e-8


def test_transition_determinant_stays_positive():
    rng = np.random.default_rng(7)
    F = rng.normal(0.0, 1.0, (2, 2))
    model = constant_model(F, np.zeros(2), np.array([[1.0, 0.0]]), 0.0,
                           np.eye(2), 1.0, np.zeros(2),
                           horizon=1.0, n_steps=100)
    cache = TransitionCache(model)
    dets = [np.linalg.det(cache.matrix(0, k)) for k in range(0, 101, 10)]
    assert min(dets) > 0.0


def test_closed_loop_equals_state_without_observations():
    # G = 0 makes S vanish, so both generators run the same arithmetic.
    model = constant_model(-0.7, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0,
                           horizon=1.0, n_steps=100)
    riccati = solve_riccati(model)
    a = transition(model, 0.0, 1.0, generator="state")
    b = transition(model, 0.0, 1.0, generator="closed_loop", riccati=riccati)
    assert np.array_equal(a, b)


def test_transition_cache_guards(fast_model, fast_riccati):
    with pytest.raises(ValueError, match="generator"):
        TransitionCache(fast_model, "flow")
    with pytest.raises(MissingRiccati):
        TransitionCache(fast_model, "closed_loop")
    other = solve_riccati(fast_model.truncate(100))
    with pytest.raises(GridMismatch):
        TransitionCache(fast_model, "closed_loop", other)

    cache = TransitionCache(fast_model)
    with pytest.raises(OutOfGrid):
        cache.matrix(5, 3)
    with pytest.raises(OutOfGrid):
        cache.matrix(0, 500)
    with pytest.raises(OutOfGrid):
        cache.trajectory(-1)


def test_transition_rejects_foreign_cache(fast_model):
    other_model = constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                                 horizon=2.0, n_steps=200)
    cache = TransitionCache(other_model)
    with pytest.raises(ValueError, match="cache"):
        transition(fast_model, 0.0, 1.0, cache=cache)
    with pytest.raises(OutOfGrid):
        transition(fast_model, 0.0, 0.00033)
    with pytest.raises(OutOfGrid):
        transition(fast_model, 0.5, 0.25)


def test_transition_cache_rows_are_shared_and_frozen(fast_model):
    cache = TransitionCache(fast_model)
    row = cache.trajectory(10)
    assert cache.trajectory(10) is row
    assert not row.flags.writeable
    assert np.array_equal(row[0], np.eye(1))


# ---------------------------------------------------------------------------
# Exact error moments


def test_matched_drift_has_zero_bias(fast_model, fast_riccati):
    theta = np.full((fast_model.n_steps, 1), 0.6)
    stats = solve_error_stats(fast_model, theta, theta, fast_riccati)
    assert np.array_equal(stats.bias, np.zeros_like(stats.bias))
    assert np.max(np.abs(stats.Sigma - fast_riccati.P)) <= 1e-7
    assert np.max(np.abs(stats.mse - fast_riccati.P[:, 0, 0])) <= 1e-7
    assert stats.mse[0] == 0.0


def test_matched_drift_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(3):
        a = rng.uniform(-2.0, 0.0)
        g = rng.uniform(0.5, 2.0)
        q = rng.uniform(0.2, 2.0)
        r = rng.uniform(0.5, 2.0)
        model = constant_model(a, 0.0, g, 0.0, q, r, 0.0,
                               horizon=1.0, n_steps=500)
        riccati = solve_riccati(model)
        theta = np.full((500, 1), rng.uniform(-1.0, 1.0))
        stats = solve_error_stats(model, theta, theta, riccati)
        assert np.array_equal(stats.bias, np.zeros_like(stats.bias))
        assert np.max(np.abs(stats.Sigma - riccati.P)) <= 1e-7


def test_bias_hits_frozen_unit_drift_value(default_model, default_riccati):
    ones = np.ones((default_model.n_steps, 1))
    zeros = np.zeros_like(ones)
    stats = solve_error_stats(default_model, ones, zeros, default_riccati)
    k = default_model.grid.index_of(1.0)
    assert abs(stats.bias[k, 0] - J_ONE) <= 1e-9
    assert stats.mse_at(1.0) == pytest.approx(
        stats.Sigma[k, 0, 0] + stats.bias[k, 0] ** 2, abs=1e-12)


def test_bias_matches_transition_quadrature(fast_model, fast_riccati):
    # b(T) = integral of Psi(s -> T) (theta - theta_hat)(s) ds.
    n_steps = fast_model.n_steps
    theta = np.ones((n_steps, 1))
    stats = solve_error_stats(fast_model, theta, np.zeros_like(theta),
                              fast_riccati)
    cache = TransitionCache(fast_model, "closed_loop", fast_riccati)
    vals = np.array([cache.trajectory(s)[-1][0, 0] for s in range(n_steps + 1)])
    quad = np.trapezoid(vals, dx=fast_model.grid.dt)
    assert abs(stats.bias[-1, 0] - quad) <= 1e-4


def test_mse_shift_invariance(fast_model, fast_riccati):
    # Only the difference theta - theta_hat enters; binary-fraction shift
    # keeps the subtraction exact.
    n_steps = fast_model.n_steps
    t_true = np.full((n_steps, 1), 0.75)
    t_hat = np.full((n_steps, 1), 0.25)
    base = solve_error_stats(fast_model, t_true, t_hat, fast_riccati)
    shifted = solve_error_stats(fast_model, t_true + 0.5, t_hat + 0.5,
                                fast_riccati)
    assert np.array_equal(base.mse, shifted.mse)
    assert np.array_equal(base.bias, shifted.bias)


def test_error_stats_accepts_policies(fast_model, fast_riccati):
    policy = rk.constant_policy(fast_model, 0.3)
    raw = np.full((fast_model.n_steps, 1), 0.3)
    zeros = rk.zero_policy(fast_model)
    a = solve_error_stats(fast_model, policy, zeros, fast_riccati)
    b = solve_error_stats(fast_model, raw, np.zeros_like(raw), fast_riccati)
    assert np.array_equal(a.mse, b.mse)


def test_error_stats_grid_guards(fast_model, fast_riccati):
    good = np.zeros((fast_model.n_steps, 1))
    with pytest.raises(GridMismatch, match="theta_true"):
        solve_error_stats(fast_model, np.zeros((50, 1)), good, fast_riccati)
    with pytest.raises(GridMismatch, match="theta_hat"):
        solve_error_stats(fast_model, good, np.zeros((fast_model.n_steps, 2)),
                          fast_riccati)
    small = solve_riccati(fast_model.truncate(100))
    with pytest.raises(GridMismatch):
        solve_error_stats(fast_model, good, good, small)
    with pytest.raises(OutOfGrid):
        solve_error_stats(fast_model, good, good, fast_riccati).mse_at(0.12345)

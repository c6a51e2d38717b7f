"""Riccati path, transition matrices and exact error moments."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import robustkb as rk
from robustkb import (
    DegenerateG,
    GridMismatch,
    IllConditionedStep,
    LostPositivity,
    MissingRiccati,
    ModelSchedule,
    OutOfGrid,
    RobustKBError,
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
from robustkb.ode import (_SIGMA_BLOCK, _UNFORCED, RiccatiPath, _closed_loop,
                          _forward, _input_maps, _levels, _lyapunov_path,
                          _propagate, _rk4_step, _stage_covariances, _sym)

import path_major
from oracles import J_ONE, P_HALF, P_INF, P_ONE, P_TWO, RICCATI_EXACT_TOL, riccati_exact
from per_step import (RICCATI_FORM_TOL, RICCATI_NODE_MAP_TOL, closed_loop_stages,
                      forced_terms_per_stage, riccati_node_map, riccati_per_step,
                      riccati_stages, sigma_per_step)


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


def test_riccati_n3_converges_at_fourth_order():
    """Halving dt should shrink the largest error from the exact path of a
    time-varying n = 3 schedule by about 16x."""
    errs = [np.max(np.abs(solve_riccati(model).P - riccati_exact(model)))
            for model in (_moments_n3_model(20), _moments_n3_model(40))]
    assert errs[0] / errs[1] >= 8.0, errs


def test_scalar_riccati_matches_the_matrix_loop():
    # n = 1 runs on Python floats; it must equal the matrix RK4 loop bitwise.
    n_steps = 1000
    grid = TimeGrid(10.0, n_steps)
    t = grid.times[:-1]
    col = lambda a: a.reshape(n_steps, 1, 1)
    zeros = np.zeros((n_steps, 1))
    schedule = ModelSchedule(
        F=col(-0.4 + 1.3 * np.sin(3.0 * t)), f=zeros,
        G=col(0.8 + 0.5 * np.cos(t)), g=zeros,
        Q=col(0.7 + 0.4 * np.sin(5.0 * t) ** 2), R=col(0.5 + 0.2 * t),
        x0=np.zeros(1))
    model = validate_model(schedule, grid)
    dt = grid.dt
    half, sixth = 0.5 * dt, dt / 6.0

    def rhs(P, k):
        F, S, Q = model.F[k], model.S[k], model.Q[k]
        return F @ P + P @ F.T - P @ S @ P + Q

    want = np.empty((n_steps + 1, 1, 1))
    P = want[0] = np.zeros((1, 1))
    for k in range(n_steps):
        k1 = rhs(P, k)
        k2 = rhs(P + half * k1, k)
        k3 = rhs(P + half * k2, k)
        k4 = rhs(P + dt * k3, k)
        P = P + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        P = want[k + 1] = 0.5 * (P + P.T)
    got = solve_riccati(model)
    assert got.P.tobytes() == want.tobytes()
    assert got.min_eigenvalue == float(want.min())


def _reference_model(request):
    """The bundled scenario (n1), the n = 2 layout model (n2) or the n = 3
    schedule (n3), as request.param names it."""
    return {
        "n1": lambda: request.getfixturevalue("default_model"),
        "n2": lambda: path_major.layout_models(600)["n2"],
        "n3": _moments_n3_model,
    }[request.param]()


@pytest.fixture(scope="module", params=["n1", "n2", "n3"])
def riccati_case(request):
    model = _reference_model(request)
    return model, solve_riccati(model)


def test_riccati_matches_the_per_step_loop(riccati_case):
    model, riccati = riccati_case
    want = riccati_per_step(model)
    P = riccati.P
    if model.n == 1:
        assert P.tobytes() == want.tobytes()
    else:
        # The Hamiltonian scan and the per-step loop are two fourth-order
        # schemes: each is held to the exact path, and the scan is no farther
        # from it than the loop.
        exact = riccati_exact(model)
        err = np.max(np.abs(P - exact))
        assert err <= RICCATI_EXACT_TOL * (1.0 + np.max(np.abs(exact))), err
        assert err <= np.max(np.abs(want - exact)), err
    # Every node is symmetric.
    assert np.array_equal(P, np.swapaxes(P, 1, 2))


@pytest.mark.parametrize("riccati_case", ["n2", "n3"], indirect=True)
def test_riccati_matches_the_node_map(riccati_case):
    model, riccati = riccati_case
    want = riccati_node_map(model)
    err = np.max(np.abs(riccati.P - want))
    assert err <= RICCATI_NODE_MAP_TOL * (1.0 + np.max(np.abs(want))), err


def test_stage_covariances_match_the_four_product_stages(riccati_case):
    model, riccati = riccati_case
    got = _stage_covariances(model, riccati.P)
    want = riccati_stages(model, riccati.P)
    if model.n == 1:
        assert got.tobytes() == want.tobytes()
    err = np.max(np.abs(got - want))
    assert err <= RICCATI_FORM_TOL * (1.0 + np.max(np.abs(want))), err
    assert np.array_equal(got, np.swapaxes(got, -1, -2))


def test_riccati_reports_lost_positivity():
    # Stiff instance (S = 20) on a dt = 0.5 grid; RK4 overshoots below zero.
    model = constant_model(0.0, 0.0, 1.0, 0.0, 1.0, 0.05, 0.0,
                           horizon=4.0, n_steps=8)
    with pytest.raises(LostPositivity, match="node"):
        solve_riccati(model)


def test_riccati_n2_lift_of_the_stiff_instance_reaches_the_root():
    # Declared change: the same instance on both axes.  The per-step loop
    # overshoots below zero at node 1 as the scalar loop does, but the
    # Hamiltonian step maps scale X alike on both axes, so P = Y X^-1 goes to
    # their dominant eigenvector, the root sqrt(Q/S) = sqrt(0.05).
    model = constant_model(np.zeros((2, 2)), np.zeros(2), np.eye(2), np.zeros(2),
                           np.eye(2), 0.05 * np.eye(2), np.zeros(2),
                           horizon=4.0, n_steps=8)
    assert np.linalg.eigvalsh(riccati_per_step(model)[1]).min() < -0.07
    P = solve_riccati(model).P
    assert np.linalg.eigvalsh(P).min() >= 0.0
    assert np.max(np.abs(P[-1] - math.sqrt(0.05) * np.eye(2))) <= 1e-9


def _stiff_model(corner, n_steps=2000):
    """F = [[corner, 1], [0, -1]], G = [1, 0], Q = I, R = 1 on [0, 2]: a fast
    mode that grows the Hamiltonian's X by up to e^(-corner dt) per step."""
    return constant_model(np.array([[corner, 1.0], [0.0, -1.0]]), np.zeros(2),
                          np.array([[1.0, 0.0]]), np.zeros(1), np.eye(2), 1.0,
                          np.zeros(2), horizon=2.0, n_steps=n_steps)


@pytest.mark.parametrize("corner", [-500.0, -1200.0])
def test_riccati_stiff_model_matches_the_exact_path(corner):
    # From t = 1 on, past the fast transient, the path is measured within
    # 5.5e-15 and 7.1e-15 times (1 + max|P|) of the exact one (the per-step
    # loop: 1.7e-14 and 9.2e-15).
    model = _stiff_model(corner)
    P = solve_riccati(model).P
    exact = riccati_exact(model)
    late = model.grid.index_of(1.0)
    err = np.max(np.abs(P[late:] - exact[late:]))
    assert err <= 2e-13 * (1.0 + np.max(np.abs(exact))), err
    # In the transient, RK4 at dt |corner| = 0.5 or more is far from exact;
    # the scan stays no farther than the per-step loop.
    assert np.max(np.abs(P - exact)) <= np.max(np.abs(riccati_per_step(model) - exact))


@pytest.mark.parametrize("corner", [-500.0, -1200.0])
def test_riccati_stiff_model_matches_the_node_map(corner):
    model = _stiff_model(corner)
    P = solve_riccati(model).P
    want = riccati_node_map(model)
    scale = 1.0 + np.max(np.abs(want))
    late = model.grid.index_of(1.0)
    err = np.max(np.abs(P[late:] - want[late:]))
    assert err <= RICCATI_NODE_MAP_TOL * scale, err
    # In the -1200 transient node 2 is 2.6e-11 (times 1 + max|P|) from the
    # node map, which symmetrizes node 1 on the way; the scan composes the
    # first two steps into one element.
    err = np.max(np.abs(P - want))
    assert err <= 1e-10 * scale, err


def test_riccati_solves_a_step_whose_x_is_ill_conditioned():
    # With S = 0 the step maps scale X by the RK4 growth of -F' dt, whatever
    # P is.  Interval 5 grows one axis by about 4e4 and the other not at all,
    # so its X has condition number 3.9e4; the element scan inverts no
    # product of X and matches the node-by-node map to 5.6e-17.
    n_steps = 10
    F = np.zeros((n_steps, 2, 2))
    F[:, 0, 0] = -1.0
    F[5, 0, 0] = -300.0
    schedule = ModelSchedule(F=F, f=np.zeros((n_steps, 2)),
                             G=np.zeros((n_steps, 1, 2)), g=np.zeros((n_steps, 1)),
                             Q=np.broadcast_to(np.eye(2), (n_steps, 2, 2)),
                             R=np.ones((n_steps, 1, 1)), x0=np.zeros(2))
    model = validate_model(schedule, TimeGrid(1.0, n_steps))
    P = solve_riccati(model).P
    want = riccati_node_map(model)
    assert np.max(np.abs(P - want)) <= 1e-15 * (1.0 + np.max(np.abs(want)))
    assert P[:6].tobytes() == solve_riccati(model.truncate(5)).P.tobytes()


def test_riccati_refuses_an_overflowing_step():
    # With S = 0, X is a multiple of I while Y, of order Q dt, overflows in
    # the first step.
    model = constant_model(-np.eye(2), np.zeros(2), np.zeros((1, 2)), np.zeros(1),
                           8e307 * np.eye(2), 1.0, np.zeros(2),
                           horizon=10.0, n_steps=10)
    with np.errstate(all="ignore"):
        with pytest.raises(IllConditionedStep, match=r"^interval 0 "):
            solve_riccati(model)


def test_riccati_names_the_interval_of_a_singular_element():
    # F = 1e5 on every entry over interval 3 of a dt = 0.25 grid, with S = 0:
    # T11 = I + c U, U the all-ones matrix and c = (p(-5e4) - 1) / 2 = 1.3e17
    # for the RK4 polynomial p.  c > 2^53, so the I rounds away, T11's rows
    # are equal and its inverse W does not exist.
    n_steps = 8
    F = np.broadcast_to(-np.eye(2), (n_steps, 2, 2)).copy()
    F[3] = 1e5
    schedule = ModelSchedule(F=F, f=np.zeros((n_steps, 2)),
                             G=np.zeros((n_steps, 1, 2)), g=np.zeros((n_steps, 1)),
                             Q=np.broadcast_to(np.eye(2), (n_steps, 2, 2)),
                             R=np.ones((n_steps, 1, 1)), x0=np.zeros(2))
    model = validate_model(schedule, TimeGrid(2.0, n_steps))
    with pytest.raises(IllConditionedStep,
                       match=r"^interval 3 \(t = 0.75\): .* not finite"):
        solve_riccati(model)
    assert np.isfinite(solve_riccati(model.truncate(3)).P).all()


def test_scalar_riccati_refuses_an_overflowing_step():
    # The n = 1 loop reaches inf at node 1 and nan after it; min_eigenvalue
    # would be nan, which no floor comparison trips.
    model = constant_model(-1.0, 0.0, 0.0, 0.0, 8e307, 1.0, 0.0,
                           horizon=10.0, n_steps=10)
    with pytest.raises(IllConditionedStep, match=r"^interval 0 \(t = 0\): .* not finite"):
        solve_riccati(model)


@pytest.mark.parametrize("n_steps", [2, 4])
def test_scalar_riccati_names_lost_positivity_before_overflow(n_steps):
    # At dt = 2 the RK4 step overshoots: P = [0, -1.4e9, -8.7e165, nan, ...].
    # The first negative node is named whatever the horizon.
    model = constant_model(0.0, 0.0, 1.0, 0.0, 1.0, 0.05, 0.0,
                           horizon=2.0 * n_steps, n_steps=n_steps)
    with pytest.raises(LostPositivity, match=r"^covariance at node 1 "):
        solve_riccati(model)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(-2, 8), st.integers(1, 40),
       st.floats(1e-3, 50.0), st.integers(0, 2**32 - 1))
# An n = 2 scan whose last node overflows in the solve for Y X^-1.
@example(2, 3, 31, 21.0, 24830)
def test_riccati_raises_only_library_errors(n, magnitude, n_steps, horizon, seed):
    # Stiff, coarse and overflowing models alike: a finite path or a
    # RobustKBError, never a LinAlgError.
    rng = np.random.default_rng(seed)
    F = 10.0 ** magnitude * rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    model = constant_model(F, np.zeros(n), rng.standard_normal((1, n)), np.zeros(1),
                           B @ B.T + 1e-3 * np.eye(n), 0.1, np.zeros(n),
                           horizon=horizon, n_steps=n_steps)
    with np.errstate(all="ignore"):
        try:
            riccati = solve_riccati(model)
        except RobustKBError:
            return
    assert np.isfinite(riccati.P).all()
    assert np.array_equal(riccati.P, np.swapaxes(riccati.P, 1, 2))


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


# ---------------------------------------------------------------------------
# The blocked vec-Lyapunov Sigma against the per-step loop


def _fresh(riccati):
    """The same covariance path with an empty closed-loop memo."""
    return RiccatiPath(riccati.grid, riccati.P, riccati.min_eigenvalue)


def _moments_n3_model(n_steps=2000):
    """A seeded time-varying schedule over the N3 coefficients, built the way
    the moments-n3 benchmark builds its model."""
    grid = TimeGrid(2.0, n_steps)
    rng = np.random.default_rng(51)
    E = 0.2 * rng.standard_normal((3, 3))
    phase = 2.0 * np.pi * grid.times[:-1] / grid.horizon
    return validate_model(ModelSchedule(
        F=N3_F + np.sin(phase)[:, None, None] * E,
        f=np.zeros((n_steps, 3)), G=np.broadcast_to(N3_G, (n_steps, 2, 3)),
        g=np.zeros((n_steps, 2)),
        Q=N3_Q * (1.0 + 0.3 * np.cos(phase))[:, None, None],
        R=np.broadcast_to(N3_R, (n_steps, 2, 2)), x0=np.zeros(3)), grid)


# Grid sizes per model: K = 1, a K below the block size and a K that is not
# a multiple of it.
SIGMA_SIZES = {"n1": (1, 50, 2000), "n2": (1, 12, 600), "n3": (1, 40, 2000)}


@pytest.fixture(scope="module", params=sorted(SIGMA_SIZES))
def sigma_case(request):
    model = _reference_model(request)
    return model, solve_riccati(model), SIGMA_SIZES[request.param]


def test_sigma_sizes_straddle_the_block():
    sizes = [k for ks in SIGMA_SIZES.values() for k in ks]
    assert all(k < _SIGMA_BLOCK or k % _SIGMA_BLOCK for k in sizes)
    assert any(k > _SIGMA_BLOCK for k in sizes)


def test_sigma_matches_the_per_step_loop(sigma_case):
    full_model, full_riccati, sizes = sigma_case
    rng = np.random.default_rng(7)
    for k_steps in sizes:
        model = full_model.truncate(k_steps)
        riccati = full_riccati.prefix(k_steps)
        pairs = [rng.uniform(-1.0, 1.0, (2, k_steps, model.n)) for _ in range(2)]
        a, b = (solve_error_stats(model, th, th_hat, riccati) for th, th_hat in pairs)
        want = sigma_per_step(model, riccati)
        err = np.max(np.abs(a.Sigma - want))
        assert err <= 1e-13 * (1.0 + np.max(np.abs(riccati.P))), (k_steps, err)
        assert np.array_equal(a.Sigma, np.swapaxes(a.Sigma, 1, 2))
        assert a.Sigma.tobytes() == b.Sigma.tobytes()
        A = closed_loop_stages(model, riccati)[2]
        th, th_hat = pairs[0]
        bias = _propagate(A, (th - th_hat)[:, :, None], model.grid.dt)[:, :, 0]
        assert a.bias.tobytes() == bias.tobytes()


def test_input_maps_match_the_per_stage_forcing(sigma_case):
    model, riccati, _ = sigma_case
    loop = _closed_loop(model, riccati)
    rng = np.random.default_rng(8)
    for shape in ((model.n, 1), (model.n, model.n)):
        U = rng.uniform(-1.0, 1.0, (model.n_steps,) + shape)
        want = forced_terms_per_stage(loop.stages()[2], U, model.grid.dt)
        err = np.max(np.abs(loop.D @ U - want))
        assert err <= 1e-14 * np.max(np.abs(want)), (shape, err)


def test_sigma_bits_ignore_the_block_size(monkeypatch):
    model = _moments_n3_model(300)
    riccati = solve_riccati(model)
    zeros = np.zeros((model.n_steps, 3))
    want = solve_error_stats(model, zeros, zeros, riccati).Sigma
    for block in (1, 7, 300, 1000):
        monkeypatch.setattr(rk.ode, "_SIGMA_BLOCK", block)
        # A fresh path: the memo of riccati already holds Sigma.
        got = solve_error_stats(model, zeros, zeros, _fresh(riccati)).Sigma
        assert got.tobytes() == want.tobytes(), block


def test_sigma_is_integrated_not_read_from_the_covariance_path():
    # Halving the covariance path detunes the gain, so Sigma solves a
    # Lyapunov equation whose solution is not the path it was given.
    model = _moments_n3_model(400)
    riccati = solve_riccati(model)
    half = RiccatiPath(model.grid, 0.5 * riccati.P, 0.5 * riccati.min_eigenvalue)
    zeros = np.zeros((model.n_steps, 3))
    got = solve_error_stats(model, zeros, zeros, half).Sigma
    want = sigma_per_step(model, half)
    assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))
    assert np.max(np.abs(got - riccati.P)) > 1e-3
    assert np.max(np.abs(got - half.P)) > 1e-3


def test_sigma_reports_lost_positivity():
    # An antisymmetric "covariance" makes W = Q + P S P indefinite.
    model = _moments_n3_model()
    node = np.array([[0.0, 3.0, 0.0], [-3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    fake = RiccatiPath(model.grid, np.broadcast_to(node, (model.n_steps + 1, 3, 3)),
                       0.0)
    zeros = np.zeros((model.n_steps, 3))
    for _ in range(2):  # a failure is not cached
        with pytest.raises(LostPositivity, match="error covariance at node 1 "):
            solve_error_stats(model, zeros, zeros, fake)


def test_error_stats_memory_stays_near_the_stages():
    # Sigma is built a block at a time: its traced peak stays within 1.5x of
    # the stage arrays alone, which one (4, K, n^2, n^2) generator would not.
    model = constant_model(N3_F, np.zeros(3), N3_G, np.zeros(2), N3_Q, N3_R,
                           np.zeros(3), horizon=2.0, n_steps=20000)
    riccati = solve_riccati(model)
    zeros = np.zeros((model.n_steps, 3))
    peaks = []
    tracemalloc.start()
    try:
        for call in (lambda: closed_loop_stages(model, riccati),
                     lambda: solve_error_stats(model, zeros, zeros, riccati)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


# ---------------------------------------------------------------------------
# The closed-loop memo on the covariance path


@pytest.fixture(scope="module", params=["n1", "n3"])
def memo_case(request):
    """The bundled scalar scenario and the time-varying n = 3 schedule."""
    model = (request.getfixturevalue("default_model") if request.param == "n1"
             else _moments_n3_model(400))
    return model, solve_riccati(model)


def _memo_outputs(model, riccati):
    """Every array the ode-layer memo callers return, for two policies."""
    rng = np.random.default_rng(11)
    out = []
    for _ in range(2):
        th = rng.uniform(-1.0, 1.0, (model.n_steps, model.n))
        th_hat = rng.uniform(-1.0, 1.0, (model.n_steps, model.n))
        stats = solve_error_stats(model, th, th_hat, riccati)
        out += [stats.bias, stats.Sigma, stats.mse]
    cache = TransitionCache(model, "closed_loop", riccati)
    out += [cache.trajectory(s) for s in (0, model.n_steps // 3)]
    bound = rk.UncertaintyBound(np.linspace(1.0, 0.5, model.n))
    for theta_hat in (np.zeros((model.n_steps, model.n)), th_hat):
        value, policy = rk.worst_case_mse(model, bound, theta_hat, 1.0,
                                          riccati=riccati)
        out += [np.array(value), policy.theta]
    return out


def test_memo_hits_match_a_fresh_path(memo_case):
    model, riccati = memo_case
    cold = _memo_outputs(model, _fresh(riccati))
    _memo_outputs(model, riccati)
    loop = riccati._memo[id(model)]
    assert {"T", "D", "sigma"} <= set(vars(loop))
    hot = _memo_outputs(model, riccati)
    assert riccati._memo == {id(model): loop}
    assert [a.tobytes() for a in hot] == [a.tobytes() for a in cold]


def test_memo_arrays_are_read_only(memo_case):
    model, riccati = memo_case
    loop = _closed_loop(model, riccati)
    for arr in (*loop.stages(), loop.T, loop.D, loop.sigma):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    zeros = np.zeros((model.n_steps, model.n))
    stats = solve_error_stats(model, zeros, zeros, riccati)
    assert stats.Sigma is loop.sigma


def test_sigma_recomputes_the_stage_covariances_bitwise(memo_case):
    # The memo keeps no stage covariances; Sigma recomputes them with the
    # arithmetic of the stage arrays, so its bits are those of the Lyapunov
    # path over freshly computed stages.
    model, riccati = memo_case
    loop = _closed_loop(model, _fresh(riccati))
    want = _sym(_lyapunov_path(model.Q, *closed_loop_stages(model, riccati),
                               model.grid.dt))
    assert loop.sigma.tobytes() == want.tobytes()
    assert not {"P", "PS"} & set(vars(loop))


def test_memo_keeps_no_stage_closed_loops(memo_case):
    # T and D come from one set of stages that is not kept; stages() builds
    # fresh read-only arrays with the bits of P_i, P_i S and F - P_i S.
    model, riccati = memo_case
    loop = _closed_loop(model, _fresh(riccati))
    for name in ("T", "D", "levels", "sigma"):
        getattr(loop, name)
    assert set(vars(loop)) == {"model", "nodes", "_rows", "T", "D", "levels",
                               "sigma"}
    want = closed_loop_stages(model, riccati)
    stages = loop.stages()
    for got, ref in zip(stages, want, strict=True):
        assert got.tobytes() == ref.tobytes()
        assert not got.flags.writeable
    assert loop.stages()[2] is not stages[2]
    dt = model.grid.dt
    assert loop.T.tobytes() == _rk4_step(want[2], np.eye(model.n), _UNFORCED,
                                         dt).tobytes()
    assert loop.D.tobytes() == _input_maps(want[2], dt).tobytes()


def test_stages_over_a_prefix_are_the_first_intervals_bitwise(memo_case):
    # Each interval's stages read its own node and coefficients only, so the
    # first k intervals of the whole grid's stages have the bits of stages(k).
    model, riccati = memo_case
    loop = _closed_loop(model, _fresh(riccati))
    full = loop.stages()
    for k in (1, 37, model.n_steps):
        part = loop.stages(k)
        for got, whole in zip(part, full, strict=True):
            assert got.shape == (4, k, model.n, model.n)
            assert got.tobytes() == whole[:, :k].tobytes(), k
    assert set(vars(loop)) == {"model", "nodes", "_rows"}


def test_memo_levels_are_those_of_the_step_maps(memo_case):
    model, riccati = memo_case
    loop = _closed_loop(model, _fresh(riccati))
    levels = loop.levels
    assert levels[0] is loop.T and loop.levels is levels
    assert [M.tobytes() for M in levels] == [M.tobytes() for M in _levels(loop.T)]
    for M in levels:
        with pytest.raises(ValueError, match="read-only"):
            M[...] = 0.0


def test_closed_loop_trajectory_from_node_0_reads_the_memo_levels(memo_case,
                                                                   monkeypatch):
    # The scan from node 0 composes no levels of its own and keeps the bits
    # of one that does; a later start composes those of its suffix.
    model, riccati = memo_case
    riccati = _fresh(riccati)
    loop = _closed_loop(model, riccati)
    loop.levels
    calls, levels = [], rk.ode._levels
    monkeypatch.setattr(rk.ode, "_levels", lambda T: calls.append(len(T)) or levels(T))
    cache = TransitionCache(model, "closed_loop", riccati)
    traj = cache.trajectory(0)
    assert calls == []
    s = model.n_steps // 3
    cache.trajectory(s)
    assert calls == [model.n_steps - s]
    assert traj.tobytes() == _forward(loop.T, np.eye(model.n)).tobytes()


def test_memo_holds_at_most_eight_maps_per_interval():
    # T, D, Sigma and the levels take about 4K matrices, and the kernel rows
    # at most 4K more, however many nodes are read.
    model = _moments_n3_model(400)
    riccati = solve_riccati(model)
    theta = np.full((model.n_steps, 3), 0.5)
    solve_error_stats(model, theta, np.zeros_like(theta), riccati)
    rk.correction_path(model, riccati, theta)
    for k in range(20, model.n_steps + 1, 20):
        rk.correction_kernel(model, riccati, model.grid.times[k])
    loop = riccati._memo[id(model)]
    kept = ([loop.T, loop.D, loop.sigma] + loop.levels[1:]
            + list(loop._rows.values()))
    matrix_bytes = model.n**2 * 8
    # Nodes 340..400 fill 1484 of the 1600 rows; node 320 would not fit.
    assert list(loop._rows) == [340, 360, 380, 400]
    assert sum(a.nbytes for a in kept) <= 8 * model.n_steps * matrix_bytes


def test_memo_keeps_one_closed_loop_per_model():
    first = _moments_n3_model(300)
    second = validate_model(ModelSchedule(
        F=first.F + 0.5 * np.eye(3), f=first.f, G=first.G, g=first.g,
        Q=first.Q, R=first.R, x0=first.x0), first.grid)
    riccati = solve_riccati(first)
    th = np.random.default_rng(12).uniform(-1.0, 1.0, (300, 3))
    zeros = np.zeros_like(th)
    a, b = (solve_error_stats(m, th, zeros, riccati) for m in (first, second))
    assert set(riccati._memo) == {id(first), id(second)}
    assert riccati._memo[id(second)].model is second
    assert not np.array_equal(riccati._memo[id(first)].stages()[2],
                              riccati._memo[id(second)].stages()[2])
    assert np.max(np.abs(a.bias - b.bias)) > 1e-3
    want = solve_error_stats(second, th, zeros, _fresh(riccati))
    for got, ref in ((b.bias, want.bias), (b.Sigma, want.Sigma), (b.mse, want.mse)):
        assert got.tobytes() == ref.tobytes()


def test_memo_guards_run_on_every_call(fast_model, fast_riccati):
    riccati = _fresh(fast_riccati)
    zeros = np.zeros((fast_model.n_steps, 1))
    solve_error_stats(fast_model, zeros, zeros, riccati)
    before = dict(riccati._memo)
    other = fast_model.truncate(100)
    for _ in range(2):
        with pytest.raises(GridMismatch):
            solve_error_stats(other, zeros[:100], zeros[:100], riccati)
        with pytest.raises(GridMismatch):
            TransitionCache(other, "closed_loop", riccati)
    assert riccati._memo == before
    # The check runs before the lookup, so even an entry filed under the
    # wrong model is never returned for a foreign grid.
    riccati._memo[id(other)] = riccati._memo[id(fast_model)]
    with pytest.raises(GridMismatch):
        _closed_loop(other, riccati)


def test_prefix_has_its_own_memo():
    model = _moments_n3_model(300)
    riccati = solve_riccati(model)
    zeros = np.zeros((300, 3))
    solve_error_stats(model, zeros, zeros, riccati)
    before = dict(riccati._memo)
    short, pre = model.truncate(120), riccati.prefix(120)
    stats = solve_error_stats(short, zeros[:120], zeros[:120], pre)
    loop = pre._memo[id(short)]
    assert riccati._memo == before
    assert loop.stages()[2].shape == (4, 120, 3, 3)
    assert loop.T.shape == (120, 3, 3)
    assert loop.sigma.shape == stats.Sigma.shape == (121, 3, 3)
    full = riccati._memo[id(model)]
    assert loop.T.tobytes() == full.T[:120].tobytes()
    assert dataclasses.replace(riccati)._memo == {}


def test_memo_retains_at_most_twice_the_stages():
    # The memo keeps the stage closed loops, the step and input maps and
    # Sigma while the path lives, and nothing once it is gone.
    model = constant_model(N3_F, np.zeros(3), N3_G, np.zeros(2), N3_Q, N3_R,
                           np.zeros(3), horizon=2.0, n_steps=20000)
    riccati = solve_riccati(model)
    theta = np.full((model.n_steps, 3), 0.5)
    stage_bytes = 4 * model.n_steps * 9 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_error_stats(model, theta, np.zeros_like(theta), riccati)
        for kernel in ("ode", "printed"):
            rk.correction_path(model, riccati, theta, kernel)
        rk.correction_term(model, riccati, theta, 1.0)
        retained = tracemalloc.get_traced_memory()[0] - base
        del riccati
        freed = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert stage_bytes <= retained <= 2 * stage_bytes, (retained, stage_bytes)
    assert freed <= 0.01 * stage_bytes, freed

"""Properties over random stable models, n = 1..3."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import robustkb as rk
from robustkb.ode import _backward, _forward

from oracles import riccati_exact
from per_step import riccati_per_step

_unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _matrix(draw, rows, cols):
    return np.array(draw(st.lists(_unit, min_size=rows * cols,
                                  max_size=rows * cols))).reshape(rows, cols)


@st.composite
def stable_models(draw):
    """Constant models whose F has every eigenvalue's real part <= -0.5,
    with Q and R positive definite, and a drift with entries of size 0.1..1."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    A = _matrix(draw, n, n)
    margin = draw(st.floats(0.5, 2.0))
    F = A - (max(np.linalg.eigvals(A).real.max(), 0.0) + margin) * np.eye(n)
    B, C = _matrix(draw, n, n), _matrix(draw, m, m)
    spec = dict(F=F, f=np.zeros(n), G=_matrix(draw, m, n), g=np.zeros(m),
                Q=B @ B.T + 0.1 * np.eye(n), R=C @ C.T + 0.5 * np.eye(m),
                x0=_matrix(draw, 1, n)[0])
    sizes = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    return spec, np.array(sizes) * np.array(signs)


def _model(spec, n_steps):
    return rk.constant_model(spec["F"], spec["f"], spec["G"], spec["g"],
                             spec["Q"], spec["R"], spec["x0"],
                             horizon=1.0, n_steps=n_steps)


def _covariance_and_sigma(spec, theta, n_steps):
    model = _model(spec, n_steps)
    riccati = rk.solve_riccati(model)
    stats = rk.solve_error_stats(model, rk.constant_policy(model, theta),
                                 rk.zero_policy(model), riccati)
    return model, riccati.P, stats.Sigma


# For n > 1, P and Sigma may each differ from the exact path by this much
# times (1 + max|P|) at K = 100.  Measured on 300 random models like
# stable_models(): P 2.9e-8 and Sigma 2.9e-8 with the per-step Riccati loop,
# P 1.8e-9 and Sigma 2.9e-8 with the Hamiltonian scan.
EXACT_TOL = 1e-7


@settings(max_examples=40, deadline=None)
@given(stable_models())
def test_covariance_stays_psd_and_sigma_equals_p(case):
    spec, theta = case
    model, P, Sigma = _covariance_and_sigma(spec, theta, 100)
    scale = 1.0 + float(np.max(np.abs(P)))
    assert np.linalg.eigvalsh(P).min() >= -1e-12 * scale
    if model.n == 1:
        # solve_error_stats steps through the RK4 stages of solve_riccati:
        # Sigma = P.
        assert np.max(np.abs(Sigma - P)) <= 1e-9 * scale
        return
    # P (RK4 on the Hamiltonian system) and Sigma (RK4 on the Lyapunov
    # equation) are two fourth-order schemes for one exact path: each is
    # near it, and their gap falls at fourth order.
    exact = riccati_exact(model)
    for name, path in (("P", P), ("Sigma", Sigma)):
        err = np.max(np.abs(path - exact))
        assert err <= EXACT_TOL * scale, (name, err)
    gap = np.max(np.abs(Sigma - P))
    _, P_fine, Sigma_fine = _covariance_and_sigma(spec, theta, 200)
    gap_fine = np.max(np.abs(Sigma_fine - P_fine))
    assert gap_fine <= 1e-12 * scale or gap / gap_fine >= 8.0, (gap, gap_fine)


@settings(max_examples=40, deadline=None)
@given(stable_models())
def test_riccati_is_symmetric_and_matches_the_per_step_loop(case):
    spec, _ = case
    model = _model(spec, 100)
    P = rk.solve_riccati(model).P
    want = riccati_per_step(model)
    assert np.array_equal(P, np.swapaxes(P, 1, 2))
    if model.n == 1:
        assert P.tobytes() == want.tobytes()
        return
    # Two fourth-order schemes: the scan is held to the exact path, and is
    # no farther from it than the per-step loop (over 1000 random models at
    # most 0.35 times as far, and at most 2.1e-9 relative).
    exact = riccati_exact(model)
    err = np.max(np.abs(P - exact))
    assert err <= EXACT_TOL * (1.0 + np.max(np.abs(exact))), err
    assert err <= np.max(np.abs(want - exact)), err


def _decomposition_gap(spec, theta, n_steps):
    model = _model(spec, n_steps)
    riccati = rk.solve_riccati(model)
    policy = rk.constant_policy(model, theta)
    # The gap does not depend on the observations: any path will do.
    obs = np.zeros((n_steps + 1, model.m))
    robust = rk.run_robust_filter(model, riccati, policy, obs)
    classical = rk.run_classical_filter(model, riccati, obs)
    corr = rk.correction_path(model, riccati, policy, kernel="ode")
    return float(np.max(np.abs(robust.xhat - (classical.xhat + corr))))


@settings(max_examples=40, deadline=None)
@given(stable_models())
def test_decomposition_gap_is_first_order(case):
    spec, theta = case
    coarse = _decomposition_gap(spec, theta, 50)
    fine = _decomposition_gap(spec, theta, 100)
    assert 1.8 <= coarse / fine <= 2.2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5000), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_scans_are_prefix_and_suffix_bitwise(k_steps, where, seed):
    # Row k of a forward scan depends on the first k maps only, and row j of
    # a backward scan on the maps from j on, whatever the horizon.
    cut = round(where * k_steps)
    rng = np.random.default_rng(seed)
    T = np.eye(3) + 0.01 * rng.standard_normal((k_steps, 3, 3))
    y0, e = rng.standard_normal(3), 0.01 * rng.standard_normal((k_steps, 3))
    assert (_forward(T[:cut], y0, e[:cut]).tobytes()
            == _forward(T, y0, e)[: cut + 1].tobytes())
    last = rng.standard_normal((2, 3))
    assert _backward(T[cut:], last).tobytes() == _backward(T, last)[cut:].tobytes()


@settings(max_examples=25, deadline=None)
@given(stable_models(), st.integers(2, 2100), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
def test_split_ensembles_join_to_the_whole_run(case, n_paths, where, seed):
    # A path's bits depend on its index alone: two runs split at any cut give
    # the whole run's arrays, whichever chunk each path falls in.
    spec, theta = case
    model = _model(spec, 6)
    policy = rk.constant_policy(model, theta)
    cut = min(max(round(where * n_paths), 1), n_paths - 1)
    whole = rk.simulate_paths(model, policy, n_paths, seed)
    parts = [rk.simulate_paths(model, policy, cut, seed),
             rk.simulate_paths(model, policy, n_paths - cut, seed, path_offset=cut)]
    for field in ("x", "m", "dw", "dv", "log_density"):
        joined = np.concatenate([getattr(p, field) for p in parts])
        assert joined.tobytes() == getattr(whole, field).tobytes(), field

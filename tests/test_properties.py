"""Properties over random stable models, n = 1..3."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import robustkb as rk
from robustkb.ode import _backward, _forward

from per_step import RICCATI_FORM_TOL, riccati_per_step

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


@settings(max_examples=40, deadline=None)
@given(stable_models())
def test_covariance_stays_psd_and_sigma_equals_p(case):
    spec, theta = case
    model = _model(spec, 100)
    riccati = rk.solve_riccati(model)
    P = riccati.P
    scale = 1.0 + float(np.max(np.abs(P)))
    assert np.linalg.eigvalsh(P).min() >= -1e-12 * scale
    # solve_error_stats steps through the same RK4 stages: Sigma = P.
    stats = rk.solve_error_stats(model, rk.constant_policy(model, theta),
                                 rk.zero_policy(model), riccati)
    assert np.max(np.abs(stats.Sigma - P)) <= 1e-9 * scale


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
    assert np.max(np.abs(P - want)) <= RICCATI_FORM_TOL * (1.0 + np.max(np.abs(want)))


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

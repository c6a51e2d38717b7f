"""Verification suite semantics: honest failures, stable reports."""

import dataclasses
import json

import numpy as np
import pytest

import robustkb as rk
from robustkb import verification
from robustkb.simulate import _TILT_EIG_FLOOR
from robustkb.verification import (
    CheckResult,
    _matched_tilt,
    _probe_value,
    _published_term,
    _rk4_rate,
    _within_band,
    check_determinism,
    check_girsanov,
    check_matched_mse,
    check_printed_kernel,
    check_riccati_steady_state,
    check_saddle,
    run_verification,
)

from per_step import closed_loop_stages


def _scalar_cfg(n_steps, T=2.0, mu=1.0, **model_overrides):
    doc = {
        "grid": {"T": T, "n_steps": n_steps},
        "model": {"n": 1, "m": 1, "F": -1.0, "f": 0.0, "G": 1.0, "g": 0.0,
                  "Q": 1.0, "R": 1.0, "x0": 0.0},
        "uncertainty": {"mu": mu},
    }
    doc["model"].update(model_overrides)
    return rk.scenario_from_dict(doc)


def _n3_cfg(n_steps, T=1.0, q_scale=1.0, r_scale=1.0):
    Q = np.array([[1.0, 0.2, 0.0], [0.2, 1.5, 0.0], [0.0, 0.0, 0.8]])
    R = np.array([[1.0, 0.1], [0.1, 2.0]])
    doc = {
        "grid": {"T": T, "n_steps": n_steps},
        "model": {"n": 3, "m": 2,
                  "F": [[-1.0, 0.3, 0.0], [0.0, -0.5, 0.2], [0.1, 0.0, -2.0]],
                  "f": [0.0] * 3, "G": [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
                  "g": [0.0] * 2, "Q": (q_scale * Q).tolist(),
                  "R": (r_scale * R).tolist(), "x0": [0.0] * 3},
        "uncertainty": {"mu": [1.0, 0.5, 0.8]},
    }
    return rk.scenario_from_dict(doc)


@pytest.fixture(scope="module")
def fine_cfg():
    # dt = 5e-3: fine enough for every tolerance in the suite
    return _scalar_cfg(400)


@pytest.fixture(scope="module")
def fine_report(fine_cfg):
    return run_verification(fine_cfg, 0)


def test_every_check_passes_on_a_fine_grid(fine_report):
    assert fine_report.all_passed
    assert len(fine_report.results) == 10
    names = [r.name for r in fine_report.results]
    assert len(set(names)) == 10
    assert all(r.applicable for r in fine_report.results)
    assert all(r.passed for r in fine_report.results)


def test_report_dict_shape(fine_report):
    payload = fine_report.to_dict()
    assert set(payload) == {"seed", "all_passed", "checks"}
    assert payload["seed"] == 0
    assert payload["all_passed"] is True
    for chk in payload["checks"]:
        assert set(chk) == {"name", "passed", "applicable", "detail",
                            "measured"}
    blob = json.dumps(payload, sort_keys=True)
    # nothing runtime-dependent may leak into the report
    for word in ("elapsed", "duration", "wall", "n_threads"):
        assert word not in blob
    assert json.loads(blob) == payload


def test_determinism_reports_its_three_flags(fine_report):
    entry = next(c for c in fine_report.to_dict()["checks"]
                 if c["name"] == "determinism")
    assert set(entry["measured"]) == {"rerun_equal", "split_equal", "filter_equal"}
    assert all(flag is True for flag in entry["measured"].values())
    assert entry["detail"] == "rerun=True, split=True, filter=True"


def test_report_is_thread_invariant(fine_cfg, fine_report):
    other = run_verification(fine_cfg, 0, threads=4)
    assert other.to_dict() == fine_report.to_dict()


def test_coarse_grid_fails_the_transient_comparison():
    cfg = _scalar_cfg(4)  # dt = 0.5
    result = check_riccati_steady_state(cfg, 0)
    assert result.applicable
    assert not result.passed
    assert not result.ok
    assert result.measured["err_transient"] > 1e-6


def test_riccati_check_needs_a_scalar_constant_model():
    doc = {
        "grid": {"T": 1.0, "n_steps": 50},
        "model": {"n": 2, "m": 1, "F": [[-1.0, 0.0], [0.0, -2.0]],
                  "f": [0.0, 0.0], "G": [[1.0, 0.0]], "g": 0.0,
                  "Q": [[1.0, 0.0], [0.0, 1.0]], "R": 1.0,
                  "x0": [0.0, 0.0]},
        "uncertainty": {"mu": [1.0, 1.0]},
    }
    cfg = rk.scenario_from_dict(doc)
    result = check_riccati_steady_state(cfg, 0)
    assert not result.applicable
    assert result.ok  # inapplicable never blocks the suite
    assert not result.passed


def test_riccati_check_needs_an_observed_state():
    result = check_riccati_steady_state(_scalar_cfg(50, T=1.0, G=0.0), 0)
    assert not result.applicable
    assert result.detail == "needs G != 0"


def test_matched_mse_falls_back_to_the_horizon():
    # dt = 0.7 / 3: 0.5 is inside the horizon but no node, and 1 and 2 lie
    # beyond it, so the horizon is the one node compared.
    cfg = _scalar_cfg(3, T=0.7)
    result = check_matched_mse(cfg, 0)
    assert result.measured["t"] == [float(cfg.grid.times[-1])]
    assert len(result.measured["mse_mc"]) == 1


@pytest.mark.parametrize("gap, stderr, within", [
    (3.0, 1.0, True), (-3.0, 1.0, True), (np.nextafter(3.0, 4.0), 1.0, False),
    (0.0, 0.0, True), (5e-324, 0.0, False), (np.nan, 1.0, False),
    (0.0, np.nan, True), (1.0, np.nan, False),
])
def test_band_is_three_standard_errors_and_exact_without_spread(gap, stderr,
                                                                within):
    assert bool(_within_band(gap, stderr)) is within
    assert _within_band(np.array([gap, 0.0]), np.array([stderr, 1.0])).tolist() \
        == [within, True]


def test_girsanov_check_skips_singular_diffusion():
    cfg = _scalar_cfg(50, T=1.0, Q=0.0)
    result = check_girsanov(cfg, 0)
    assert not result.applicable
    assert "singular" in result.detail


def test_girsanov_measures_the_same_in_any_block(monkeypatch):
    # A block's bits depend on its path indices only: 700-path blocks, which
    # leave a remainder, measure what 4096-path blocks do.
    cfg = _n3_cfg(20)
    reports = []
    for block in (4096, 700):
        monkeypatch.setattr(verification, "_GIRSANOV_BLOCK", block)
        result = check_girsanov(cfg, 2)
        reports.append(rk.VerificationReport(2, (result,)).to_dict())
    assert reports[0]["checks"][0]["measured"]["mean_weight"] != 1.0
    assert reports[0] == reports[1]


def test_tilt_floor_is_the_simulator_floor():
    # Just below the floor the simulator raises UnsupportedTilt; verification
    # must refuse the tilt there and keep it just above.
    below = _scalar_cfg(50, T=1.0, Q=0.5 * _TILT_EIG_FLOOR)
    above = _scalar_cfg(50, T=1.0, Q=2.0 * _TILT_EIG_FLOOR)
    assert not _matched_tilt(below.model, below.bound).any()
    assert _matched_tilt(above.model, above.bound)[0] == 0.5
    assert not check_girsanov(below, 0).applicable
    with pytest.raises(rk.UnsupportedTilt):
        rk.simulate_paths(below.model, rk.constant_policy(below.model, 0.5), 1, 0)


@pytest.mark.parametrize("mutant", ["drop_q", "double_q"])
def test_printed_kernel_audit_catches_a_wrong_printed_kernel(default_cfg,
                                                             monkeypatch, mutant):
    # The audit evaluates the published integral itself, so a library
    # printed kernel that loses Q (printed = ode) or doubles it must fail.
    assert check_printed_kernel(default_cfg, 0).passed
    right = rk.decomposition._printed_rows
    wrong = {"drop_q": lambda model, ode_rows: ode_rows,
             "double_q": lambda model, ode_rows: 2.0 * right(model, ode_rows)}
    monkeypatch.setattr(rk.decomposition, "_printed_rows", wrong[mutant])
    result = check_printed_kernel(default_cfg, 0)
    assert result.applicable
    assert not result.passed
    errs = result.measured["printed_err"]
    assert max(errs.values()) > 10.0 * result.measured["printed_bound"]


def test_printed_kernel_audit_sweeps_each_model_once(default_cfg, monkeypatch):
    # One backward sweep per model serves the published, ode and printed
    # terms, with the bits of the library's one-kernel-at-a-time terms.
    model, t = default_cfg.model, 1.0
    riccati = rk.solve_riccati(model)
    theta = rk.constant_policy(model, _probe_value(default_cfg.bound))
    pub = _published_term(model, riccati, theta,
                          rk.correction_kernel(model, riccati, t).ode)
    terms = {kernel: rk.correction_term(model, riccati, theta, t, kernel=kernel)
             for kernel in rk.KERNELS}
    sweeps = []
    backward = rk.ode._backward
    monkeypatch.setattr(rk.ode, "_backward",
                        lambda *args: sweeps.append(1) or backward(*args))
    result = check_printed_kernel(default_cfg, 0)
    assert len(sweeps) == 3  # unit Q, doubled Q and doubled Q at dt / 2
    assert result.measured["unit_q_gap"] == float(np.max(np.abs(pub - terms["ode"])))
    assert result.measured["printed_err"]["unit_q"] == float(
        np.max(np.abs(pub - terms["printed"])))


def test_saddle_gap_closes_without_uncertainty():
    cfg = _scalar_cfg(200, mu=0.0)
    result = check_saddle(cfg, 0)
    assert result.passed
    assert abs(result.measured["duality_gap"]) <= 1e-12
    assert abs(result.measured["upper_value"]
               - result.measured["lower_value"]) <= 1e-12


@pytest.mark.parametrize("n_steps, q_scale, r_scale", [
    (10, 1.0, 1.0), (100, 1e3, 1e2)])
def test_saddle_passes_on_coarse_and_large_covariance_n3(n_steps, q_scale,
                                                        r_scale):
    """For n > 1 the lower value, the trace of the Hamiltonian-scan P, and the
    matched MSE, an RK4 Lyapunov integration, differ by truncation: above
    1e-6 here, on a 10-step grid and with max|P| near 500.  The gate scales
    with the truncation error, and the check passes."""
    cfg = _n3_cfg(n_steps, q_scale=q_scale, r_scale=r_scale)
    result = check_saddle(cfg, 0)
    m = result.measured
    gap = abs(m["lower_value"] - m["matched_mse_exact"])
    assert gap > 1e-6
    assert result.passed
    assert result.detail.startswith(f"lower-matched gap {gap:.2e} <= ")
    assert m["lower_value"] == m["trace_p"] <= m["upper_value"]
    assert m["convexity_defect"] <= 1e-9


@pytest.mark.parametrize("t_idx", [1, 37, 200])
def test_rk4_rate_reads_only_the_first_intervals(t_idx, monkeypatch):
    """The rate has the bits of the Frobenius norms over the first t_idx
    intervals of the whole grid's F, S, Q and stage closed loops F - P_i S,
    and computes stages for those intervals only."""
    model = _n3_cfg(200).model
    riccati = rk.solve_riccati(model)
    k = slice(0, t_idx)
    ham = np.sqrt(sum(np.sum(a[k] ** 2, axis=(1, 2))
                      for a in (model.F, model.F, model.S, model.Q)))
    A = closed_loop_stages(model, riccati)[2][:, k]
    want = max(ham.max(), 2.0 * np.linalg.norm(A, axis=(2, 3)).max())
    nodes, stages = [], rk.ode._stage_covariances
    monkeypatch.setattr(rk.ode, "_stage_covariances",
                        lambda m, P: nodes.append(len(P)) or stages(m, P))
    assert _rk4_rate(model, riccati, t_idx) == want
    assert nodes == [t_idx + 1]


@pytest.mark.parametrize("cfg", [_scalar_cfg(400, mu=0.5), _n3_cfg(200)],
                         ids=["scalar", "n3"])
@pytest.mark.parametrize("mutant", ["shifted_lower_value", "scaled_covariance"])
def test_saddle_lower_value_can_fail(monkeypatch, cfg, mutant):
    """The lower value is held to the matched moment-ODE MSE, an integration
    of its own: a report shifted by 1e-3 fails, and so does a covariance
    path scaled by 1.01, whose trace the report and trace_p both read.  The
    scalar radius 0.5 keeps the frozen-value comparison of the default
    scenario out of the check, and the shift leaves the lower value below
    the upper one, so the lower-value test alone must see the mutant."""
    clean = check_saddle(cfg, 0)
    assert clean.passed
    tol = 1e-12 if cfg.model.n == 1 else 1e-6
    assert abs(clean.measured["lower_value"]
               - clean.measured["matched_mse_exact"]) <= tol
    if mutant == "shifted_lower_value":
        report = verification.saddle_report

        def shifted(*args, **kwargs):
            r = report(*args, **kwargs)
            return dataclasses.replace(r, lower_value=r.lower_value + 1e-3)

        monkeypatch.setattr(verification, "saddle_report", shifted)
    else:
        solve = verification.solve_riccati

        def scaled(model):
            path = solve(model)
            return rk.RiccatiPath(path.grid, 1.01 * path.P, path.min_eigenvalue)

        monkeypatch.setattr(verification, "solve_riccati", scaled)
    result = check_saddle(cfg, 0)
    gap = abs(result.measured["lower_value"] - result.measured["matched_mse_exact"])
    assert gap > 1e-6
    assert result.measured["lower_value"] <= result.measured["upper_value"]
    assert not result.passed
    if mutant == "scaled_covariance":
        assert result.measured["lower_value"] == result.measured["trace_p"]


def test_check_result_ok_semantics():
    assert CheckResult("a", True, True, "").ok
    assert CheckResult("a", False, False, "").ok
    assert not CheckResult("a", False, True, "").ok


@pytest.mark.parametrize("field", ["x", "m", "dw", "dv", "log_density"])
def test_determinism_split_compares_every_array(monkeypatch, field):
    # A chunk dependence in any one array of the split runs fails the check.
    cfg = _scalar_cfg(50)
    simulate = rk.verification.simulate_paths

    def split_moves_one_array(*args, path_offset=0, **kwargs):
        ens = simulate(*args, path_offset=path_offset, **kwargs)
        if path_offset == 0:
            return ens
        moved = getattr(ens, field).copy()
        moved[-1] = np.nextafter(moved[-1], np.inf)
        return dataclasses.replace(ens, **{field: moved})

    assert check_determinism(cfg, 0).passed
    monkeypatch.setattr(rk.verification, "simulate_paths", split_moves_one_array)
    res = check_determinism(cfg, 0)
    assert not res.passed
    assert res.measured["split_equal"] is False
    assert res.measured["rerun_equal"] and res.measured["filter_equal"]
    assert "split=False" in res.detail


def test_determinism_sees_a_chunk_dependent_log_density(monkeypatch):
    # A log density that rounds by batch size, as a shape-dependent
    # summation order would: the split halves (1500 paths) and the whole
    # run's chunks (2048 + 952) disagree.  Under the zero tilt every log
    # density is 0 and the dependence cannot show.
    cfg = _scalar_cfg(50)
    log_density = rk.simulate._log_density_batch

    def by_batch_size(theta, dw, model):
        got = log_density(theta, dw, model)
        return got + got * (len(dw) * 2.0**-60)

    assert check_determinism(cfg, 0).passed
    monkeypatch.setattr(rk.simulate, "_log_density_batch", by_batch_size)
    res = check_determinism(cfg, 0)
    assert not res.passed
    assert res.measured["split_equal"] is False
    assert res.measured["rerun_equal"] and res.measured["filter_equal"]
    assert "split=False" in res.detail
    monkeypatch.setattr(rk.verification, "_matched_tilt",
                        lambda model, bound: np.zeros(model.n))
    assert check_determinism(cfg, 0).passed


def _planar_cfg():
    """A coupled 2-d model with a 2-d observation, so the filter steps on
    matrix products rather than Python floats."""
    return rk.scenario_from_dict({
        "grid": {"T": 1.0, "n_steps": 50},
        "model": {"n": 2, "m": 2, "F": [[-1.0, 0.5], [-0.3, -2.0]],
                  "f": [0.1, 0.0], "G": [[1.0, 0.2], [0.0, 0.7]], "g": [0.0, 0.1],
                  "Q": [[1.0, 0.2], [0.2, 0.5]], "R": [[1.0, 0.1], [0.1, 2.0]],
                  "x0": [0.3, -0.2]},
        "uncertainty": {"mu": [0.4, 0.2]},
    })


def test_printed_kernel_audit_runs_its_unit_q_half_for_any_q():
    # The unit-Q half audits the model with Q replaced by I, so a scenario
    # whose own Q is not the identity gets it too.
    result = check_printed_kernel(_planar_cfg(), 0)
    assert result.measured["unit_q_gap"] <= result.measured["unit_q_bound"]
    assert result.detail.startswith("unit-Q gap ")


@pytest.mark.parametrize("cfg", [_scalar_cfg(50), _planar_cfg()],
                         ids=["scalar", "planar"])
def test_determinism_sees_a_streamed_filter_off_by_ulps(monkeypatch, cfg):
    # The Monte-Carlo MSE's streamed filter must give the batch filter's
    # squared errors bit for bit; a gain scaled by 1 + 2^-40 in the streamed
    # filter alone fails the filter flag, and only it.
    filter_step = rk.minimax._filter_step

    def scaled_gain(steps, k, xhat, dm_k, theta_k, gain_k):
        return filter_step(steps, k, xhat, dm_k, theta_k, gain_k * (1.0 + 2.0**-40))

    assert check_determinism(cfg, 0).passed
    monkeypatch.setattr(rk.minimax, "_filter_step", scaled_gain)
    res = check_determinism(cfg, 0)
    assert not res.passed
    assert res.measured["filter_equal"] is False
    assert res.measured["rerun_equal"] and res.measured["split_equal"]
    assert "filter=False" in res.detail

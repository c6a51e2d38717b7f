"""End-to-end acceptance gate.

Ten numbered criteria, each printing one visible summary line even under
pytest capture.  Tolerances and seeds are fixed here; statistical gates use
3-sigma bands at the stated sample sizes.
"""

import json
import math
import time

import numpy as np

import robustkb as rk
from robustkb.cli import main
from robustkb.simulate import _log_density_batch
from robustkb.verification import _published_term

from oracles import UPPER_ONE


def _emit(capfd, num, ok, detail):
    with capfd.disabled():
        print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {detail}")


def test_01_riccati_reaches_algebraic_root(capfd):
    model = rk.constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                              horizon=20.0, n_steps=20_000)
    start = time.perf_counter()
    riccati = rk.solve_riccati(model)
    elapsed = time.perf_counter() - start
    err = abs(float(riccati.P[-1, 0, 0]) - (math.sqrt(2.0) - 1.0))
    ok = err <= 1e-6 and elapsed < 1.0
    _emit(capfd, 1, ok, f"P(20) vs sqrt(2)-1 err={err:.2e}, {elapsed:.2f}s")
    assert err <= 1e-6
    assert elapsed < 1.0


def test_02_zero_correction_is_bitwise_classical(capfd):
    model = rk.constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                              horizon=2.0, n_steps=200)
    riccati = rk.solve_riccati(model)
    ens = rk.simulate_paths(model, rk.constant_policy(model, 0.3), 100, 2024)
    zero = rk.zero_policy(model)
    same = True
    for i in range(ens.n_paths):
        robust = rk.run_robust_filter(model, riccati, zero, ens.m[i])
        classical = rk.run_classical_filter(model, riccati, ens.m[i])
        same = (same
                and np.array_equal(robust.xhat, classical.xhat)
                and np.array_equal(robust.innovations, classical.innovations))
    _emit(capfd, 2, same, f"{ens.n_paths} paths, bitwise equal={same}")
    assert same


def test_03_matched_mse_tracks_riccati(capfd, default_model, default_riccati):
    theta = rk.constant_policy(default_model, 0.5)
    start = time.perf_counter()
    zs = []
    for t in (0.5, 1.0, 2.0):
        est, se = rk.mse_monte_carlo(default_model, theta, theta, t,
                                     n_paths=10_000, seed=31,
                                     riccati=default_riccati, threads=2)
        want = float(np.trace(default_riccati.at(t)))
        zs.append(abs(est - want) / se)
    elapsed = time.perf_counter() - start
    ok = max(zs) <= 3.0 and elapsed < 30.0
    _emit(capfd, 3, ok,
          "matched z=" + "/".join(f"{z:.2f}" for z in zs)
          + f" (3-sigma), {elapsed:.1f}s")
    assert max(zs) <= 3.0
    assert elapsed < 30.0


def test_04_monte_carlo_matches_moment_odes(capfd):
    model = rk.constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                              horizon=1.0, n_steps=1000)
    riccati = rk.solve_riccati(model)
    zs = []
    for k, (tv, th) in enumerate(((1.0, 0.0), (-1.0, 0.0), (1.0, 0.5))):
        true_pol = rk.constant_policy(model, tv)
        hat_pol = rk.constant_policy(model, th)
        exact = rk.mse_exact(model, true_pol, hat_pol, 1.0, riccati)
        est, se = rk.mse_monte_carlo(model, true_pol, hat_pol, 1.0,
                                     n_paths=10_000, seed=500 + k,
                                     riccati=riccati, threads=2)
        zs.append(abs(est - exact) / se)
    ok = max(zs) <= 3.0
    _emit(capfd, 4, ok,
          "mc vs ode z=" + "/".join(f"{z:.2f}" for z in zs) + " (3-sigma)")
    assert max(zs) <= 3.0


def test_05_density_normalization_and_moment(capfd):
    model = rk.constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                              horizon=1.0, n_steps=1000)
    theta = rk.constant_policy(model, 0.5)
    zero = rk.zero_policy(model)
    n = 100_000
    zetas = np.empty(n)
    # Reference-measure paths in blocks; path_offset keeps streams disjoint.
    for j0 in range(0, n, 4096):
        count = min(4096, n - j0)
        ens = rk.simulate_paths(model, zero, count, 777, path_offset=j0)
        zetas[j0:j0 + count] = _log_density_batch(theta.theta, ens.dw, model)
        if j0 == 0:
            # Summation order differs between batch and single-path calls.
            single = rk.girsanov_log_density(theta, ens.dw[0], model)
            assert abs(single - zetas[0]) <= 1e-12
    w = np.exp(zetas)
    z_one = abs(w.mean() - 1.0) / (w.std(ddof=1) / math.sqrt(n))
    w2 = np.exp(2.0 * zetas)
    target = math.exp(0.25)
    z_two = abs(w2.mean() - target) / (w2.std(ddof=1) / math.sqrt(n))
    ok = z_one <= 3.0 and z_two <= 3.0
    _emit(capfd, 5, ok,
          f"mean(e^z) z={z_one:.2f}, alpha=2 moment z={z_two:.2f} (3-sigma)")
    assert z_one <= 3.0
    assert z_two <= 3.0


def _sup_decomposition_gap(n_steps: int) -> float:
    model = rk.constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                              horizon=2.0, n_steps=n_steps)
    riccati = rk.solve_riccati(model)
    ens = rk.simulate_paths(model, rk.zero_policy(model), 1, 67)
    obs = ens.m[0]
    theta = rk.constant_policy(model, 1.0)
    robust = rk.run_robust_filter(model, riccati, theta, obs)
    classical = rk.run_classical_filter(model, riccati, obs)
    correction = rk.correction_path(model, riccati, theta, kernel="ode")
    return float(np.max(np.abs(robust.xhat - (classical.xhat + correction))))


def test_06_decomposition_first_order_in_dt(capfd):
    gap = _sup_decomposition_gap(1000)
    gap_half = _sup_decomposition_gap(2000)
    ratio = gap / gap_half
    ok = gap <= 1.0 * 2e-3 and gap_half <= 1.0 * 1e-3 and 1.7 <= ratio <= 2.3
    _emit(capfd, 6, ok,
          f"sup gap {gap:.2e} at dt=2e-3, halving ratio={ratio:.3f}")
    assert gap <= 1.0 * 2e-3
    assert gap_half <= 1.0 * 1e-3
    assert 1.7 <= ratio <= 2.3


def _kernel_term_gap(q: float, n_steps: int) -> float:
    model = rk.constant_model(-1.0, 0.0, 1.0, 0.0, q, 1.0, 0.0,
                              horizon=2.0, n_steps=n_steps)
    riccati = rk.solve_riccati(model)
    theta = rk.constant_policy(model, 1.0)
    ode = rk.correction_term(model, riccati, theta, 1.0, kernel="ode")
    printed = rk.correction_term(model, riccati, theta, 1.0, kernel="printed")
    return float(np.max(np.abs(printed - ode)))


def _unit_printed_gap(n_steps: int) -> float:
    """Library printed term against the published double integral at Q = 1,
    where the library printed term equals the ode term bit for bit."""
    model = rk.constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                              horizon=2.0, n_steps=n_steps)
    riccati = rk.solve_riccati(model)
    theta = rk.constant_policy(model, 1.0)
    printed = rk.correction_term(model, riccati, theta, 1.0, kernel="printed")
    published = _published_term(model, riccati, theta,
                                 rk.correction_kernel(model, riccati, 1.0).ode)
    return float(np.max(np.abs(printed - published)))


def _printed_kernel_audit():
    """(unit gap, doubled-diffusion gap, its drift under refinement)."""
    gap_two = _kernel_term_gap(2.0, 2000)
    return _unit_printed_gap(2000), gap_two, abs(gap_two - _kernel_term_gap(2.0, 4000))


def test_07_printed_kernel_audit(capfd):
    dt = 1e-3
    gap_unit, gap_two, drift = _printed_kernel_audit()
    ok = (gap_unit <= 5.0 * dt
          and gap_two > 0.1
          and drift <= 0.05 * gap_two)
    _emit(capfd, 7, ok,
          f"unit gap {gap_unit:.1e} <= {5 * dt:.0e}; "
          f"doubled-diffusion limit {gap_two:.4f} (refinement drift {drift:.1e})")
    assert gap_unit <= 5.0 * dt
    assert gap_two > 0.1
    assert drift <= 0.05 * gap_two


def test_07_fails_on_a_doubled_printed_term(monkeypatch):
    right = rk.correction_term

    def doubled(*args, kernel="ode", **kwargs):
        term = right(*args, kernel=kernel, **kwargs)
        return 2.0 * term if kernel == "printed" else term

    monkeypatch.setattr(rk, "correction_term", doubled)
    gap_unit, _, _ = _printed_kernel_audit()
    assert gap_unit > 5.0 * 1e-3


def test_08_saddle_report_scalar_default(capfd, default_model, default_bound,
                                          default_riccati):
    report = rk.saddle_report(default_model, default_bound, 1.0,
                              riccati=default_riccati)
    trace_p = float(np.trace(default_riccati.at(1.0)))
    lower_err = abs(report.lower_value - trace_p)
    hat_norm = float(np.max(np.abs(report.theta_hat_star.theta)))
    upper_err = abs(report.upper_value - UPPER_ONE)
    profile = rk.g_profile(default_model, default_bound, 1.0,
                           riccati=default_riccati)
    defect = 0.0
    for _, _, gs in profile:
        mids = gs[1:-1] - 0.5 * (gs[:-2] + gs[2:])
        defect = max(defect, float(np.max(mids)))
    ok = (lower_err <= 1e-6 and hat_norm <= default_bound.mu.max() / 100.0
          and upper_err <= 1e-4 and defect <= 1e-9)
    _emit(capfd, 8, ok,
          f"lower err {lower_err:.1e}, |theta_hat*| {hat_norm:.1e}, "
          f"upper err {upper_err:.1e}, convexity defect {defect:.1e}")
    assert lower_err <= 1e-6
    assert hat_norm <= default_bound.mu.max() / 100.0
    assert upper_err <= 1e-4
    assert defect <= 1e-9


def test_09_matched_innovations_are_white(capfd):
    model = rk.constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                              horizon=2.0, n_steps=200)
    riccati = rk.solve_riccati(model)
    theta = rk.constant_policy(model, 0.5)
    ens = rk.simulate_paths(model, theta, 50, 123)
    runs = [rk.run_robust_filter(model, riccati, theta, ens.m[i])
            for i in range(ens.n_paths)]
    report = rk.innovation_diagnostics(runs, max_lag=5)
    n = report.n_increments
    band = 3.0 / math.sqrt(n)
    max_ac = float(report.max_abs_autocorr)
    var_ratio = float(report.increment_cov[0, 0] / report.expected_cov[0, 0])
    ok = n == 10_000 and max_ac <= band and abs(var_ratio - 1.0) <= 0.05
    _emit(capfd, 9, ok,
          f"n={n}, max |autocorr| {max_ac:.4f} <= {band:.4f}, "
          f"variance ratio {var_ratio:.4f}")
    assert n == 10_000
    assert max_ac <= band
    assert abs(var_ratio - 1.0) <= 0.05


def test_10_verify_is_byte_identical_across_threads(capfd, tmp_path):
    config = {
        "grid": {"T": 2.0, "n_steps": 400},
        "model": {"n": 1, "m": 1, "F": [[-1.0]], "f": [0.0], "G": [[1.0]],
                  "g": [0.0], "Q": [[1.0]], "R": [[1.0]], "x0": [0.0]},
        "uncertainty": {"mu": 1.0},
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    reports, outputs, codes = [], [], []
    for threads in ("1", "1", "4"):
        rc = main(["verify", "--config", str(cfg_path), "--seed", "0",
                   "--threads", threads, "--out", str(out_dir)])
        captured = capfd.readouterr()
        codes.append(rc)
        outputs.append(captured.out)
        reports.append((out_dir / "verify_report.json").read_bytes())
    ok = (codes == [0, 0, 0]
          and reports[0] == reports[1] == reports[2]
          and outputs[0] == outputs[1] == outputs[2])
    _emit(capfd, 10, ok,
          f"3 runs (threads 1/1/4): exit codes {codes}, "
          f"report bytes identical={reports[0] == reports[2]}")
    assert codes == [0, 0, 0]
    assert reports[0] == reports[1] == reports[2]
    assert outputs[0] == outputs[1] == outputs[2]

"""One-shot verification suite: every primary correctness check, runnable on
any scenario and shared by the CLI and the acceptance tests.

Each check returns a CheckResult; checks that need structure a scenario does
not have (a scalar model, unit signal-noise covariance) report themselves as
not applicable rather than failing.  Reports contain no timings or thread
counts, so rerunning with the same seed gives byte-identical output files
whatever the parallelism.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ScenarioConfig
from .decomposition import correction_path, correction_term
from .errors import RobustKBError, UnsupportedTilt
from .filtering import (
    _filter_batch,
    filter_gains,
    innovation_diagnostics,
    run_robust_filter,
)
from .minimax import _mse_mc_multi, g_profile, saddle_report
from .model import (
    DriftPolicy,
    ModelSchedule,
    TimeGrid,
    UncertaintyBound,
    ValidatedModel,
    clamp_policy,
    constant_policy,
    validate_model,
    zero_policy,
)
from .ode import (
    riccati_scalar_solution,
    solve_error_stats,
    solve_riccati,
    steady_state_scalar,
)
from .simulate import _log_density_batch, simulate_paths

# Scalar default saddle value P(1) + (mu * J)^2 with J the integrated
# closed-loop response; frozen from an independent pre-build quadrature
# oracle (see tests for the companion constants).
FROZEN_UPPER_VALUE = 0.690439283856479
FROZEN_UPPER_TOL = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    applicable: bool
    detail: str
    measured: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.passed or not self.applicable


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    results: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.ok for r in self.results)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "all_passed": self.all_passed,
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "applicable": r.applicable,
                    "detail": r.detail,
                    "measured": _clean(r.measured),
                }
                for r in self.results
            ],
        }


def _clean(value):
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_clean(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return value


def _scalar_constants(model: ValidatedModel):
    """(F, G, Q, R) when the model is scalar with constant coefficients."""
    if model.n != 1 or model.m != 1 or not model.is_time_constant():
        return None
    return (float(model.F[0, 0, 0]), float(model.G[0, 0, 0]),
            float(model.Q[0, 0, 0]), float(model.R[0, 0, 0]))


def _probe_time(model: ValidatedModel, target: float = 1.0) -> float:
    """target if it is a grid node, else the horizon."""
    try:
        model.grid.index_of(target)
        return target
    except RobustKBError:
        return model.grid.horizon


def _matched_tilt(model: ValidatedModel, bound: UncertaintyBound) -> np.ndarray:
    """Componentwise min(0.5, mu), zeroed when Q cannot support a tilt."""
    value = np.minimum(0.5, bound.mu)
    if np.any(value > 0.0) and float(np.linalg.eigvalsh(model.Q).min()) < 1e-10:
        return np.zeros(model.n)
    return value


def _q_is_identity(model: ValidatedModel) -> bool:
    return bool(np.all(model.Q == np.eye(model.n)))


def _with_q(model: ValidatedModel, q_value: np.ndarray) -> ValidatedModel:
    schedule = ModelSchedule(
        F=model.F.copy(), f=model.f.copy(), G=model.G.copy(), g=model.g.copy(),
        Q=np.broadcast_to(q_value, model.Q.shape).copy(), R=model.R.copy(),
        x0=model.x0.copy(),
    )
    return validate_model(schedule, model.grid)


def _refined(model: ValidatedModel) -> ValidatedModel:
    """The same model on a grid with every interval halved."""
    grid = TimeGrid.from_step(model.grid.dt / 2.0, 2 * model.n_steps)
    rep = lambda a: np.repeat(a, 2, axis=0)
    schedule = ModelSchedule(F=rep(model.F), f=rep(model.f), G=rep(model.G),
                             g=rep(model.g), Q=rep(model.Q), R=rep(model.R),
                             x0=model.x0.copy())
    return validate_model(schedule, grid)


def check_riccati_steady_state(config: ScenarioConfig, seed: int,
                               threads: int = 1) -> CheckResult:
    """Long-horizon covariance against the algebraic root, and a transient
    node against the closed-form scalar solution (which a too-coarse grid
    fails even though the fixed point itself is grid-stable)."""
    name = "riccati_steady_state"
    consts = _scalar_constants(config.model)
    if consts is None:
        return CheckResult(name, False, False,
                           "needs a scalar model with constant coefficients")
    F, G, Q, R = consts
    if G == 0.0:
        return CheckResult(name, False, False, "needs G != 0")
    dt = config.grid.dt
    horizon = 20.0
    n_steps = max(1, int(round(horizon / dt)))
    grid = TimeGrid.from_step(dt, n_steps)
    model = validate_model(
        ModelSchedule.constant(F, 0.0, G, 0.0, Q, R, 0.0, n_steps), grid
    )
    path = solve_riccati(model)
    p_end = float(path.P[-1, 0, 0])
    steady = steady_state_scalar(F, G, Q, R)
    err_end = abs(p_end - steady)
    measured = {"p_end": p_end, "steady_state": steady, "err_end": err_end,
                "dt": dt}
    passed = err_end <= 1e-6
    detail = f"|P(20) - root| = {err_end:.3e}"
    k1 = int(round(1.0 / dt))
    if 1 <= k1 <= n_steps and abs(k1 * dt - 1.0) <= 1e-9:
        closed = riccati_scalar_solution(F, G, Q, R, k1 * dt)
        err_tr = abs(float(path.P[k1, 0, 0]) - closed)
        measured["err_transient"] = err_tr
        passed = passed and err_tr <= 1e-6
        detail += f", |P(1) - closed form| = {err_tr:.3e}"
    return CheckResult(name, passed, True, detail, measured)


def check_reduction_identity(config: ScenarioConfig, seed: int,
                             threads: int = 1) -> CheckResult:
    """Zero drift correction must reproduce the classical filter bitwise.

    The reference is the classical recursion written out here with no drift
    term at all, so a filter that mishandles a zero correction fails.
    """
    name = "reduction_identity"
    model = config.model
    riccati = solve_riccati(model)
    ens = simulate_paths(model, zero_policy(model), 100, seed + 11,
                         threads=threads)
    dm = np.diff(ens.m, axis=1)
    x_rob, i_rob = _filter_batch(model, riccati, dm,
                                 np.zeros((model.n_steps, model.n)))
    gains, dt = filter_gains(model, riccati), model.grid.dt
    x_cls = np.empty_like(x_rob)
    i_cls = np.empty_like(i_rob)
    x_cls[:, 0] = model.x0
    for k in range(model.n_steps):
        xk = x_cls[:, k]
        di = i_cls[:, k] = dm[:, k] - (xk @ model.G[k].T + model.g[k]) * dt
        x_cls[:, k + 1] = xk + (xk @ model.F[k].T + model.f[k]) * dt + di @ gains[k].T
    same = bool(np.array_equal(x_rob, x_cls) and np.array_equal(i_rob, i_cls))
    one = run_robust_filter(model, riccati, zero_policy(model), ens.m[0])
    same_single = bool(np.array_equal(one.xhat, x_rob[0])
                       and np.array_equal(one.innovations, i_rob[0]))
    passed = same and same_single
    return CheckResult(name, passed, True,
                       f"bitwise equal on {ens.n_paths} paths: {passed}",
                       {"paths": ens.n_paths, "equal": same,
                        "single_path_equal": same_single})


def check_matched_mse(config: ScenarioConfig, seed: int,
                      threads: int = 1) -> CheckResult:
    """Matched-drift sample MSE against the covariance trace."""
    name = "matched_mse"
    model, bound = config.model, config.bound
    riccati = solve_riccati(model)
    tilt = _matched_tilt(model, bound)
    theta = clamp_policy(constant_policy(model, tilt), bound)
    targets = [t for t in (0.5, 1.0, 2.0)
               if t <= model.grid.horizon * (1 + 1e-12)]
    idx = []
    for t in targets:
        try:
            idx.append(model.grid.index_of(t))
        except RobustKBError:
            pass
    if not idx:
        idx = [model.n_steps]
    n_paths = 10_000
    mean, stderr = _mse_mc_multi(model, riccati, theta, theta, idx, n_paths,
                                 seed + 23, threads)
    traces = np.einsum("kii->k", riccati.P[idx])
    z = np.abs(mean - traces) / np.where(stderr > 0, stderr, np.inf)
    passed = bool(np.all(np.abs(mean - traces) <= 3.0 * stderr))
    detail = ", ".join(
        f"t={model.grid.times[i]:g}: z={zi:.2f}" for i, zi in zip(idx, z)
    )
    return CheckResult(name, passed, True, detail, {
        "t": [float(model.grid.times[i]) for i in idx],
        "mse_mc": mean, "trace_p": traces, "stderr": stderr,
        "n_paths": n_paths, "tilt": tilt,
    })


def check_error_oracle(config: ScenarioConfig, seed: int,
                       threads: int = 1) -> CheckResult:
    """Monte-Carlo MSE against the moment-ODE value for mismatched drifts."""
    name = "error_oracle_agreement"
    model, bound = config.model, config.bound
    riccati = solve_riccati(model)
    mu = bound.mu
    t = _probe_time(model)
    t_idx = model.grid.index_of(t)
    pairs = [(mu, np.zeros(model.n)), (-mu, np.zeros(model.n)), (mu, 0.5 * mu)]
    n_paths = 10_000
    rows = []
    passed = True
    for i, (tv, hv) in enumerate(pairs):
        th_true = clamp_policy(constant_policy(model, tv), bound)
        th_hat = constant_policy(model, hv)
        exact = solve_error_stats(model, th_true, th_hat, riccati).mse[t_idx]
        mean, stderr = _mse_mc_multi(model, riccati, th_true, th_hat, [t_idx],
                                     n_paths, seed + 37 + i, threads)
        gap = abs(float(mean[0]) - float(exact))
        ok = gap <= 3.0 * float(stderr[0]) if stderr[0] > 0 else gap == 0.0
        passed = passed and ok
        rows.append({"theta": tv, "theta_hat": hv, "exact": float(exact),
                     "mc": float(mean[0]), "stderr": float(stderr[0]),
                     "ok": ok})
    detail = "; ".join(
        f"|mc-exact|/se={abs(r['mc'] - r['exact']) / r['stderr']:.2f}"
        if r["stderr"] > 0 else "exact"
        for r in rows
    )
    return CheckResult(name, passed, True, detail,
                       {"t": float(t), "n_paths": n_paths, "pairs": rows})


def check_girsanov(config: ScenarioConfig, seed: int,
                   threads: int = 1) -> CheckResult:
    """Density normalization E[exp(zeta)] = 1 and the exponential-moment
    equality for a constant tilt, both by Monte Carlo under the reference
    measure."""
    name = "girsanov_martingale"
    model, bound = config.model, config.bound
    te = _probe_time(model)
    te_idx = model.grid.index_of(te)
    if te_idx < 1:
        return CheckResult(name, False, False, "horizon too short")
    sub = model.truncate(te_idx) if te_idx < model.n_steps else model
    c = np.minimum(0.5, bound.mu)
    theta = DriftPolicy(np.tile(c, (sub.n_steps, 1)))
    if np.any(c > 0.0) and float(np.linalg.eigvalsh(sub.Q).min()) < 1e-10:
        return CheckResult(name, False, False,
                           "tilt unsupported: singular signal covariance")

    n_paths = 100_000
    block = 4096
    zetas = np.empty(n_paths)
    for j0 in range(0, n_paths, block):
        count = min(block, n_paths - j0)
        ens = simulate_paths(sub, zero_policy(sub), count, seed + 53,
                             path_offset=j0, threads=threads)
        try:
            zetas[j0:j0 + count] = _log_density_batch(theta.theta, ens.dw, sub)
        except UnsupportedTilt as exc:
            return CheckResult(name, False, False, str(exc))

    w = np.exp(zetas)
    mean_w = float(w.mean())
    se_w = float(w.std(ddof=1) / np.sqrt(n_paths))
    ok_mart = abs(mean_w - 1.0) <= 3.0 * se_w if se_w > 0 else mean_w == 1.0

    alpha = 2.0
    w2 = np.exp(alpha * zetas)
    mean_w2 = float(w2.mean())
    se_w2 = float(w2.std(ddof=1) / np.sqrt(n_paths))
    load = float(np.sum(c * c)) * float(te_idx) * sub.grid.dt
    target2 = float(np.exp(0.5 * (alpha * alpha - alpha) * load))
    ok_moment = (abs(mean_w2 - target2) <= 3.0 * se_w2 if se_w2 > 0
                 else mean_w2 == target2)
    passed = bool(ok_mart and ok_moment)
    detail = (f"mean(e^z)={mean_w:.5f} (se {se_w:.1e}); "
              f"mean(e^2z)={mean_w2:.5f} vs {target2:.5f} (se {se_w2:.1e})")
    return CheckResult(name, passed, True, detail, {
        "n_paths": n_paths, "tilt": c, "support": float(te_idx * sub.grid.dt),
        "mean_weight": mean_w, "stderr_weight": se_w,
        "mean_moment": mean_w2, "target_moment": target2,
        "stderr_moment": se_w2,
    })


def _decomposition_gap(model: ValidatedModel, theta_value: np.ndarray,
                       seed: int) -> float:
    """Sup-norm gap between the robust filter and classical + correction."""
    riccati = solve_riccati(model)
    theta = constant_policy(model, theta_value)
    ens = simulate_paths(model, zero_policy(model), 1, seed)
    obs = ens.m[0]
    robust = run_robust_filter(model, riccati, theta, obs)
    classical = run_robust_filter(model, riccati, zero_policy(model), obs)
    corr = correction_path(model, riccati, theta, kernel="ode")
    return float(np.max(np.abs(robust.xhat - (classical.xhat + corr))))


def _probe_value(bound: UncertaintyBound) -> np.ndarray:
    return np.where(bound.mu > 0.0, bound.mu, 1.0)


def check_decomposition_identity(config: ScenarioConfig, seed: int,
                                 threads: int = 1) -> CheckResult:
    """Direct robust output equals classical plus ode-kernel correction up
    to first order in dt, with the observed order confirmed by halving."""
    name = "decomposition_identity"
    model = config.model
    value = _probe_value(config.bound)
    dt = model.grid.dt
    gap = _decomposition_gap(model, value, seed + 67)
    gap_half = _decomposition_gap(_refined(model), value, seed + 67)
    ratio = gap / gap_half if gap_half > 0 else np.inf
    passed = bool(gap <= 10.0 * dt and 1.7 <= ratio <= 2.3)
    detail = f"sup gap = {gap:.3e} (<= {10 * dt:.1e}), halving ratio = {ratio:.3f}"
    return CheckResult(name, passed, True, detail, {
        "sup_gap": gap, "sup_gap_half_dt": gap_half, "ratio": ratio,
        "bound": 10.0 * dt, "theta": value,
    })


def check_printed_kernel(config: ScenarioConfig, seed: int,
                         threads: int = 1) -> CheckResult:
    """Audit of the published correction kernel against the ode kernel.

    For unit signal covariance the two must agree to O(dt).  With the
    covariance doubled, the gap tends to the size of the ode correction
    itself instead of vanishing; the check measures that limit at two grid
    resolutions and reports it.
    """
    name = "printed_kernel_audit"
    model = config.model
    value = _probe_value(config.bound)
    theta = constant_policy(model, value)
    t = _probe_time(model)
    riccati = solve_riccati(model)
    measured: dict = {"t": float(t)}
    passed = True
    details = []

    if _q_is_identity(model):
        c_ode = correction_term(model, riccati, theta, t, kernel="ode")
        c_pr = correction_term(model, riccati, theta, t, kernel="printed")
        gap1 = float(np.max(np.abs(c_pr - c_ode)))
        bound1 = 5.0 * model.grid.dt
        measured.update({"unit_q_gap": gap1, "unit_q_bound": bound1})
        passed = passed and gap1 <= bound1
        details.append(f"unit-Q gap {gap1:.3e} <= {bound1:.1e}")
    else:
        details.append("unit-Q comparison skipped (Q is not the identity)")

    doubled = _with_q(model, 2.0 * np.eye(model.n))
    gaps = []
    ode_norms = []
    for mdl in (doubled, _refined(doubled)):
        ric = solve_riccati(mdl)
        th = constant_policy(mdl, value)
        c_ode = correction_term(mdl, ric, th, t, kernel="ode")
        c_pr = correction_term(mdl, ric, th, t, kernel="printed")
        gaps.append(float(np.max(np.abs(c_pr - c_ode))))
        ode_norms.append(float(np.max(np.abs(c_ode))))
    stable = abs(gaps[1] - gaps[0]) <= 0.1 * max(gaps[0], 1e-300)
    nonzero = gaps[1] > 100.0 * doubled.grid.dt / 2.0
    measured.update({
        "doubled_q_gap": gaps[0], "doubled_q_gap_half_dt": gaps[1],
        "doubled_q_ode_norm": ode_norms[0], "limit_nonzero": bool(nonzero),
    })
    passed = passed and stable and nonzero
    details.append(
        f"doubled-Q gap {gaps[0]:.4f} -> {gaps[1]:.4f} under halving "
        f"(nonzero limit: {bool(nonzero)})"
    )
    return CheckResult(name, bool(passed), True, "; ".join(details), measured)


def check_saddle(config: ScenarioConfig, seed: int,
                 threads: int = 1) -> CheckResult:
    """Saddle report sanity: dominance chain, box feasibility, convexity,
    and the frozen regression value on the default-style scenario."""
    name = "saddle"
    model, bound = config.model, config.bound
    riccati = solve_riccati(model)
    t = _probe_time(model)
    t_idx = model.grid.index_of(t)
    report = saddle_report(model, bound, t, riccati=riccati)
    trace_p = float(np.trace(riccati.P[t_idx]))

    ok_lower = abs(report.lower_value - trace_p) <= 1e-6
    ok_chain = (report.lower_value <= report.upper_value + 1e-9
                and trace_p <= report.lower_value + 1e-8)
    ok_box = (report.theta_star.within(bound, slack=1e-12)
              and report.theta_hat_star.within(bound, slack=1e-12)
              and np.array_equal(clamp_policy(report.theta_star, bound).theta,
                                 report.theta_star.theta))

    defect = 0.0
    for _, _, gs in g_profile(model, bound, t, center=report.theta_hat_star.theta[0],
                              riccati=riccati):
        mids = 0.5 * (gs[:-2] + gs[2:])
        defect = max(defect, float(np.max(gs[1:-1] - mids, initial=0.0)))
    ok_convex = defect <= 1e-9

    measured = {
        "t": float(t), "lower_value": report.lower_value,
        "upper_value": report.upper_value, "duality_gap": report.duality_gap,
        "trace_p": trace_p, "theta_hat_star": report.theta_hat_star.theta[0],
        "theta_star": report.theta_star.theta[0], "convexity_defect": defect,
    }
    passed = bool(ok_lower and ok_chain and ok_box and ok_convex)
    details = [f"lower-trace gap {abs(report.lower_value - trace_p):.2e}",
               f"convexity defect {defect:.2e}"]

    consts = _scalar_constants(model)
    is_default = (consts == (-1.0, 1.0, 1.0, 1.0)
                  and float(model.x0[0]) == 0.0
                  and np.all(model.f == 0.0) and np.all(model.g == 0.0)
                  and bound.dim == 1 and float(bound.mu[0]) == 1.0
                  and t == 1.0)
    if is_default:
        mu = float(bound.mu[0])
        h = mu / 100.0
        ok_center = abs(float(report.theta_hat_star.theta[0, 0])) <= h + 1e-12
        frozen_err = abs(report.upper_value - FROZEN_UPPER_VALUE)
        ok_frozen = frozen_err <= FROZEN_UPPER_TOL
        measured.update({"frozen_upper": FROZEN_UPPER_VALUE,
                         "frozen_err": frozen_err})
        passed = passed and ok_center and ok_frozen
        details.append(f"frozen upper err {frozen_err:.2e}")
    return CheckResult(name, passed, True, "; ".join(details), measured)


def check_whiteness(config: ScenarioConfig, seed: int,
                    threads: int = 1) -> CheckResult:
    """Innovation increments of a matched run behave as white noise."""
    name = "innovation_whiteness"
    model, bound = config.model, config.bound
    riccati = solve_riccati(model)
    tilt = _matched_tilt(model, bound)
    theta = clamp_policy(constant_policy(model, tilt), bound)
    n_paths = max(1, int(np.ceil(10_000 / model.n_steps)))
    ens = simulate_paths(model, theta, n_paths, seed + 83, threads=threads)
    runs = [run_robust_filter(model, riccati, theta, ens.m[j])
            for j in range(n_paths)]
    rep = innovation_diagnostics(runs, max_lag=5)
    band = 3.0 / np.sqrt(rep.n_increments)
    max_ac = rep.max_abs_autocorr
    ok_white = max_ac <= band
    var_rel = np.abs(np.diag(rep.increment_cov) - np.diag(rep.expected_cov))
    var_rel = float(np.max(var_rel / np.diag(rep.expected_cov)))
    ok_var = var_rel <= 0.05
    passed = bool(ok_white and ok_var)
    detail = (f"max |autocorr| = {max_ac:.4f} (band {band:.4f}), "
              f"variance rel err = {var_rel:.4f}")
    return CheckResult(name, passed, True, detail, {
        "n_increments": rep.n_increments, "band": band,
        "autocorr": rep.autocorr, "max_abs_autocorr": max_ac,
        "variance_rel_err": var_rel, "n_paths": n_paths,
    })


def check_determinism(config: ScenarioConfig, seed: int,
                      threads: int = 1) -> CheckResult:
    """Bitwise reproducibility across reruns, chunk splits, and threads."""
    name = "determinism"
    model = config.model
    steps = min(model.n_steps, 200)
    sub = model.truncate(steps) if steps < model.n_steps else model
    riccati = solve_riccati(sub)
    theta = zero_policy(sub)

    def blob(ens) -> bytes:
        return b"".join(a.tobytes() for a in (ens.x, ens.m, ens.dw, ens.dv,
                                              ens.log_density))

    base = simulate_paths(sub, theta, 3000, seed + 97, threads=1)
    rerun = simulate_paths(sub, theta, 3000, seed + 97, threads=1)
    wide = simulate_paths(sub, theta, 3000, seed + 97, threads=4)
    ok_rerun = blob(base) == blob(rerun)
    ok_threads = blob(base) == blob(wide)

    split = [simulate_paths(sub, theta, 1500, seed + 97, path_offset=off)
             for off in (0, 1500)]
    ok_split = (np.array_equal(np.vstack([e.x for e in split]), base.x)
                and np.array_equal(np.vstack([e.dw for e in split]), base.dw))

    th = theta.theta
    m1 = _mse_mc_multi(sub, riccati, th, th, [sub.n_steps], 3000, seed + 97,
                       threads=1)
    m4 = _mse_mc_multi(sub, riccati, th, th, [sub.n_steps], 3000, seed + 97,
                       threads=4)
    ok_mc = (float(m1[0][0]) == float(m4[0][0])
             and float(m1[1][0]) == float(m4[1][0]))
    passed = bool(ok_rerun and ok_threads and ok_split and ok_mc)
    return CheckResult(name, passed, True,
                       f"rerun={ok_rerun}, threads={ok_threads}, "
                       f"split={ok_split}, mc={ok_mc}",
                       {"rerun_equal": ok_rerun, "threads_equal": ok_threads,
                        "split_equal": ok_split, "mc_equal": ok_mc})


ALL_CHECKS = (
    check_riccati_steady_state,
    check_reduction_identity,
    check_matched_mse,
    check_error_oracle,
    check_girsanov,
    check_decomposition_identity,
    check_printed_kernel,
    check_saddle,
    check_whiteness,
    check_determinism,
)


def run_verification(config: ScenarioConfig, seed: int,
                     threads: int = 1) -> VerificationReport:
    """Run every check against one scenario."""
    results = tuple(chk(config, seed, threads) for chk in ALL_CHECKS)
    return VerificationReport(seed=int(seed), results=results)

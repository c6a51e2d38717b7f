"""Worst-case mean-square error over bounded deterministic drift policies:
exact and Monte-Carlo objectives, best responses, the robust filter drift,
and a saddle report with an honestly measured duality gap.

The estimator class is the drift-corrected filter parametrized by a constant
theta_hat per component; the adversary ranges over constant or bang-bang
drifts in the box.  For a fixed evaluation time the objective is
trace(P_t) + |M_t (theta - theta_hat)|^2 with M_t the integrated closed-loop
response, so the search works on a tiny quadratic model fed by one ODE
solve.  The restriction to deterministic policies is deliberate; the duality
gap it induces is reported, not hidden.
"""
from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedClassWarning
from .filtering import _filter_batch
from .model import (
    DriftPolicy,
    UncertaintyBound,
    ValidatedModel,
    clamp_policy,
    constant_policy,
    zero_policy,
)
from .ode import (RiccatiPath, _closed_loop_stages, _policy_array, _propagate,
                  solve_error_stats, solve_riccati)
from .simulate import _simulate_chunk

ADVERSARY_CLASSES = ("constant", "bang_bang")

_MC_CHUNK = 1024
_GOLDEN_ITERS = 80


def mse_exact(model: ValidatedModel, theta_true, theta_hat, t: float,
              riccati: RiccatiPath | None = None) -> float:
    """Exact mean-square estimation error at time t via the moment ODEs."""
    if riccati is None:
        riccati = solve_riccati(model)
    stats = solve_error_stats(model, theta_true, theta_hat, riccati)
    return stats.mse_at(t)


def _mse_mc_multi(model: ValidatedModel, riccati: RiccatiPath, theta_true,
                  theta_hat, t_indices, n_paths: int, seed: int,
                  threads: int = 1):
    """Sample MSE at several grid nodes from one simulated ensemble.

    Paths are processed in fixed-size chunks and accumulated by chunk index,
    so the result is independent of thread count.  Returns (means, stderrs)
    over the requested nodes.
    """
    th_true = _policy_array(theta_true, model, "theta_true")
    th_hat = _policy_array(theta_hat, model, "theta_hat")
    idx = np.asarray(t_indices, dtype=int)
    last = int(idx.max())
    if last == 0:
        # The initial state is known exactly; every path has zero error.
        zeros = np.zeros(idx.size)
        return zeros, (zeros.copy() if n_paths > 1 else np.full(idx.size, np.nan))
    sub = model.truncate(last) if last < model.n_steps else model
    sub_ric = riccati.prefix(last) if last < model.n_steps else riccati
    th_true = th_true[:last]
    th_hat = th_hat[:last]

    starts = list(range(0, n_paths, _MC_CHUNK))
    sq_sum = np.zeros((len(starts), idx.size))
    sq_sumsq = np.zeros((len(starts), idx.size))

    def run(ci: int):
        j0 = starts[ci]
        count = min(_MC_CHUNK, n_paths - j0)
        x, obs, _, _, _ = _simulate_chunk(sub, th_true, seed, j0, count, 0,
                                          need_density=False)
        xhat, _ = _filter_batch(sub, sub_ric, np.diff(obs, axis=1), th_hat)
        err = x[:, idx] - xhat[:, idx]
        sq = np.einsum("bki,bki->bk", err, err)
        sq_sum[ci] = sq.sum(axis=0)
        sq_sumsq[ci] = (sq * sq).sum(axis=0)

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(len(starts))))
    else:
        for ci in range(len(starts)):
            run(ci)

    total = sq_sum.sum(axis=0)
    total_sq = sq_sumsq.sum(axis=0)
    mean = total / n_paths
    if n_paths > 1:
        var = (total_sq - n_paths * mean**2) / (n_paths - 1)
        stderr = np.sqrt(np.maximum(var, 0.0) / n_paths)
    else:
        stderr = np.full(idx.size, np.nan)
    return mean, stderr


def mse_monte_carlo(model: ValidatedModel, theta_true, theta_hat, t: float,
                    n_paths: int, seed: int,
                    riccati: RiccatiPath | None = None,
                    threads: int = 1) -> tuple[float, float]:
    """Sample mean-square error at time t: simulate under theta_true, filter
    with theta_hat, average the squared error over n_paths.

    Returns (estimate, standard error); the standard error is NaN for a
    single path.
    """
    if riccati is None:
        riccati = solve_riccati(model)
    t_idx = model.grid.index_of(t)
    mean, stderr = _mse_mc_multi(model, riccati, theta_true, theta_hat,
                                 [t_idx], n_paths, seed, threads)
    return float(mean[0]), float(stderr[0])


@dataclass(frozen=True)
class _GameCore:
    """Quadratic reduction of the fixed-time game for constant policies."""

    t_idx: int
    trace_p: float
    M: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)  # stage closed loops up to t_idx

    def value(self, theta_const: np.ndarray, c: np.ndarray) -> float:
        r = self.M @ theta_const - c
        return self.trace_p + float(r @ r)


def _game_core(model: ValidatedModel, riccati: RiccatiPath, t: float) -> _GameCore:
    """Integrate M_t, the closed-loop response to a unit constant drift."""
    t_idx = model.grid.index_of(t)
    A = _closed_loop_stages(model, riccati)[2][:, :t_idx]
    M = _propagate(A, np.eye(model.n), model.grid.dt)[-1]
    return _GameCore(t_idx=t_idx, trace_p=float(np.trace(riccati.P[t_idx])), M=M, A=A)


def _component_grid(mu_i: float, h: float) -> np.ndarray:
    """Descending grid over [-mu, mu]; ties at evaluation prefer +mu."""
    if mu_i == 0.0:
        return np.zeros(1)
    half_pts = max(1, int(round(mu_i / h)))
    return np.linspace(mu_i, -mu_i, 2 * half_pts + 1)


def _golden(f, lo: float, hi: float, maximize: bool):
    """Golden-section scan; returns (x, f(x)) at the final bracket midpoint."""
    sign = -1.0 if maximize else 1.0
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = sign * f(x1), sign * f(x2)
    for _ in range(_GOLDEN_ITERS):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = sign * f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = sign * f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


def _resolutions(bound: UncertaintyBound, resolution: float | None) -> np.ndarray:
    if resolution is not None:
        if resolution <= 0.0:
            raise ValueError(f"resolution must be positive, got {resolution}")
        return np.full(bound.dim, float(resolution))
    return np.where(bound.mu > 0.0, bound.mu / 100.0, 1.0)


def _best_constant(core: _GameCore, bound: UncertaintyBound, c: np.ndarray,
                   resolution: float | None):
    """Maximize the quadratic objective over constant drifts in the box.

    Candidates are the per-component grid for a scalar model and the box
    vertices otherwise (the objective is convex, so the box maximum sits at
    a vertex); one golden-section pass per component then polishes against
    grid quantization.
    """
    mu = bound.mu
    n = mu.shape[0]
    hs = _resolutions(bound, resolution)
    if n == 1:
        cand = _component_grid(mu[0], hs[0])[:, None]
    else:
        axes = [(np.array([m, -m]) if m > 0.0 else np.zeros(1)) for m in mu]
        mesh = np.meshgrid(*axes, indexing="ij")
        cand = np.stack([a.ravel() for a in mesh], axis=1)
    resid = cand @ core.M.T - c
    vals = core.trace_p + np.einsum("bi,bi->b", resid, resid)
    best = int(np.argmax(vals))
    theta = cand[best].copy()
    value = float(vals[best])

    for i in range(n):
        if mu[i] == 0.0:
            continue
        lo = max(-mu[i], theta[i] - hs[i])
        hi = min(mu[i], theta[i] + hs[i])

        def f(v: float) -> float:
            trial = theta.copy()
            trial[i] = v
            return core.value(trial, c)

        x, fx = _golden(f, lo, hi, maximize=True)
        if fx > value:
            theta[i] = x
            value = fx
    return value, theta


def _closed_loop_is_diagonal(core: _GameCore) -> bool:
    A = core.A
    off = A - A * np.eye(A.shape[-1])
    scale = 1.0 + float(np.max(np.abs(A), initial=0.0))
    return float(np.max(np.abs(off), initial=0.0)) <= 1e-12 * scale


def worst_case_mse(model: ValidatedModel, bound: UncertaintyBound, theta_hat,
                   t: float, adversary: str = "constant",
                   resolution: float | None = None,
                   riccati: RiccatiPath | None = None):
    """Supremum of the exact MSE over the adversary class, with argmax.

    Returns (value, DriftPolicy).  For "bang_bang" the closed loop must be
    scalar or diagonal; otherwise the search falls back to the constant
    class with an UnsupportedClassWarning.  Since the closed-loop kernel of
    a diagonal system is positive, the bang-bang optimum is itself constant
    per component with sign ties broken toward +mu.
    """
    if adversary not in ADVERSARY_CLASSES:
        raise ValueError(f"adversary must be one of {ADVERSARY_CLASSES}, got {adversary!r}")
    if bound.dim != model.n:
        raise ValueError(f"bound dim {bound.dim} does not match model dim {model.n}")
    if riccati is None:
        riccati = solve_riccati(model)
    core = _game_core(model, riccati, t)
    th_hat = _policy_array(theta_hat, model, "theta_hat")
    if np.all(th_hat == th_hat[0]):
        c = core.M @ th_hat[0]
    else:
        c = _propagate(core.A, th_hat[: core.t_idx, :, None], model.grid.dt)[-1, :, 0]

    if adversary == "bang_bang":
        if _closed_loop_is_diagonal(core):
            mu = bound.mu
            diag = np.diag(core.M)
            up = np.abs(diag * mu - c)
            down = np.abs(-diag * mu - c)
            theta = np.where(up >= down, mu, -mu)
            return core.value(theta, c), clamp_policy(constant_policy(model, theta), bound)
        warnings.warn(
            "bang-bang search needs a scalar or diagonal closed loop; "
            "falling back to the constant class",
            UnsupportedClassWarning,
            stacklevel=2,
        )
    value, theta = _best_constant(core, bound, c, resolution)
    return value, clamp_policy(constant_policy(model, theta), bound)


def best_response_theta(model: ValidatedModel, bound: UncertaintyBound,
                        theta_hat, t: float, adversary: str = "constant",
                        resolution: float | None = None,
                        riccati: RiccatiPath | None = None) -> DriftPolicy:
    """Adversary drift maximizing the exact MSE against a fixed filter drift."""
    _, theta = worst_case_mse(model, bound, theta_hat, t, adversary,
                              resolution, riccati)
    return theta


def robust_theta_hat(model: ValidatedModel, bound: UncertaintyBound, t: float,
                     adversary: str = "constant",
                     resolution: float | None = None,
                     riccati: RiccatiPath | None = None):
    """Constant filter drift minimizing the worst-case MSE.

    Nested search: the worst case for each candidate is itself a box search;
    the outer minimization runs a per-component grid plus one golden-section
    pass.  The objective is a maximum of convex quadratics in theta_hat,
    hence convex, so the grid certifies the minimum to its resolution.
    Returns (DriftPolicy, upper_value).
    """
    if riccati is None:
        riccati = solve_riccati(model)
    core = _game_core(model, riccati, t)
    mu = bound.mu
    hs = _resolutions(bound, resolution)

    def g(th_hat: np.ndarray) -> float:
        value, _ = _best_constant(core, bound, core.M @ th_hat, resolution)
        return value

    theta_hat = np.zeros(model.n)
    value = g(theta_hat)
    sweeps = 1 if model.n == 1 else 2
    for _ in range(sweeps):
        for i in range(model.n):
            if mu[i] == 0.0:
                continue
            grid = _component_grid(mu[i], hs[i])
            trials = np.tile(theta_hat, (grid.size, 1))
            trials[:, i] = grid
            vals = np.array([g(tr) for tr in trials])
            best = int(np.argmin(vals))
            xi, vi = grid[best], float(vals[best])
            lo = max(-mu[i], xi - hs[i])
            hi = min(mu[i], xi + hs[i])

            def f(v: float) -> float:
                trial = theta_hat.copy()
                trial[i] = v
                return g(trial)

            x, fx = _golden(f, lo, hi, maximize=False)
            if fx < vi:
                xi, vi = x, fx
            theta_hat = theta_hat.copy()
            theta_hat[i] = xi
            value = vi
    policy = clamp_policy(constant_policy(model, theta_hat), bound)
    return policy, float(value)


def g_profile(model: ValidatedModel, bound: UncertaintyBound, t: float,
              center=None, n_points: int = 11,
              resolution: float | None = None,
              riccati: RiccatiPath | None = None):
    """Worst-case MSE along each component of theta_hat through a center.

    Returns a list of (component, values, g_values) with values of length
    n_points spanning [-mu_i, mu_i]; used for convexity audits and plots.
    """
    if riccati is None:
        riccati = solve_riccati(model)
    core = _game_core(model, riccati, t)
    center = np.zeros(model.n) if center is None else np.asarray(center, dtype=float)
    out = []
    for i in range(model.n):
        values = np.linspace(-bound.mu[i], bound.mu[i], n_points)
        gs = np.empty(n_points)
        for j, v in enumerate(values):
            th = center.copy()
            th[i] = v
            gs[j], _ = _best_constant(core, bound, core.M @ th, resolution)
        out.append((i, values, gs))
    return out


@dataclass(frozen=True)
class SaddleReport:
    """Upper/lower values and argmaxes of the restricted estimation game."""

    t: float
    estimator_class: str
    adversary_class: str
    theta_hat_star: DriftPolicy = field(repr=False)
    theta_star: DriftPolicy = field(repr=False)
    upper_value: float
    lower_value: float
    duality_gap: float
    baseline_trace_p: float
    notes: str

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "estimator_class": self.estimator_class,
            "adversary_class": self.adversary_class,
            "theta_hat_star": self.theta_hat_star.theta[0].tolist(),
            "theta_star": self.theta_star.theta[0].tolist(),
            "upper_value": self.upper_value,
            "lower_value": self.lower_value,
            "duality_gap": self.duality_gap,
            "baseline_trace_p": self.baseline_trace_p,
            "notes": self.notes,
        }


_SADDLE_NOTES = (
    "Values are computed over deterministic drift policies restricted to the "
    "declared classes. The lower value takes the adversary first, and for a "
    "deterministic adversary the filter can match its drift exactly, which "
    "yields the baseline covariance trace. A positive gap therefore measures "
    "what the class restriction gives up; it is reported, not closed."
)


def saddle_report(model: ValidatedModel, bound: UncertaintyBound, t: float,
                  adversary: str = "constant",
                  resolution: float | None = None,
                  riccati: RiccatiPath | None = None) -> SaddleReport:
    """Assemble the restricted-game report at time t."""
    if riccati is None:
        riccati = solve_riccati(model)
    t_idx = model.grid.index_of(t)
    theta_hat_star, upper = robust_theta_hat(model, bound, t, adversary="constant",
                                             resolution=resolution, riccati=riccati)
    value_star, theta_star = worst_case_mse(model, bound, theta_hat_star, t,
                                            adversary=adversary,
                                            resolution=resolution, riccati=riccati)
    upper = max(upper, value_star)
    lower = mse_exact(model, zero_policy(model), zero_policy(model), t, riccati)
    return SaddleReport(
        t=float(model.grid.times[t_idx]),
        estimator_class="constant",
        adversary_class=adversary,
        theta_hat_star=theta_hat_star,
        theta_star=theta_star,
        upper_value=float(upper),
        lower_value=float(lower),
        duality_gap=float(upper - lower),
        baseline_trace_p=float(np.trace(riccati.P[t_idx])),
        notes=_SADDLE_NOTES,
    )

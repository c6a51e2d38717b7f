"""Worst-case mean-square error over bounded deterministic drift policies:
exact and Monte-Carlo objectives, best responses, the robust filter drift,
and a saddle report with an honestly measured duality gap.

The estimator class is the drift-corrected filter parametrized by a constant
theta_hat per component; the adversary ranges over constant or bang-bang
drifts in the box.  For a fixed evaluation time the objective is
trace(P_t) + |M_t (theta - theta_hat)|^2 with M_t the integrated closed-loop
response.  The game has a closed form: the adversary's best reply is a box
vertex, and the worst case is convex and even in theta_hat, so the robust
filter drift is exactly 0.  The restriction to deterministic policies is
deliberate; the duality gap it induces is reported, not hidden.

The Monte-Carlo MSE runs independent runs together (`_mse_mc_runs`), one
job each of simulate._on_paths, which splits their paths over forked
processes with the same bits for any number of them; `_mse_mc_multi` is the
one-run case, and `robustkb minimax` submits its two estimates in one call.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BoxTooLarge, UnsupportedClassWarning
from .filtering import _filter_step, filter_gains
from .model import (
    DriftPolicy,
    UncertaintyBound,
    ValidatedModel,
    _steps,
    constant_policy,
)
from .ode import (RiccatiPath, _closed_loop, _policy_array, _response,
                  solve_error_stats, solve_riccati)
from .simulate import (_check_n_paths, _check_seed, _on_paths, _shared,
                       _simulate_chunk)

ADVERSARY_CLASSES = ("constant", "bang_bang")

# Most components with a positive radius whose 2^k box vertices are enumerated.
_MAX_VERTEX_COMPONENTS = 20

# Paths per partial sum of _mc_moments, which fix the reduction's bits.
_MC_CHUNK = 1024
# Most paths mse_monte_carlo runs.  A fixed policy limit, not a reading of
# the machine: a chunk's memory does not grow with n_paths, the squared
# errors kept take 80 MB per requested node at the limit, and the largest
# Monte-Carlo run in this package (verification) uses 10^4 paths.
_MAX_MC_PATHS = 10**7


def mse_exact(model: ValidatedModel, theta_true, theta_hat, t: float,
              riccati: RiccatiPath | None = None) -> float:
    """Exact mean-square estimation error at time t via the moment ODEs.

    The moments are read at t from the full-horizon solution, whose
    policy-independent work is memoized on the covariance path; every moment
    ODE is causal, so they equal the moments integrated up to t only.
    """
    th_true = _policy_array(theta_true, model, "theta_true")
    th_hat = _policy_array(theta_hat, model, "theta_hat")
    t_idx = model.grid.index_of(t)
    if riccati is None:
        riccati = solve_riccati(model)
    return float(solve_error_stats(model, th_true, th_hat, riccati).mse[t_idx])


def _squared_errors(x_at: np.ndarray, xhat_at: np.ndarray) -> np.ndarray:
    """|x - xhat|^2 per path and node, (count, nodes), from (nodes, count, n)
    states and estimates.  The errors are copied into the C-contiguous
    (count, nodes, n) layout of x[:, idx] first, so the bits do not depend
    on the layout of the inputs, and sums over paths keep their order."""
    err = np.ascontiguousarray(np.swapaxes(x_at - xhat_at, 0, 1))
    return np.einsum("bki,bki->bk", err, err)


def _mc_moments(sq: np.ndarray):
    """(means, stderrs) over the paths of (n_paths, nodes) squared errors,
    summed per _MC_CHUNK paths and the chunk sums added in chunk order; the
    stderr is NaN for one path.  The bits of a sum follow the layout of sq,
    which must be the one _squared_errors returns, paths contiguous."""
    n_paths = len(sq)
    chunks = [sq[j0:j0 + _MC_CHUNK] for j0 in range(0, n_paths, _MC_CHUNK)]
    mean = np.array([c.sum(axis=0) for c in chunks]).sum(axis=0) / n_paths
    if n_paths == 1:
        return mean, np.full(mean.shape, np.nan)
    total_sq = np.array([(c * c).sum(axis=0) for c in chunks]).sum(axis=0)
    var = (total_sq - n_paths * mean**2) / (n_paths - 1)
    return mean, np.sqrt(np.maximum(var, 0.0) / n_paths)


class _MCRun:
    """One Monte-Carlo run on a shared model and covariance path: the
    per-interval arrays its chunks read, built once in the calling process,
    and the (n_paths, nodes) squared errors the chunks fill, in the layout
    of _squared_errors, on a _shared mapping that forked children write."""

    def __init__(self, model: ValidatedModel, riccati: RiccatiPath,
                 theta_true, theta_hat, t_indices, n_paths: int, seed: int):
        th_true = _policy_array(theta_true, model, "theta_true")
        th_hat = _policy_array(theta_hat, model, "theta_hat")
        idx = np.asarray(t_indices, dtype=int)
        self.nodes, self.n_paths, self.seed = idx.size, n_paths, seed
        self.last = last = int(idx.max())
        # Zero where last is 0: the initial state is known exactly.
        self.sq = _shared((idx.size, n_paths)).T
        if last == 0:
            return
        self.sub = sub = model.truncate(last)
        sub_ric = riccati.prefix(last) if last < model.n_steps else riccati
        self.steps = steps = _steps(sub)
        self.th_true = steps.per_interval(th_true[:last])
        self.th_hat = steps.per_interval(th_hat[:last])
        self.gains = steps.per_interval(filter_gains(sub, sub_ric))
        self.slots = {}
        for pos, node in enumerate(idx.tolist()):
            self.slots.setdefault(node, []).append(pos)

    def fill(self, j0: int, count: int) -> None:
        """The squared errors of paths j0..j0+count-1, into their rows of sq.

        The filter steps along with the simulation on its (d, batch) step
        slices, fed obs_{k+1} - obs_k (the bits of np.diff), and only the
        states at the requested nodes are kept, in (nodes, n, count) arrays.
        """
        sub, steps = self.sub, self.steps
        states = _simulate_chunk(sub, steps, self.th_true, self.seed, j0,
                                 count)
        x_at = np.empty((self.nodes, sub.n, count))
        xhat_at = np.empty_like(x_at)
        for k, (xk, obs_k) in enumerate(states):
            if k == 0:
                xhat = xk  # both start at x0; no slice is written in place
            else:
                xhat, _ = _filter_step(steps, k - 1, xhat, obs_k - obs_prev,
                                       self.th_hat[k - 1], self.gains[k - 1])
            obs_prev = obs_k
            for pos in self.slots.get(k, ()):
                x_at[pos] = xk
                xhat_at[pos] = xhat
        self.sq[j0:j0 + count] = _squared_errors(np.swapaxes(x_at, 1, 2),
                                                 np.swapaxes(xhat_at, 1, 2))


def _mse_mc_runs(model: ValidatedModel, riccati: RiccatiPath, runs):
    """Sample MSEs of several independent runs on one model and covariance
    path, each run a tuple (theta_true, theta_hat, t_indices, n_paths,
    seed) that simulates one ensemble and reads it at several grid nodes.
    Returns one (means, stderrs) over the requested nodes per run.

    Every run past node 0 is one job of simulate._on_paths, whose
    processes write its squared errors straight into the run's array.  A
    path keeps its index, so its bits do not depend on the process that ran
    it, and each run is reduced by _mc_moments in the calling process: the
    results are the same for any number of processes.
    """
    runs = [_MCRun(model, riccati, *run) for run in runs]
    live = [r for r, run in enumerate(runs) if run.last]
    _on_paths([(runs[r].sub, runs[r].n_paths, runs[r].fill) for r in live],
              lambda j, first, last: (f"running Monte-Carlo run {live[j]} "
                                      f"paths {first}..{last}"))
    return [_mc_moments(run.sq) for run in runs]


def _mse_mc_multi(model: ValidatedModel, riccati: RiccatiPath, theta_true,
                  theta_hat, t_indices, n_paths: int, seed: int):
    """Sample MSE at several grid nodes from one simulated ensemble: the
    one-run case of _mse_mc_runs.  Returns (means, stderrs) over the
    requested nodes."""
    return _mse_mc_runs(model, riccati, [(theta_true, theta_hat, t_indices,
                                          n_paths, seed)])[0]


def mse_monte_carlo(model: ValidatedModel, theta_true, theta_hat, t: float,
                    n_paths: int, seed: int,
                    riccati: RiccatiPath | None = None,
                    threads: int = 1) -> tuple[float, float]:
    """Sample mean-square error at time t: simulate under theta_true, filter
    with theta_hat, average the squared error over n_paths.

    Returns (estimate, standard error); the standard error is NaN for a
    single path.  n_paths must be a positive integer of at most 10**7, a
    fixed policy limit on the run time, else InvalidPathCount is raised
    before any work.  threads is accepted for compatibility and splits no
    work.
    """
    return _mse_mc_at(model, [(theta_true, theta_hat, t, n_paths, seed)],
                      riccati)[0]


def _mse_mc_at(model: ValidatedModel, runs, riccati: RiccatiPath | None = None):
    """(estimate, standard error) of each run (theta_true, theta_hat, t,
    n_paths, seed) at its time t, as mse_monte_carlo gives them: every seed
    and path count is checked before any work, then all the runs share one
    _mse_mc_runs call."""
    checked = []
    for theta_true, theta_hat, t, n_paths, seed in runs:
        seed = _check_seed("seed", seed)
        n_paths = _check_n_paths(n_paths, _MAX_MC_PATHS,
                                 "the Monte-Carlo path cap")
        checked.append((theta_true, theta_hat, t, n_paths, seed))
    if riccati is None:
        riccati = solve_riccati(model)
    out = _mse_mc_runs(model, riccati, [
        (theta_true, theta_hat, [model.grid.index_of(t)], n_paths, seed)
        for theta_true, theta_hat, t, n_paths, seed in checked])
    return [(float(mean[0]), float(stderr[0])) for mean, stderr in out]


@dataclass(frozen=True)
class _GameCore:
    """Quadratic reduction of the fixed-time game for constant policies."""

    t_idx: int
    trace_p: float
    M: np.ndarray = field(repr=False)


def _game_core(model: ValidatedModel, riccati: RiccatiPath, t: float) -> _GameCore:
    """Integrate M_t, the closed-loop response to a unit constant drift."""
    t_idx = model.grid.index_of(t)
    loop = _closed_loop(model, riccati)
    M = _response(loop.T[:t_idx], loop.D[:t_idx], np.eye(model.n),
                  loop.levels)[-1]
    return _GameCore(t_idx=t_idx, trace_p=float(np.trace(riccati.P[t_idx])), M=M)


def _vertices(bound: UncertaintyBound) -> np.ndarray:
    """Box corners, shape (2^k, n) for the k components with mu_i > 0, each
    taking +mu_i before -mu_i so argmax ties go to +mu; raises BoxTooLarge."""
    k = int(np.count_nonzero(bound.mu > 0.0))
    if k > _MAX_VERTEX_COMPONENTS:
        raise BoxTooLarge(
            f"box has {k} components with a positive radius; vertex "
            f"enumeration is capped at {_MAX_VERTEX_COMPONENTS} (2^{k} vertices)"
        )
    axes = [(np.array([m, -m]) if m > 0.0 else np.zeros(1)) for m in bound.mu]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.ravel() for a in mesh], axis=1)


def _best_vertex(core: _GameCore, vertices: np.ndarray, c) -> tuple[float, np.ndarray]:
    """Max of trace(P_t) + |M_t v - c|^2 over the vertices v, with the argmax."""
    resid = vertices @ core.M.T - c
    vals = core.trace_p + np.einsum("bi,bi->b", resid, resid)
    best = int(np.argmax(vals))
    return float(vals[best]), vertices[best].copy()


def _closed_loop_is_diagonal(A: np.ndarray) -> bool:
    off = A - A * np.eye(A.shape[-1])
    scale = 1.0 + float(np.max(np.abs(A), initial=0.0))
    return float(np.max(np.abs(off), initial=0.0)) <= 1e-12 * scale


def worst_case_mse(model: ValidatedModel, bound: UncertaintyBound, theta_hat,
                   t: float, adversary: str = "constant",
                   riccati: RiccatiPath | None = None):
    """Supremum of the exact MSE over the adversary class, with argmax.

    Returns (value, DriftPolicy).  The MSE of a constant drift v is the
    convex quadratic trace(P_t) + |M_t v - c|^2, with c the response to
    theta_hat, so it peaks at a box vertex.  For "bang_bang" the closed loop
    must be scalar or diagonal, whose positive kernel makes that vertex the
    bang-bang optimum too; otherwise an UnsupportedClassWarning is issued.
    """
    if adversary not in ADVERSARY_CLASSES:
        raise ValueError(f"adversary must be one of {ADVERSARY_CLASSES}, got {adversary!r}")
    if bound.dim != model.n:
        raise ValueError(f"bound dim {bound.dim} does not match model dim {model.n}")
    vertices = _vertices(bound)
    if riccati is None:
        riccati = solve_riccati(model)
    core = _game_core(model, riccati, t)
    loop, k = _closed_loop(model, riccati), core.t_idx
    th_hat = _policy_array(theta_hat, model, "theta_hat")
    c = _response(loop.T[:k], loop.D[:k], th_hat[:k, :, None],
                  loop.levels)[-1, :, 0]

    if (adversary == "bang_bang"
            and not _closed_loop_is_diagonal(loop.stages(k)[2])):
        warnings.warn(
            "bang-bang search needs a scalar or diagonal closed loop; "
            "falling back to the constant class",
            UnsupportedClassWarning,
            stacklevel=2,
        )
    value, theta = _best_vertex(core, vertices, c)
    return value, constant_policy(model, theta)


def best_response_theta(model: ValidatedModel, bound: UncertaintyBound,
                        theta_hat, t: float, adversary: str = "constant",
                        riccati: RiccatiPath | None = None) -> DriftPolicy:
    """Adversary drift maximizing the exact MSE against a fixed filter drift."""
    _, theta = worst_case_mse(model, bound, theta_hat, t, adversary, riccati)
    return theta


def robust_theta_hat(model: ValidatedModel, bound: UncertaintyBound, t: float,
                     riccati: RiccatiPath | None = None):
    """Constant filter drift minimizing the worst-case MSE, in closed form.

    The worst case g(th) = trace(P_t) + max_{v in box} |M_t (v - th)|^2 is a
    maximum of convex quadratics, hence convex, and even because the box is
    symmetric.  So its minimizer is exactly 0.  Returns (DriftPolicy, g(0)).
    """
    vertices = _vertices(bound)
    if riccati is None:
        riccati = solve_riccati(model)
    value, _ = _best_vertex(_game_core(model, riccati, t), vertices, 0.0)
    return constant_policy(model, 0.0), value


def g_profile(model: ValidatedModel, bound: UncertaintyBound, t: float,
              center=None, n_points: int = 11,
              riccati: RiccatiPath | None = None):
    """Worst-case MSE g(th) along each component of th through a center.

    Returns a list of (component, values, g_values) with values of length
    n_points spanning [-mu_i, mu_i]; used for convexity audits and plots.
    """
    vertices = _vertices(bound)
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
            gs[j], _ = _best_vertex(core, vertices, core.M @ th)
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
                  riccati: RiccatiPath | None = None) -> SaddleReport:
    """Assemble the restricted-game report at time t."""
    _vertices(bound)  # BoxTooLarge before any ODE work
    if riccati is None:
        riccati = solve_riccati(model)
    t_idx = model.grid.index_of(t)
    # The robust filter drift is 0 (see robust_theta_hat).
    theta_hat_star = constant_policy(model, 0.0)
    upper, theta_star = worst_case_mse(model, bound, theta_hat_star, t,
                                       adversary=adversary, riccati=riccati)
    # Matched drifts leave the error covariance at P: the lower value is
    # tr P_t, read off the covariance path.
    lower = float(np.trace(riccati.P[t_idx]))
    return SaddleReport(
        t=float(model.grid.times[t_idx]),
        estimator_class="constant",
        adversary_class=adversary,
        theta_hat_star=theta_hat_star,
        theta_star=theta_star,
        upper_value=float(upper),
        lower_value=lower,
        duality_gap=float(upper - lower),
        baseline_trace_p=lower,
        notes=_SADDLE_NOTES,
    )

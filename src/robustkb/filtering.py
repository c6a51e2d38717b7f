"""Classical and drift-corrected Kalman-Bucy filters plus innovation
whiteness diagnostics.

Both filters run the same explicit Euler recursion on observation increments
with the gain frozen at the left endpoint of each interval; the classical
filter is the zero-drift special case, so the two agree bitwise there.

One interval of the recursion is `_filter_step`, applied to the contiguous
component-major (n, batch) slices of time-major (K, n, batch) arrays, scalar
models included, or to Python floats for one path of a scalar model (see
`model._Steps`).
`_filter_batch` (and so `run_robust_filter`) runs it over a whole path, and
the Monte-Carlo MSE (`minimax._mse_mc_multi`) runs it in step with the
simulation, so both estimate with the same code.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch
from .model import DriftPolicy, ValidatedModel, _steps, _Steps, zero_policy
from .ode import RiccatiPath, _policy_array
from .simulate import _initial_state, _path_major, _time_major


@dataclass(frozen=True)
class FilterRun:
    """Estimate path, innovation increments, and the drift policy used."""

    model: ValidatedModel = field(repr=False)
    riccati: RiccatiPath = field(repr=False)
    theta_hat: DriftPolicy = field(repr=False)
    xhat: np.ndarray = field(repr=False)
    innovations: np.ndarray = field(repr=False)


def filter_gains(model: ValidatedModel, riccati: RiccatiPath) -> np.ndarray:
    """Per-interval gains K_k = P_k G_k' R_k^-1, shape (n_steps, n, m)."""
    if riccati.grid != model.grid:
        raise GridMismatch("covariance path grid differs from model grid")
    return np.einsum("kij,kmj,kml->kil", riccati.P[:-1], model.G, model.Rinv)


def _filter_step(steps: _Steps, k: int, xhat, dm_k, theta_k, gain_k):
    """One interval of the recursion on time-major step slices.

    Returns (xhat_{k+1}, dI_k); theta_k and gain_k are in the layout of
    `steps.per_interval`.
    """
    dt = steps.dt
    di = dm_k - (steps.apply(xhat, steps.G[k]) + steps.g[k]) * dt
    return (xhat + (steps.apply(xhat, steps.F[k]) + steps.f[k] + theta_k) * dt
            + steps.apply(di, gain_k)), di


def _filter_batch(model: ValidatedModel, riccati: RiccatiPath, dm: np.ndarray,
                  theta: np.ndarray):
    """Run the filter recursion on a batch of observation increment paths.

    dm has shape (batch, n_steps, m); returns estimates (batch, n_steps+1, n)
    and innovation increments (batch, n_steps, m), as path-major views of
    time-major (K, d, batch) arrays, which the loop fills a step slice at a
    time from one time-major copy of dm.
    """
    n, m, k_steps = model.n, model.m, model.n_steps
    batch = dm.shape[0]
    steps = _steps(model)
    gains = steps.per_interval(filter_gains(model, riccati))
    th = steps.per_interval(theta)
    dm = steps.read(_time_major(dm))
    xhat = np.empty((k_steps + 1, n, batch))
    innov = np.empty((k_steps, m, batch))
    xhat[0] = x = _initial_state(steps, model.x0, batch)
    for k in range(k_steps):
        x, innov[k] = _filter_step(steps, k, x, dm[k], th[k], gains[k])
        xhat[k + 1] = x
    return _path_major(xhat), _path_major(innov)


def _check_obs(model: ValidatedModel, obs) -> np.ndarray:
    obs = np.asarray(obs, dtype=float)
    if obs.shape != (model.n_steps + 1, model.m):
        raise GridMismatch(
            f"obs: expected shape ({model.n_steps + 1}, {model.m}), got {obs.shape}"
        )
    return obs


def run_robust_filter(model: ValidatedModel, riccati: RiccatiPath,
                      theta_hat, obs) -> FilterRun:
    """Filter one observation path with a deterministic drift correction.

    The recursion is
    xhat_{k+1} = xhat_k + (F_k xhat_k + f_k + theta_hat_k) dt + K_k dI_k
    with dI_k = dm_k - (G_k xhat_k + g_k) dt and gain K_k = P_k G_k' R_k^-1.
    """
    th = _policy_array(theta_hat, model, "theta_hat")
    policy = theta_hat if isinstance(theta_hat, DriftPolicy) else DriftPolicy(th)
    obs = _check_obs(model, obs)
    dm = np.diff(obs, axis=0)
    xhat, innov = _filter_batch(model, riccati, dm[None], th)
    xhat, innov = xhat[0], innov[0]
    xhat.setflags(write=False)
    innov.setflags(write=False)
    return FilterRun(model=model, riccati=riccati, theta_hat=policy,
                     xhat=xhat, innovations=innov)


def run_classical_filter(model: ValidatedModel, riccati: RiccatiPath, obs) -> FilterRun:
    """Filter one observation path with no drift correction."""
    return run_robust_filter(model, riccati, zero_policy(model), obs)


@dataclass(frozen=True)
class WhitenessReport:
    """Sample diagnostics of innovation increments pooled over runs."""

    lags: np.ndarray
    autocorr: np.ndarray
    increment_cov: np.ndarray
    expected_cov: np.ndarray
    standardized_mean: np.ndarray
    n_increments: int

    @property
    def max_abs_autocorr(self) -> float:
        return float(np.max(np.abs(self.autocorr)))


def innovation_diagnostics(runs, max_lag: int = 10) -> WhitenessReport:
    """Whiteness diagnostics for one filter run or a sequence of runs.

    Increments are standardized per interval by chol(R_k dt); under a
    correctly specified filter they are i.i.d. standard normal.
    Autocorrelations are computed per component with the pooled mean removed
    and never straddle run boundaries.  The raw increment covariance is
    compared against the time-averaged R_k dt.  A max_lag below 1, or a run
    shorter than 2 intervals, leaves no lag and raises ValueError.
    """
    if isinstance(runs, FilterRun):
        runs = [runs]
    runs = list(runs)
    if not runs:
        raise ValueError("needs at least one filter run")
    model = runs[0].model
    m = model.m
    dt = model.grid.dt
    chol = model.R_chol * np.sqrt(dt)

    z_runs = []
    raw = []
    for run in runs:
        if run.model.grid != model.grid:
            raise GridMismatch("runs were produced on different grids")
        di = run.innovations
        z_runs.append(np.linalg.solve(chol, di[..., None])[..., 0])
        raw.append(di)
    pooled = np.concatenate(z_runs, axis=0)
    n_inc = pooled.shape[0]
    z_mean = pooled.mean(axis=0)

    shortest = min(z.shape[0] for z in z_runs)
    if min(max_lag, shortest - 1) < 1:
        raise ValueError(f"no lag fits: max_lag = {max_lag} and runs of "
                         f"{shortest} interval(s); needs max_lag >= 1 and "
                         f"runs of at least 2")
    max_lag = min(max_lag, shortest - 1)
    lags = np.arange(1, max_lag + 1)
    num = np.zeros((max_lag, m))
    den = np.sum((pooled - z_mean) ** 2, axis=0)
    for li, lag in enumerate(lags):
        for z in z_runs:
            zc = z - z_mean
            num[li] += np.sum(zc[:-lag] * zc[lag:], axis=0)
    autocorr = num / den

    raw_all = np.concatenate(raw, axis=0)
    increment_cov = np.atleast_2d(np.cov(raw_all, rowvar=False, ddof=1))
    expected_cov = model.R.mean(axis=0) * dt
    return WhitenessReport(
        lags=lags, autocorr=autocorr, increment_cov=increment_cov,
        expected_cov=expected_cov, standardized_mean=z_mean, n_increments=n_inc,
    )

"""Model layer: time grid, coefficient schedules, drift policies, validation.

Coefficient schedules are piecewise constant in time: entry k applies on the
interval [t_k, t_{k+1}).  Where a coefficient is needed at the terminal node,
the last interval's value is reused.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFinite,
    NotPSD,
    NotPositiveDefinite,
    OutOfGrid,
)

# Validation floors.  R must be uniformly invertible; Q may be singular but
# not indefinite beyond roundoff.
R_EIG_FLOOR = 1e-10
Q_EIG_FLOOR = -1e-10

_GRID_RTOL = 1e-9


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*dt for k = 0..n_steps."""

    horizon: float
    n_steps: int
    dt: float = field(init=False)
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps!r}")
        horizon = float(self.horizon)
        if not np.isfinite(horizon) or horizon <= 0.0:
            raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "n_steps", int(self.n_steps))
        object.__setattr__(self, "dt", horizon / self.n_steps)
        self._rebuild_times()

    def _rebuild_times(self):
        times = _readonly(np.arange(self.n_steps + 1) * self.dt)
        object.__setattr__(self, "times", times)

    @classmethod
    def from_step(cls, dt: float, n_steps: int) -> "TimeGrid":
        """Grid with this exact step size; the horizon is derived."""
        dt = float(dt)
        if not np.isfinite(dt) or dt <= 0.0:
            raise ValueError(f"dt must be finite and positive, got {dt!r}")
        grid = cls(dt * int(n_steps), n_steps)
        # Keep the requested step bitwise: horizon/n_steps may round differently.
        object.__setattr__(grid, "dt", dt)
        grid._rebuild_times()
        return grid

    def index_of(self, t: float, *, what: str = "t") -> int:
        """Node index of time t, or OutOfGrid if t is off-grid."""
        t = float(t)
        k = int(round(t / self.dt))
        tol = _GRID_RTOL * max(1.0, self.horizon)
        if k < 0 or k > self.n_steps or abs(t - k * self.dt) > tol:
            raise OutOfGrid(
                f"{what}={t!r} is not a node of the grid "
                f"(dt={self.dt!r}, horizon={self.horizon!r})"
            )
        return k

    def prefix(self, n_steps: int) -> "TimeGrid":
        """Subgrid over the first n_steps intervals, same step size."""
        if not 1 <= n_steps <= self.n_steps:
            raise ValueError(f"prefix length {n_steps} outside 1..{self.n_steps}")
        return TimeGrid.from_step(self.dt, n_steps)


@dataclass(frozen=True)
class ModelSchedule:
    """Raw per-interval coefficients, before validation.

    Shapes: F (n_steps, n, n), f (n_steps, n), G (n_steps, m, n),
    g (n_steps, m), Q (n_steps, n, n), R (n_steps, m, m), x0 (n,).
    """

    F: np.ndarray
    f: np.ndarray
    G: np.ndarray
    g: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    x0: np.ndarray

    @classmethod
    def constant(cls, F, f, G, g, Q, R, x0, n_steps: int) -> "ModelSchedule":
        """Tile time-constant coefficients over n_steps intervals."""
        F = np.atleast_2d(np.asarray(F, dtype=float))
        G = np.atleast_2d(np.asarray(G, dtype=float))
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        R = np.atleast_2d(np.asarray(R, dtype=float))
        f = np.atleast_1d(np.asarray(f, dtype=float))
        g = np.atleast_1d(np.asarray(g, dtype=float))
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        tile2 = lambda a: np.broadcast_to(a, (n_steps,) + a.shape).copy()
        return cls(F=tile2(F), f=tile2(f), G=tile2(G), g=tile2(g),
                   Q=tile2(Q), R=tile2(R), x0=x0.copy())


@dataclass(frozen=True)
class ValidatedModel:
    """Checked model with derived per-interval caches.

    All arrays are read-only.  Rinv, R_chol, Q_sqrt and S = G^T R^-1 G are
    precomputed per interval; r_min records the smallest eigenvalue seen
    across the R schedule.  R_chol_live and Q_sqrt_live mark the entries of
    the noise factors that are nonzero on some interval of the full grid,
    and truncate keeps them (see simulate._increments).
    """

    grid: TimeGrid
    n: int
    m: int
    F: np.ndarray
    f: np.ndarray
    G: np.ndarray
    g: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    x0: np.ndarray
    r_min: float
    Rinv: np.ndarray = field(repr=False, compare=False)
    R_chol: np.ndarray = field(repr=False, compare=False)
    Q_sqrt: np.ndarray = field(repr=False, compare=False)
    S: np.ndarray = field(repr=False, compare=False)
    R_chol_live: np.ndarray = field(repr=False, compare=False)
    Q_sqrt_live: np.ndarray = field(repr=False, compare=False)

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    def coeff_index(self, node: int) -> int:
        """Interval index supplying the coefficient at a node."""
        return min(node, self.n_steps - 1)

    def truncate(self, n_steps: int) -> "ValidatedModel":
        """Model restricted to the first n_steps intervals."""
        if n_steps == self.n_steps:
            return self
        grid = self.grid.prefix(n_steps)
        sl = lambda a: _readonly(a[:n_steps])
        r_min = float(np.min(np.linalg.eigvalsh(self.R[:n_steps])))
        return replace(
            self, grid=grid, F=sl(self.F), f=sl(self.f), G=sl(self.G),
            g=sl(self.g), Q=sl(self.Q), R=sl(self.R), r_min=r_min,
            Rinv=sl(self.Rinv), R_chol=sl(self.R_chol),
            Q_sqrt=sl(self.Q_sqrt), S=sl(self.S),
        )

    def is_time_constant(self) -> bool:
        return all(
            bool(np.all(a == a[0]))
            for a in (self.F, self.f, self.G, self.g, self.Q, self.R)
        )


def _live_terms(factor: np.ndarray) -> np.ndarray:
    """(d, d) mask of the entries of a (K, d, d) factor schedule that are
    nonzero on some interval, read-only."""
    live = np.any(factor != 0.0, axis=0)
    live.setflags(write=False)
    return live


def _check_shape(name: str, a: np.ndarray, shape: tuple) -> None:
    if a.shape != shape:
        raise DimensionMismatch(f"{name}: expected shape {shape}, got {a.shape}")


def _check_finite(name: str, a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{name} contains non-finite entries")


def _first_below(eigs: np.ndarray, floor: float):
    """(k, its lowest eigenvalue) for the first matrix k of a stack with an
    eigenvalue below floor, eigs holding one row per matrix; else None."""
    lows = eigs.min(axis=1)
    k = int(np.argmax(lows < floor))
    return (k, float(lows[k])) if lows[k] < floor else None


def _check_symmetric(name: str, a: np.ndarray) -> None:
    asym = np.max(np.abs(a - np.swapaxes(a, -1, -2)), initial=0.0)
    scale = 1.0 + np.max(np.abs(a), initial=0.0)
    if asym > 1e-9 * scale:
        raise NotPSD(f"{name} is not symmetric (max asymmetry {asym:.3e})")


def validate_model(schedule: ModelSchedule, grid: TimeGrid) -> ValidatedModel:
    """Validate a schedule against a grid and precompute derived arrays.

    Raises DimensionMismatch, NonFinite (also for an overflowing S), NotPSD
    (Q indefinite or asymmetric) or NotPositiveDefinite (R eigenvalue below
    1e-10), naming the first bad interval and its own lowest eigenvalue.
    """
    x0 = np.asarray(schedule.x0, dtype=float)
    if x0.ndim != 1 or x0.size < 1:
        raise DimensionMismatch(f"x0: expected a 1-d vector, got shape {x0.shape}")
    n = x0.shape[0]
    G = np.asarray(schedule.G, dtype=float)
    if G.ndim != 3:
        raise DimensionMismatch(f"G: expected a (n_steps, m, n) stack, got shape {G.shape}")
    m = G.shape[1]
    k = grid.n_steps

    F = np.asarray(schedule.F, dtype=float)
    f = np.asarray(schedule.f, dtype=float)
    g = np.asarray(schedule.g, dtype=float)
    Q = np.asarray(schedule.Q, dtype=float)
    R = np.asarray(schedule.R, dtype=float)
    _check_shape("F", F, (k, n, n))
    _check_shape("f", f, (k, n))
    _check_shape("G", G, (k, m, n))
    _check_shape("g", g, (k, m))
    _check_shape("Q", Q, (k, n, n))
    _check_shape("R", R, (k, m, m))
    for name, a in (("F", F), ("f", f), ("G", G), ("g", g), ("Q", Q), ("R", R), ("x0", x0)):
        _check_finite(name, a)

    _check_symmetric("Q", Q)
    _check_symmetric("R", R)
    # Halving before adding cannot overflow, and is exact for normal numbers.
    Q = 0.5 * Q + 0.5 * np.swapaxes(Q, -1, -2)
    R = 0.5 * R + 0.5 * np.swapaxes(R, -1, -2)

    q_eigs, q_vecs = np.linalg.eigh(Q)
    bad = _first_below(q_eigs, Q_EIG_FLOOR)
    if bad is not None:
        raise NotPSD(f"Q[{bad[0]}] has eigenvalue {bad[1]:.3e} below {Q_EIG_FLOOR:.1e}")
    r_eigs = np.linalg.eigvalsh(R)
    bad = _first_below(r_eigs, R_EIG_FLOOR)
    if bad is not None:
        raise NotPositiveDefinite(
            f"R[{bad[0]}] has eigenvalue {bad[1]:.3e} below {R_EIG_FLOOR:.1e}"
        )

    Rinv = np.linalg.inv(R)
    Rinv = 0.5 * (Rinv + np.swapaxes(Rinv, -1, -2))
    R_chol = np.linalg.cholesky(R)
    sq = np.sqrt(np.clip(q_eigs, 0.0, None))
    Q_sqrt = np.einsum("kij,kj,klj->kil", q_vecs, sq, q_vecs)
    Q_sqrt = 0.5 * (Q_sqrt + np.swapaxes(Q_sqrt, -1, -2))
    S = np.einsum("kmi,kml,kln->kin", G, Rinv, G)
    S = 0.5 * (S + np.swapaxes(S, -1, -2))
    _check_finite("S", S)

    return ValidatedModel(
        grid=grid, n=n, m=m,
        F=_readonly(F), f=_readonly(f), G=_readonly(G), g=_readonly(g),
        Q=_readonly(Q), R=_readonly(R), x0=_readonly(x0),
        r_min=float(r_eigs.min()),
        Rinv=_readonly(Rinv), R_chol=_readonly(R_chol),
        Q_sqrt=_readonly(Q_sqrt), S=_readonly(S),
        R_chol_live=_live_terms(R_chol), Q_sqrt_live=_live_terms(Q_sqrt),
    )


def constant_model(F, f, G, g, Q, R, x0, horizon: float, n_steps: int) -> ValidatedModel:
    """Convenience builder for a time-constant model."""
    grid = TimeGrid(horizon, n_steps)
    return validate_model(
        ModelSchedule.constant(F, f, G, g, Q, R, x0, n_steps), grid
    )


@dataclass(frozen=True)
class UncertaintyBound:
    """Componentwise box |theta_i| <= mu_i on drift perturbations."""

    mu: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if mu.ndim != 1:
            raise DimensionMismatch(f"mu: expected a 1-d vector, got shape {mu.shape}")
        if not np.all(np.isfinite(mu)):
            raise NonFinite("mu contains non-finite entries")
        if np.any(mu < 0.0):
            raise ValueError("mu must be componentwise nonnegative")
        object.__setattr__(self, "mu", _readonly(mu))

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class DriftPolicy:
    """Deterministic drift perturbation, one vector per grid interval."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 2:
            raise DimensionMismatch(
                f"theta: expected shape (n_steps, n), got {theta.shape}"
            )
        if not np.all(np.isfinite(theta)):
            raise NonFinite("theta contains non-finite entries")
        object.__setattr__(self, "theta", _readonly(theta))

    @property
    def n_steps(self) -> int:
        return self.theta.shape[0]

    @property
    def dim(self) -> int:
        return self.theta.shape[1]

    def node_values(self) -> np.ndarray:
        """Values at grid nodes; the terminal node reuses the last interval."""
        return np.concatenate([self.theta, self.theta[-1:]], axis=0)

    def within(self, bound: UncertaintyBound, slack: float = 0.0) -> bool:
        if bound.dim != self.dim:
            raise DimensionMismatch(
                f"bound has dim {bound.dim}, policy has dim {self.dim}"
            )
        return bool(np.all(np.abs(self.theta) <= bound.mu + slack))


def constant_policy(model: ValidatedModel, value) -> DriftPolicy:
    """Policy holding a fixed vector on every interval."""
    v = np.broadcast_to(np.atleast_1d(np.asarray(value, dtype=float)), (model.n,))
    return DriftPolicy(np.tile(v, (model.n_steps, 1)))


def zero_policy(model: ValidatedModel) -> DriftPolicy:
    return DriftPolicy(np.zeros((model.n_steps, model.n)))


def clamp_policy(policy: DriftPolicy, bound: UncertaintyBound) -> DriftPolicy:
    """Componentwise projection of a policy onto the box; idempotent."""
    if bound.dim != policy.dim:
        raise DimensionMismatch(
            f"bound has dim {bound.dim}, policy has dim {policy.dim}"
        )
    return DriftPolicy(np.clip(policy.theta, -bound.mu, bound.mu))


def _per_interval(a: np.ndarray, scalar: bool):
    """A (K, d) or (K, d, e) schedule as the step loops index it: Python
    floats for a scalar model, vectors as (d, 1) columns, matrices as they
    are."""
    if scalar:
        return a.reshape(len(a)).tolist()
    return a if a.ndim == 3 else a[..., None]


@dataclass(frozen=True)
class _Steps:
    """Per-interval coefficients in the layout of the time-major step loops.

    A step slice is the component-major (n, batch) or (m, batch) slice [k]
    of a time-major (K, d, batch) array, for every model.  For n = m = 1
    every coefficient is a Python float, applied with *; otherwise vectors
    are (d, 1) columns that broadcast along the contiguous batch axis, and a
    matrix a is applied as a @ x.  A 1x1 product has a single term, so both
    give the bits of F_k x_k.  One path of a scalar model steps on Python
    floats: the same IEEE operations in the same order, without a NumPy call
    per operation (see `read`).  NumPy takes a matrix-vector kernel, which
    can round differently, when a has a single row or x a single column.  A
    path's bits must not depend on its batch, so a one-column batch is
    multiplied as the first column of a two-column one.  A matrix with one
    row (G for m = 1, F and the gain for n = 1) is applied as the row-major
    product x' a' of a (batch, d) layout, whose bits the matrix-vector
    kernel would move; a one-row x' again as the first row of a two-row one.
    """

    scalar: bool
    dt: float
    F: object
    f: object
    G: object
    g: object

    def apply(self, x, a):
        if self.scalar:
            return x * a
        if len(a) == 1:
            rows = np.ascontiguousarray(x.T)
            if len(rows) == 1:
                return (np.concatenate((rows, rows)) @ a.T)[:1].T
            return (rows @ a.T).T
        if x.shape[1] == 1:
            return (a @ np.concatenate((x, x), axis=1))[:, :1]
        return a @ x

    def per_interval(self, a: np.ndarray):
        return _per_interval(a, self.scalar)

    def read(self, a: np.ndarray):
        """Per-step inputs of a time-major (K, d, batch) array: a list of
        Python floats for one path of a scalar model, else a itself."""
        if self.scalar and a.shape[2] == 1:
            return a[:, 0, 0].tolist()
        return a


def _steps(model: ValidatedModel) -> _Steps:
    scalar = model.n == 1 and model.m == 1
    return _Steps(scalar, model.grid.dt,
                  *(_per_interval(a, scalar) for a in (model.F, model.f, model.G, model.g)))

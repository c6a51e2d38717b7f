"""Deterministic ODE machinery: transition matrices, the error-covariance
Riccati equation, closed-form scalar oracles, and exact error statistics.

Every ODE is stepped with classical fixed-step RK4 on the model grid, all four
stages of step k using the interval-k coefficients; covariance iterates are
symmetrized after each step.  Only solve_riccati integrates the covariance.
Every other quantity solves a linear ODE driven by the stage closed loops
F - P_i S, whose RK4 steps are affine maps y -> T_k y + e_k built for all
intervals at once; Sigma keeps its own loop over the same stages.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateG,
    GridMismatch,
    LostPositivity,
    MissingRiccati,
    OutOfGrid,
)
from .model import DriftPolicy, TimeGrid, ValidatedModel

RICCATI_EIG_FLOOR = -1e-9

GENERATORS = ("state", "closed_loop")


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _riccati_rhs(P, F, Ft, S, Q):
    """Riccati right-hand side; Ft is F transposed, also for stacked F."""
    return F @ P + P @ Ft - P @ S @ P + Q


def _closed_loop_stages(model: ValidatedModel, riccati: RiccatiPath):
    """RK4 stage covariances P_i of every interval, P_i S and F - P_i S.

    Each has shape (4, n_steps, n, n).  One batched pass recomputes the
    stages from the node path with the arithmetic of solve_riccati.
    """
    if riccati.grid != model.grid:
        raise GridMismatch("covariance path grid differs from model grid")
    dt = model.grid.dt
    F, Ft, S, Q = model.F, np.swapaxes(model.F, -1, -2), model.S, model.Q
    P1 = riccati.P[:-1]
    P2 = P1 + 0.5 * dt * _riccati_rhs(P1, F, Ft, S, Q)
    P3 = P1 + 0.5 * dt * _riccati_rhs(P2, F, Ft, S, Q)
    P4 = P1 + dt * _riccati_rhs(P3, F, Ft, S, Q)
    P = np.stack([P1, P2, P3, P4])
    PS = P @ S
    return P, PS, F - PS


def _rk4_step(A, Y, U, dt: float) -> np.ndarray:
    """One RK4 step of dY = A_i Y + U_k on every interval k at once.

    A holds the stages, shape (4, K, d, d).  Y = I, U = 0 gives the step maps
    T_k; Y = 0 gives the forced terms e_k of the affine step Y -> T_k Y + e_k.
    """
    half, sixth = 0.5 * dt, dt / 6.0
    k1 = A[0] @ Y + U
    k2 = A[1] @ (Y + half * k1) + U
    k3 = A[2] @ (Y + half * k2) + U
    k4 = A[3] @ (Y + dt * k3) + U
    return Y + sixth * (k1 + 2.0 * (k2 + k3) + k4)


def _forward(T, y0, e=None) -> np.ndarray:
    """y_{k+1} = T_k y_k + e_k from y0 at every node, shape (K+1,) + y0.shape."""
    out = np.empty((len(T) + 1,) + y0.shape)
    y = out[0] = y0
    for k in range(len(T)):
        y = out[k + 1] = T[k] @ y if e is None else T[k] @ y + e[k]
    return out


def _backward(T, last) -> np.ndarray:
    """Rows R_j = R_{j+1} T_j from R_K = last down to R_0, shape (K+1,) + last.shape."""
    out = np.empty((len(T) + 1,) + last.shape)
    r = out[-1] = last
    for j in range(len(T) - 1, -1, -1):
        r = out[j] = r @ T[j]
    return out


def _propagate(A, U, dt: float) -> np.ndarray:
    """RK4 solution of dy = A_i y + U_k from y = 0, at every node."""
    T = _rk4_step(A, np.eye(A.shape[-1]), 0.0, dt)
    e = _rk4_step(A, np.zeros_like(U), U, dt)
    return _forward(T, np.zeros(e.shape[1:]), e)


@dataclass(frozen=True)
class RiccatiPath:
    """Error-covariance path P_k on the grid nodes."""

    grid: TimeGrid
    P: np.ndarray
    min_eigenvalue: float

    def at(self, t: float) -> np.ndarray:
        return self.P[self.grid.index_of(t)]

    def prefix(self, n_steps: int) -> "RiccatiPath":
        """Restriction to the first n_steps intervals; values are shared."""
        return RiccatiPath(self.grid.prefix(n_steps), self.P[: n_steps + 1],
                           self.min_eigenvalue)


def solve_riccati(model: ValidatedModel) -> RiccatiPath:
    """Integrate dP = FP + PF' - PSP + Q from P(0) = 0.

    Raises LostPositivity if any node covariance has an eigenvalue below
    -1e-9; the message names the first offending node.
    """
    n, k_steps, dt = model.n, model.n_steps, model.grid.dt
    half, sixth = 0.5 * dt, dt / 6.0
    Fs, Ss, Qs = model.F, model.S, model.Q
    path = np.empty((k_steps + 1, n, n))
    P = np.zeros((n, n))
    path[0] = P
    for k in range(k_steps):
        F, S, Q = Fs[k], Ss[k], Qs[k]
        Ft = F.T
        k1 = _riccati_rhs(P, F, Ft, S, Q)
        k2 = _riccati_rhs(P + half * k1, F, Ft, S, Q)
        k3 = _riccati_rhs(P + half * k2, F, Ft, S, Q)
        k4 = _riccati_rhs(P + dt * k3, F, Ft, S, Q)
        P = _sym(P + sixth * (k1 + 2.0 * (k2 + k3) + k4))
        path[k + 1] = P
    eigs = np.linalg.eigvalsh(path)
    min_eig = float(eigs.min())
    if min_eig < RICCATI_EIG_FLOOR:
        node = int(np.argwhere(eigs.min(axis=1) < RICCATI_EIG_FLOOR)[0, 0])
        raise LostPositivity(
            f"covariance at node {node} has eigenvalue {min_eig:.3e}"
        )
    path.setflags(write=False)
    return RiccatiPath(grid=model.grid, P=path, min_eigenvalue=min_eig)


def steady_state_scalar(F: float, G: float, Q: float, R: float) -> float:
    """Stabilizing root of the scalar algebraic Riccati equation.

    Requires G != 0 (DegenerateG), R > 0 and Q >= 0 (ValueError).
    """
    F, G, Q, R = float(F), float(G), float(Q), float(R)
    if G == 0.0:
        raise DegenerateG("steady state needs G != 0")
    if R <= 0.0:
        raise ValueError(f"R must be positive, got {R}")
    if Q < 0.0:
        raise ValueError(f"Q must be nonnegative, got {Q}")
    a = G * G / R
    d = np.sqrt(F * F + a * Q)
    if F >= 0.0:
        return float((F + d) / a)
    # F + d cancels for F < 0; the root product -Q/a does not.
    return float(Q / (d - F))


def riccati_scalar_solution(F: float, G: float, Q: float, R: float, t: float) -> float:
    """Closed-form scalar covariance at time t, started from zero.

    Factoring the quadratic through its roots p+ > 0 >= p- gives
    P(t) = (p+ p-) (1 - e) / (p- - p+ e) with e = exp(-a (p+ - p-) t)
    and a = G^2 / R; whichever root would cancel against F is recovered
    from the root product -Q/a instead.
    """
    F, G, Q, R, t = float(F), float(G), float(Q), float(R), float(t)
    if R <= 0.0:
        raise ValueError(f"R must be positive, got {R}")
    if Q < 0.0:
        raise ValueError(f"Q must be nonnegative, got {Q}")
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if Q == 0.0:
        return 0.0
    if G == 0.0:
        # Linear equation dP = 2FP + Q.
        if F == 0.0:
            return Q * t
        return float(Q * np.expm1(2.0 * F * t) / (2.0 * F))
    a = G * G / R
    disc = np.sqrt(F * F + a * Q)
    # F + disc (or F - disc) cancels depending on sign(F); take the safe
    # root directly and its partner from the product -Q/a.
    if F >= 0.0:
        p_plus = (F + disc) / a
        p_minus = -Q / (a * p_plus)
    else:
        p_minus = (F - disc) / a
        p_plus = -Q / (a * p_minus)
    e = np.exp(-a * (p_plus - p_minus) * t)
    return float(-(Q / a) * (1.0 - e) / (p_minus - p_plus * e))


class TransitionCache:
    """Whole-trajectory transition matrices from any start node, memoized.

    generator "state" propagates with F; "closed_loop" propagates with
    F - P G' R^-1 G and needs the covariance path.
    """

    def __init__(self, model: ValidatedModel, generator: str = "state",
                 riccati: RiccatiPath | None = None):
        if generator not in GENERATORS:
            raise ValueError(f"generator must be one of {GENERATORS}, got {generator!r}")
        if generator == "closed_loop" and riccati is None:
            raise MissingRiccati("closed_loop transitions need a covariance path")
        self.model = model
        self.generator = generator
        self.riccati = riccati
        A = (np.broadcast_to(model.F, (4,) + model.F.shape) if generator == "state"
             else _closed_loop_stages(model, riccati)[2])
        self._maps = _rk4_step(A, np.eye(model.n), 0.0, model.grid.dt)
        self._rows: dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    def trajectory(self, s_index: int) -> np.ndarray:
        """Matrices mapping node s to every node j >= s; entry [j - s]."""
        if not 0 <= s_index <= self.model.n_steps:
            raise OutOfGrid(f"start node {s_index} outside 0..{self.model.n_steps}")
        with self._lock:
            cached = self._rows.get(s_index)
        if cached is not None:
            return cached
        traj = _forward(self._maps[s_index:], np.eye(self.model.n))
        traj.setflags(write=False)
        with self._lock:
            self._rows.setdefault(s_index, traj)
        return traj

    def matrix(self, s_index: int, t_index: int) -> np.ndarray:
        """Transition matrix from node s to node t, s <= t."""
        if t_index < s_index:
            raise OutOfGrid(f"needs s <= t, got nodes {s_index} > {t_index}")
        if t_index > self.model.n_steps:
            raise OutOfGrid(f"node {t_index} outside 0..{self.model.n_steps}")
        return self.trajectory(s_index)[t_index - s_index]


def transition(model: ValidatedModel, s: float, t: float, generator: str = "state",
               riccati: RiccatiPath | None = None,
               cache: TransitionCache | None = None) -> np.ndarray:
    """Transition matrix between grid times s <= t under the chosen generator."""
    s_idx = model.grid.index_of(s, what="s")
    t_idx = model.grid.index_of(t, what="t")
    if cache is None:
        cache = TransitionCache(model, generator, riccati)
    elif cache.generator != generator or cache.model is not model:
        raise ValueError("cache was built for a different model or generator")
    return cache.matrix(s_idx, t_idx)


@dataclass(frozen=True)
class ErrorStats:
    """Exact first and second moments of the filter error path."""

    grid: TimeGrid
    bias: np.ndarray
    Sigma: np.ndarray
    mse: np.ndarray

    def mse_at(self, t: float) -> float:
        return float(self.mse[self.grid.index_of(t)])


def _policy_array(policy, model: ValidatedModel, name: str) -> np.ndarray:
    arr = policy.theta if isinstance(policy, DriftPolicy) else np.asarray(policy, dtype=float)
    if arr.shape != (model.n_steps, model.n):
        raise GridMismatch(
            f"{name}: expected shape ({model.n_steps}, {model.n}), got {arr.shape}"
        )
    return arr


def solve_error_stats(model: ValidatedModel, theta_true, theta_hat,
                      riccati: RiccatiPath) -> ErrorStats:
    """Moments of the error x - xhat when the filter assumes theta_hat but
    paths are generated under theta_true.

    The bias solves db = (F - PG'R^-1G) b + (theta_true - theta_hat);
    the second moment solves dSigma = A Sigma + Sigma A' + Q + PSP.  Both
    step through the RK4 stage covariances of solve_riccati, so the
    published identity Sigma = P holds to rounding.
    """
    th_true = _policy_array(theta_true, model, "theta_true")
    th_hat = _policy_array(theta_hat, model, "theta_hat")
    dt = model.grid.dt
    half, sixth = 0.5 * dt, dt / 6.0
    P, PS, A = _closed_loop_stages(model, riccati)
    bias = _propagate(A, (th_true - th_hat)[:, :, None], dt)[:, :, 0]

    W = model.Q + PS @ P
    Sig = np.empty_like(riccati.P)
    Sg = Sig[0] = np.zeros((model.n, model.n))

    def rhs(i, k, Sc):
        return A[i, k] @ Sc + Sc @ A[i, k].T + W[i, k]

    for k in range(model.n_steps):
        k1 = rhs(0, k, Sg)
        k2 = rhs(1, k, Sg + half * k1)
        k3 = rhs(2, k, Sg + half * k2)
        k4 = rhs(3, k, Sg + dt * k3)
        Sg = Sig[k + 1] = _sym(Sg + sixth * (k1 + 2.0 * (k2 + k3) + k4))
    eigs = np.linalg.eigvalsh(Sig)
    min_eig = float(eigs.min())
    if min_eig < RICCATI_EIG_FLOOR:
        node = int(np.argwhere(eigs.min(axis=1) < RICCATI_EIG_FLOOR)[0, 0])
        raise LostPositivity(
            f"error covariance at node {node} has eigenvalue {min_eig:.3e}"
        )
    mse = np.einsum("kii->k", Sig) + np.einsum("ki,ki->k", bias, bias)
    for arr in (bias, Sig, mse):
        arr.setflags(write=False)
    return ErrorStats(grid=model.grid, bias=bias, Sigma=Sig, mse=mse)

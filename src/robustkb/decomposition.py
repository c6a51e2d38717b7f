"""Estimator decomposition: the robust estimate as the classical estimate
plus a deterministic drift correction, under two correction kernels.

The ode kernel is the closed-loop transition Psi(t,s); it follows from
subtracting the two filter recursions and is the module's ground truth.  The
printed kernel Phi(t,s)Q(s) - int_s^t A(t,r) G_r Phi(r,s) Q(s) dr is kept
verbatim for auditing: the two coincide for unit signal-noise covariance and
differ otherwise, and the gap is reported rather than patched.  The product
form above is used throughout, so the covariance at time t is never
inverted.

Kernels and correction paths chain the RK4 step maps of ode.py: those of the
closed loop A = F - P S for ode, and for printed those of the block system
[[F, 0], [P S, A]], whose transition holds Phi and Psi on its diagonal and the
inner integral below it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch
from .model import ValidatedModel
from .ode import (RiccatiPath, TransitionCache, _backward, _closed_loop_stages,
                  _policy_array, _propagate, _rk4_step)

KERNELS = ("ode", "printed")


def _check_kernel(kernel: str) -> None:
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")


def _block_stages(F: np.ndarray, PS: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Stages [[F, 0], [P_i S, A_i]] of y1' = F y1, y2' = A y2 + P S y1."""
    return np.block([[np.broadcast_to(F, A.shape), np.zeros_like(A)], [PS, A]])


def _kernel_rows(model: ValidatedModel, riccati: RiccatiPath, t_idx: int):
    """Both kernels as functions of s for fixed t, shape (t_idx+1, n, n).

    Rows are backward products of step maps: the closed loop's for ode, and
    the block system's, between [I, -I] and [Q_s; 0], for printed.
    """
    n, dt = model.n, model.grid.dt
    _, PS, A = (a[:, :t_idx] for a in _closed_loop_stages(model, riccati))
    eye = np.eye(n)
    ode_rows = _backward(_rk4_step(A, eye, 0.0, dt), eye)
    block_maps = _rk4_step(_block_stages(model.F[:t_idx], PS, A), np.eye(2 * n), 0.0, dt)
    left = _backward(block_maps, np.hstack([eye, -eye]))[:, :, :n]
    Qs = model.Q[list(range(t_idx)) + [model.coeff_index(t_idx)]]
    return ode_rows, left @ Qs


@dataclass(frozen=True)
class CorrectionKernel:
    """Kernel values K(t, s) for fixed t over all grid nodes s <= t."""

    t_index: int
    s_times: np.ndarray = field(repr=False)
    ode: np.ndarray = field(repr=False)
    printed: np.ndarray = field(repr=False)


def correction_kernel(model: ValidatedModel, riccati: RiccatiPath,
                      t: float) -> CorrectionKernel:
    """Evaluate both correction kernels at a grid time t."""
    t_idx = model.grid.index_of(t)
    ode_rows, printed_rows = _kernel_rows(model, riccati, t_idx)
    for arr in (ode_rows, printed_rows):
        arr.setflags(write=False)
    return CorrectionKernel(t_index=t_idx, s_times=model.grid.times[: t_idx + 1],
                            ode=ode_rows, printed=printed_rows)


def impulse_response(model: ValidatedModel, riccati: RiccatiPath, s: float,
                     t: float, cache: TransitionCache | None = None) -> np.ndarray:
    """Response at time t of the classical estimate to a unit observation
    impulse at time s: the closed-loop transition times the gain at s."""
    s_idx = model.grid.index_of(s, what="s")
    t_idx = model.grid.index_of(t)
    if cache is None:
        cache = TransitionCache(model, "closed_loop", riccati)
    psi = cache.matrix(s_idx, t_idx)
    cs = model.coeff_index(s_idx)
    gain = riccati.P[s_idx] @ model.G[cs].T @ model.Rinv[cs]
    return psi @ gain


def correction_term(model: ValidatedModel, riccati: RiccatiPath, theta,
                    t: float, kernel: str = "ode") -> np.ndarray:
    """Trapezoidal quadrature of int_0^t K(t,s) theta_s ds on the grid."""
    _check_kernel(kernel)
    th = _policy_array(theta, model, "theta")
    t_idx = model.grid.index_of(t)
    ode_rows, printed_rows = _kernel_rows(model, riccati, t_idx)
    rows = ode_rows if kernel == "ode" else printed_rows
    nodes = np.concatenate([th, th[-1:]], axis=0)[: t_idx + 1]
    vals = np.einsum("kij,kj->ki", rows, nodes)
    return model.grid.dt * (vals.sum(axis=0) - 0.5 * (vals[0] + vals[-1]))


def correction_path(model: ValidatedModel, riccati: RiccatiPath, theta,
                    kernel: str = "ode") -> np.ndarray:
    """Correction at every grid node via forward ODEs, shape (n_steps+1, n).

    The ode-kernel correction solves dc = (F - PG'R^-1G) c + theta.  The
    printed-kernel correction is evaluated by swapping the order of its
    double integral, which turns it into the pair of forward equations
    dy1 = F y1 + Q theta and dy2 = (F - PG'R^-1G) y2 + PG'R^-1G y1 with
    value y1 - y2.  Spot values agree with correction_term up to the
    difference between trapezoidal quadrature and the integrator.
    """
    _check_kernel(kernel)
    th = _policy_array(theta, model, "theta")
    n, dt = model.n, model.grid.dt
    _, PS, A = _closed_loop_stages(model, riccati)
    if kernel == "ode":
        out = _propagate(A, th[:, :, None], dt)[:, :, 0]
    else:
        qu = model.Q @ th[:, :, None]
        y = _propagate(_block_stages(model.F, PS, A),
                       np.concatenate([qu, np.zeros_like(qu)], axis=1), dt)
        out = y[:, :n, 0] - y[:, n:, 0]
    out.setflags(write=False)
    return out


def decomposed_estimate(classical_run, correction) -> np.ndarray:
    """Classical estimate plus a correction path, node by node."""
    corr = np.asarray(correction, dtype=float)
    if corr.shape != classical_run.xhat.shape:
        raise GridMismatch(
            f"correction: expected shape {classical_run.xhat.shape}, got {corr.shape}"
        )
    return classical_run.xhat + corr

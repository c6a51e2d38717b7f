"""Estimator decomposition: the robust estimate as the classical estimate
plus a deterministic drift correction, under two correction kernels.

The ode kernel is the closed-loop transition Psi(t,s); it follows from
subtracting the two filter recursions and is the module's ground truth.  The
printed kernel Phi(t,s)Q(s) - int_s^t Psi(t,r) P_r S_r Phi(r,s) Q(s) dr is
kept for auditing: the two coincide for unit signal-noise covariance and
differ otherwise, and the gap is reported rather than patched.

The printed kernel is evaluated in its closed form Psi(t,s) Q(s):
X = Phi - int Psi P S Phi - Psi solves dX/ds = -X F with X(t,t) = 0, so X
vanishes, and the RK4 scheme keeps the identity stage by stage.  Both kernels
therefore chain the closed-loop step maps of ode.py, which the closed-loop
memo of the covariance path (ode._closed_loop) builds once per model and
path, with their input maps D_k.  A kernel is a backward scan over a slice
of the step maps, about 2K batched products, which the memo runs and keeps
per node (ode._ClosedLoop.rows), so correction_kernel and correction_term
at one node share one scan; it keeps no stage arrays (see
ode._ClosedLoop.stages).  A correction path only forms its forced terms
D_k theta_k (D_k Q_k theta_k for the printed kernel) and scans forward on
the memo's levels of the step maps, composing the forcing alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch
from .model import ValidatedModel
from .ode import (RiccatiPath, TransitionCache, _closed_loop, _policy_array,
                  _response)

KERNELS = ("ode", "printed")


def _check_kernel(kernel: str) -> None:
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")


def _printed_rows(model: ValidatedModel, ode_rows: np.ndarray) -> np.ndarray:
    """Printed kernel rows Psi(t,s) Q(s) from the ode rows, with Q at node s
    read from interval model.coeff_index(s)."""
    t_idx = len(ode_rows) - 1
    return ode_rows @ model.Q[list(range(t_idx)) + [model.coeff_index(t_idx)]]


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
    ode_rows = _closed_loop(model, riccati).rows(t_idx)
    printed_rows = _printed_rows(model, ode_rows)
    printed_rows.setflags(write=False)
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
    rows = _closed_loop(model, riccati).rows(model.grid.index_of(t))
    if kernel == "printed":
        rows = _printed_rows(model, rows)
    return _kernel_term(model, rows, th)


def _kernel_term(model: ValidatedModel, rows: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Trapezoidal int_0^t K(t,s) theta_s ds over the kernel rows K(t, s),
    s = 0..t_idx, with theta the (n_steps, n) policy array."""
    nodes = np.concatenate([th, th[-1:]], axis=0)[: len(rows)]
    vals = np.einsum("kij,kj->ki", rows, nodes)
    return model.grid.dt * (vals.sum(axis=0) - 0.5 * (vals[0] + vals[-1]))


def correction_path(model: ValidatedModel, riccati: RiccatiPath, theta,
                    kernel: str = "ode") -> np.ndarray:
    """Correction at every grid node via forward ODEs, shape (n_steps+1, n).

    The ode-kernel correction solves dc = (F - PG'R^-1G) c + theta.  The
    printed kernel is the ode kernel times Q, so its correction solves the
    same equation driven by Q theta.  Spot values agree with correction_term
    up to the difference between trapezoidal quadrature and the integrator.
    """
    _check_kernel(kernel)
    th = _policy_array(theta, model, "theta")
    loop = _closed_loop(model, riccati)
    drive = th[:, :, None] if kernel == "ode" else model.Q @ th[:, :, None]
    out = _response(loop.T, loop.D, drive, loop.levels)[:, :, 0]
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

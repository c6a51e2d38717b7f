"""Per-step loops, written out as references for the library's propagators.

`riccati_per_step` is the loop the library once ran for `solve_riccati`: one
RK4 step of dP = FP + PF' - PSP + Q per interval with the four-product
right-hand side, symmetrized after every step.  For n = 1 the library's
float loop gives its bits.  For n > 1 the library steps the Hamiltonian
system of P = Y X^-1 instead, another fourth-order scheme, so the n > 1
tests hold both to the exact path of `oracles.riccati_exact` rather than to
each other.
`riccati_node_map` is the reference for the n > 1 scan of `solve_riccati`:
the same RK4 step maps of the Hamiltonian system, applied to [I; P] one
node at a time and read back as P = Y X^-1, symmetrized after every step.
`riccati_stages` is the reference for `ode._stage_covariances`: the stage
covariances as the library built them, batched with the same right-hand
side.  The library now steps the symmetric form Z + Z' + Q with
Z = F P - (P S/2) P, which gives these bits for n = 1 and moves n > 1 in the
last digits.

`closed_loop_stages` gives the stage covariances P_i of
`ode._stage_covariances` with P_i S and the stage closed loops F - P_i S,
formed with the arithmetic of the library's closed-loop memo.

`sigma_per_step` is the reference for the blocked vec-Lyapunov propagator of
`solve_error_stats`.  It repeats the loop the library ran: one RK4 step of
dSigma = A_i Sigma + Sigma A_i' + Q + P_i S P_i per interval, over the stage
covariances of `closed_loop_stages`, symmetrized after every step.

`forward_per_step` and `backward_per_step` are the references for the
up-sweep/down-sweep scans `ode._forward` and `ode._backward`: the sequential
sweeps the library ran, one map per step.

`forced_terms_per_stage` is the reference for the input maps `ode._input_maps`:
the forced terms e_k as the library built them, one RK4 step from zero with
the forcing in every stage, where it now forms them as D_k U_k.
"""

import numpy as np

from robustkb.ode import _rk4_step, _stage_covariances


# The symmetric form rounds differently from the four-product right-hand
# side for n > 1; a stage may differ from riccati_stages by this much times
# (1 + max|P|).
RICCATI_FORM_TOL = 1e-15


# solve_riccati's n > 1 scan composes riccati_node_map's step maps and rounds
# differently.  Measured gaps, times (1 + max|P|): 7.7e-16 on the n = 2 layout
# model, 3.5e-15 on the n = 3 schedule, and 3.3e-14 and 1.6e-14 on the stiff
# -500 and -1200 models from t = 1 on.
RICCATI_NODE_MAP_TOL = 1e-13


def _riccati_rhs(P, F, S, Q):
    """FP + PF' - PSP + Q, also for stacked matrices."""
    return F @ P + P @ np.swapaxes(F, -1, -2) - P @ S @ P + Q


def riccati_per_step(model):
    """Error covariance at every node, shape (K+1, n, n), from P = 0."""
    dt = model.grid.dt
    half, sixth = 0.5 * dt, dt / 6.0
    path = np.empty((model.n_steps + 1, model.n, model.n))
    P = path[0] = np.zeros((model.n, model.n))
    for k in range(model.n_steps):
        F, S, Q = model.F[k], model.S[k], model.Q[k]
        k1 = _riccati_rhs(P, F, S, Q)
        k2 = _riccati_rhs(P + half * k1, F, S, Q)
        k3 = _riccati_rhs(P + half * k2, F, S, Q)
        k4 = _riccati_rhs(P + dt * k3, F, S, Q)
        step = P + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        P = path[k + 1] = 0.5 * (step + step.T)
    return path


def riccati_node_map(model):
    """Error covariance at every node, shape (K+1, n, n), from P = 0, by
    P_{k+1} = sym((T21 + T22 P_k)(T11 + T12 P_k)^-1) with the RK4 step map
    T = [[T11, T12], [T21, T22]] of [X; Y]' = [[-F', S], [Q, F]] [X; Y]."""
    n = model.n
    H = np.block([[-np.swapaxes(model.F, 1, 2), model.S],
                  [0.5 * (model.Q + np.swapaxes(model.Q, 1, 2)), model.F]])
    T = _rk4_step(np.broadcast_to(H, (4,) + H.shape), np.eye(2 * n), (0.0,) * 4,
                  model.grid.dt)
    path = np.empty((model.n_steps + 1, n, n))
    P = path[0] = np.zeros((n, n))
    for k in range(model.n_steps):
        X = T[k, :n, :n] + T[k, :n, n:] @ P
        Y = T[k, n:, :n] + T[k, n:, n:] @ P
        step = np.linalg.solve(X.T, Y.T).T
        P = path[k + 1] = 0.5 * (step + step.T)
    return path


def riccati_stages(model, nodes):
    """RK4 stage covariances of every interval from the node covariances,
    shape (4, K, n, n)."""
    dt = model.grid.dt
    F, S, Q = model.F, model.S, model.Q
    P1 = nodes[:-1]
    P2 = P1 + 0.5 * dt * _riccati_rhs(P1, F, S, Q)
    P3 = P1 + 0.5 * dt * _riccati_rhs(P2, F, S, Q)
    P4 = P1 + dt * _riccati_rhs(P3, F, S, Q)
    return np.stack([P1, P2, P3, P4])


def closed_loop_stages(model, riccati):
    """Stage covariances P_i of every interval, P_i S and F - P_i S, each of
    shape (4, K, n, n)."""
    P = _stage_covariances(model, riccati.P)
    PS = P @ model.S
    return P, PS, model.F - PS


def sigma_per_step(model, riccati):
    """Error covariance at every node, shape (K+1, n, n), from Sigma = 0."""
    dt = model.grid.dt
    half, sixth = 0.5 * dt, dt / 6.0
    P, PS, A = closed_loop_stages(model, riccati)
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
        step = Sg + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        Sg = Sig[k + 1] = 0.5 * (step + step.T)
    return Sig


def forward_per_step(T, y0, e=None):
    """y_{k+1} = T_k y_k + e_k from y0 at every node, shape (K+1,) + y0.shape."""
    out = np.empty((len(T) + 1,) + y0.shape)
    y = out[0] = y0
    for k in range(len(T)):
        y = out[k + 1] = T[k] @ y if e is None else T[k] @ y + e[k]
    return out


def backward_per_step(T, last):
    """Rows R_j = R_{j+1} T_j from R_K = last down to R_0, shape (K+1,) + last.shape."""
    out = np.empty((len(T) + 1,) + last.shape)
    r = out[-1] = last
    for j in range(len(T) - 1, -1, -1):
        r = out[j] = r @ T[j]
    return out


def forced_terms_per_stage(A, U, dt):
    """Forced terms e_k of dy = A_i y + U_k over each interval, shape U.shape."""
    return _rk4_step(A, np.zeros_like(U), (U,) * 4, dt)

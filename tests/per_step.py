"""The per-step error-covariance loop, written out as a reference for the
blocked vec-Lyapunov propagator of `solve_error_stats`.

It repeats the loop the library ran: one RK4 step of
dSigma = A_i Sigma + Sigma A_i' + Q + P_i S P_i per interval, over the stage
covariances of `_closed_loop_stages`, symmetrized after every step.
"""

import numpy as np

from robustkb.ode import _closed_loop_stages


def sigma_per_step(model, riccati):
    """Error covariance at every node, shape (K+1, n, n), from Sigma = 0."""
    dt = model.grid.dt
    half, sixth = 0.5 * dt, dt / 6.0
    P, PS, A = _closed_loop_stages(model, riccati)
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

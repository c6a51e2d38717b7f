"""Independent references for the library's numerics.

Frozen values for the scalar model F=-1, f=0, G=1, g=0, Q=1, R=1, x0=0,
mu=1, computed with an independent high-order integrator (scipy DOP853 at
rtol 1e-13) before the library was built, and kept as regression anchors.
J(t) denotes the integral of the closed-loop transition, int_0^t Psi(t,s) ds,
which is the estimate bias under a unit constant drift mismatch.

`riccati_exact` is the exact covariance path of any model on its grid.
"""

import numpy as np
from scipy.linalg import expm

# The library's n > 1 covariance path may differ from riccati_exact by this
# much times (1 + max|P|) on the reference models: measured 8.0e-15 on the
# moments-n3 schedule, 2.0e-14 on bench/minimax_n3.json and 2.3e-15 on the
# n = 2 layout model, against 1.1e-13, 9.0e-14 and 6.5e-15 for the per-step
# loop of tests/per_step.py.
RICCATI_EXACT_TOL = 1e-12

P_HALF = 0.300957694985431
P_ONE = 0.385818596186340
P_TWO = 0.412519252644954
J_ONE = 0.551924530774035

# P(1) + J(1)^2: the worst-case mean squared error at t=1 for mu=1 over
# constant drifts against the symmetric-optimal constant filter drift.
UPPER_ONE = 0.690439283856479

P_INF = 0.414213562373095  # sqrt(2) - 1


def riccati_exact(model):
    """Exact error covariance at every node, shape (K+1, n, n), from P = 0,
    for coefficients held constant over each interval, as the model holds
    them.

    Over interval k, P = Y X^-1 with [X; Y]' = H_k [X; Y],
    H_k = [[-F_k', S_k], [Q_k, F_k]] and S_k = G_k' R_k^-1 G_k, so
    P_{k+1} = Y X^-1 of expm(H_k dt) [I; P_k], symmetrized.  Built from F, G,
    Q and R alone; one expm per distinct H_k.
    """
    n, dt = model.n, model.grid.dt
    Ft = np.swapaxes(model.F, 1, 2)
    S = np.swapaxes(model.G, 1, 2) @ np.linalg.solve(model.R, model.G)
    H = np.block([[-Ft, S], [0.5 * (model.Q + np.swapaxes(model.Q, 1, 2)), model.F]])
    distinct, index = np.unique(H, axis=0, return_inverse=True)
    E = expm(distinct * dt)[index.ravel()]
    path = np.empty((model.n_steps + 1, n, n))
    P = path[0] = np.zeros((n, n))
    for k in range(model.n_steps):
        Z = E[k] @ np.vstack([np.eye(n), P])
        P = np.linalg.solve(Z[:n].T, Z[n:].T)
        P = path[k + 1] = 0.5 * (P + P.T)
    return path

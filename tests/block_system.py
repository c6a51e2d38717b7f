"""The printed correction kernel's 2n x 2n block system, written out as a
reference for the closed form Psi(t,s) Q(s) of `robustkb.decomposition`.

It repeats the evaluation the library ran.  Swapping the order of the
printed double integral gives the pair of forward equations
y1' = F y1 + Q theta and y2' = A y2 + P S y1, with A = F - P S and value
y1 - y2.  Its stages [[F, 0], [P_i S, A_i]] are stepped with the same RK4
step maps as every other linear ODE, over the stage covariances of
`per_step.closed_loop_stages`; the kernel rows are backward products of
those maps between [I, -I] and [Q_s; 0].
"""

import numpy as np

from robustkb.ode import _UNFORCED, _backward, _policy_array, _propagate, _rk4_step

from per_step import closed_loop_stages


def block_stages(model, riccati):
    """Stages [[F, 0], [P_i S, A_i]], shape (4, K, 2n, 2n)."""
    _, PS, A = closed_loop_stages(model, riccati)
    return np.block([[np.broadcast_to(model.F, A.shape), np.zeros_like(A)],
                     [PS, A]])


def block_maps(model, riccati):
    """Step maps of the block system, shape (K, 2n, 2n)."""
    return _rk4_step(block_stages(model, riccati), np.eye(2 * model.n), _UNFORCED,
                     model.grid.dt)


def printed_kernel_rows(model, riccati, t_idx):
    """Printed kernel K(t, s) for s = 0..t_idx, shape (t_idx+1, n, n)."""
    eye = np.eye(model.n)
    left = _backward(block_maps(model, riccati)[:t_idx],
                     np.hstack([eye, -eye]))[:, :, :model.n]
    Qs = model.Q[list(range(t_idx)) + [model.coeff_index(t_idx)]]
    return left @ Qs


def printed_correction_path(model, riccati, theta):
    """Printed-kernel correction y1 - y2 at every node, shape (K+1, n)."""
    th = _policy_array(theta, model, "theta")
    n = model.n
    qu = model.Q @ th[:, :, None]
    y = _propagate(block_stages(model, riccati),
                   np.concatenate([qu, np.zeros_like(qu)], axis=1), model.grid.dt)
    return y[:, :n, 0] - y[:, n:, 0]


def printed_correction_term(model, riccati, theta, t_idx):
    """Trapezoidal int_0^t K(t,s) theta_s ds over the reference rows."""
    th = _policy_array(theta, model, "theta")
    rows = printed_kernel_rows(model, riccati, t_idx)
    nodes = np.concatenate([th, th[-1:]], axis=0)[: t_idx + 1]
    vals = np.einsum("kij,kj->ki", rows, nodes)
    return model.grid.dt * (vals.sum(axis=0) - 0.5 * (vals[0] + vals[-1]))

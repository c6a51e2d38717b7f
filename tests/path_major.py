"""The path-major simulate, filter and Monte-Carlo loops, written out as
bitwise references for the library's time-major, component-major code,
which steps contiguous (d, batch) slices of (K, d, batch) arrays.

Each function repeats the loop the library ran on (paths, K+1, d) arrays,
strided column by column, with the same chunk sizes, whole paths at a time
where the library streams a chunk's noise in time slabs.  The stream draws
share no code with the library: each path's comes from NumPy's own
``default_rng(SeedSequence((seed, path, tag)))``.  The noise transform and
the log density are explicit loops in the order the library promises: j
order within a term, k order along a path.  Every product is the row-major
x @ a' of a (paths, d) slice, a one-row x taken as the first row of a
two-row batch; the library's a @ x on (d, batch) slices must give the same
bits, and for a matrix a with one row it takes this row-major product
itself.
"""

import numpy as np

from robustkb import ModelSchedule, TimeGrid, constant_model, validate_model
from robustkb.filtering import filter_gains

CHUNK = 1024


def normals(seed, first, count, tag, shape):
    """Standard normals of shape (count, *shape), row j drawn at once from
    the stream of path first + j."""
    return np.array([
        np.random.default_rng(np.random.SeedSequence((seed, first + j, tag)))
        .standard_normal(shape) for j in range(count)]).reshape(count, *shape)


def rows(x, a):
    """x @ a row by row, a one-row x as the first row of a two-row batch."""
    return (np.concatenate((x, x)) @ a)[:1] if len(x) == 1 else x @ a


def transform(factor, draws, dt):
    """sqrt(dt) times sum_j factor[k, i, j] draws[b, k, j], summed from 0.0
    in j order."""
    out = np.zeros(draws.shape)
    for j in range(draws.shape[-1]):
        out += factor[:, :, j] * draws[..., j, None]
    return out * np.sqrt(dt)


def _chunk(model, theta, seed, first, count):
    k_steps, dt = model.n_steps, model.grid.dt
    xi = normals(seed, first, count, 0, (k_steps, model.n))
    eta = normals(seed, first, count, 1, (k_steps, model.m))
    dw_tilt = transform(model.Q_sqrt, xi, dt)
    dv = transform(model.R_chol, eta, dt)
    x = np.empty((count, k_steps + 1, model.n))
    obs = np.empty((count, k_steps + 1, model.m))
    x[:, 0] = model.x0
    obs[:, 0] = 0.0
    for k in range(k_steps):
        xk = x[:, k]
        x[:, k + 1] = (xk + (rows(xk, model.F[k].T) + model.f[k] + theta[k]) * dt
                       + dw_tilt[:, k])
        obs[:, k + 1] = (obs[:, k] + (rows(xk, model.G[k].T) + model.g[k]) * dt
                         + dv[:, k])
    return x, obs, dw_tilt + theta * dt, dv


def log_density(theta, dw, model):
    """Log likelihood ratio of path-major increments: per path, the terms
    u_k' dw_k with u_k = L_k^-T theta_k, each summed in j order, added in k
    order; then 0.5 dt sum_k |theta_k|^2, summed the same way, subtracted."""
    active = np.flatnonzero(np.any(theta != 0.0, axis=1))
    out = np.zeros(dw.shape[0])
    if active.size == 0:
        return out
    chol = np.linalg.cholesky(model.Q[active])
    th = theta[active]
    u = np.linalg.solve(np.swapaxes(chol, -1, -2), th[..., None])[..., 0]
    total = 0.0
    for k, step in enumerate(active):
        term = u[k, 0] * dw[:, step, 0]
        norm = th[k, 0] * th[k, 0]
        for j in range(1, model.n):
            term = term + u[k, j] * dw[:, step, j]
            norm = norm + th[k, j] * th[k, j]
        out += term
        total += norm
    out -= 0.5 * model.grid.dt * total
    return out


def simulate(model, theta, n_paths, seed, offset=0):
    """(x, m, dw, dv, log_density) as simulate_paths returns them."""
    parts = [_chunk(model, theta, seed, offset + j0, min(CHUNK, n_paths - j0))
             for j0 in range(0, n_paths, CHUNK)]
    x, obs, dw, dv = (np.concatenate(a) for a in zip(*parts))
    logw = np.concatenate([log_density(theta, p[2], model) for p in parts])
    return x, obs, dw, dv, logw


def filter_paths(model, riccati, dm, theta):
    """(xhat, innovations) of the filter recursion on increments dm."""
    k_steps, dt = model.n_steps, model.grid.dt
    gains = filter_gains(model, riccati)
    xhat = np.empty((dm.shape[0], k_steps + 1, model.n))
    innov = np.empty_like(dm)
    xhat[:, 0] = model.x0
    for k in range(k_steps):
        xk = xhat[:, k]
        di = dm[:, k] - (rows(xk, model.G[k].T) + model.g[k]) * dt
        innov[:, k] = di
        xhat[:, k + 1] = (xk + (rows(xk, model.F[k].T) + model.f[k] + theta[k]) * dt
                          + rows(di, gains[k].T))
    return xhat, innov


def mse_mc(model, riccati, theta_true, theta_hat, t_indices, n_paths, seed):
    """(means, stderrs) of the sample MSE at the nodes t_indices."""
    idx = np.asarray(t_indices, dtype=int)
    last = int(idx.max())
    if last == 0:
        zeros = np.zeros(idx.size)
        return zeros, (zeros.copy() if n_paths > 1 else np.full(idx.size, np.nan))
    sub = model.truncate(last) if last < model.n_steps else model
    sub_ric = riccati.prefix(last) if last < model.n_steps else riccati
    starts = range(0, n_paths, CHUNK)
    sq_sum = np.zeros((len(starts), idx.size))
    sq_sumsq = np.zeros((len(starts), idx.size))
    for ci, j0 in enumerate(starts):
        count = min(CHUNK, n_paths - j0)
        x, obs, _, _ = _chunk(sub, theta_true[:last], seed, j0, count)
        xhat, _ = filter_paths(sub, sub_ric, np.diff(obs, axis=1), theta_hat[:last])
        err = x[:, idx] - xhat[:, idx]
        sq = np.einsum("bki,bki->bk", err, err)
        sq_sum[ci] = sq.sum(axis=0)
        sq_sumsq[ci] = (sq * sq).sum(axis=0)
    mean = sq_sum.sum(axis=0) / n_paths
    if n_paths > 1:
        var = (sq_sumsq.sum(axis=0) - n_paths * mean**2) / (n_paths - 1)
        return mean, np.sqrt(np.maximum(var, 0.0) / n_paths)
    return mean, np.full(idx.size, np.nan)


def layout_models(k_steps=12):
    """Models the layout tests run on: n = m = 1, n = 1 with m = 2, n = 2 with
    non-diagonal Q and R and time-varying F and G, n = 2 with m = 1 (a
    one-row G and a (2, 1) gain) and time-varying F and G, and n = 3 with
    m = 2, a dense time-varying Q and a non-diagonal R; every drift and
    offset term is nonzero.  The horizon is 0.3 for any k_steps."""
    grid = TimeGrid(0.3, k_steps)
    wave = np.sin(np.arange(k_steps) * 0.7)[:, None, None]
    F = np.array([[-0.8, 0.4], [-0.3, -1.2]]) + 0.3 * wave * np.array([[1.0, -0.5], [0.2, 0.4]])
    G = np.array([[1.0, 0.3], [-0.2, 0.7]]) + 0.2 * wave * np.array([[0.0, 1.0], [1.0, 0.0]])
    n2 = validate_model(ModelSchedule(
        F=F, f=np.tile([0.1, -0.2], (k_steps, 1)), G=G,
        g=np.tile([0.05, 0.0], (k_steps, 1)),
        Q=np.tile([[1.5, 0.4], [0.4, 0.7]], (k_steps, 1, 1)),
        R=np.tile([[0.6, 0.2], [0.2, 0.9]], (k_steps, 1, 1)),
        x0=np.array([0.3, -0.1])), grid)
    n2m1 = validate_model(ModelSchedule(
        F=F, f=np.tile([-0.15, 0.25], (k_steps, 1)), G=G[:, :1] + 0.1 * wave,
        g=np.full((k_steps, 1), -0.07),
        Q=np.tile([[0.9, -0.3], [-0.3, 1.1]], (k_steps, 1, 1)),
        R=np.full((k_steps, 1, 1), 0.45), x0=np.array([-0.2, 0.5])), grid)
    Q3 = np.array([[1.2, 0.4, -0.3], [0.4, 0.9, 0.2], [-0.3, 0.2, 0.7]])
    n3 = validate_model(ModelSchedule(
        F=np.array([[-1.0, 0.3, 0.0], [-0.2, -0.8, 0.4], [0.1, -0.3, -1.1]])
        + 0.2 * wave * np.eye(3),
        f=np.tile([0.1, 0.0, -0.1], (k_steps, 1)),
        G=np.array([[1.0, 0.0, 0.4], [0.2, 0.8, -0.3]]) + 0.1 * wave[:, :, :1],
        g=np.tile([0.02, -0.03], (k_steps, 1)),
        Q=Q3 * (1.0 + 0.3 * wave), R=np.tile([[0.7, 0.15], [0.15, 0.5]], (k_steps, 1, 1)),
        x0=np.array([0.2, -0.1, 0.4])), grid)
    return {
        "n1": constant_model(-1.0, 0.1, 1.3, 0.05, 0.8, 0.6, 0.2,
                             horizon=0.3, n_steps=k_steps),
        "n1m2": constant_model(-0.7, 0.0, np.array([[1.0], [0.5]]), np.zeros(2), 1.0,
                               np.array([[0.5, 0.1], [0.1, 0.8]]), -0.4,
                               horizon=0.3, n_steps=k_steps),
        "n2": n2,
        "n2m1": n2m1,
        "n3": n3,
    }

"""Deterministic ODE machinery: transition matrices, the error-covariance
Riccati equation, closed-form scalar oracles, and exact error statistics.

Every ODE is stepped with classical fixed-step RK4 on the model grid, all four
stages of step k using the interval-k coefficients.  Every ODE but the scalar
Riccati equation is linear, and its RK4 steps are affine maps
y -> T_k y + e_k built for many intervals at once; an input u_k held over
interval k gives the forced term e_k = D_k u_k.  A forward sweep over them
is a work-efficient scan, an up-sweep and a down-sweep of about 2K batched
products, each row reading only its own prefix of the maps; a backward sweep
is the same scan over the reversed, transposed maps, each row reading its
own suffix.  The up-sweep's composed maps, the levels, do not depend on the
forcing, and level l of a prefix of length L is the first L >> l items of
the full level, so _forward can take the levels of longer maps and compose
only the forcing.

solve_riccati integrates the covariance.  For n = 1 it steps the Riccati
equation in a loop on Python floats.  For n > 1 it reads each RK4 step of the
Hamiltonian system [X; Y]' = [[-F', S], [Q, F]] [X; Y] (Davison and Maki,
IEEE TAC 18(1), 1973) as a linear-fractional map [I; P] -> P' = Y X^-1, and
one forward scan composes those maps, every node symmetrized once.
The other ODEs are driven by the stage closed loops F - P_i S, whose stage
covariances P_i are recomputed from the nodes by RK4 on the symmetric form
of the Riccati right-hand side, f(P) = Z + Z' + Q with Z = F P - (P S/2) P.
For n = 1 these are the scalar loop's own stages; for n > 1 they belong to a
scheme other than the Hamiltonian one, so that Sigma and P differ by O(dt^4).
One method, _ClosedLoop.stages(k), forms P_i, P_i S and F - P_i S over the
first k intervals.  The error covariance Sigma is one such ODE in row-major
vec form, with the n^2 x n^2 generators A_i (x) I + I (x) A_i and a forcing
that differs by stage; its maps are built a block of intervals at a time
and applied by a sequential loop, so that its bits do not depend on the
block size, and the path is symmetrized once at the end.

Only the forcing depends on a drift policy.  The policy-independent work of
one closed loop is therefore memoized on the RiccatiPath, one _ClosedLoop
per model, each part built the first time it is read: the step maps T_k
and input maps D_k, built together from one transient stages(); the levels
of T, which every forward scan over a prefix of T reads; the symmetrized
Sigma path, which builds its own stages(); and the kernel rows Psi(t, .) of
the nodes t read most recently, at most 4K rows in all.  That is at most 8K
n x n matrices, about 1.2 MB at n = 3 and K = 2000.  No stage array is
kept: a reader of the first k intervals builds stages(k).  Every array in
the memo is read-only, a LostPositivity is raised again on every call
rather than cached, and the memo is freed with the path.
A path's P must therefore not change once a moment, kernel or transition has
been computed from it; solve_riccati returns P read-only.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateG,
    GridMismatch,
    IllConditionedStep,
    LostPositivity,
    MissingRiccati,
    OutOfGrid,
)
from .model import DriftPolicy, TimeGrid, ValidatedModel, _first_below

RICCATI_EIG_FLOOR = -1e-9

GENERATORS = ("state", "closed_loop")

# Intervals per block of the Sigma propagator.  Its generators and step maps
# are (4, block, n^2, n^2) arrays, so a fixed block keeps their memory from
# growing with the grid.
_SIGMA_BLOCK = 64

# Stage forcing of the homogeneous step maps T_k.
_UNFORCED = (0.0,) * 4


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _stage_covariances(model: ValidatedModel, nodes: np.ndarray) -> np.ndarray:
    """RK4 stage covariances P_i of the first k = len(nodes) - 1 intervals,
    shape (4, k, n, n), recomputed in one batched pass from the node
    covariances with RK4 on the Riccati equation.  For n = 1 these are
    solve_riccati's stages bit for bit; for n > 1 solve_riccati steps the
    Hamiltonian system instead, and these stages belong to no step it takes.
    Each interval's stages read its own node and coefficients alone."""
    dt, k = model.grid.dt, len(nodes) - 1
    F, H, Q = model.F[:k], 0.5 * model.S[:k], _sym(model.Q[:k])

    def rhs(P):
        Z = F @ P - P @ H @ P
        return Z + np.swapaxes(Z, -1, -2) + Q

    P1 = nodes[:-1]
    P2 = P1 + 0.5 * dt * rhs(P1)
    P3 = P1 + 0.5 * dt * rhs(P2)
    P4 = P1 + dt * rhs(P3)
    return np.stack([P1, P2, P3, P4])


def _rk4_step(A, Y, U, dt: float) -> np.ndarray:
    """One RK4 step of dY = A_i Y + U_i on every interval k at once.

    A holds the stages, shape (4, K, d, d), and U[i] the forcing of stage i.
    Y = I, U = _UNFORCED gives the step maps T_k; Y = 0 gives the forced terms
    e_k of the affine step Y -> T_k Y + e_k.
    """
    half, sixth = 0.5 * dt, dt / 6.0
    k1 = A[0] @ Y + U[0]
    k2 = A[1] @ (Y + half * k1) + U[1]
    k3 = A[2] @ (Y + half * k2) + U[2]
    k4 = A[3] @ (Y + dt * k3) + U[3]
    return Y + sixth * (k1 + 2.0 * (k2 + k3) + k4)


def _levels(T, pair=np.matmul) -> list:
    """Up-sweep levels of the step maps T, level 0 being T itself: item i of
    level l + 1 is pair(item 2i + 1, item 2i) of level l, their product by
    default, and an odd item left over is not paired.  They do not depend on
    the forcing; level l of a prefix of length L is its first L >> l items."""
    levels = [np.asarray(T, dtype=float)]
    while len(levels[-1]) > 1:
        M = levels[-1]
        h = len(M) // 2
        levels.append(pair(M[1 : 2 * h : 2], M[0 : 2 * h : 2]))
    return levels


def _forward(T, y0, e=None, levels=None, apply=np.matmul) -> np.ndarray:
    """y_{k+1} = T_k y_k + e_k from y0 at every node, shape (K+1,) + y0.shape.

    A work-efficient scan (Blelloch's up-sweep and down-sweep) of about 2K
    batched products.  The up-sweep composes neighbouring pairs level by
    level: item i of level l holds the maps T_{(i+1)w-1} ... T_{iw}, w = 2^l,
    and the forcing they carry, and an odd item left over is not paired.  The
    down-sweep then fills, from the top level down, the nodes at odd
    multiples of w from those at even multiples.  Node k's formula depends on
    k alone and reads T[:k] and e[:k] only, so a prefix of T gives a prefix of
    the output bitwise.

    levels, if given, are the _levels of maps of which T is a prefix; the scan
    reads the first len(T) >> l items of level l, with the bits of the levels
    it would compose itself, and composes only the forcing.  apply(M, y) takes
    nodes y through level items M, M @ y by default.
    """
    if y0.ndim == 1:
        return _forward(T, y0[:, None], None if e is None else e[..., None],
                        levels, apply)[..., 0]
    k_steps = len(T)
    if levels is None:
        levels = _levels(T)
    Ms = [M[: k_steps >> l]
          for l, M in enumerate(levels[: max(1, k_steps.bit_length())])]
    vs = [e]
    for M in Ms[:-1]:
        v, h = vs[-1], len(M) // 2
        vs.append(None if v is None
                  else M[1 : 2 * h : 2] @ v[0 : 2 * h : 2] + v[1 : 2 * h : 2])
    out = np.empty((k_steps + 1,) + y0.shape)
    out[0] = y0
    for level in range(len(Ms) - 1, -1, -1):
        M, v = Ms[level], vs[level]
        w = 2**level
        y = apply(M[0::2], out[0 :: 2 * w][: (len(M) + 1) // 2])
        out[w :: 2 * w] = y if v is None else y + v[0::2]
    return out


def _backward(T, last) -> np.ndarray:
    """Rows R_j = R_{j+1} T_j from R_K = last down to R_0, shape (K+1,) + last.shape.

    _forward over the reversed, transposed maps, as R_j' = T_j' R_{j+1}': a
    suffix of T gives a suffix of the rows bitwise, and the last row is last
    itself.
    """
    rows = _forward(np.swapaxes(T[::-1], 1, 2), last.T)[::-1]
    return rows if last.ndim == 1 else np.swapaxes(rows, 1, 2)


def _input_maps(A, dt: float) -> np.ndarray:
    """Input maps D_k of dy = A_i y + u, shape (K, d, d): an input u held
    over interval k gives the forced term e_k = D_k u of its RK4 step."""
    eye = np.eye(A.shape[-1])
    return _rk4_step(A, np.zeros_like(eye), (eye,) * 4, dt)


def _response(T, D, U, levels=None) -> np.ndarray:
    """Solution from y = 0, at every node, of the affine steps
    y -> T_k y + D_k U_k: the response of a linear ODE with step maps T_k and
    input maps D_k to the input U_k held over interval k.  levels are passed
    on to _forward."""
    e = D @ U
    return _forward(T, np.zeros(e.shape[1:]), e, levels)


def _propagate(A, U, dt: float) -> np.ndarray:
    """RK4 solution of dy = A_i y + U_k from y = 0, at every node."""
    return _response(_rk4_step(A, np.eye(A.shape[-1]), _UNFORCED, dt),
                     _input_maps(A, dt), U)


def _kron_sum(A) -> np.ndarray:
    """Generators A (x) I + I (x) A of S -> A S + S A' on row-major vec(S),
    for stacked A of shape (..., n, n); shape (..., n^2, n^2)."""
    n = A.shape[-1]
    L = np.zeros(A.shape[:-2] + (n,) * 4)
    for j in range(n):
        L[..., :, j, :, j] = A  # (A S)[i, j] = A[i, k] S[k, j]
    for i in range(n):
        L[..., i, :, i, :] += A  # (S A')[i, j] = S[i, l] A[j, l]
    return L.reshape(A.shape[:-2] + (n * n, n * n))


def _lyapunov_path(Q, P, PS, A, dt: float) -> np.ndarray:
    """RK4 solution of dSigma = A_i Sigma + Sigma A_i' + Q_k + P_i S P_i from
    Sigma = 0 at every node, shape (K+1, n, n), not symmetrized.

    The vec(Sigma) step maps and forced terms are built _SIGMA_BLOCK
    intervals at a time and applied one interval after another, so the path
    does not depend on the block size.
    """
    k_steps, n = A.shape[1], A.shape[-1]
    eye = np.eye(n * n)
    out = np.empty((k_steps + 1, n * n, 1))
    out[0] = 0.0
    for s in range(0, k_steps, _SIGMA_BLOCK):
        blk = slice(s, s + _SIGMA_BLOCK)
        L = _kron_sum(A[:, blk])
        W = (Q[blk] + PS[:, blk] @ P[:, blk]).reshape(L.shape[:2] + (n * n, 1))
        T = _rk4_step(L, eye, _UNFORCED, dt)
        e = _rk4_step(L, np.zeros(W.shape[1:]), W, dt)
        for k in range(len(T)):
            out[s + k + 1] = np.dot(T[k], out[s + k]) + e[k]
    return out.reshape(k_steps + 1, n, n)


@dataclass(frozen=True)
class RiccatiPath:
    """Error-covariance path P_k on the grid nodes."""

    grid: TimeGrid
    P: np.ndarray
    min_eigenvalue: float
    # _ClosedLoop per model, keyed by id(model); see _closed_loop.
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def at(self, t: float) -> np.ndarray:
        return self.P[self.grid.index_of(t)]

    def prefix(self, n_steps: int) -> "RiccatiPath":
        """Restriction to the first n_steps intervals; values are shared."""
        return RiccatiPath(self.grid.prefix(n_steps), self.P[: n_steps + 1],
                           self.min_eigenvalue)


def _readonly(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


class _ClosedLoop:
    """Policy-independent work of the closed loop F - P S of one model on one
    covariance path, each part built on first use: the step maps T_k and
    input maps D_k, the up-sweep levels of T, Sigma, and the kernel rows of
    the nodes read most recently.  Every array is read-only.  The stage
    arrays (see stages) are not kept: every reader builds those of the
    intervals it needs, T and D together from one set, Sigma its own.
    Sigma is usually read first, and its peak then holds no T or D."""

    def __init__(self, model: ValidatedModel, riccati: RiccatiPath):
        self.model = model
        self.nodes = riccati.P
        # Kernel rows per node, the node read least recently first.
        self._rows: dict[int, np.ndarray] = {}

    def stages(self, k: int | None = None) -> tuple[np.ndarray, ...]:
        """Stage covariances P_i, P_i S and stage closed loops F - P_i S of
        the first k intervals (all by default), each (4, k, n, n) and
        read-only, built on every call and never kept.  The first k
        intervals of stages() have the same bits."""
        model = self.model
        k = model.n_steps if k is None else k
        P = _stage_covariances(model, self.nodes[: k + 1])
        PS = P @ model.S[:k]
        A = model.F[:k] - PS
        _readonly(P, PS, A)
        return P, PS, A

    def _maps(self) -> tuple[np.ndarray, np.ndarray]:
        """T and D from one set of stage closed loops, both kept, whichever
        is read first."""
        A, dt = self.stages()[2], self.model.grid.dt
        T = _rk4_step(A, np.eye(self.model.n), _UNFORCED, dt)
        D = _input_maps(A, dt)
        _readonly(T, D)
        vars(self).update(T=T, D=D)
        return T, D

    @cached_property
    def T(self) -> np.ndarray:
        """Step maps T_k of the closed loop, shape (K, n, n)."""
        return self._maps()[0]

    @cached_property
    def D(self) -> np.ndarray:
        """Input maps D_k of the closed loop, shape (K, n, n)."""
        return self._maps()[1]

    @cached_property
    def levels(self) -> list:
        """Up-sweep levels of T (see _levels), read by every forward scan
        over a prefix of T."""
        levels = _levels(self.T)
        _readonly(*levels)
        return levels

    @cached_property
    def sigma(self) -> np.ndarray:
        """Symmetrized error covariance at every node; LostPositivity is
        raised, and nothing is cached, if it is indefinite."""
        Sig = _sym(_lyapunov_path(self.model.Q, *self.stages(),
                                  self.model.grid.dt))
        bad = _first_below(np.linalg.eigvalsh(Sig), RICCATI_EIG_FLOOR)
        if bad is not None:
            raise LostPositivity(
                f"error covariance at node {bad[0]} has eigenvalue {bad[1]:.3e}"
            )
        _readonly(Sig)
        return Sig

    def rows(self, t_idx: int) -> np.ndarray:
        """Kernel rows Psi(t, s), s = 0..t_idx, of node t_idx, read-only: the
        backward products of the first t_idx step maps.

        The rows kept total at most 4K: the nodes read least recently are
        dropped first.
        """
        rows = self._rows.pop(t_idx, None)
        if rows is None:
            rows = _backward(self.T[:t_idx], np.eye(self.model.n))
            _readonly(rows)
            kept = sum(map(len, self._rows.values()))
            while self._rows and kept + len(rows) > 4 * self.model.n_steps:
                kept -= len(self._rows.pop(next(iter(self._rows))))
        self._rows[t_idx] = rows
        return rows


def _closed_loop(model: ValidatedModel, riccati: RiccatiPath) -> _ClosedLoop:
    """The memoized closed loop of model on riccati.

    The memo is keyed by id(model) and its entry holds the model, so the id
    cannot be reused while the path lives.  The grid check runs on every call.
    """
    if riccati.grid != model.grid:
        raise GridMismatch("covariance path grid differs from model grid")
    loop = riccati._memo.get(id(model))
    if loop is None:
        loop = riccati._memo.setdefault(id(model), _ClosedLoop(model, riccati))
    return loop


def _solve(A, B) -> np.ndarray:
    """np.linalg.solve over stacks, nan where a matrix of A is singular, so
    that every node read through it fails solve_riccati's finite check.
    slogdet's sign is 0 where the LU factors of solve have a zero pivot."""
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        ok = np.linalg.slogdet(A)[0] != 0
        out = np.full(B.shape, np.nan)
        out[ok] = np.linalg.solve(A[ok], B[ok])
        return out


def _hamiltonian_scan(model: ValidatedModel) -> np.ndarray:
    """Every node, from P_0 = 0, of the RK4 solution of the linear system
    [X; Y]' = H_k [X; Y], H_k = [[-F_k', S_k], [Q_k, F_k]], read as P = Y X^-1.

    Interval k's step map [[T11, T12], [T21, T22]] takes [I; P] to
    P' = C + E P (I + J P)^-1 W, with W = T11^-1, J = W T12, C = T21 W and
    E = T22 - C T12.  These elements [[W, J], [C, E]] compose associatively
    (Redheffer's star product); a then b is
    W = W_a (I + J_b C_a)^-1 W_b, J = J_a + W_a (I + J_b C_a)^-1 J_b E_a,
    C = C_b + E_b (I + C_a J_b)^-1 C_a W_b, E = E_b (I + C_a J_b)^-1 E_a.
    _forward pairs them by this rule and symmetrizes each node it reaches.
    No product of step maps is inverted; node k reads the first k elements
    alone.  A singular T11, I + J P or I + C J makes the later nodes nan.
    """
    n = model.n
    eye = np.eye(n)

    def pair(b, a):
        Ca, Jb = a[:, n:, :n], b[:, :n, n:]
        top = a[:, :n, :n] @ _solve(eye + Jb @ Ca, np.concatenate(
            [b[:, :n, :n], Jb @ a[:, n:, n:]], axis=2))
        low = b[:, n:, n:] @ _solve(eye + Ca @ Jb, np.concatenate(
            [Ca @ b[:, :n, :n], a[:, n:, n:]], axis=2))
        top[:, :, n:] += a[:, :n, n:]
        low[:, :, :n] += b[:, n:, :n]
        return np.concatenate([top, low], axis=1)

    def apply(M, P):
        step = _solve(eye + M[:, :n, n:] @ P, M[:, :n, :n])
        return _sym(M[:, n:, :n] + M[:, n:, n:] @ P @ step)

    H = np.block([[-np.swapaxes(model.F, 1, 2), model.S], [_sym(model.Q), model.F]])
    T = _rk4_step(np.broadcast_to(H, (4,) + H.shape), np.eye(2 * n), _UNFORCED,
                  model.grid.dt)
    W = _solve(T[:, :n, :n], np.broadcast_to(eye, model.F.shape))
    C = T[:, n:, :n] @ W
    el = np.block([[W, W @ T[:, :n, n:]], [C, T[:, n:, n:] - C @ T[:, :n, n:]]])
    return _forward(el, np.zeros((n, n)), levels=_levels(el, pair), apply=apply)


def solve_riccati(model: ValidatedModel) -> RiccatiPath:
    """Integrate dP = FP + PF' - PSP + Q from P(0) = 0.

    For n = 1, RK4 on the Riccati equation itself, on Python floats; for
    n > 1, RK4 on its Hamiltonian linear system, composed as linear-fractional
    elements in one scan (see _hamiltonian_scan), each node symmetrized once.

    Raises LostPositivity if any node covariance has an eigenvalue below
    -1e-9, naming the first such node and its own lowest eigenvalue.  Raises
    IllConditionedStep, naming the interval, if one interval's step is
    singular (n > 1) or gives a node that is not finite.
    """
    n, k_steps, dt = model.n, model.n_steps, model.grid.dt
    half, sixth = 0.5 * dt, dt / 6.0
    Fs, Ss, Qs = model.F, model.S, model.Q
    if n == 1:
        # The RK4 arithmetic on Python floats, which gives the bits of the
        # symmetric form of _stage_covariances: scaling by 2 is exact, so
        # 2 fl(F p - fl(p S/2) p) = fl(fl(F p + p F) - fl(p S) p), and
        # _sym(Q) is Q.
        p = 0.0
        ps = [p]
        for F, S, Q in zip(Fs[:, 0, 0].tolist(), Ss[:, 0, 0].tolist(),
                           Qs[:, 0, 0].tolist()):
            k1 = F * p + p * F - p * S * p + Q
            q = p + half * k1
            k2 = F * q + q * F - q * S * q + Q
            q = p + half * k2
            k3 = F * q + q * F - q * S * q + Q
            q = p + dt * k3
            k4 = F * q + q * F - q * S * q + Q
            p = p + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            ps.append(p)
        path = np.reshape(ps, (k_steps + 1, 1, 1))
    else:
        path = _hamiltonian_scan(model)
    # A nan node would pass the eigenvalue floor, so the floor is applied to
    # the finite prefix, and a non-finite node is reported only after it.
    finite = np.isfinite(path).all(axis=(1, 2))
    n_finite = len(finite) if finite.all() else int(finite.argmin())
    eigs = np.linalg.eigvalsh(path[:n_finite])
    bad = _first_below(eigs, RICCATI_EIG_FLOOR)
    if bad is not None:
        raise LostPositivity(
            f"covariance at node {bad[0]} has eigenvalue {bad[1]:.3e}"
        )
    if n_finite < len(finite):
        k = n_finite - 1
        raise IllConditionedStep(
            f"interval {k} (t = {model.grid.times[k]:.6g}): the covariance "
            f"step is not finite")
    path.setflags(write=False)
    return RiccatiPath(grid=model.grid, P=path, min_eigenvalue=float(eigs.min()))


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
        # The closed loop's memo, whose up-sweep levels the scan from node 0
        # reads; the other scans compose their own.
        self._loop = None
        if generator == "state":
            A = np.broadcast_to(model.F, (4,) + model.F.shape)
            self._maps = _rk4_step(A, np.eye(model.n), _UNFORCED, model.grid.dt)
        else:
            self._loop = _closed_loop(model, riccati)
            self._maps = self._loop.T
        self._rows: dict[int, np.ndarray] = {}

    def trajectory(self, s_index: int) -> np.ndarray:
        """Matrices mapping node s to every node j >= s; entry [j - s]."""
        if not 0 <= s_index <= self.model.n_steps:
            raise OutOfGrid(f"start node {s_index} outside 0..{self.model.n_steps}")
        traj = self._rows.get(s_index)
        if traj is None:
            levels = (self._loop.levels if s_index == 0 and self._loop is not None
                      else None)
            traj = self._rows[s_index] = _forward(self._maps[s_index:],
                                                  np.eye(self.model.n), levels=levels)
            traj.setflags(write=False)
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
    step through the RK4 stage covariances recomputed from the nodes (see
    _ClosedLoop.stages).  For n = 1 these are solve_riccati's own stages, so
    the published identity Sigma = P holds to rounding; for n > 1 Sigma and P
    are two fourth-order schemes for one path, and their gap is O(dt^4).
    Sigma is its own integration, never read from the covariance path.  It
    runs as the linear ODE of vec(Sigma) on the step-map layer, a block of
    intervals at a time, and is symmetrized once over the whole path.  Sigma does not depend on
    the policies: it is computed once per model and path and shared.
    """
    th_true = _policy_array(theta_true, model, "theta_true")
    th_hat = _policy_array(theta_hat, model, "theta_hat")
    loop = _closed_loop(model, riccati)
    Sig = loop.sigma
    bias = _response(loop.T, loop.D, (th_true - th_hat)[:, :, None],
                     loop.levels)[:, :, 0]
    mse = np.einsum("kii->k", Sig) + np.einsum("ki,ki->k", bias, bias)
    _readonly(bias, mse)
    return ErrorStats(grid=model.grid, bias=bias, Sigma=Sig, mse=mse)

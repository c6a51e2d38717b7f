"""Euler-Maruyama path simulation under a drift perturbation, with exact
per-path likelihood ratios for change-of-measure reweighting.

Randomness is drawn from one stream per (path, noise source): the stream of
path i is ``np.random.default_rng(SeedSequence((master_seed, i, tag)))``.
Results therefore depend only on the master seed and absolute path indices,
never on chunking.  The streams are seeded a chunk at a time: `_seed_states`
repeats NumPy's SeedSequence hash on uint32 arrays for a whole chunk of path
indices, and one reused PCG64 generator is set to each path's starting state
in turn, which gives the same bits as one SeedSequence and generator per
stream.  The ``threads`` arguments are accepted but split no work;
`simulate_paths` runs its chunks in turn on the calling thread, and the
Monte-Carlo MSE (`minimax._mse_mc_runs`) spreads its chunks over forked
processes through `_on_processes`, the package's one process path, which
the ensemble writer (`export.write_ensemble_csv`) also takes.  Within a
chunk, the draws, their time-major copy and the noise transform of a long
stream run on one short-lived thread per usable CPU of the process's share
(see `_usable_cpus`), each on a contiguous block of paths (see
`_increments`); these are NumPy kernels that release the interpreter lock,
every operation is elementwise per path, and each path keeps its stream, so
no bit depends on the number of threads or processes, and no thread or
process outlives the call.

The noise transform and the log density each sum in one fixed order,
written out here, whatever the chunk, the batch size or the NumPy build: the
increments are j-ordered multiply-adds over a time-major, component-major
(K, d, count) copy of the draws, and the log density adds, per path and in
k order, the j-ordered terms theta_k' L_k^-1 dw_k.  The Euler loop steps
the contiguous (d, batch) slices of those increments through `_euler_step`,
scalar models included: per-interval vectors are (d, 1) columns that
broadcast along the batch axis, or Python floats for a scalar model, and
its products F_k x_k are matmuls whose columns do not depend on the batch
size from two columns on.  A one-path batch multiplies as the first column
of a two-path one, and a matrix with one row keeps the row-major product of
the path-major loops (see `model._Steps`).  One path of a scalar model
steps on Python floats, with the same operations in the same order.  So a
path's bits depend on its index alone, however the paths are chunked.
`simulate_paths` copies the increments and states back into the path-major
arrays of `PathEnsemble`; the Monte-Carlo MSE (`minimax._MCRun`)
consumes the states one step at a time and keeps only the nodes it reads.
"""
from __future__ import annotations

import os
import signal
import tempfile
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, GridMismatch, InvalidPathCount, InvalidSeed,
                     UnsupportedTilt)
from .model import DriftPolicy, ValidatedModel, _first_below, _steps, _Steps
from .ode import _policy_array

_SIGNAL_TAG = 0
_OBS_TAG = 1
_CHUNK = 2048

# Largest ensemble simulate_paths returns: x, m, dw, dv and log_density.  A
# fixed policy limit, not a reading of the machine's memory: it turns a
# runaway n_paths into a named error, far above the 3000 paths of the
# largest call in this package (verification's determinism check).
_MAX_ENSEMBLE_BYTES = 4 << 30

# Paths and path-steps simulated so far in this process, and in the forked
# Monte-Carlo children whose results it took (minimax._mse_mc_runs counts
# those); verification reads the counts around each check for its timings
# sidecar.
_work = {"paths": 0, "path_steps": 0}


def _count_work(model: ValidatedModel, count: int) -> None:
    _work["paths"] += count
    _work["path_steps"] += count * model.n_steps

# CPUs of this process's share while it runs a block of _on_processes, so
# that the processes together start one noise thread per usable CPU; None
# otherwise.  Only the thread count follows it: no CPU affinity is changed.
_share = {"cpus": None}

# The noise of a stream is split across threads only where the kernels that
# release the interpreter lock dominate: each path's draw takes the lock back
# once, so a short stream mostly hands it between threads.  Interleaved
# medians of the draws on a 2-core x86 machine (NumPy 2.4.6), one thread
# against two, paths x values per stream: 2048 x 200 went from 16 to 26 ms,
# 100 x 2000 from 5.3 to 4.7 ms, 256 x 1000 from 7.5 to 6.1 ms, 400 x 2000
# from 20 to 14 ms and 400 x 3000 from 30 to 20 ms.
_MIN_STREAM_VALUES = 1000
_MIN_PATHS_PER_THREAD = 128

# Signal-noise directions with variance below this carry no tilt.
_TILT_EIG_FLOOR = 1e-10

# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# the PCG64 multiplier; NumPy's stream-compatibility policy fixes both.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _check_seed(name: str, value) -> int:
    """A master seed or path offset as a non-negative Python int."""
    if (isinstance(value, (bool, np.bool_))
            or not isinstance(value, (int, np.integer)) or value < 0):
        raise InvalidSeed(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _check_n_paths(n_paths, limit: int, what: str) -> int:
    """A path count as a Python int in 1..limit; raises InvalidPathCount."""
    if (isinstance(n_paths, (bool, np.bool_))
            or not isinstance(n_paths, (int, np.integer))):
        raise InvalidPathCount(f"n_paths must be an integer, got {n_paths!r}")
    if n_paths < 1:
        raise InvalidPathCount(f"n_paths must be >= 1, got {n_paths}")
    if n_paths > limit:
        raise InvalidPathCount(f"n_paths = {n_paths} exceeds {limit}, {what}")
    return int(n_paths)


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of an int, as SeedSequence splits it."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _pool_states(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, np.uint64), one row per entry.

    entropy holds the uint32 entropy words as columns of equal length; the
    hash constants do not depend on the data, so every row mixes in step.
    The uint32 array arithmetic wraps mod 2**32, as the C code's does.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ (out >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = np.empty((zero.size, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _seed_states(master_seed: int, first: int, count: int, tag: int) -> np.ndarray:
    """SeedSequence((master_seed, i, tag)).generate_state(4, np.uint64) for
    i = first .. first+count-1, as a (count, 4) array.

    An index takes one entropy word below 2**32 and more above, so the
    indices are handled in runs that share their high words.
    """
    master_seed = _check_seed("master_seed", master_seed)
    first = _check_seed("path index", first)
    out = np.empty((count, 4), dtype=np.uint64)
    j = 0
    while j < count:
        start = first + j
        high = start >> 32
        run = min(count - j, ((high + 1) << 32) - start)
        low = start & _MASK32
        entropy = [np.full(run, w, dtype=np.uint32)
                   for w in _uint32_words(master_seed)]
        entropy.append(np.arange(low, low + run, dtype=np.uint32))
        entropy += [np.full(run, w, dtype=np.uint32)
                    for w in (_uint32_words(high) if high else []) + _uint32_words(tag)]
        out[j:j + run] = _pool_states(entropy)
        j += run
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on, 1 where os.sched_getaffinity is missing;
    while it runs a block of _on_processes, its share of them."""
    if _share["cpus"] is not None:
        return _share["cpus"]
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _path_blocks(count: int, stream_values: int) -> list[int]:
    """Bounds of the contiguous blocks of count paths, one per thread, that
    split the noise of streams of stream_values values each: one thread per
    usable CPU, at most one per _MIN_PATHS_PER_THREAD paths, and one alone
    below _MIN_STREAM_VALUES values."""
    threads = 1
    if stream_values >= _MIN_STREAM_VALUES:
        threads = max(1, min(_usable_cpus(), count // _MIN_PATHS_PER_THREAD))
    return [count * i // threads for i in range(threads + 1)]


def _on_blocks(bounds: list[int], work) -> None:
    """work(lo, hi) on every block of bounds: the calling thread takes the
    first, a new thread each of the others.  Every thread started is joined
    before this returns or raises; a worker's exception is then raised here."""
    errors = []

    def run(lo: int, hi: int) -> None:
        try:
            work(lo, hi)
        except BaseException as exc:  # raised in the caller once all are joined
            errors.append(exc)

    started = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            thread = threading.Thread(target=run, args=(lo, hi))
            thread.start()
            started.append(thread)
        work(bounds[0], bounds[1])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


def _process_count(blocks: int, work: int, floor: int) -> int:
    """Processes that share blocks units of work: one per usable CPU, at
    most one per block and per floor units of work, at least one; one where
    os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cpus(), blocks, work // floor))


def _fork(work, lo: int, hi: int, cpus: int):
    """Fork a child that runs work(lo, hi, part) on a new binary temporary
    file part, with cpus as its share of the usable CPUs; returns the
    child's pid and part.

    The child leaves only through os._exit, with status 0 once part is
    flushed and 1 on any exception, so it never returns into the caller's
    stack or flushes a buffer it shares with the parent.  On an exception
    part's contents are replaced by "TypeName: message", written past the
    buffer so that nothing written before follows it.
    """
    part = tempfile.TemporaryFile()
    fd = part.fileno()
    try:
        pid = os.fork()
    except BaseException:
        part.close()
        raise
    if pid == 0:
        status = 1
        try:
            _share["cpus"] = cpus
            work(lo, hi, part)
            part.flush()
            status = 0
        except BaseException as exc:
            os.ftruncate(fd, 0)
            os.pwrite(fd, f"{type(exc).__name__}: {exc}".encode(
                "utf-8", "backslashreplace"), 0)
        finally:
            os._exit(status)
    return pid, part


def _on_processes(bounds: list[int], work, take, what) -> None:
    """work(lo, hi, part) on every block of bounds: a forked child takes each
    block but the first, writing its results to its own temporary file part
    (see _fork), and then the calling process takes the first, with part
    None.  The children are then reaped in block order, and take(lo, hi,
    part) reads each one's file from offset 0.  The usable CPUs are split
    into contiguous shares, one per block, and while a process runs its
    block _usable_cpus reads its share, so that its noise threads (see
    _path_blocks) and those of the other processes do not outnumber the
    CPUs.  The share ends with the block; CPU affinity is never changed.

    A child that fails raises OSError naming what(lo, hi), its exit status
    and its exception.  On any exception in the calling process every child
    not yet reaped is killed and reaped, so no process outlives the call.
    No thread started here outlives its call either (see _on_blocks), so a
    child is forked from a process that runs one Python thread, unless the
    caller runs others.
    """
    cpus, count = _usable_cpus(), len(bounds) - 1
    shares = [cpus * (i + 1) // count - cpus * i // count for i in range(count)]
    children = []
    try:
        for lo, hi, share in zip(bounds[1:-1], bounds[2:], shares[1:]):
            children.append((*_fork(work, lo, hi, share), lo, hi))
        outer, _share["cpus"] = _share["cpus"], shares[0]
        try:
            work(bounds[0], bounds[1], None)
        finally:
            _share["cpus"] = outer
        while children:
            pid, part, lo, hi = children[0]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            with part:
                part.seek(0)
                if status:
                    # Status 1 is an exception, whose text the file holds.
                    text = (": " + part.read().decode("utf-8")
                            if status == 1 else "")
                    raise OSError(f"the process {what(lo, hi)} exited with "
                                  f"status {status}{text}")
                take(lo, hi, part)
    except BaseException:
        for pid, part, _, _ in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            part.close()
        raise


def _fill_normals(out: np.ndarray, master_seed: int, first: int, tag: int) -> None:
    """Fill row j of out with the first draws of
    ``default_rng(SeedSequence((master_seed, first + j, tag)))``."""
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    rows = _seed_states(master_seed, first, len(out), tag).tolist()
    for j, (s_hi, s_lo, i_hi, i_lo) in enumerate(rows):
        # pcg64_set_seed: inc = 2*initseq + 1, then two LCG steps around
        # adding the initial state.
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        seeded = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
        state["state"] = {"state": seeded, "inc": inc}
        bitgen.state = state
        gen.standard_normal(out=out[j])


def _time_major(a: np.ndarray) -> np.ndarray:
    """A contiguous (K, d, count) copy of a path-major (count, K, d) array."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _path_major(a: np.ndarray) -> np.ndarray:
    """View of a time-major (K, d, count) array as (count, K, d)."""
    return np.moveaxis(a, -1, 0)


def _transform(factor: np.ndarray, terms: list, xi: np.ndarray,
               out: np.ndarray, scale) -> None:
    """out = scale (factor_k xi_k) on (K, d, b) views of one block of paths:
    component i adds the terms j of terms[i] in j order, and one with no
    term is 0.0."""
    for i, row in enumerate(terms):
        acc = out[:, i]
        if not row:
            acc.fill(0.0)
            continue
        np.multiply(factor[:, i, row[0], None], xi[:, row[0]], out=acc)
        for j in row[1:]:
            acc += factor[:, i, j, None] * xi[:, j]
    out += 0.0  # the sum starts from +0.0: no -0.0 entries
    out *= scale


def _increments(model: ValidatedModel, master_seed: int, first: int,
                count: int, tag: int, factor: np.ndarray,
                live: np.ndarray) -> np.ndarray:
    """factor_k times the standard normals of stream tag, times sqrt(dt):
    time-major, component-major (K, d, count) increments of paths
    first..first+count-1.

    Component i is 0 + factor_ki0 xi_0 + factor_ki1 xi_1 + ..., added in j
    order by whole-array multiply-adds on the contiguous (K, count) planes
    of one (K, d, count) copy of the draws, then scaled by sqrt(dt).  The
    order is written out here, so neither the batch size nor the NumPy
    build can change a bit.  Only the terms marked in live are added: a
    (d, d) mask that marks at least every entry of factor nonzero on some
    interval (model._live_terms marks exactly those).  The model's own
    factors pass the masks validate_model made on the full grid, which a
    truncated model keeps.  A term zero on every interval adds a signed
    zero, whether it is added or left out, and a component with no term is
    0.0: the final +0.0 clears the sign, so the bits are those of the full
    sum.

    The draws, the copy and the transform are three stages, each split into
    the contiguous path blocks of `_path_blocks` and run by `_on_blocks`.
    The calling thread allocates each stage's array before its threads
    start, and the draws are dropped before the output is allocated, so the
    threads only fill their columns.  Every operation is elementwise per
    path, so the bits do not depend on the blocks.
    """
    d = factor.shape[-1]
    terms = [np.flatnonzero(row).tolist() for row in live]
    bounds = _path_blocks(count, model.n_steps * d)
    draws = np.empty((count, model.n_steps, d))
    _on_blocks(bounds, lambda lo, hi: _fill_normals(draws[lo:hi], master_seed,
                                                    first + lo, tag))
    xi = np.empty((model.n_steps, d, count))
    _on_blocks(bounds, lambda lo, hi: np.copyto(xi[..., lo:hi],
                                                np.moveaxis(draws[lo:hi], 0, -1)))
    del draws
    out = np.empty(xi.shape)
    scale = np.sqrt(model.grid.dt)
    _on_blocks(bounds, lambda lo, hi: _transform(factor, terms, xi[..., lo:hi],
                                                 out[..., lo:hi], scale))
    return out


def _signal_noise(model: ValidatedModel, master_seed: int, first: int,
                  count: int) -> np.ndarray:
    """Untilted signal increments Q^(1/2) dB of paths first..first+count-1,
    as a path-major (count, K, n) view."""
    _count_work(model, count)
    return _path_major(_increments(model, master_seed, first, count,
                                   _SIGNAL_TAG, model.Q_sqrt, model.Q_sqrt_live))


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated signal and observation paths with their noise increments.

    x has shape (n_paths, n_steps+1, n); m likewise with dimension m and
    m[:, 0] = 0.  dw holds reference-measure signal increments (the tilted
    increments plus theta*dt), dv the observation noise increments.
    log_density is the log likelihood ratio of the simulation tilt on each
    path.
    """

    model: ValidatedModel = field(repr=False)
    policy: DriftPolicy = field(repr=False)
    master_seed: int
    path_offset: int
    x: np.ndarray = field(repr=False)
    m: np.ndarray = field(repr=False)
    dw: np.ndarray = field(repr=False)
    dv: np.ndarray = field(repr=False)
    log_density: np.ndarray = field(repr=False)

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]


def _tilt_factors(theta: np.ndarray, model: ValidatedModel):
    """Cholesky factors of Q on intervals where the tilt is active; raises
    UnsupportedTilt for the first one where Q is below _TILT_EIG_FLOOR."""
    active = np.flatnonzero(np.any(theta != 0.0, axis=1))
    if active.size == 0:
        return active, None
    Qa = model.Q[active]
    bad = _first_below(np.linalg.eigvalsh(Qa), _TILT_EIG_FLOOR)
    if bad is not None:
        raise UnsupportedTilt(
            f"interval {active[bad[0]]}: tilt is nonzero but Q is singular there"
        )
    return active, np.linalg.cholesky(Qa)


def _log_density_batch(theta: np.ndarray, dw: np.ndarray,
                       model: ValidatedModel) -> np.ndarray:
    """Log likelihood ratio sum_k theta_k' dw_std_k - 0.5 sum_k |theta_k|^2 dt
    of path-major increments dw (batch, K, n).

    Increments are standardized by the Cholesky factor of Q per interval;
    theta itself is read as a tilt of the standardized noise, which for
    identity Q coincides with the state-equation drift.  Intervals with zero
    tilt contribute exactly zero whatever Q is.

    theta_k' L_k^-1 dw_k = u_k' dw_k with u_k = L_k^-T theta_k, one solve per
    interval.  Each term u_k' dw_k is summed in j order, and each path adds
    its terms in k order, one interval at a time; |theta_k|^2 is summed the
    same way.  So a path's value depends on its own increments only, and
    Q = I gives the bits of per-path solves.
    """
    active, chol = _tilt_factors(theta, model)
    out = np.zeros(dw.shape[0])
    if active.size == 0:
        return out
    th = theta[active]
    u = np.zeros(theta.shape)
    u[active] = np.linalg.solve(np.swapaxes(chol, -1, -2), th[..., None])[..., 0]
    terms = u[:, 0] * dw[..., 0]
    norms = th[:, 0] * th[:, 0]
    for j in range(1, th.shape[1]):
        terms += u[:, j] * dw[..., j]
        norms += th[:, j] * th[:, j]
    if len(out) == 1:  # one path: the same k-ordered sum on Python floats
        total = 0.0
        for value in terms[0, active].tolist():
            total += value
        out[0] = total
    else:
        for k in active.tolist():
            out += terms[:, k]
    total = 0.0
    for value in norms.tolist():
        total += value
    out -= 0.5 * model.grid.dt * total
    return out


def girsanov_log_density(theta, dw: np.ndarray, model: ValidatedModel) -> float:
    """Log likelihood ratio of one tilt on one path of signal increments."""
    th = _policy_array(theta, model, "theta")
    dw = np.asarray(dw, dtype=float)
    if dw.shape != (model.n_steps, model.n):
        raise GridMismatch(
            f"dw: expected shape ({model.n_steps}, {model.n}), got {dw.shape}"
        )
    return float(_log_density_batch(th, dw[None], model)[0])


def _euler_step(steps: _Steps, k: int, x, obs, theta_k, dw_k, dv_k):
    """One Euler-Maruyama interval on time-major slices: (x_{k+1}, obs_{k+1})."""
    dt = steps.dt
    return (x + (steps.apply(x, steps.F[k]) + steps.f[k] + theta_k) * dt + dw_k,
            obs + (steps.apply(x, steps.G[k]) + steps.g[k]) * dt + dv_k)


def _initial_state(steps: _Steps, value: np.ndarray, count: int):
    """value on every one of count paths, as the step loops carry a state
    (see `_Steps.read`): a Python float for one path of a scalar model,
    else a contiguous (d, count) step slice."""
    out = np.empty((1, value.shape[0], count))
    out[:] = value[:, None]
    return steps.read(out)[0]


def _euler_states(model: ValidatedModel, steps: _Steps, theta,
                  dw_tilt: np.ndarray, dv: np.ndarray):
    """Yield the states (x_k, obs_k), k = 0..K, driven by the time-major
    (K, d, count) increments dw_tilt and dv, as fresh step slices (Python
    floats for one path of a scalar model); theta is the tilt as
    `steps.per_interval` lays it out."""
    count = dw_tilt.shape[-1]
    x = _initial_state(steps, model.x0, count)
    obs = _initial_state(steps, np.zeros(model.m), count)
    yield x, obs
    dw_tilt, dv = steps.read(dw_tilt), steps.read(dv)
    for k in range(model.n_steps):
        x, obs = _euler_step(steps, k, x, obs, theta[k], dw_tilt[k], dv[k])
        yield x, obs


def _simulate_chunk(model: ValidatedModel, steps: _Steps, theta,
                    master_seed: int, j0: int, count: int, path_offset: int):
    """Noise and Euler states of the paths with absolute indices
    path_offset + j0 .. path_offset + j0 + count - 1.

    steps is `_steps(model)` and theta the tilt laid out by its
    `per_interval`, both built once per call of the caller.  Returns
    (dw_tilt, dv, states): the untilted signal increments (K, n, count) and
    the observation increments (K, m, count), time-major, and a generator of
    the states (x_k, obs_k), k = 0..K, as step slices.
    """
    _count_work(model, count)
    first = path_offset + j0
    dw_tilt = _increments(model, master_seed, first, count, _SIGNAL_TAG,
                          model.Q_sqrt, model.Q_sqrt_live)
    dv = _increments(model, master_seed, first, count, _OBS_TAG, model.R_chol,
                     model.R_chol_live)
    return dw_tilt, dv, _euler_states(model, steps, theta, dw_tilt, dv)


def simulate_paths(model: ValidatedModel, theta, n_paths: int, master_seed: int,
                   path_offset: int = 0, threads: int = 1) -> PathEnsemble:
    """Simulate n_paths signal/observation paths under the drift tilt theta.

    Paths are generated in fixed chunks; path_offset shifts the absolute
    path indices so a large run can be split across calls and still match a
    monolithic run bitwise.  threads is accepted for compatibility and does
    not change the work or the result.  n_paths must be a positive integer
    whose ensemble fits in 4 GiB, else InvalidPathCount is raised before
    any allocation; the bound is a fixed policy limit that does not depend
    on the memory available.
    """
    master_seed = _check_seed("master_seed", master_seed)
    path_offset = _check_seed("path_offset", path_offset)
    th = _policy_array(theta, model, "theta")
    policy = theta if isinstance(theta, DriftPolicy) else DriftPolicy(th)
    n, m, k_steps = model.n, model.m, model.n_steps
    path_bytes = 8 * ((2 * k_steps + 1) * (n + m) + 1)
    n_paths = _check_n_paths(n_paths, _MAX_ENSEMBLE_BYTES // path_bytes,
                             f"the most whose ensemble fits in "
                             f"{_MAX_ENSEMBLE_BYTES >> 30} GiB")
    steps = _steps(model)
    th_steps = steps.per_interval(th)
    tilt = th * model.grid.dt

    x = np.empty((n_paths, k_steps + 1, n))
    obs = np.empty((n_paths, k_steps + 1, m))
    dw = np.empty((n_paths, k_steps, n))
    dv = np.empty((n_paths, k_steps, m))
    logw = np.empty(n_paths)
    for j0 in range(0, n_paths, _CHUNK):
        count = min(_CHUNK, n_paths - j0)
        sl = slice(j0, j0 + count)
        dw_tilt, dv_c, states = _simulate_chunk(model, steps, th_steps, master_seed,
                                                j0, count, path_offset)
        x_c = np.empty((k_steps + 1, n, count))
        obs_c = np.empty((k_steps + 1, m, count))
        for k, (xk, obs_k) in enumerate(states):
            x_c[k] = xk
            obs_c[k] = obs_k
        x[sl] = _path_major(x_c)
        obs[sl] = _path_major(obs_c)
        np.add(_path_major(dw_tilt), tilt, out=dw[sl])
        dv[sl] = _path_major(dv_c)
        logw[sl] = _log_density_batch(th, dw[sl], model)

    for arr in (x, obs, dw, dv, logw):
        arr.setflags(write=False)
    return PathEnsemble(model=model, policy=policy, master_seed=master_seed,
                        path_offset=path_offset, x=x, m=obs, dw=dw, dv=dv,
                        log_density=logw)


def reweighted_mean(ensemble: PathEnsemble, payoff, theta) -> float:
    """Mean of a per-path payoff under the measure tilted by theta.

    Paths simulated under the ensemble's own tilt are reweighted by the
    likelihood ratio between the target tilt and the simulation tilt.
    """
    values = np.asarray(payoff, dtype=float)
    if values.shape != (ensemble.n_paths,):
        raise DimensionMismatch(
            f"payoff: expected shape ({ensemble.n_paths},), got {values.shape}"
        )
    th = _policy_array(theta, ensemble.model, "theta")
    target = _log_density_batch(th, ensemble.dw, ensemble.model)
    weights = np.exp(target - ensemble.log_density)
    return float(np.mean(weights * values))

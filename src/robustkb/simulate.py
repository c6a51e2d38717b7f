"""Euler-Maruyama path simulation under a drift perturbation, with exact
per-path likelihood ratios for change-of-measure reweighting.

Randomness is drawn from one stream per (path, noise source): the stream of
path i is ``np.random.default_rng(SeedSequence((master_seed, i, tag)))``.
Results therefore depend only on the master seed and absolute path indices,
never on chunking.  The streams are seeded a chunk at a time: `_seed_states`
repeats NumPy's SeedSequence hash on uint32 arrays for a whole chunk of path
indices, and each path gets a PCG64 generator of its own, which NumPy seeds
from that path's state words (`_generators`), so the bits are those of one
SeedSequence and generator per stream.  The ``threads`` arguments are
accepted but split no work.
`simulate_paths`, the Monte-Carlo MSE (`minimax._mse_mc_runs`) and the
Girsanov weights (`verification._girsanov_zetas`) run their paths through
one runner, `_on_paths`: one split rule over forked processes and one chunk
size, `_CHUNK` paths.  It forks through `_on_processes`, the package's one
parallel path, which the ensemble writer (`export.write_ensemble_csv`) also
takes.  Each path keeps its stream, so no bit depends on the number of
processes, and no process outlives the call.

The noise transform and the log density each sum in one fixed order,
written out here, whatever the chunk, the slab, the batch size or the NumPy
build: the increments are j-ordered multiply-adds, made in place on the
time-major, component-major (L, d, count) draws a block of time steps at a
time, and the log density adds, per path and in k order, the j-ordered
terms theta_k' L_k^-1 dw_k.  A chunk never holds more than one slab of L
time steps of each noise stream (`_slabs`): each path's generator draws the
slab's values of its stream, which carries on into the next slab, and one
stage of at most `_STAGE_BYTES` carries the draws and each transformed
block.  L comes from one byte budget for both streams, `_SLAB_BYTES`, so a
chunk's memory does not grow with the grid.  The Euler loop consumes the
slabs in k order and steps their contiguous (d, batch) slices through
`_euler_step`, scalar models included: per-interval vectors are (d, 1)
columns that broadcast along the batch axis, or Python floats for a scalar
model, and its products F_k x_k are matmuls whose columns do not depend on
the batch size from two columns on.  A one-path batch multiplies as the
first column of a two-path one, and a matrix with one row keeps the
row-major product of the path-major loops (see `model._Steps`).  One path
of a scalar model steps on Python floats, with the same operations in the
same order.  So a path's bits depend on its index alone, however the paths
are chunked or the steps slabbed.  `simulate_paths` keeps its arrays in
the same time-major layout and writes each slab and each Euler state
straight into the chunk's columns; the Monte-Carlo MSE (`minimax._MCRun`)
consumes the states one step at a time and keeps only the nodes it reads,
and the Girsanov weights add each slab's terms as it comes.  Every array a
forked child fills comes from `_shared`, so the child writes its columns
where the parent reads them, and no result crosses a file.
"""
from __future__ import annotations

import functools
import math
import mmap
import os
import signal
import tempfile
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import (DimensionMismatch, GridMismatch, InvalidPathCount, InvalidSeed,
                     UnsupportedTilt)
from .model import DriftPolicy, ValidatedModel, _first_below, _steps, _Steps
from .ode import _policy_array

_SIGNAL_TAG = 0
_OBS_TAG = 1

# Paths a process runs at once (see _on_paths).  The Euler loop pays its
# per-step Python cost once per chunk.
_CHUNK = 1024

# Bytes of one slab of each noise stream of a chunk, both streams together
# (see _slab_steps): a slab of L steps of count paths takes 8 (n + m) count L
# bytes.  Each slab costs a draw call per path and stream.  On a 2-core x86
# machine (NumPy 2.4.6), budgets of 1, 2, 4 and 8 MiB gave a minimax-n3
# peak RSS of 48.9, 48.9, 50.1 and 54.1 MB (bench/run.py, medians of 4),
# and one n = 3 Monte-Carlo chunk of 1024 paths and 2000 steps took 0.46,
# 0.37-0.40, 0.34-0.36 and 0.33-0.36 s of CPU (medians of 5, two sweeps).
_SLAB_BYTES = 4 << 20

# Bytes of the stage of _slabs, which holds a group of paths' draws and then
# a time block of the noise transform.  On a 2-core x86 machine (NumPy
# 2.4.6), 400 x 1000 x 3 increments took 34.7 ms of CPU with 128 KiB stages,
# 31.2-31.6 ms with 256 KiB, 30.5-30.6 ms with 1 MiB and 31.1-31.6 ms with 4
# MiB (medians of 21, two sweeps); the draws alone take about 20 ms.
_STAGE_BYTES = 1 << 20

# Largest ensemble simulate_paths returns: x, m, dw, dv and log_density.  A
# fixed policy limit, not a reading of the machine's memory: it turns a
# runaway n_paths into a named error, far above the 3000 paths of the
# largest call in this package (verification's determinism check).
_MAX_ENSEMBLE_BYTES = 4 << 30

# Paths and path-steps run by _on_paths so far, counted in the calling
# process, whichever process ran them; verification reads the counts around
# each check for its timings sidecar.
_work = {"paths": 0, "path_steps": 0}

# Signal-noise directions with variance below this carry no tilt.
_TILT_EIG_FLOOR = 1e-10

# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx);
# NumPy's stream-compatibility policy fixes them.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


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


@functools.cache
def _seed_state() -> type:
    """The seed sequence type of one stream, as PCG64 reads it: its
    generate_state returns the stream's _seed_states row, which PCG64 asks
    for as 4 uint64 words and NumPy's own pcg64_set_seed turns into the
    stream's starting state.  PCG64 takes only a subclass of NumPy's
    ISeedSequence, which is built here on first use, not with the module:
    NumPy loads numpy.random lazily, and its import takes about 18 ms that
    a command without simulation would pay at start-up."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedState


def _generators(master_seed: int, first: int, count: int,
                tag: int) -> list[np.random.Generator]:
    """One generator per path first..first+count-1 of stream tag, each with
    the bits of ``default_rng(SeedSequence((master_seed, path, tag)))``."""
    seed_state = _seed_state()
    return [np.random.Generator(np.random.PCG64(seed_state(words)))
            for words in _seed_states(master_seed, first, count, tag)]


def _usable_cpus() -> int:
    """CPUs this process may run on, 1 where os.sched_getaffinity is missing."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


# A forked process costs a fork, a reap, a temporary file and copy-on-write
# faults.  Two Monte-Carlo runs, serial against forked on a 2-core x86
# machine (medians of 9): 10^4 path-steps in all went from 8.9 to 12.9 ms
# (n = 1) and 7.4 to 13.3 ms (n = 3); 10^5 from 32 to 21 ms and 37 to 39
# ms; 2 x 10^5 from 49 to 34 ms and 91 to 52 ms.  So a process takes at
# least 10^5 path-steps.
_MIN_PATH_STEPS_PER_PROCESS = 100_000

# The Euler loop costs a Python step per interval whatever the batch, and
# that cost does not split across processes, so each job of _on_paths adds
# a process only per this many of its paths.  Two processes against one on a
# 2-core x86 machine (NumPy 2.4.6), medians of 6 to 12 alternated calls,
# the range over repeated sweeps, the same bits in every case: n = 1, 200
# steps, 3000 paths 0.74-0.84, 1500 paths 0.76-0.97, 800 paths 0.77, 600
# paths 1.07-1.30 and 512 paths 0.84; n = 1, 2000 steps, 100 paths
# 1.06-1.43, 200 paths 0.85-1.04, 256 paths 0.86-0.96 and 800 paths 0.80;
# n = 3, 1000 steps, 256 paths 0.75-1.08, 400 paths 0.83-1.03 and 800
# paths 0.77; n = 3, 200 steps, 3000 paths 0.71-0.76 and 512 paths 0.98.
_MIN_PATHS_PER_PROCESS = 256


def _bounds(units: int, most: int, work: int, floor: int) -> list[int]:
    """Bounds of contiguous blocks of units, one per process: one per
    usable CPU, at most `most` and one per floor units of work, at least
    one; one where os.fork is missing."""
    count = 1
    if hasattr(os, "fork"):
        count = max(1, min(_usable_cpus(), most, work // floor))
    return [units * i // count for i in range(count + 1)]


def _shared(shape) -> np.ndarray:
    """A zero-filled float64 array on an anonymous shared mapping: a child
    forked after the call writes into the array its parent reads."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)


def _fork(work, lo: int, hi: int):
    """Fork a child that runs work(lo, hi); returns the child's pid and a
    new binary temporary file err, which holds the child's exception text.

    The child leaves only through os._exit, with status 0 once work returns
    and 1 on any exception, whose "TypeName: message" it writes to err, so
    it never returns into the caller's stack or flushes a buffer it shares
    with the parent.
    """
    err = tempfile.TemporaryFile()
    try:
        pid = os.fork()
    except BaseException:
        err.close()
        raise
    if pid == 0:
        status = 1
        try:
            work(lo, hi)
            status = 0
        except BaseException as exc:
            os.write(err.fileno(), f"{type(exc).__name__}: {exc}".encode(
                "utf-8", "backslashreplace"))
        finally:
            os._exit(status)
    return pid, err


def _on_processes(bounds: list[int], work, what) -> None:
    """work(lo, hi) on every block of bounds: a forked child takes each
    block but the first (see _fork), and then the calling process takes the
    first.  Every work writes its own results, a child's into arrays from
    _shared or files opened before the call.  The children are then reaped
    in block order.

    A child that fails raises OSError naming what(lo, hi), its exit status
    and its exception.  On any exception in the calling process every child
    not yet reaped is killed and reaped, so no process outlives the call.
    """
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append((*_fork(work, lo, hi), lo, hi))
        work(bounds[0], bounds[1])
        while children:
            pid, err, lo, hi = children[0]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            with err:
                if status:
                    # Status 1 is an exception, whose text err holds.
                    err.seek(0)
                    text = (": " + err.read().decode("utf-8")
                            if status == 1 else "")
                    raise OSError(f"the process {what(lo, hi)} exited with "
                                  f"status {status}{text}")
    except BaseException:
        for pid, err, _, _ in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            err.close()
        raise


def _on_paths(jobs, what) -> None:
    """Run every job's paths on forked processes and count them in _work.
    A job is (model, n_paths, fill); fill(j0, count) writes paths
    j0..j0+count-1 of the job into arrays from _shared.  The jobs' paths,
    laid end to end, are cut into balanced contiguous blocks (see _bounds):
    at most one per usable CPU, one per _MIN_PATH_STEPS_PER_PROCESS
    path-steps and, summed over jobs, max(1, n_paths //
    _MIN_PATHS_PER_PROCESS).  Each process fills its part of every job in
    chunks of _CHUNK paths; what(j, first, last) names paths first..last of
    job j for a failing block.  A path's bits depend on its job and index
    alone, so neither the blocks nor the chunks move any."""
    starts = [0, *accumulate(n_paths for _, n_paths, _ in jobs)]
    bounds = _bounds(starts[-1],
                     sum(max(1, n // _MIN_PATHS_PER_PROCESS) for _, n, _ in jobs),
                     sum(n * model.n_steps for model, n, _ in jobs),
                     _MIN_PATH_STEPS_PER_PROCESS)

    def parts(lo, hi):
        """(job, first, stop) of each job's paths among paths lo..hi-1."""
        for j, (first, stop) in enumerate(zip(starts, starts[1:])):
            if max(lo, first) < min(hi, stop):
                yield j, max(lo, first) - first, min(hi, stop) - first

    def run_block(lo, hi):
        for j, first, stop in parts(lo, hi):
            for j0 in range(first, stop, _CHUNK):
                jobs[j][2](j0, min(_CHUNK, stop - j0))

    _on_processes(bounds, run_block, lambda lo, hi: " and ".join(
        what(j, first, stop - 1) for j, first, stop in parts(lo, hi)))
    for model, n_paths, _ in jobs:
        _work["paths"] += n_paths
        _work["path_steps"] += n_paths * model.n_steps


def _fit(nbytes: int, row_bytes: int, rows: int) -> int:
    """How many of rows rows of row_bytes each a buffer of nbytes holds: as
    many as fit, at least one and at most rows."""
    return max(1, min(rows, nbytes // row_bytes))


def _time_major(a: np.ndarray) -> np.ndarray:
    """A contiguous (K, d, count) copy of a path-major (count, K, d) array."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _path_major(a: np.ndarray) -> np.ndarray:
    """View of a time-major (K, d, count) array as (count, K, d)."""
    return np.moveaxis(a, -1, 0)


def _slab_steps(model: ValidatedModel, count: int) -> int:
    """Steps L of the noise slabs of a chunk of count paths: as many as one
    slab of each stream holds in _SLAB_BYTES, at least one and at most K."""
    return _fit(_SLAB_BYTES, 8 * (model.n + model.m) * count, model.n_steps)


def _stage(span: int, d: int, count: int) -> np.ndarray:
    """The staging buffer of _slabs for slabs of span steps of count paths
    and at most d components: the draws of as many paths, and a transform
    block of as many steps, as fit in _STAGE_BYTES, at least one of each."""
    return np.empty(max(_fit(_STAGE_BYTES, 8 * span * d, count) * span * d,
                        _fit(_STAGE_BYTES, 8 * (d + 1) * count, span)
                        * (d + 1) * count))


def _slabs(model: ValidatedModel, gens: list, factor: np.ndarray,
           live: np.ndarray, span: int, stage: np.ndarray):
    """Yield factor_k times the standard normals of the generators gens,
    one per path, times sqrt(dt): the time-major, component-major
    (L, d, count) increments of steps k0..k0+L-1 for k0 = 0, span, 2 span,
    ..., L = span but for a shorter last slab.  Every slab is the same
    buffer, which the next one overwrites.

    Each generator draws its path's L d values of the slab, so it carries
    its stream on from slab to slab, and the values are those of one draw
    of the whole stream.  stage (see _stage) carries everything else: the
    draws are made into it a group of paths at a time and copied,
    transposed, into the slab, which is then transformed in place a block
    of time steps at a time: the block's draws are copied into the stage,
    and component i is written back as 0 + factor_ki0 xi_0 + factor_ki1
    xi_1 + ..., added in j order by multiply-adds on the block's contiguous
    (steps, count) planes, each product made in the stage's last plane, then
    scaled by sqrt(dt).  The order is written out here, so neither the batch
    size, the slab, the stage nor the NumPy build can change a bit.
    Only the terms marked in live are added: a (d, d) mask that marks at
    least every entry of factor nonzero on some interval
    (model._live_terms marks exactly those).  The model's own factors pass
    the masks validate_model made on the full grid, which a truncated model
    keeps.  A term zero on every interval adds a signed zero, whether it is
    added or left out, and a component with no term is 0.0: the final +0.0
    clears the sign, so the bits are those of the full sum.
    """
    k_steps, d, count = model.n_steps, factor.shape[-1], len(gens)
    out = np.empty((span, d, count))
    group = _fit(stage.nbytes, 8 * span * d, count)
    block = _fit(stage.nbytes, 8 * (d + 1) * count, span)
    rows = [np.flatnonzero(mask).tolist() for mask in live]
    scale = np.sqrt(model.grid.dt)
    held = stage[:block * d * count].reshape(block, d, count)
    product = stage[block * d * count:block * (d + 1) * count].reshape(block, count)
    for k0 in range(0, k_steps, span):
        slab = out[:min(span, k_steps - k0)]
        drawn = stage[:group * len(slab) * d].reshape(group, len(slab), d)
        for j0 in range(0, count, group):
            part = drawn[:min(group, count - j0)]
            for gen, values in zip(gens[j0:j0 + len(part)], part):
                gen.standard_normal(out=values)
            slab[..., j0:j0 + len(part)] = np.moveaxis(part, 0, -1)
        for b0 in range(0, len(slab), block):
            part = slab[b0:b0 + block]
            xi, term = held[:len(part)], product[:len(part)]
            np.copyto(xi, part)
            weights = factor[k0 + b0:k0 + b0 + len(part), :, :, None]
            for i, row in enumerate(rows):
                acc = part[:, i]
                if not row:
                    acc.fill(0.0)
                    continue
                np.multiply(weights[:, i, row[0]], xi[:, row[0]], out=acc)
                for j in row[1:]:
                    np.multiply(weights[:, i, j], xi[:, j], out=term)
                    acc += term
        slab += 0.0  # the sum starts from +0.0: no -0.0 entries
        slab *= scale
        yield slab


def _noise(model: ValidatedModel, master_seed: int, first: int, count: int):
    """Pairs (dw_tilt, dv) of slabs of the untilted signal increments
    Q^(1/2) dB and the observation increments R^(1/2) dV of paths
    first..first+count-1, (L, n, count) and (L, m, count), in k order (see
    _slabs): one slab of each stream at a time, _slab_steps steps long,
    through one stage."""
    span = _slab_steps(model, count)
    stage = _stage(span, max(model.n, model.m), count)
    signal = _slabs(model, _generators(master_seed, first, count, _SIGNAL_TAG),
                    model.Q_sqrt, model.Q_sqrt_live, span, stage)
    obs = _slabs(model, _generators(master_seed, first, count, _OBS_TAG),
                 model.R_chol, model.R_chol_live, span, stage)
    return zip(signal, obs)


def _signal_slabs(model: ValidatedModel, master_seed: int, first: int,
                  count: int):
    """The slabs of untilted signal increments Q^(1/2) dB of paths
    first..first+count-1, as _noise yields them, without the observation
    stream."""
    span = _slab_steps(model, count)
    return _slabs(model, _generators(master_seed, first, count, _SIGNAL_TAG),
                  model.Q_sqrt, model.Q_sqrt_live, span,
                  _stage(span, model.n, count))


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated signal and observation paths with their noise increments.

    x has shape (n_paths, n_steps+1, n); m likewise with dimension m and
    m[:, 0] = 0.  dw holds reference-measure signal increments (the tilted
    increments plus theta*dt), dv the observation noise increments.
    log_density is the log likelihood ratio of the simulation tilt on each
    path.  x, m, dw and dv are read-only path-major views of time-major
    (K, d, n_paths) storage, as `FilterRun`'s arrays are: the values and
    shapes of path-major arrays, with other strides.
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


def _standardized_tilt(theta: np.ndarray, model: ValidatedModel):
    """The tilt's active intervals (any theta_k != 0), theta on them, and
    u_k = L_k^-T theta_k for the Cholesky factor L_k of Q_k, zero off them;
    raises UnsupportedTilt for the first active interval where Q is below
    _TILT_EIG_FLOOR."""
    active = np.flatnonzero(np.any(theta != 0.0, axis=1))
    if active.size == 0:
        return active, None, None
    Qa = model.Q[active]
    bad = _first_below(np.linalg.eigvalsh(Qa), _TILT_EIG_FLOOR)
    if bad is not None:
        raise UnsupportedTilt(
            f"interval {active[bad[0]]}: tilt is nonzero but Q is singular there"
        )
    th = theta[active]
    u = np.zeros(theta.shape)
    u[active] = np.linalg.solve(np.swapaxes(np.linalg.cholesky(Qa), -1, -2),
                                th[..., None])[..., 0]
    return active, th, u


def _tilt_log_density(tilt, slabs, count: int, dt: float) -> np.ndarray:
    """_log_density_batch from the _standardized_tilt of theta, on count
    paths whose signal increments come as time-major (L, n, count) slabs in
    k order: each slab's terms are added as it comes, and the |theta_k|^2
    sum is subtracted once at the end."""
    active, th, u = tilt
    out = np.zeros(count)
    if active.size == 0:
        return out
    on = np.zeros(len(u), dtype=bool)
    on[active] = True
    total, k0 = 0.0, 0
    for slab in slabs:
        k1 = k0 + len(slab)
        weights = u[k0:k1, :, None]
        terms = weights[:, 0] * slab[:, 0]
        for j in range(1, slab.shape[1]):
            terms += weights[:, j] * slab[:, j]
        steps = np.flatnonzero(on[k0:k1])
        if count == 1:  # one path: the same k-ordered sum on Python floats
            for value in terms[steps, 0].tolist():
                total += value
        else:
            for k in steps.tolist():
                out += terms[k]
        k0 = k1
    if count == 1:
        out[0] = total
    norms = th[:, 0] * th[:, 0]
    for j in range(1, th.shape[1]):
        norms += th[:, j] * th[:, j]
    total = 0.0
    for value in norms.tolist():
        total += value
    out -= 0.5 * dt * total
    return out


def _log_density_batch(theta: np.ndarray, dw: np.ndarray,
                       model: ValidatedModel) -> np.ndarray:
    """Log likelihood ratio sum_k theta_k' dw_std_k - 0.5 sum_k |theta_k|^2 dt
    of path-major increments dw (batch, K, n).

    Increments are standardized by the Cholesky factor of Q per interval;
    theta itself is read as a tilt of the standardized noise, which for
    identity Q coincides with the state-equation drift.  Intervals with zero
    tilt contribute exactly zero whatever Q is.

    theta_k' L_k^-1 dw_k = u_k' dw_k with u_k = L_k^-T theta_k, one solve per
    interval (see _standardized_tilt).  Each term u_k' dw_k is summed in j
    order, and each path adds its terms in k order, one interval at a time;
    |theta_k|^2 is summed the same way.  So a path's value depends on its own
    increments only, and Q = I gives the bits of per-path solves.
    """
    return _tilt_log_density(_standardized_tilt(theta, model),
                             [np.moveaxis(dw, 0, -1)], len(dw), model.grid.dt)


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


def _simulate_chunk(model: ValidatedModel, steps: _Steps, theta,
                    master_seed: int, first: int, count: int, tap=None):
    """The Euler states (x_k, obs_k), k = 0..K, of the paths with absolute
    indices first..first+count-1, as a generator of fresh step slices.

    steps is `_steps(model)` and theta the tilt laid out by its
    `per_interval`, both built once per call of the caller.  The noise
    comes one slab of each stream at a time (see _noise); tap(k0, dw_tilt,
    dv), where given, sees each pair of slabs, steps k0..k0+L-1, before the
    Euler loop reads it, and must not keep them: the next pair overwrites
    them.
    """
    x = _initial_state(steps, model.x0, count)
    obs = _initial_state(steps, np.zeros(model.m), count)
    yield x, obs
    k = 0
    for dw_tilt, dv in _noise(model, master_seed, first, count):
        if tap is not None:
            tap(k, dw_tilt, dv)
        for dw_k, dv_k in zip(steps.read(dw_tilt), steps.read(dv)):
            x, obs = _euler_step(steps, k, x, obs, theta[k], dw_k, dv_k)
            k += 1
            yield x, obs


def simulate_paths(model: ValidatedModel, theta, n_paths: int, master_seed: int,
                   path_offset: int = 0, threads: int = 1) -> PathEnsemble:
    """Simulate n_paths signal/observation paths under the drift tilt theta.

    path_offset shifts the absolute path indices so a large run can be
    split across calls and still match a monolithic run bitwise.  The paths
    are one job of _on_paths, whose chunks write their slabs and states
    straight into their columns of time-major arrays from _shared, then add
    their log density from the stored increments a slab's steps at a time.
    A path's bits depend on its absolute index alone, so neither the
    processes nor the chunks move any.
    threads is accepted for compatibility and does not change the work or
    the result.
    n_paths must be a positive integer whose ensemble fits in 4 GiB, else
    InvalidPathCount is raised before any allocation; the bound is a fixed
    policy limit that does not depend on the memory available.  So is
    UnsupportedTilt, for a tilt nonzero where Q is singular.
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
    tilt = _standardized_tilt(th, model)
    steps = _steps(model)
    th_steps = steps.per_interval(th)
    drift = (th * model.grid.dt)[..., None]

    x = _shared((k_steps + 1, n, n_paths))
    obs = _shared((k_steps + 1, m, n_paths))
    dw = _shared((k_steps, n, n_paths))
    dv = _shared((k_steps, m, n_paths))
    logw = _shared((n_paths,))

    def fill(j0, count):
        sl = slice(j0, j0 + count)
        x_c, obs_c, dw_c, dv_c = x[..., sl], obs[..., sl], dw[..., sl], dv[..., sl]

        def store(k0, dw_tilt, dv_slab):
            k1 = k0 + len(dw_tilt)
            np.add(dw_tilt, drift[k0:k1], out=dw_c[k0:k1])
            dv_c[k0:k1] = dv_slab

        for k, (xk, obs_k) in enumerate(_simulate_chunk(
                model, steps, th_steps, master_seed, path_offset + j0, count,
                store)):
            x_c[k] = xk
            obs_c[k] = obs_k
        span = _slab_steps(model, count)
        logw[sl] = _tilt_log_density(
            tilt, (dw_c[k0:k0 + span] for k0 in range(0, k_steps, span)),
            count, model.grid.dt)

    _on_paths([(model, n_paths, fill)], lambda _, first, last: (
        f"simulating paths {path_offset + first}..{path_offset + last}"))
    for arr in (x, obs, dw, dv, logw):
        arr.setflags(write=False)
    x, obs, dw, dv = map(_path_major, (x, obs, dw, dv))
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

"""The path runner's jobs, Monte-Carlo runs, simulate_paths and
check_girsanov's weights, on forked processes: the same bits on any usable
CPU set, path counts kept in the calling process, and no child left
behind."""

import json
import os

import numpy as np
import pytest

from robustkb import (ScenarioConfig, UncertaintyBound, minimax, simulate,
                      solve_riccati, verification)
from robustkb.cli import main
from robustkb.errors import InvalidPathCount

import path_major

CPU_SETS = (1, 2, 3, 4)


def _use_cpus(monkeypatch, cpus: int) -> list:
    """cpus usable CPUs and no work floor, so that every chunk or path may
    get a process of its own; returns a list that gains an entry per fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(simulate, "_MIN_PATH_STEPS_PER_PROCESS", 1)
    monkeypatch.setattr(simulate, "_MIN_PATHS_PER_PROCESS", 1)
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _runs(model):
    """Three runs of 1025, 300 and 2100 paths (2, 1 and 3 chunks) at
    different nodes, and one at node 0 only, which has no chunk."""
    k = np.arange(model.n_steps)[:, None]
    tilt = 0.4 * np.cos(k + np.arange(model.n)) - 0.1
    K = model.n_steps
    return [(tilt, 0.5 * tilt, [0, K], 1025, 3),
            (tilt, tilt, [K // 2], 300, 4),
            (0.0 * tilt, tilt, [3, K, 3], 2100, 5),
            (tilt, tilt, [0], 50, 6)]


@pytest.mark.parametrize("name", ["n1", "n3"])
def test_monte_carlo_runs_keep_their_bits_on_any_cpu_set(name, monkeypatch):
    """Six chunks on 1 to 4 processes give the bits of one process, which
    are those of each run on its own."""
    model = path_major.layout_models(40)[name]
    riccati = solve_riccati(model)
    runs = _runs(model)
    want = [minimax._mse_mc_multi(model, riccati, *run) for run in runs]
    for cpus in CPU_SETS:
        with monkeypatch.context() as patch:
            forks = _use_cpus(patch, cpus)
            got = minimax._mse_mc_runs(model, riccati, runs)
        assert len(forks) == cpus - 1
        for (gm, gs), (wm, ws) in zip(got, want):
            assert gm.tobytes() == wm.tobytes(), cpus
            assert gs.tobytes() == ws.tobytes(), cpus
    _no_child_left()


@pytest.mark.parametrize("sizes, blocks", [([255], 1), ([600], 2),
                                           ([300, 300], 2), ([2000], 4),
                                           ([100, 100, 100, 100], 4)])
def test_each_job_adds_a_process_per_256_of_its_paths(sizes, blocks,
                                                      monkeypatch):
    """On 4 CPUs with no path-step floor, the runner takes one block per
    _MIN_PATHS_PER_PROCESS paths of each job, and at least one per job; it
    fills every path once, in chunks of at most _CHUNK, and counts them."""
    forks = _use_cpus(monkeypatch, 4)
    monkeypatch.setattr(simulate, "_MIN_PATHS_PER_PROCESS", 256)
    model = path_major.layout_models(12)["n1"]
    filled = [simulate._shared((n,)) for n in sizes]

    def fill(j):
        def write(j0, count):
            assert 1 <= count <= simulate._CHUNK
            filled[j][j0:j0 + count] += 1.0
        return write

    work = dict(simulate._work)
    simulate._on_paths([(model, n, fill(j)) for j, n in enumerate(sizes)],
                       lambda j, first, last: f"job {j}")
    assert len(forks) == blocks - 1
    assert all(np.all(f == 1.0) for f in filled)
    assert simulate._work == {"paths": work["paths"] + sum(sizes),
                              "path_steps": work["path_steps"] + 12 * sum(sizes)}
    _no_child_left()


def test_a_block_across_jobs_is_named_by_its_parts(monkeypatch):
    """Paths 0..3 of job 0 and 0..1 of job 1 on 2 processes: the child takes
    path 3 of job 0 and both paths of job 1, and its failure names both."""
    _use_cpus(monkeypatch, 2)
    model = path_major.layout_models(12)["n1"]

    def fail(j0, count):
        raise RuntimeError("job 1 failed")

    with pytest.raises(OSError, match=r"^the process job 0 paths 3\.\.3 and "
                                      r"job 1 paths 0\.\.1 exited with status "
                                      r"1: RuntimeError: job 1 failed$"):
        simulate._on_paths([(model, 4, lambda j0, count: None), (model, 2, fail)],
                           lambda j, first, last: f"job {j} paths {first}..{last}")
    _no_child_left()


def test_small_runs_stay_in_the_calling_process(monkeypatch):
    """Below _MIN_PATH_STEPS_PER_PROCESS path-steps a process no child is
    forked, however many CPUs are usable."""
    model = path_major.layout_models(40)["n1"]
    riccati = solve_riccati(model)
    with monkeypatch.context() as patch:
        forks = _use_cpus(patch, 4)
        patch.setattr(simulate, "_MIN_PATH_STEPS_PER_PROCESS", 100_000)
        minimax._mse_mc_runs(model, riccati, _runs(model))  # 131 000 in all
        assert forks == []
        patch.setattr(simulate, "_MIN_PATH_STEPS_PER_PROCESS", 60_000)
        minimax._mse_mc_runs(model, riccati, _runs(model))
        assert len(forks) == 1


def test_girsanov_reads_the_simulate_floor(monkeypatch):
    """check_girsanov reads simulate._MIN_PATH_STEPS_PER_PROCESS when it
    runs: a floor above its 2 x 10^6 path-steps forks no child on 2 CPUs."""
    forks = _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(simulate, "_MIN_PATH_STEPS_PER_PROCESS", 2_000_001)
    verification.check_girsanov(_n3_config(), 2)
    assert forks == []


def test_no_result_crosses_a_file(monkeypatch):
    """Forked children write their results into shared arrays: every
    temporary file the fork layer opens, for a child's exception text
    only, stays empty."""
    model = path_major.layout_models(40)["n1"]
    riccati = solve_riccati(model)
    files, opened = [], simulate.tempfile.TemporaryFile

    def recorded(*args, **kwargs):
        fh = opened(*args, **kwargs)
        files.append(os.dup(fh.fileno()))
        return fh

    forks = _use_cpus(monkeypatch, 4)
    monkeypatch.setattr(simulate.tempfile, "TemporaryFile", recorded)
    try:
        simulate.simulate_paths(model, np.zeros((40, 1)), 2049, 3)
        minimax._mse_mc_runs(model, riccati, _runs(model))
        verification.check_girsanov(_n3_config(), 2)
        assert len(files) == len(forks) == 9
        assert [os.fstat(fd).st_size for fd in files] == [0] * 9
    finally:
        for fd in files:
            os.close(fd)
    _no_child_left()


def test_failed_chunk_reaps_every_child(monkeypatch):
    """A chunk that fails in a child raises OSError naming its run and
    chunk, the exit status and the child's exception; one that fails in
    the calling process raises its own exception.  Either way no child is
    left, running or unreaped."""
    model = path_major.layout_models(40)["n1"]
    riccati = solve_riccati(model)
    tilt = np.zeros((40, 1))
    runs = [(tilt, tilt, [40], 2048, seed) for seed in (1, 2)]  # 4 chunks
    real = minimax._MCRun.fill

    def fail_on(seed, j0):
        def fill(self, first, count):
            if (self.seed, first) == (seed, j0):
                raise RuntimeError(f"chunk of seed {seed} failed")
            return real(self, first, count)
        return fill

    forks = _use_cpus(monkeypatch, 4)
    minimax._mse_mc_runs(model, riccati, runs)
    assert len(forks) == 3
    monkeypatch.setattr(minimax._MCRun, "fill", fail_on(2, 1024))
    with pytest.raises(OSError, match=r"running Monte-Carlo run 1 paths "
                                      r"1024\.\.2047 exited with status 1: "
                                      r"RuntimeError: chunk of seed 2 failed$"):
        minimax._mse_mc_runs(model, riccati, runs)
    monkeypatch.setattr(minimax._MCRun, "fill", fail_on(1, 0))
    with pytest.raises(RuntimeError, match="chunk of seed 1 failed"):
        minimax._mse_mc_runs(model, riccati, runs)
    _no_child_left()


def _ensemble_arrays(ens):
    return (ens.x, ens.m, ens.dw, ens.dv, ens.log_density)


@pytest.mark.parametrize("name", ["n1", "n3"])
@pytest.mark.parametrize("n_paths, offset", [(2049, 0), (4100, 37), (3, 5)])
def test_simulate_paths_keeps_its_bits_on_any_cpu_set(name, n_paths, offset,
                                                      monkeypatch):
    """Blocks of any size, their chunks straddling _CHUNK, on 1 to 4
    processes give the five arrays of one process, read-only."""
    model = path_major.layout_models(12)[name]
    tilt = 0.4 * np.cos(np.arange(12)[:, None] + np.arange(model.n)) - 0.1
    want = []
    for cpus in CPU_SETS:
        with monkeypatch.context() as patch:
            forks = _use_cpus(patch, cpus)
            ens = simulate.simulate_paths(model, tilt, n_paths, 9,
                                          path_offset=offset)
        assert len(forks) == min(cpus, n_paths) - 1
        got = [a.tobytes() for a in _ensemble_arrays(ens)]
        want = want or got
        assert got == want, cpus
        assert not any(a.flags.writeable for a in _ensemble_arrays(ens))
    assert np.all(ens.log_density != 0.0)
    _no_child_left()


def test_one_scalar_path_steps_on_floats_in_the_calling_process(monkeypatch):
    """One path of a scalar model keeps its Python-float loop and forks
    nothing, however many CPUs are usable."""
    model = path_major.layout_models(12)["n1"]
    states, step = [], simulate._euler_step

    def recorded(steps, k, x, *rest):
        states.append(type(x))
        return step(steps, k, x, *rest)

    monkeypatch.setattr(simulate, "_euler_step", recorded)
    forks = _use_cpus(monkeypatch, 4)
    ens = simulate.simulate_paths(model, np.full((12, 1), 0.3), 1, 9,
                                  path_offset=2)
    assert forks == [] and states == [float] * 12
    assert ens.log_density[0] != 0.0


def test_failed_block_reaps_every_child(monkeypatch):
    """A chunk that fails in a child raises OSError naming its absolute
    paths, the exit status and the child's exception; one that fails in
    the calling process raises its own exception.  Either way no child is
    left."""
    model = path_major.layout_models(12)["n1"]
    real = simulate._simulate_chunk

    def fail_at(path):
        def simulate_chunk(model, steps, theta, seed, first, count, tap=None):
            if first <= path < first + count:
                raise RuntimeError(f"path {path} failed")
            return real(model, steps, theta, seed, first, count, tap)
        return simulate_chunk

    forks = _use_cpus(monkeypatch, 4)  # blocks 0, 512, 1024 and 1536
    monkeypatch.setattr(simulate, "_simulate_chunk", fail_at(1110))
    with pytest.raises(OSError, match=r"^the process simulating paths "
                                      r"1034\.\.1545 exited with status 1: "
                                      r"RuntimeError: path 1110 failed$"):
        simulate.simulate_paths(model, np.zeros((12, 1)), 2049, 3,
                                path_offset=10)
    assert len(forks) == 3
    monkeypatch.setattr(simulate, "_simulate_chunk", fail_at(110))
    with pytest.raises(RuntimeError, match="^path 110 failed$"):
        simulate.simulate_paths(model, np.zeros((12, 1)), 2049, 3,
                                path_offset=10)
    _no_child_left()


def test_oversized_ensemble_forks_nothing(monkeypatch):
    forks = _use_cpus(monkeypatch, 4)
    with pytest.raises(InvalidPathCount, match="fits in 4 GiB"):
        simulate.simulate_paths(path_major.layout_models(12)["n1"],
                                np.zeros((12, 1)), 10**9, 3)
    assert forks == []


def _n3_config():
    """The n = 3 layout model on 20 intervals, all of girsanov's support."""
    model = path_major.layout_models(20)["n3"]
    return ScenarioConfig(model.grid, model, UncertaintyBound([1.0, 0.5, 0.8]))


def test_girsanov_measures_the_same_on_any_cpu_set(monkeypatch):
    """check_girsanov's 98 blocks on 1 to 4 processes give every path the
    log density, and the check the measurements, of one process."""
    config = _n3_config()
    zetas, real = [], verification._girsanov_zetas

    def recorded(*args):
        zetas.append(real(*args))
        return zetas[-1]

    monkeypatch.setattr(verification, "_girsanov_zetas", recorded)
    want = None
    for cpus in CPU_SETS:
        with monkeypatch.context() as patch:
            forks = _use_cpus(patch, cpus)
            result = verification.check_girsanov(config, 2)
        assert len(forks) == cpus - 1
        assert zetas[-1].tobytes() == zetas[0].tobytes(), cpus
        got = json.dumps(verification.VerificationReport(
            2, (result,)).to_dict()["checks"][0]["measured"])
        want = want or got
        assert got == want, cpus
    assert json.loads(want)["mean_weight"] != 1.0
    _no_child_left()


def test_failed_girsanov_block_reaps_every_child(monkeypatch):
    """A block that fails in a child raises OSError naming the child's
    paths, the exit status and the exception; one that fails in the calling
    process raises its own exception.  Either way no child is left."""
    config = _n3_config()
    real = verification._signal_slabs

    def fail_at(path):
        def signal_slabs(model, seed, first, count):
            if first <= path < first + count:
                raise RuntimeError(f"path {path} failed")
            return real(model, seed, first, count)
        return signal_slabs

    forks = _use_cpus(monkeypatch, 4)  # 25 000 paths each
    monkeypatch.setattr(verification, "_signal_slabs", fail_at(60_000))
    with pytest.raises(OSError, match=r"^the process weighting paths "
                                      r"50000\.\.74999 exited with status 1: "
                                      r"RuntimeError: path 60000 failed$"):
        verification.check_girsanov(config, 2)
    assert len(forks) == 3
    monkeypatch.setattr(verification, "_signal_slabs", fail_at(100))
    with pytest.raises(RuntimeError, match="^path 100 failed$"):
        verification.check_girsanov(config, 2)
    _no_child_left()


def test_minimax_report_is_the_same_on_any_cpu_set(tmp_path, monkeypatch,
                                                   capsys):
    """minimax --paths 400 runs its two estimates on one process per CPU
    when no floor holds it back, and writes the same saddle_report.json
    bytes."""
    reports = []
    for cpus in CPU_SETS:
        out = tmp_path / str(cpus)
        with monkeypatch.context() as patch:
            forks = _use_cpus(patch, cpus)
            assert main(["minimax", "--paths", "400", "--seed", "2",
                         "--out", str(out)]) == 0
        assert len(forks) == cpus - 1
        reports.append((out / "saddle_report.json").read_bytes())
        capsys.readouterr()
    assert reports[1:] == reports[:-1]
    assert json.loads(reports[0])["monte_carlo"]["n_paths"] == 400


def test_bundled_verify_report_is_the_same_on_any_cpu_set(tmp_path,
                                                          monkeypatch, capsys):
    """The same report and stdout on 1 to 4 CPUs, and timings that count
    the paths of simulate_paths blocks run by forked children."""
    reports, outputs, counts = [], [], []
    for cpus in CPU_SETS:
        out = tmp_path / str(cpus)
        with monkeypatch.context() as patch:
            forks = _use_cpus(patch, cpus)
            assert main(["verify", "--seed", "0", "--out", str(out),
                         "--timings", str(out / "timings.json")]) == 0
        assert bool(forks) == (cpus > 1)
        reports.append((out / "verify_report.json").read_bytes())
        outputs.append(capsys.readouterr().out.replace(str(out), "OUT"))
        counts.append({c["name"]: (c["paths"], c["path_steps"]) for c in
                       json.loads((out / "timings.json").read_text())["checks"]})
    assert reports[1:] == reports[:-1]
    assert outputs[1:] == outputs[:-1]
    assert counts[1:] == counts[:-1]
    # 3000 paths twice, 1500 twice and a 3000-path Monte-Carlo run on 200
    # steps; 100 paths on the bundled 2000 steps.
    assert counts[0]["determinism"] == (12_000, 2_400_000)
    assert counts[0]["reduction_identity"] == (100, 200_000)


def test_verify_timings_count_the_paths_of_every_process(tmp_path,
                                                         monkeypatch, capsys):
    """The sidecar's paths and path-steps include those simulated by forked
    children, girsanov_martingale's blocks among them: they are the same on
    1 and 2 CPUs."""
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "grid": {"T": 2.0, "n_steps": 40},
        "model": {"n": 1, "m": 1, "F": -1.0, "f": 0.0, "G": 1.0, "g": 0.0,
                  "Q": 1.0, "R": 1.0, "x0": 0.0},
        "uncertainty": {"mu": 1.0}}))
    counts = []
    for cpus in (1, 2):
        sidecar = tmp_path / f"timings{cpus}.json"
        with monkeypatch.context() as patch:
            forks = _use_cpus(patch, cpus)
            main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                  "--timings", str(sidecar)])
        assert bool(forks) == (cpus > 1)
        counts.append([(c["name"], c["paths"], c["path_steps"])
                       for c in json.loads(sidecar.read_text())["checks"]])
    capsys.readouterr()
    assert counts[0] == counts[1]
    by_name = {name: (paths, steps) for name, paths, steps in counts[1]}
    assert by_name["matched_mse"] == (10_000, 400_000)
    assert by_name["error_oracle_agreement"] == (30_000, 600_000)
    assert by_name["girsanov_martingale"] == (100_000, 2_000_000)

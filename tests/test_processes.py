"""Monte-Carlo chunks on forked processes: the same bits on any usable CPU
set, path counts kept in the calling process, and no child left behind."""

import json
import os
import threading

import numpy as np
import pytest

from robustkb import minimax, simulate, solve_riccati
from robustkb.cli import main

import path_major

CPU_SETS = (1, 2, 3, 4)


def _use_cpus(monkeypatch, cpus: int) -> list:
    """cpus usable CPUs and no work floor, so that every chunk may get a
    process of its own; returns a list that gains an entry per fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(minimax, "_MIN_PATH_STEPS_PER_PROCESS", 1)
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


def test_small_runs_stay_in_the_calling_process(monkeypatch):
    """Below _MIN_PATH_STEPS_PER_PROCESS path-steps a process no child is
    forked, however many CPUs are usable."""
    model = path_major.layout_models(40)["n1"]
    riccati = solve_riccati(model)
    with monkeypatch.context() as patch:
        forks = _use_cpus(patch, 4)
        patch.setattr(minimax, "_MIN_PATH_STEPS_PER_PROCESS", 100_000)
        minimax._mse_mc_runs(model, riccati, _runs(model))  # 131 000 in all
        assert forks == []
        patch.setattr(minimax, "_MIN_PATH_STEPS_PER_PROCESS", 60_000)
        minimax._mse_mc_runs(model, riccati, _runs(model))
        assert len(forks) == 1


def test_processes_share_the_noise_threads(monkeypatch):
    """Two processes on 2 CPUs take one CPU each, so the calling process
    draws its long streams on its own thread; the share ends with the call,
    and the same chunk on one process starts threads again."""
    model = path_major.layout_models(1200)["n1"]  # 1200-value streams
    riccati = solve_riccati(model)
    runs = [(np.zeros((1200, 1)), np.zeros((1200, 1)), [1200], 256, seed)
            for seed in (1, 2)]
    starts, start = [], threading.Thread.start

    def counted(self):
        starts.append(self)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    forks = _use_cpus(monkeypatch, 2)
    split = minimax._mse_mc_runs(model, riccati, runs)
    assert len(forks) == 1 and starts == []
    assert simulate._share["cpus"] is None
    monkeypatch.setattr(minimax, "_MIN_PATH_STEPS_PER_PROCESS", 10**9)
    whole = minimax._mse_mc_runs(model, riccati, runs)
    assert len(forks) == 1 and len(starts) == 2 * 2 * 3  # 2 runs, 2 tags
    for a, b in zip(split, whole):
        assert a[0].tobytes() == b[0].tobytes()


def test_failed_chunk_reaps_every_child(monkeypatch):
    """A chunk that fails in a child raises OSError naming its run and
    chunk, the exit status and the child's exception; one that fails in
    the calling process raises its own exception.  Either way no child is
    left, running or unreaped, and no CPU share outlives the call."""
    model = path_major.layout_models(40)["n1"]
    riccati = solve_riccati(model)
    tilt = np.zeros((40, 1))
    runs = [(tilt, tilt, [40], 2048, seed) for seed in (1, 2)]  # 4 chunks
    real = minimax._MCRun.squared_errors

    def fail_on(seed, j0):
        def squared_errors(self, first):
            if (self.seed, first) == (seed, j0):
                raise RuntimeError(f"chunk of seed {seed} failed")
            return real(self, first)
        return squared_errors

    forks = _use_cpus(monkeypatch, 4)
    minimax._mse_mc_runs(model, riccati, runs)
    assert len(forks) == 3
    monkeypatch.setattr(minimax._MCRun, "squared_errors", fail_on(2, 1024))
    with pytest.raises(OSError, match=r"running Monte-Carlo run 1 chunk 1 "
                                      r"exited with status 1: RuntimeError: "
                                      r"chunk of seed 2 failed$"):
        minimax._mse_mc_runs(model, riccati, runs)
    monkeypatch.setattr(minimax._MCRun, "squared_errors", fail_on(1, 0))
    with pytest.raises(RuntimeError, match="chunk of seed 1 failed"):
        minimax._mse_mc_runs(model, riccati, runs)
    assert simulate._share["cpus"] is None
    _no_child_left()


def test_minimax_report_is_the_same_on_any_cpu_set(tmp_path, monkeypatch,
                                                   capsys):
    """minimax --paths 400 runs its two estimates on min(cpus, 2)
    processes and writes the same saddle_report.json bytes."""
    reports = []
    for cpus in CPU_SETS:
        out = tmp_path / str(cpus)
        with monkeypatch.context() as patch:
            forks = _use_cpus(patch, cpus)
            assert main(["minimax", "--paths", "400", "--seed", "2",
                         "--out", str(out)]) == 0
        assert len(forks) == min(cpus, 2) - 1
        reports.append((out / "saddle_report.json").read_bytes())
        capsys.readouterr()
    assert reports[1:] == reports[:-1]
    assert json.loads(reports[0])["monte_carlo"]["n_paths"] == 400


def test_bundled_verify_report_is_the_same_on_any_cpu_set(tmp_path,
                                                          monkeypatch, capsys):
    reports, outputs = [], []
    for cpus in CPU_SETS:
        out = tmp_path / str(cpus)
        with monkeypatch.context() as patch:
            forks = _use_cpus(patch, cpus)
            assert main(["verify", "--seed", "0", "--out", str(out)]) == 0
        assert bool(forks) == (cpus > 1)
        reports.append((out / "verify_report.json").read_bytes())
        outputs.append(capsys.readouterr().out.replace(str(out), "OUT"))
    assert reports[1:] == reports[:-1]
    assert outputs[1:] == outputs[:-1]


def test_verify_timings_count_the_paths_of_every_process(tmp_path,
                                                         monkeypatch, capsys):
    """The sidecar's paths and path-steps include those simulated by forked
    children: they are the same on 1 and 2 CPUs."""
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

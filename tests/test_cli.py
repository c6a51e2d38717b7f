"""Command-line behavior: exit codes, file outputs, determinism."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import robustkb as rk
from robustkb.cli import _read_obs, main
from robustkb.export import write_ensemble_csv


def _write_cfg(tmp_path, name="scenario.json", T=1.0, n_steps=100, mu=1.0,
               **model_overrides):
    doc = {
        "grid": {"T": T, "n_steps": n_steps},
        "model": {"n": 1, "m": 1, "F": -1.0, "f": 0.0, "G": 1.0, "g": 0.0,
                  "Q": 1.0, "R": 1.0, "x0": 0.0},
        "uncertainty": {"mu": mu},
    }
    doc["model"].update(model_overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _data_lines(path):
    lines = path.read_text().splitlines()
    return [ln for ln in lines if not ln.startswith("#")]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_ensemble_and_manifest(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", cfg, "--paths", "3", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out

    csv_path = out / "ensemble.csv"
    first = csv_path.read_text().splitlines()[0]
    assert first.startswith(f"# robustkb {rk.__version__} config_sha256=")
    assert first.endswith("seed=1")

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["paths"] == 3
    assert manifest["outputs"] == ["ensemble.csv"]

    rows = _data_lines(csv_path)
    assert rows[0] == "path,t,x_0,m_0,logw"
    assert len(rows) == 1 + 3 * 101
    assert rows[1].split(",")[0] == "0"


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", cfg, "--paths", "5", "--seed",
                     "3", "--out", str(out)]) == 0
        outs.append((out / "ensemble.csv").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_seed_changes_the_data(tmp_path):
    cfg = _write_cfg(tmp_path)
    data = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        assert main(["simulate", "--config", cfg, "--paths", "1", "--seed",
                     seed, "--out", str(out)]) == 0
        data.append(_data_lines(out / "ensemble.csv")[2])
    assert data[0] != data[1]


def test_simulate_accepts_policy_file(tmp_path):
    cfg = _write_cfg(tmp_path, n_steps=50)
    theta = tmp_path / "theta.csv"
    np.savetxt(theta, np.full((50, 1), 0.25), delimiter=",")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--paths", "1", "--theta",
                 f"@{theta}", "--out", str(out)]) == 0

    bad = tmp_path / "bad_theta.csv"
    np.savetxt(bad, np.zeros((7, 1)), delimiter=",")
    assert main(["simulate", "--config", cfg, "--paths", "1", "--theta",
                 f"@{bad}", "--out", str(out)]) == 2


def test_bad_policy_spec_is_a_usage_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--theta", "a,b",
                 "--out", out]) == 2
    assert "policy" in capsys.readouterr().err
    assert main(["simulate", "--config", cfg, "--theta", "0.1,0.2",
                 "--out", out]) == 2


# ---------------------------------------------------------------------------
# riccati


def test_riccati_default_config(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["riccati", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "final trace P(T)" in text
    assert "algebraic steady state" in text
    rows = _data_lines(out / "riccati.csv")
    assert rows[0] == "t,P_00"
    assert len(rows) == 1 + 2001


def test_riccati_long_horizon_reaches_steady_state(tmp_path):
    cfg = _write_cfg(tmp_path, T=20.0, n_steps=20000)
    out = tmp_path / "out"
    assert main(["riccati", "--config", cfg, "--out", str(out)]) == 0
    last = _data_lines(out / "riccati.csv")[-1]
    p_final = float(last.split(",")[1])
    assert abs(p_final - (math.sqrt(2.0) - 1.0)) <= 1e-6


def test_riccati_rejects_an_overflowing_s(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, G=1e200)
    assert main(["riccati", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "S contains non-finite entries" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# filter


def test_filter_on_simulated_path(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--paths", "1", "--seed", "2",
                 "--out", str(out)]) == 0
    rc = main(["filter", "--config", cfg, "--obs", str(out / "ensemble.csv"),
               "--theta-hat", "0.5", "--out", str(out)])
    assert rc == 0
    rows = _data_lines(out / "filter_run.csv")
    assert rows[0] == "t,xhat_0,dI_0,P_00"
    assert len(rows) == 1 + 101
    assert rows[-1].split(",")[2] == "nan"


def test_filter_accepts_plain_observation_csv(tmp_path):
    cfg = _write_cfg(tmp_path, n_steps=20)
    obs = tmp_path / "obs.csv"
    t = np.linspace(0.0, 1.0, 21)
    np.savetxt(obs, np.column_stack([t, np.sin(t)]), delimiter=",",
               header="t,m_0", comments="")
    out = tmp_path / "out"
    assert main(["filter", "--config", cfg, "--obs", str(obs),
                 "--out", str(out)]) == 0


def test_filter_rejects_multiple_paths(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--paths", "2", "--seed", "2",
                 "--out", str(out)]) == 0
    rc = main(["filter", "--config", cfg, "--obs", str(out / "ensemble.csv"),
               "--out", str(out)])
    assert rc == 2
    assert "multiple paths" in capsys.readouterr().err


def test_filter_rejects_wrong_grid(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, n_steps=20)
    obs = tmp_path / "obs.csv"
    np.savetxt(obs, np.zeros((11, 2)), delimiter=",", header="t,m_0",
               comments="")
    assert main(["filter", "--config", cfg, "--obs", str(obs),
                 "--out", str(tmp_path / "o")]) == 2
    assert "21 rows" in capsys.readouterr().err

    missing = tmp_path / "m.csv"
    np.savetxt(missing, np.zeros((21, 2)), delimiter=",", header="t,y",
               comments="")
    assert main(["filter", "--config", cfg, "--obs", str(missing),
                 "--out", str(tmp_path / "o")]) == 2


def test_filter_refuses_an_empty_observation_file(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, n_steps=20)
    obs = tmp_path / "obs.csv"
    obs.write_text("# comment only\n\n")
    assert main(["filter", "--config", cfg, "--obs", str(obs),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"{obs}: empty observation file" in capsys.readouterr().err


def test_read_obs_keeps_the_bits_of_a_one_path_ensemble(default_cfg,
                                                         tmp_path):
    model = default_cfg.model
    ens = rk.simulate_paths(model, rk.constant_policy(model, 0.5), 1, 4,
                            path_offset=7)
    path = tmp_path / "one.csv"
    write_ensemble_csv(path, ens, comment="one path")
    obs = _read_obs(str(path), default_cfg)
    assert obs.dtype == np.float64
    assert np.array_equal(obs, ens.m[0])


def test_filter_refuses_an_ensemble_without_reading_it_all(default_cfg,
                                                           tmp_path):
    """A 200-path ensemble is refused at its second path: the traced peak
    stays near one path's rows, not the whole file's."""
    model = default_cfg.model
    ens = rk.simulate_paths(model, rk.zero_policy(model), 200, 3)
    path = tmp_path / "ensemble.csv"
    write_ensemble_csv(path, ens)
    tracemalloc.start()
    try:
        with pytest.raises(rk.ConfigError, match="multiple paths"):
            _read_obs(str(path), default_cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


@pytest.mark.parametrize("body, message", [
    ("".join(f"{k},0.0\n" for k in range(30)), "expected 21 rows on the "
                                                 "model grid, got 30"),
    ("0,0.0\n1,0.0,2.0\n", "data row 2 has 3 cells, header has 2 columns"),
    ("0,0.0\n1,zero\n", "data row 2: could not convert"),
    ("", "expected 21 rows on the model grid, got 0"),
])
def test_filter_names_bad_observation_rows(tmp_path, capsys, body, message):
    cfg = _write_cfg(tmp_path, n_steps=20)
    obs = tmp_path / "obs.csv"
    obs.write_text("t,m_0\n" + body)
    assert main(["filter", "--config", cfg, "--obs", str(obs),
                 "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# decompose


def test_decompose_with_zero_drift_has_zero_gap(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["decompose", "--config", cfg, "--theta", "0",
                 "--out", str(out)]) == 0
    rows = _data_lines(out / "decompose.csv")
    header = rows[0].split(",")
    assert header == ["t", "classical", "correction_ode", "correction_printed",
                      "direct_robust", "gap_ode", "gap_printed"]
    for line in rows[1:]:
        cells = line.split(",")
        assert float(cells[2]) == 0.0
        assert float(cells[5]) == 0.0 and float(cells[6]) == 0.0
        assert cells[1] == cells[4]


def test_decompose_defaults_to_the_bound_radius(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, mu=0.5)
    out = tmp_path / "out"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "sup |gap_ode|" in text
    rows = _data_lines(out / "decompose.csv")
    last = rows[-1].split(",")
    # correction integrates a 0.5 drift: clearly nonzero, same sign columns
    assert float(last[2]) > 0.01
    gap = abs(float(last[5]))
    assert 0.0 < gap <= 10.0 * 0.01


# ---------------------------------------------------------------------------
# minimax


def test_minimax_report_and_profile(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["minimax", "--config", cfg, "--t", "1.0",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "saddle_report.json").read_text())
    assert payload["t"] == 1.0
    assert "monte_carlo" not in payload
    assert payload["seed"] == 0
    assert len(payload["config_sha256"]) == 64

    model = rk.load_scenario(cfg).model
    p_t = rk.solve_riccati(model).at(1.0)[0, 0]
    assert abs(payload["lower_value"] - p_t) <= 1e-6
    assert payload["upper_value"] >= payload["lower_value"] - 1e-9
    assert abs(payload["theta_hat_star"][0]) <= 0.01

    rows = _data_lines(out / "g_profile.csv")
    assert rows[0] == "component,theta_hat,g"
    assert len(rows) == 1 + 11
    gs = np.array([float(r.split(",")[2]) for r in rows[1:]])
    assert np.all(gs >= payload["lower_value"] - 1e-9)


def test_minimax_monte_carlo_block(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["minimax", "--config", cfg, "--t", "1.0", "--paths", "400",
                 "--seed", "6", "--out", str(out)]) == 0
    payload = json.loads((out / "saddle_report.json").read_text())
    mc = payload["monte_carlo"]
    assert mc["n_paths"] == 400
    for side, anchor in (("upper", payload["upper_value"]),
                         ("lower", payload["lower_value"])):
        est, se = mc[side]["estimate"], mc[side]["stderr"]
        assert se > 0.0
        assert abs(est - anchor) <= 4.0 * se + 0.05


def _refuse(token):
    raise ValueError(f"{token} is not a JSON token")


def test_one_path_minimax_report_is_strict_json(tmp_path):
    """One Monte-Carlo path has no standard error: the report writes it as
    null, which a strict parser reads, and not as NaN."""
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["minimax", "--config", cfg, "--t", "1.0", "--paths", "1",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "saddle_report.json").read_text(),
                         parse_constant=_refuse)
    for side in ("upper", "lower"):
        assert payload["monte_carlo"][side]["stderr"] is None
        assert math.isfinite(payload["monte_carlo"][side]["estimate"])


def test_minimax_refuses_negative_paths(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["minimax", "--paths", "-5", "--out", str(out)]) == 2
    assert "error: --paths must be >= 0, got -5" in capsys.readouterr().err
    assert not (out / "saddle_report.json").exists()


def test_minimax_defaults_to_horizon_when_one_is_off_grid(tmp_path):
    cfg = _write_cfg(tmp_path, T=0.75, n_steps=75)
    out = tmp_path / "out"
    assert main(["minimax", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "saddle_report.json").read_text())
    assert payload["t"] == 0.75


def test_minimax_rejects_an_oversized_box(tmp_path, capsys):
    n = 21
    cfg = _write_cfg(tmp_path, T=0.1, n_steps=1, mu=[1.0] * n, n=n,
                     F=(-np.eye(n)).tolist(), f=[0.0] * n, G=np.eye(1, n).tolist(),
                     Q=np.eye(n).tolist(), x0=[0.0] * n)
    out = tmp_path / "out"
    rc = main(["minimax", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "capped at 20" in capsys.readouterr().err
    assert not (out / "saddle_report.json").exists()


# ---------------------------------------------------------------------------
# verify


def test_verify_fails_on_a_coarse_grid(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, T=2.0, n_steps=4)
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL" in captured.out
    assert "verification FAILED" in captured.err
    payload = json.loads((out / "verify_report.json").read_text())
    assert payload["all_passed"] is False
    names = [c["name"] for c in payload["checks"]]
    assert "riccati_transient" in names or "riccati_steady_state" in names


def test_verify_reports_whiteness_not_applicable_on_one_interval(tmp_path,
                                                                 capsys):
    # One interval leaves no innovation lag to correlate; every check still
    # reports, and the run ends with a report rather than a traceback.
    cfg = _write_cfg(tmp_path, T=0.01, n_steps=1)
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc in (0, 1)
    assert "Traceback" not in captured.err
    payload = json.loads((out / "verify_report.json").read_text())
    assert len(payload["checks"]) == 10
    white = next(c for c in payload["checks"]
                 if c["name"] == "innovation_whiteness")
    assert white["applicable"] is False and white["passed"] is False
    assert white["detail"] == "needs at least 2 intervals"
    line = next(ln for ln in captured.out.splitlines()
                if ln.startswith("innovation_whiteness"))
    assert line.split() == ["innovation_whiteness", "SKIP", "needs", "at",
                            "least", "2", "intervals"]


def test_verify_timings_sidecar_leaves_the_report_alone(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, T=2.0, n_steps=4)
    plain, timed = tmp_path / "plain", tmp_path / "timed"
    sidecar = tmp_path / "timings.json"
    assert main(["verify", "--config", cfg, "--out", str(plain)]) == 1
    out_plain = capsys.readouterr().out
    assert main(["verify", "--config", cfg, "--out", str(timed),
                 "--timings", str(sidecar)]) == 1
    out_timed = capsys.readouterr().out
    assert out_timed.replace(str(timed), str(plain)) == out_plain
    report = (plain / "verify_report.json").read_bytes()
    assert (timed / "verify_report.json").read_bytes() == report
    names = [c["name"] for c in json.loads(report)["checks"]]
    checks = json.loads(sidecar.read_text())["checks"]
    assert [c["name"] for c in checks] == names
    assert all(c["wall_s"] >= 0.0 for c in checks)
    by_name = {c["name"]: c for c in checks}
    # matched_mse runs 10_000 paths over all 4 steps; the Riccati check none.
    assert (by_name["matched_mse"]["paths"], by_name["matched_mse"]["path_steps"]) \
        == (10_000, 40_000)
    assert by_name["riccati_steady_state"]["paths"] == 0
    # Running maxima of this process and of its reaped children, in MiB.
    for key in ("max_rss_mb", "children_max_rss_mb"):
        values = [c[key] for c in checks]
        assert values == sorted(values), key
    assert checks[0]["max_rss_mb"] > 0.0


# Touches about 300 MB, then execs the CLI on sys.argv[1:] in a fresh
# interpreter, which Linux lets keep the 300 MB peak in its ru_maxrss.
_CLI_AFTER_300_MB = """
import os, sys
held = b"x" * (300 << 20)
os.execv(sys.executable, [sys.executable, "-c",
         "import sys; from robustkb.cli import main; sys.exit(main(sys.argv[1:]))",
         *sys.argv[1:]])
"""


def test_verify_timings_report_the_verify_process_peak(tmp_path):
    # verify exec'd from a process that held 300 MB reports its own peak,
    # far below that, not its launcher's.
    cfg = _write_cfg(tmp_path, T=2.0, n_steps=4)
    sidecar = tmp_path / "timings.json"
    src = os.path.dirname(os.path.dirname(rk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_AFTER_300_MB, "verify", "--config", cfg,
         "--out", str(tmp_path / "out"), "--timings", str(sidecar)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1, proc.stderr
    peaks = [c["max_rss_mb"] for c in json.loads(sidecar.read_text())["checks"]]
    assert len(peaks) == 10 and 0.0 < max(peaks) < 300.0, peaks


# ---------------------------------------------------------------------------
# usage errors


def test_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()

    out = str(tmp_path / "out")
    assert main(["riccati", "--seed", "-1", "--out", out]) == 2
    assert main(["riccati", "--threads", "0", "--out", out]) == 2
    rc = main(["riccati", "--config", str(tmp_path / "nope.json"),
               "--out", out])
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err
    assert main(["simulate", "--paths", "0", "--out", out]) == 2
    assert "n_paths must be >= 1" in capsys.readouterr().err


def _bad_input(tmp_path, case):
    """argv and the name of the bad file for one malformed-input case."""
    cfg = _write_cfg(tmp_path, n_steps=4)
    if case == "oversized-scenario":
        # 10**15 intervals: without the size check, NumPy refuses the 7 PiB
        # time grid at once.
        return ["riccati", "--config", _write_cfg(tmp_path, "huge.json",
                                                  n_steps=10**15)], "huge.json"
    if case == "scenario-huge-integer":
        return ["riccati", "--config", _write_cfg(tmp_path, "huge.json",
                                                  F=10**400)], "huge.json"
    if case == "scenario-invalid-utf8":
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"grid": "\xff"}')
        return ["riccati", "--config", str(path)], "latin.json"
    if case == "obs-invalid-utf8":
        path = tmp_path / "obs.csv"
        path.write_bytes(b"t,m_0\n0,0\n\xff,1\n")
        return ["filter", "--config", cfg, "--obs", str(path)], "obs.csv"
    path = tmp_path / "theta.csv"
    path.write_bytes(b"0.1\n0.2\na\n0.4\n" if case == "theta-non-numeric"
                     else b"0.1\n0.2\n\xff\n0.4\n")
    return ["simulate", "--config", cfg, "--theta", f"@{path}"], "theta.csv"


@pytest.mark.parametrize("case", ["oversized-scenario", "scenario-huge-integer",
                                  "scenario-invalid-utf8", "theta-non-numeric",
                                  "theta-invalid-utf8", "obs-invalid-utf8"])
def test_bad_input_files_are_config_errors(tmp_path, capsys, case):
    argv, name = _bad_input(tmp_path, case)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["riccati"], ["simulate", "--paths", "1"],
                                  ["minimax", "--t", "1.0"]])
def test_config_file_is_opened_once(tmp_path, monkeypatch, argv):
    cfg = _write_cfg(tmp_path, n_steps=20)
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert opened.count(cfg) == 1

"""Command-line front end: scenario ingestion, experiment orchestration,
CSV/JSON emission, and the one-shot verification suite.

Every command is deterministic given (config, seed); output files carry a
header comment with the config hash and seed, and reruns are byte-identical.
Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from importlib import resources

import numpy as np

from . import __version__
from .config import ScenarioConfig, _read_bytes, scenario_from_bytes
from .decomposition import correction_path
from .errors import ConfigError, RobustKBError
from .export import (
    filter_run_rows,
    riccati_rows,
    vector_labels,
    write_csv,
    write_ensemble_csv,
    write_json,
)
from .filtering import run_robust_filter
from .minimax import _mse_mc_at, g_profile, saddle_report
from .model import DriftPolicy, constant_policy, zero_policy
from .ode import solve_riccati, steady_state_scalar
from .simulate import simulate_paths
from .verification import _probe_time, _scalar_constants, run_verification

_DEFAULT_SCENARIO = "default_scenario.json"


def _load_config(args) -> tuple[ScenarioConfig, str]:
    """Scenario plus the sha256 of the config bytes it was parsed from
    (bundled default if no --config was given)."""
    if args.config is None:
        source = _DEFAULT_SCENARIO
        blob = (resources.files("robustkb") / "data" / source).read_bytes()
    else:
        source = args.config
        blob = _read_bytes(source)
    return scenario_from_bytes(blob, source), hashlib.sha256(blob).hexdigest()


def _header(args, digest: str) -> str:
    return f"robustkb {__version__} config_sha256={digest} seed={args.seed}"


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _parse_policy(raw: str | None, cfg: ScenarioConfig, default: np.ndarray):
    """Constant vector ("0.5" or "0.5,-0.2") or per-interval CSV ("@file")."""
    model = cfg.model
    if raw is None:
        return DriftPolicy(np.tile(default, (model.n_steps, 1))), "default"
    if raw.startswith("@"):
        path = raw[1:]
        try:
            arr = np.loadtxt(path, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read policy file {path}: {exc}") from exc
        if arr.shape == (model.n_steps, model.n):
            return DriftPolicy(arr), raw
        raise ConfigError(
            f"policy file {path}: expected shape ({model.n_steps}, {model.n}), "
            f"got {arr.shape}"
        )
    try:
        values = np.array([float(tok) for tok in raw.split(",")])
    except ValueError as exc:
        raise ConfigError(f"bad policy value {raw!r}: {exc}") from exc
    if values.size == 1:
        values = np.full(model.n, values[0])
    if values.size != model.n:
        raise ConfigError(
            f"policy value {raw!r}: expected {model.n} components, got {values.size}"
        )
    return constant_policy(model, values), raw


def _read_obs(path: str, cfg: ScenarioConfig) -> np.ndarray:
    """Observation path from a CSV with a t column and m_* columns.

    Accepts the simulate command's long-format output as long as it holds a
    single path (a 'path' column with one distinct value).  Rows are parsed
    one at a time and only the first n_steps + 1 are kept, so a second path
    is refused at its first row and a long file is only counted.
    """
    model = cfg.model
    n_rows = model.n_steps + 1
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = (ln.strip() for ln in fh
                     if ln.strip() and not ln.startswith("#"))
            first_line = next(lines, None)
            if first_line is None:
                raise ConfigError(f"{path}: empty observation file")
            header = [tok.strip() for tok in first_line.split(",")]
            wanted = vector_labels("m", model.m)
            missing = [c for c in wanted if c not in header]
            if missing:
                raise ConfigError(f"{path}: missing columns {missing}")
            cols = [header.index(c) for c in wanted]
            id_col = header.index("path") if "path" in header else None
            obs, count = [], 0
            for count, ln in enumerate(lines, 1):
                if count > n_rows and id_col is None:
                    continue
                cells = ln.split(",")
                if len(cells) != len(header):
                    raise ConfigError(
                        f"{path}: data row {count} has {len(cells)} cells, "
                        f"header has {len(header)} columns")
                try:
                    if count <= n_rows:
                        obs.append([float(cells[c]) for c in cols])
                    path_id = None if id_col is None else float(cells[id_col])
                except ValueError as exc:
                    raise ConfigError(f"{path}: data row {count}: {exc}") from exc
                if count == 1:
                    first_id = path_id
                elif path_id != first_id and not (math.isnan(path_id)
                                                  and math.isnan(first_id)):
                    raise ConfigError(
                        f"{path}: contains multiple paths; filter needs one")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if count != n_rows:
        raise ConfigError(
            f"{path}: expected {n_rows} rows on the model grid, got {count}")
    return np.array(obs)


def cmd_simulate(args) -> int:
    cfg, digest = _load_config(args)
    policy, theta_text = _parse_policy(args.theta, cfg, np.zeros(cfg.model.n))
    ens = simulate_paths(cfg.model, policy, args.paths, args.seed)
    csv_path = _out_path(args, "ensemble.csv")
    write_ensemble_csv(csv_path, ens, comment=_header(args, digest))
    manifest = {
        "command": "simulate",
        "version": __version__,
        "seed": args.seed,
        "paths": args.paths,
        "theta": theta_text,
        "config_sha256": digest,
        "outputs": ["ensemble.csv"],
    }
    write_json(_out_path(args, "manifest.json"), manifest)
    print(f"wrote {csv_path} ({ens.n_paths} paths)")
    return 0


def cmd_riccati(args) -> int:
    cfg, digest = _load_config(args)
    path = solve_riccati(cfg.model)
    cols, rows = riccati_rows(path)
    csv_path = _out_path(args, "riccati.csv")
    write_csv(csv_path, cols, rows, comment=_header(args, digest))
    final_trace = float(np.trace(path.P[-1]))
    print(f"wrote {csv_path}")
    print(f"final trace P(T) = {final_trace!r}")
    consts = _scalar_constants(cfg.model)
    if consts is not None and consts[1] != 0.0:
        root = steady_state_scalar(*consts)
        print(f"algebraic steady state = {root!r} "
              f"(gap {abs(final_trace - root):.3e})")
    return 0


def cmd_filter(args) -> int:
    cfg, digest = _load_config(args)
    obs = _read_obs(args.obs, cfg)
    policy, _ = _parse_policy(args.theta_hat, cfg, np.zeros(cfg.model.n))
    riccati = solve_riccati(cfg.model)
    run = run_robust_filter(cfg.model, riccati, policy, obs)
    cols, rows = filter_run_rows(run)
    csv_path = _out_path(args, "filter_run.csv")
    write_csv(csv_path, cols, rows, comment=_header(args, digest))
    print(f"wrote {csv_path}")
    return 0


def cmd_decompose(args) -> int:
    cfg, digest = _load_config(args)
    model = cfg.model
    policy, _ = _parse_policy(args.theta, cfg, np.asarray(cfg.bound.mu))
    riccati = solve_riccati(model)
    ens = simulate_paths(model, zero_policy(model), 1, args.seed)
    obs = ens.m[0]
    classical = run_robust_filter(model, riccati, zero_policy(model), obs)
    robust = run_robust_filter(model, riccati, policy, obs)
    corr_ode = correction_path(model, riccati, policy, kernel="ode")
    corr_printed = correction_path(model, riccati, policy, kernel="printed")
    gap_ode = robust.xhat - (classical.xhat + corr_ode)
    gap_printed = robust.xhat - (classical.xhat + corr_printed)

    n = model.n
    lab = (lambda p: [p]) if n == 1 else (lambda p: vector_labels(p, n))
    cols = (["t"] + lab("classical") + lab("correction_ode")
            + lab("correction_printed") + lab("direct_robust")
            + lab("gap_ode") + lab("gap_printed"))
    rows = np.column_stack([model.grid.times, classical.xhat, corr_ode,
                            corr_printed, robust.xhat, gap_ode, gap_printed])
    csv_path = _out_path(args, "decompose.csv")
    write_csv(csv_path, cols, rows, comment=_header(args, digest))
    print(f"wrote {csv_path}")
    print(f"sup |gap_ode| = {float(np.max(np.abs(gap_ode))):.6e}")
    print(f"sup |gap_printed| = {float(np.max(np.abs(gap_printed))):.6e}")
    return 0


def cmd_minimax(args) -> int:
    cfg, digest = _load_config(args)
    model, bound = cfg.model, cfg.bound
    t = _probe_time(model) if args.t is None else args.t
    riccati = solve_riccati(model)
    report = saddle_report(model, bound, t, adversary=args.adversary_class,
                           riccati=riccati)
    payload = report.to_dict()
    payload["config_sha256"] = digest
    payload["seed"] = args.seed
    if args.paths > 0:
        zero = zero_policy(model)
        mc_upper, mc_lower = _mse_mc_at(model, [
            (report.theta_star, report.theta_hat_star, t, args.paths,
             args.seed),
            (zero, zero, t, args.paths, args.seed + 1)], riccati)
        payload["monte_carlo"] = {
            "n_paths": args.paths,
            "upper": {"estimate": mc_upper[0], "stderr": mc_upper[1]},
            "lower": {"estimate": mc_lower[0], "stderr": mc_lower[1]},
        }
    json_path = _out_path(args, "saddle_report.json")
    write_json(json_path, payload)

    prof = g_profile(model, bound, t, center=report.theta_hat_star.theta[0],
                     riccati=riccati)
    rows = []
    for comp, values, gs in prof:
        for v, gval in zip(values, gs):
            rows.append((comp, v, gval))
    csv_path = _out_path(args, "g_profile.csv")
    write_csv(csv_path, ["component", "theta_hat", "g"], rows,
              comment=_header(args, digest))
    print(f"wrote {json_path}")
    print(f"wrote {csv_path}")
    print(f"lower = {report.lower_value!r}, upper = {report.upper_value!r}, "
          f"gap = {report.duality_gap!r}")
    return 0


def cmd_verify(args) -> int:
    cfg, digest = _load_config(args)
    timings = [] if args.timings else None
    report = run_verification(cfg, args.seed, timings=timings)
    payload = report.to_dict()
    payload["config_sha256"] = digest
    json_path = _out_path(args, "verify_report.json")
    write_json(json_path, payload)
    if timings is not None:
        write_json(args.timings, {"seed": args.seed, "config_sha256": digest,
                                  "checks": timings})
    width = max(len(r.name) for r in report.results)
    for r in report.results:
        status = "PASS" if r.passed else ("SKIP" if not r.applicable else "FAIL")
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    print(f"wrote {json_path}")
    if report.all_passed:
        print("all checks passed")
        return 0
    print("verification FAILED", file=sys.stderr)
    return 1


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None,
                     help="scenario JSON (defaults to the bundled scenario)")
    sub.add_argument("--seed", type=int, default=0, help="master RNG seed")
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility and ignored; "
                          "outputs never depend on it")
    sub.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustkb",
        description="Robust Kalman-Bucy filtering under bounded drift "
                    "uncertainty: simulation, filters, decomposition, and a "
                    "worst-case MSE solver.",
    )
    parser.add_argument("--version", action="version",
                        version=f"robustkb {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="simulate a path ensemble")
    _common(p)
    p.add_argument("--paths", type=int, default=100)
    p.add_argument("--theta", default=None,
                   help="drift tilt: constant vector 'a,b,...' or @file.csv")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("riccati", help="solve the covariance equation")
    _common(p)
    p.set_defaults(func=cmd_riccati)

    p = subs.add_parser("filter", help="filter an observation path")
    _common(p)
    p.add_argument("--obs", required=True, help="observation CSV (t, m_*)")
    p.add_argument("--theta-hat", default=None,
                   help="filter drift: constant vector or @file.csv")
    p.set_defaults(func=cmd_filter)

    p = subs.add_parser("decompose",
                        help="audit classical + correction against the "
                             "robust filter")
    _common(p)
    p.add_argument("--theta", default=None,
                   help="drift policy (defaults to the uncertainty radius)")
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("minimax", help="worst-case MSE saddle report")
    _common(p)
    p.add_argument("--t", type=float, default=None,
                   help="evaluation time (default 1.0 if on the grid, else T)")
    p.add_argument("--class", dest="adversary_class", default="constant",
                   choices=["constant", "bang_bang"])
    p.add_argument("--paths", type=int, default=0,
                   help="Monte-Carlo cross-check sample size (0 = skip)")
    p.set_defaults(func=cmd_minimax)

    p = subs.add_parser("verify", help="run the full verification suite")
    _common(p)
    p.add_argument("--timings", default=None, metavar="FILE",
                   help="also write per-check wall time, paths and "
                        "path-steps to this JSON file")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (RobustKBError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

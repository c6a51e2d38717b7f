"""Spans around robustkb calls, recorded from the benchmark's side only.

``Tracer.install`` replaces, in every robustkb module namespace, each public
function, ``TransitionCache.trajectory``, the entries of
``verification.ALL_CHECKS`` and the few private names listed in
``CROSS_LAYER`` by a wrapper that records a span: name, layer, workload,
start, end, parent span, and the work the call was asked to do (paths,
path-steps, ODE steps, CSV cells, bytes written).  The package's files are
not changed, and ``uninstall`` puts the original names back.

Spans are kept in memory and written out by the caller at the end.  Only the
main thread records: worker threads of the program's pools run inside a
main-thread span and their time is part of it.

``layer_metrics`` turns the spans into the per-layer metrics, each measured
on the workload whose end-to-end time it should move.  ``probe_metrics``
times a few calls at fixed sizes to split layer time where spans cannot.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import threading
import time

import numpy as np

LAYERS = ("model", "config", "ode", "simulate", "filtering", "decomposition",
          "minimax", "verification", "export", "cli")

# Private functions that the verification checks call past the public API,
# wrapped under the names verification uses; they run on the main thread
# there.  A name the module no longer has is skipped.
CROSS_LAYER = {
    "verification": ("_mse_mc_multi", "_filter_batch"),
}

VERIFY, MINIMAX, MOMENTS, CLI = "verify-exact", "minimax-n3", "moments-n3", "cli-scalar"
CLI_COMMANDS = ("simulate", "riccati", "filter", "decompose", "minimax")
CHECKS = ("riccati_steady_state", "reduction_identity", "decomposition_identity",
          "printed_kernel", "saddle", "determinism")


def _tilted(theta) -> bool:
    return bool(np.any(np.asarray(getattr(theta, "theta", theta)) != 0.0))


def simulate_bytes_per_path_step(n: int, m: int, tilted: bool) -> int:
    """Computed, not measured: float64 bytes simulate_paths allocates per
    path-step.  Per chunk: the noise draws xi and eta, the scaled increments
    dw_tilt and dv, the x and obs paths, and dw; with an active tilt also the
    gathered dw and the standardized increments of the log-density.  Then
    the returned x, m, dw and dv."""
    chunk = 2 * (n + m) + (n + m) + n + (2 * n if tilted else 0)
    return 8 * (chunk + 2 * (n + m))


def _t_index(a) -> int:
    return a["model"].grid.index_of(a["t"])


# Work each call is asked to do, from its bound arguments before it runs.
SIZERS = {
    "simulate.simulate_paths": lambda a: {
        "paths": a["n_paths"],
        "path_steps": a["n_paths"] * a["model"].n_steps,
        "computed_bytes": a["n_paths"] * a["model"].n_steps * simulate_bytes_per_path_step(
            a["model"].n, a["model"].m, _tilted(a["theta"])),
    },
    "minimax._mse_mc_multi": lambda a: {
        "paths": a["n_paths"], "path_steps": a["n_paths"] * int(max(a["t_indices"]))},
    "filtering.run_robust_filter": lambda a: {"steps": a["model"].n_steps},
    "ode.solve_riccati": lambda a: {"ode_steps": a["model"].n_steps, "n": a["model"].n},
    "ode.solve_error_stats": lambda a: {"ode_steps": a["model"].n_steps},
    # Every start node moments-n3 asks for is new to its cache, so each call
    # integrates to the horizon.
    "ode.TransitionCache.trajectory": lambda a: {
        "ode_steps": a["self"].model.n_steps - a["s_index"]},
    "decomposition.correction_path": lambda a: {
        "ode_steps": a["model"].n_steps, "kernel": a["kernel"]},
    "decomposition.correction_kernel": lambda a: {"ode_steps": _t_index(a)},
    "decomposition.correction_term": lambda a: {"ode_steps": _t_index(a)},
    "export.write_csv": lambda a: {"cells": len(a["rows"]) * len(a["columns"])},
}

# Work known only after the call returns.
AFTER = {
    "export.write_csv": lambda a: {"bytes": os.path.getsize(a["path"])},
    "export.write_json": lambda a: {"bytes": os.path.getsize(a["path"])},
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._workload: str | None = None
        self._main = threading.main_thread()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, key: str, layer: str):
        sizer, after = SIZERS.get(key), AFTER.get(key)
        sig = inspect.signature(fn) if (sizer or after) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._workload is None or threading.current_thread() is not self._main:
                return fn(*args, **kwargs)
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            span = {"name": key, "layer": layer, "workload": self._workload,
                    "parent": self._stack[-1] if self._stack else None,
                    "work": sizer(bound.arguments) if sizer else {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start_ns"] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self._stack.pop()
                if after:
                    span["work"].update(after(bound.arguments))

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        import robustkb

        modules = {layer: importlib.import_module(f"robustkb.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}", layer)
        for mod in (robustkb, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])
        for caller, names in CROSS_LAYER.items():
            for name in names:
                fn = getattr(modules[caller], name, None)
                if fn is None:
                    continue
                layer = fn.__module__.rsplit(".", 1)[1]
                self._patch(modules[caller], name, self._wrap(fn, f"{layer}.{name}", layer))
        verification = modules["verification"]
        self._patch(verification, "ALL_CHECKS",
                    tuple(wrappers[chk] for chk in verification.ALL_CHECKS))
        cache = modules["ode"].TransitionCache
        self._patch(cache, "trajectory",
                    self._wrap(cache.trajectory, "ode.TransitionCache.trajectory", "ode"))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, value = self._patched.pop()
            setattr(owner, name, value)

    @contextlib.contextmanager
    def workload(self, name: str):
        """Record spans under one workload, inside a root span of layer bench."""
        self._workload = name
        root = {"name": f"bench.{name}", "layer": "bench", "workload": name,
                "parent": None, "work": {}}
        self._stack.append(len(self.spans))
        self.spans.append(root)
        root["start_ns"] = time.perf_counter_ns()
        try:
            yield root
        finally:
            root["end_ns"] = time.perf_counter_ns()
            self._stack.pop()
            self._workload = None


def self_times(spans: list[dict]) -> list[int]:
    """Each span's duration minus the time its child spans cover (ns)."""
    child = [0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child[sp["parent"]] += sp["end_ns"] - sp["start_ns"]
    return [sp["end_ns"] - sp["start_ns"] - c for sp, c in zip(spans, child)]


def layer_self_seconds(spans: list[dict]) -> dict:
    """Self time per workload and layer, in seconds."""
    out: dict = {}
    for sp, st in zip(spans, self_times(spans)):
        per = out.setdefault(sp["workload"], {})
        per[sp["layer"]] = per.get(sp["layer"], 0.0) + st * 1e-9
    return out


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics from the spans of one traced pass over all workloads."""

    def pick(workload, name, **work):
        return [sp for sp in spans if sp["workload"] == workload and sp["name"] == name
                and all(sp["work"].get(k) == v for k, v in work.items())]

    def busy_ns(sel):
        return sum(sp["end_ns"] - sp["start_ns"] for sp in sel)

    def total(sel, field):
        return sum(sp["work"][field] for sp in sel)

    # A call the workload no longer makes reads as 0 rather than failing.
    def ratio(num, den):
        return num / den if den else 0.0

    def per_unit_ns(sel, field):
        return ratio(busy_ns(sel), total(sel, field))

    def mean_ms(sel):
        return ratio(busy_ns(sel), len(sel)) * 1e-6

    sim = pick(VERIFY, "simulate.simulate_paths")
    mc = pick(VERIFY, "minimax._mse_mc_multi")
    sims = sim + mc
    ode_sel = [sp for sp in spans if sp["workload"] == MOMENTS and "ode_steps" in sp["work"]]
    loads = [sp for sp in spans if sp["workload"] == CLI and sp["layer"] == "config"
             and spans[sp["parent"]]["layer"] != "config"]
    checks = [sp for sp in spans if sp["workload"] == VERIFY
              and sp["name"].startswith("verification.check_")]
    ms = {
        "simulate.ns_per_path_step": per_unit_ns(sim, "path_steps"),
        "simulate.path_steps": total(sims, "path_steps"),
        "simulate.paths": total(sims, "paths"),
        "simulate.computed_bytes": total(sim, "computed_bytes"),
        "simulate.computed_bytes_per_path_step":
            ratio(total(sim, "computed_bytes"), total(sim, "path_steps")),
        "filtering.run_robust_filter.ns_per_step":
            per_unit_ns(pick(VERIFY, "filtering.run_robust_filter"), "steps"),
        "ode.solve_riccati.n1.ns_per_step":
            per_unit_ns(pick(VERIFY, "ode.solve_riccati", n=1), "ode_steps"),
        "ode.solve_riccati.n3.ns_per_step":
            per_unit_ns(pick(MOMENTS, "ode.solve_riccati", n=3), "ode_steps"),
        "ode.solve_error_stats.ns_per_step":
            per_unit_ns(pick(MOMENTS, "ode.solve_error_stats"), "ode_steps"),
        "ode.transition.ns_per_step":
            per_unit_ns(pick(MOMENTS, "ode.TransitionCache.trajectory"), "ode_steps"),
        "ode.steps": total(ode_sel, "ode_steps"),
        "decomposition.correction_path.ode.ns_per_step":
            per_unit_ns(pick(MOMENTS, "decomposition.correction_path", kernel="ode"),
                        "ode_steps"),
        "decomposition.correction_path.printed.ns_per_step":
            per_unit_ns(pick(MOMENTS, "decomposition.correction_path", kernel="printed"),
                        "ode_steps"),
        "decomposition.correction_kernel.ns_per_step":
            per_unit_ns(pick(MOMENTS, "decomposition.correction_kernel"), "ode_steps"),
        "decomposition.correction_term_ms":
            busy_ns(pick(MOMENTS, "decomposition.correction_term")) * 1e-6,
        "minimax.saddle_report_s": busy_ns(pick(MINIMAX, "minimax.saddle_report")) * 1e-9,
        "minimax.g_profile_s": busy_ns(pick(MINIMAX, "minimax.g_profile")) * 1e-9,
        "minimax.worst_case_mse_ms": busy_ns(pick(MINIMAX, "minimax.worst_case_mse")) * 1e-6,
        "minimax.mse_exact_ms": busy_ns(pick(MINIMAX, "minimax.mse_exact")) * 1e-6,
        "export.write_csv.ns_per_cell": per_unit_ns(pick(CLI, "export.write_csv"), "cells"),
        "export.csv_cells": total(pick(CLI, "export.write_csv"), "cells"),
        "export.bytes_written": total(pick(CLI, "export.write_csv")
                                      + pick(CLI, "export.write_json"), "bytes"),
        "config.load_scenario_ms": mean_ms(loads),
        "model.validate_model_ms": mean_ms(pick(CLI, "model.validate_model")),
        "verification.checks_run": len(checks),
        "verification.self_s":
            layer_self_seconds(spans).get(VERIFY, {}).get("verification", 0.0),
    }
    for check in CHECKS:
        ms[f"verification.{check}_s"] = busy_ns(
            pick(VERIFY, f"verification.check_{check}")) * 1e-9
    for cmd in CLI_COMMANDS:
        ms[f"cli.{cmd}_s"] = busy_ns(pick(CLI, f"cli.cmd_{cmd}")) * 1e-9
    return ms


def _median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# Probe sizes; bench/README.md states them with the metrics.
PROBE_SEED_PATHS = 4096
PROBE_DENSITY_PATHS = 1024
PROBE_THREAD_PATHS = 4096
PROBE_THREAD_STEPS = 500
PROBE_MC_T = 0.5
PROBE_DIAG_PATHS = 5
PROBE_DIAG_LAGS = 5


def probe_metrics(seed: int) -> dict:
    """Timed calls at fixed sizes on the bundled scalar model (F=-1, G=Q=R=1,
    T=2, 2000 steps), for what spans inside one call cannot separate."""
    import robustkb as rk

    def scalar(horizon, n_steps):
        return rk.constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, horizon, n_steps)

    model = scalar(2.0, 2000)
    one_step = scalar(1e-3, 1)
    seeding = _median_time(lambda: rk.simulate_paths(
        one_step, rk.zero_policy(one_step), PROBE_SEED_PATHS, seed))

    ens = rk.simulate_paths(model, rk.constant_policy(model, 0.5), PROBE_DENSITY_PATHS, seed)
    payoff = np.ones(PROBE_DENSITY_PATHS)
    target = rk.constant_policy(model, 0.25)
    density = _median_time(lambda: rk.reweighted_mean(ens, payoff, target))

    short = scalar(PROBE_THREAD_STEPS * 1e-3, PROBE_THREAD_STEPS)
    zero = rk.zero_policy(short)
    sim = {th: _median_time(lambda: rk.simulate_paths(
        short, zero, PROBE_THREAD_PATHS, seed, threads=th)) for th in (1, 2)}
    z = rk.zero_policy(model)
    ric = rk.solve_riccati(model)
    mc = {th: _median_time(lambda: rk.mse_monte_carlo(
        model, z, z, PROBE_MC_T, PROBE_THREAD_PATHS, seed, riccati=ric, threads=th))
        for th in (1, 2)}
    mc_path_steps = PROBE_THREAD_PATHS * model.grid.index_of(PROBE_MC_T)
    obs = rk.simulate_paths(model, z, PROBE_DIAG_PATHS, seed).m
    runs = [rk.run_robust_filter(model, ric, z, obs[j]) for j in range(PROBE_DIAG_PATHS)]
    diagnostics = _median_time(lambda: rk.innovation_diagnostics(runs, PROBE_DIAG_LAGS))
    return {
        "simulate.per_path_us": seeding / PROBE_SEED_PATHS * 1e6,
        "simulate.log_density.ns_per_path_step":
            density / (PROBE_DENSITY_PATHS * model.n_steps) * 1e9,
        "simulate.threads2_speedup": sim[1] / sim[2],
        "minimax.mse_monte_carlo.ns_per_path_step": mc[1] / mc_path_steps * 1e9,
        "minimax.mc_threads2_speedup": mc[1] / mc[2],
        "filtering.innovation_diagnostics_ms": diagnostics * 1e3,
    }

"""robustkb benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N

Run from the root of a robustkb checkout; the package is imported from its
``src/`` directory, never from an installed copy.  With ``--trace 0`` the
workload's operation is repeated for about ``--seconds`` seconds and the
end-to-end metrics are printed: ``wall_s`` (time of one operation, from the
median time of each of its steps over the repeats), ``setup_s`` (median,
over fresh processes, of the time from process start to the workload's first
call) and ``peak_rss_mb``, plus ``failed_frac`` with its attempted count.
Both times are rescaled by a reference kernel timed around each step (see
``reference_time``).  With ``--trace 1`` one traced pass over every workload
gives the per-layer metrics instead (see bench/README.md).  Every operation
is gated for correctness; the last line of stdout is one JSON object, and the
exit code is 1 if any gate failed.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
# Nominal time of the reference kernel; wall_s and setup_s are in seconds at
# the processor speed that gives the kernel this time.
REFERENCE_S = 0.060

if not os.path.isfile(os.path.join(SRC, "robustkb", "__init__.py")):
    sys.exit(f"error: no robustkb package under {SRC}; run from a robustkb checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_REF_SMALL = np.random.default_rng(0).standard_normal((3, 3)) * 0.1
_REF_LONG = np.random.default_rng(1).standard_normal(50_000)


def _reference_kernel() -> int:
    """Fixed work in robustkb's mix: small-matrix numpy calls in a Python
    loop (the ODE steppers), vectorised numpy over a long array (the
    simulation) and plain Python arithmetic (the CLI and CSV code)."""
    x = np.eye(3)
    for _ in range(2000):
        k1 = _REF_SMALL @ x
        k2 = _REF_SMALL @ (x + 0.5 * k1)
        x = x + 0.5 * (k1 + k2)
        x = x / np.abs(x).max()
    y = _REF_LONG
    for _ in range(40):
        y = np.sqrt(np.abs(np.sin(y) * 1.0001)) + _REF_LONG
    acc = 0
    for i in range(60_000):
        acc += i & 7
    return acc


def reference_time() -> float:
    """Wall time of one run of the reference kernel.

    The processor of a shared virtual machine runs slower or faster by tens
    of percent for spells of seconds to minutes, and process CPU time follows
    it.  A step's time divided by the kernel's time just around it keeps
    what the program decides and drops most of that drift; the times this
    module reports are that ratio times ``REFERENCE_S``."""
    t0 = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - t0


class StepClock:
    """Times of the named steps of the operations of one run.

    With ``reference`` the kernel runs once after every step, and each
    step's time is rescaled by the mean of the kernel times just before and
    after it."""

    def __init__(self, reference: bool = False):
        self.reference = reference
        self.kernel = [reference_time()] if reference else []
        self.ops: list[dict[str, int]] = []
        self.scaled: dict[str, list[float]] = {}

    def new_op(self) -> None:
        self.ops.append({})

    @contextlib.contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            op = self.ops[-1]
            op[name] = op.get(name, 0) + 1
            if self.reference:
                self.kernel.append(reference_time())
                elapsed *= REFERENCE_S / (0.5 * (self.kernel[-2] + self.kernel[-1]))
            self.scaled.setdefault(name, []).append(elapsed)

    def op_s(self) -> float:
        """One operation's time: for each step, the median of its rescaled
        times over the run, times the number of times an operation runs it."""
        return sum(count * statistics.median(self.scaled[step])
                   for step, count in self.ops[0].items())


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure_setup(name: str, seed: int) -> float:
    """Median over fresh processes of the time from process start to the
    first call, rescaled like the steps of an operation.

    The child prints the monotonic clock, which Linux shares between
    processes, right after preparing its inputs."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    kernel = [reference_time()]
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        kernel.append(reference_time())
        samples.append((float(proc.stdout.split()[-1]) - t0)
                       * REFERENCE_S / (0.5 * (kernel[-2] + kernel[-1])))
    return statistics.median(samples)


def timed_op(workload, inputs, out_dir: str, tracer=None, clock=None):
    """(seconds, attempted, failures) of one gated operation, traced if a
    tracer is given, its steps timed into ``clock`` if one is given.  The
    gate runs after the clock stops."""
    span = tracer.workload(workload.name) if tracer else contextlib.nullcontext()
    clock = clock or StepClock()
    clock.new_op()
    t0 = time.perf_counter()
    with span:
        try:
            result = workload.run(inputs, out_dir, clock)
        except Exception:  # a raising operation is counted as failed
            traceback.print_exc()
            result = None
    elapsed = time.perf_counter() - t0
    attempted, failures = workload.check(inputs, result)
    return elapsed, attempted, failures


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(name: str, seed: int, seconds: int) -> dict:
    workload = WORKLOADS[name]
    setup_s = measure_setup(name, seed)
    inputs = workload.prepare(seed)
    walls, attempted, failures = [], 0, []
    clock = StepClock(reference=True)
    out_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        # The budget covers timed operations, with the kernel runs between
        # their steps, but not the gates.
        while not walls or sum(walls) + statistics.median(walls) <= seconds:
            wall, att, fails = timed_op(workload, inputs, out_dir, clock=clock)
            walls.append(wall)
            attempted += att
            failures += fails
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{name} seed={seed}: {len(walls)} operation runs, "
          f"{attempted} operations attempted")
    print(f"unscaled median operation {statistics.median(walls):.4f} s (kernel runs "
          f"included); reference kernel median {statistics.median(clock.kernel):.4f} s "
          f"against {REFERENCE_S} s")
    return {
        "attempted": attempted, "failures": failures,
        "metrics": {
            "wall_s": metric(clock.op_s(), "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        },
    }


def run_traced(name: str, seed: int) -> dict:
    """Untraced then traced run of the named workload, a traced run of every
    other workload, and the probes."""
    inputs = {w: WORKLOADS[w].prepare(seed) for w in WORKLOADS}
    order = [name] + [w for w in WORKLOADS if w != name]
    attempted, failures = 0, []
    out_dir = tempfile.mkdtemp(prefix=f"trace-{name}-", dir=OUT)
    tracer = tracing.Tracer()
    # The named workload's two runs are compared by their rescaled steps.
    untraced, traced = StepClock(reference=True), StepClock(reference=True)
    try:
        _, att, fails = timed_op(WORKLOADS[name], inputs[name],
                                 os.path.join(out_dir, "untraced"), clock=untraced)
        attempted, failures = att, fails
        walls = {}
        tracer.install()
        try:
            for w in order:
                walls[w], att, fails = timed_op(
                    WORKLOADS[w], inputs[w], os.path.join(out_dir, w), tracer,
                    traced if w == name else None)
                attempted += att
                failures += fails
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    values = tracing.layer_metrics(tracer.spans)
    values.update(tracing.probe_metrics(seed))
    values["trace.overhead_frac"] = traced.op_s() / untraced.op_s() - 1.0
    spans_path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
    with open(spans_path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "walls_s": walls,
                   "layer_self_s": tracing.layer_self_seconds(tracer.spans),
                   "spans": tracer.spans}, fh)
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    units = {u["name"]: u["unit"] for u in _per_layer_spec()}
    mismatch = sorted(set(units) ^ set(values))
    if mismatch:
        raise RuntimeError(f"per-layer metrics and BENCHMARK.json differ: {mismatch}")
    return {"attempted": attempted, "failures": failures,
            "metrics": {k: metric(values[k], units[k]) for k in units}}


def _per_layer_spec() -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["per_layer"]


def run_all(args) -> dict:
    """Every workload in its own process, so peak memory is per workload."""
    attempted, failed, values = 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, val in result["metrics"].items():
            values[f"{name}.{key}"] = val
    return {"attempted": attempted, "failed": failed, "metrics": values}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        WORKLOADS[args.workload].prepare(args.seed)
        print(repr(time.monotonic()))
        return 0
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        summary = run_all(args)
    else:
        if args.trace:
            out = run_traced(args.workload, args.seed)
        else:
            out = run_untraced(args.workload, args.seed, args.seconds)
        for msg in out["failures"]:
            print(f"FAILED: {msg}", file=sys.stderr)
        summary = {"attempted": out["attempted"], "failed": len(out["failures"]),
                   "metrics": out["metrics"]}
        for key, val in summary["metrics"].items():
            print(f"{key} = {val['value']!r} {val['unit']}")
        print(f"failed_frac = {summary['failed'] / summary['attempted']!r} "
              f"({summary['failed']} of {summary['attempted']} operations)")
    correct = summary["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": summary["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

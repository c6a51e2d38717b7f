"""Before/after record of the benchmark: alternate runs on two revisions.

    python3 tools/bench_compare.py PARENT_REV --workload NAME --pairs N --seed S
        [--workload NAME ...] [--out FILE]

The committed files of PARENT_REV and HEAD are exported with ``git archive``
into two new directories under a temporary directory outside the
repository, which is removed when the script ends; the repository's own
``.git`` is only read.  Pair i runs ``bench/run.py --workload NAME --seed S+i --trace 0``
once in each checkout, for the ``run_seconds`` of HEAD's ``BENCHMARK.json``,
parent first on even pairs and change first on odd pairs, so that a slow
drift of the machine does not favour one side.  The JSON written to FILE
(default ``BENCH.json`` at the repository root) holds, for every workload
and every end-to-end metric of ``BENCHMARK.json``, each side's runs, median
and quartiles, the change/parent ratio of every pair with their median and
quartiles, the number of pairs the change wins, and whether the change's
median is within the parent's median times (1 + ``bound``), the metric's
bound in ``BENCHMARK.json``, printed as ``within`` or ``OUTSIDE``, and the
gain verdict, printed as ``gain`` or ``no gain``: a gain when the change wins
at least nine tenths of the pairs (ties count for neither side) and its
median beats the parent's by more than the parent's interquartile range
(q3 - q1); also both SHAs, the numpy and Python versions, the core count,
and the lines added, deleted and net under ``src/robustkb`` between the two
SHAs (``git diff --numstat``).
Both runs of a pair are taken back to back, so a step in the machine's speed
during the session moves both and leaves their ratio alone, where it would
widen each side's quartiles.  The exit code is 1 if any run failed its gates.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LOC_PATH = "src/robustkb"


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def loc_change(numstat: str) -> dict:
    """Lines added, deleted and net, in total and per file, from the output
    of ``git diff --numstat``; binary files (``-`` counts) add no lines."""
    files = {}
    for line in numstat.splitlines():
        if not line.strip():
            continue
        added, deleted, path = line.split("\t", 2)
        if added == "-":
            added = deleted = "0"
        files[path] = {"added": int(added), "deleted": int(deleted)}
    added = sum(f["added"] for f in files.values())
    deleted = sum(f["deleted"] for f in files.values())
    return {"path": LOC_PATH, "added": added, "deleted": deleted,
            "net": added - deleted, "files": files}


def export(sha: str, tree: str) -> None:
    """Write the files committed at sha into the new directory tree."""
    blob = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha],
                          check=True, capture_output=True).stdout
    os.makedirs(tree)
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(tree, filter="data")


def _bench_run(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """The summary JSON of one bench/run.py process in a checkout."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def within_bound(parent: float, change: float, bound: float, lower: bool) -> bool:
    """Whether the change's median is no worse than the parent's by more than
    the fraction bound: at most parent * (1 + bound) where lower is better,
    at least parent * (1 - bound) where higher is."""
    return change <= parent * (1.0 + bound) if lower else change >= parent * (1.0 - bound)


def wins(parent: list[float], change: list[float], lower: bool) -> int:
    """The number of pairs in which the change is strictly better."""
    return sum((c < p) if lower else (c > p) for p, c in zip(parent, change))


def is_gain(parent: list[float], change: list[float], lower: bool) -> bool:
    """Whether the pairs show a gain: the change wins at least nine tenths of
    them, and its median beats the parent's by more than the parent's
    interquartile range."""
    q = _quartiles(parent)
    margin = q["median"] - statistics.median(change)
    if not lower:
        margin = -margin
    return (10 * wins(parent, change, lower) >= 9 * len(parent)
            and margin > q["q3"] - q["q1"])


def compare(trees: dict, workload: str, pairs: int, seed: int, seconds: int,
            spec: list[dict]) -> dict:
    runs = {side: [] for side in trees}
    for i in range(pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = _bench_run(trees[side], workload, seed + i, seconds)
            runs[side].append(result)
            values = ", ".join(f"{k} {v['value']:.4g}"
                               for k, v in result["metrics"].items())
            print(f"{workload} pair {i + 1}/{pairs} seed {seed + i} {side}: "
                  f"{values}, failed {result['failed']}", file=sys.stderr)
    metrics = {}
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        series = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in trees}
        parent_median = statistics.median(series["parent"])
        change_median = statistics.median(series["change"])
        metrics[name] = {
            "unit": m["unit"], "better": m["better"],
            "parent": _quartiles(series["parent"]),
            "change": _quartiles(series["change"]),
            "pair_ratio": _quartiles([c / p for p, c in zip(series["parent"],
                                                            series["change"])]),
            "median_change_frac": change_median / parent_median - 1.0,
            "bound": m["bound"],
            "within_bound": within_bound(parent_median, change_median,
                                         m["bound"], lower),
            "wins": wins(series["parent"], series["change"], lower),
            "pairs": pairs,
            "gain": is_gain(series["parent"], series["change"], lower),
        }
    return {
        "seeds": [seed + i for i in range(pairs)],
        "metrics": metrics,
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in trees},
        "attempted": {side: sum(r["attempted"] for r in runs[side])
                      for side in trees},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_REV")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH.json"))
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    shas = {"parent": _git("rev-parse", "--verify", f"{args.parent}^{{commit}}"),
            "change": _git("rev-parse", "--verify", "HEAD^{commit}")}
    tmp_root = tempfile.mkdtemp(prefix="robustkb-bench-")
    trees = {}
    try:
        for side, sha in shas.items():
            trees[side] = os.path.join(tmp_root, side)
            export(sha, trees[side])
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        seconds = bench["run_seconds"]
        record = {
            "parent": {"rev": args.parent, "sha": shas["parent"]},
            "change": {"rev": "HEAD", "sha": shas["change"]},
            "numpy": np.__version__,
            "python": platform.python_version(),
            "cores": os.cpu_count(),
            "seconds": seconds,
            "loc": loc_change(_git("diff", "--numstat", shas["parent"],
                                   shas["change"], "--", LOC_PATH)),
            "workloads": {w: compare(trees, w, args.pairs, args.seed,
                                     seconds, bench["end_to_end"])
                          for w in args.workload},
        }
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for w, res in record["workloads"].items():
        for name, m in res["metrics"].items():
            ratio = m["pair_ratio"]
            print(f"{w} {name}: parent {m['parent']['median']:.4g} "
                  f"change {m['change']['median']:.4g} {m['unit']} "
                  f"({m['median_change_frac']:+.1%}), pair ratio "
                  f"{ratio['median']:.3f} [{ratio['q1']:.3f}, {ratio['q3']:.3f}], "
                  f"change wins {m['wins']}/{m['pairs']}, "
                  f"{'within' if m['within_bound'] else 'OUTSIDE'} "
                  f"bound {m['bound']:.0%}, "
                  f"{'gain' if m['gain'] else 'no gain'}")
    loc = record["loc"]
    print(f"{LOC_PATH}: +{loc['added']} -{loc['deleted']} lines "
          f"(net {loc['net']:+d})")
    print(f"wrote {args.out}")
    failed = any(sum(res["failed"].values()) for res in record["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Byte-for-byte comparison of the CLI's outputs on two revisions.

    python3 tools/byte_compare.py PARENT_REV

The committed files of PARENT_REV and HEAD are exported with
``bench_compare.export`` into two new directories under a temporary
directory outside the repository, which is removed when the script ends.  In
each tree the fixed list of CLI commands in ``commands()`` runs in turn,
with the tree as working directory and its ``src`` on ``PYTHONPATH``: for the
bundled scenario at seeds 0 and 5 and for ``bench/minimax_n3.json`` at seed 3,
``simulate --paths 200 --theta 0.5``, ``simulate --paths 1`` and ``filter``
on that path with ``--theta-hat 0.5``, ``riccati``, ``decompose --theta
1.0``, ``minimax --paths 400``, ``minimax --class bang_bang`` and the full
``verify``.  Every command writes to its own directory under
``byte_compare_out``.  The exit code, stdout, stderr and every output file
of each command must be equal byte for byte on both sides.  The commands
that fork, ``simulate --paths 200``, ``minimax --paths 400`` and
``verify`` (``ONE_CPU``), then run again in HEAD's tree with the child
process pinned to one CPU, and must give the bytes of their runs on every
usable CPU.  Before stdout and stderr are compared, the tree's own path is
replaced by ``<tree>`` and the line number of a source location inside it
(a warning's ``file.py:N:``, a traceback's ``file.py", line N``) by ``N``:
those name the checkout and the edit, not the output.  Every difference is
printed, and the exit code is 1 if there is any.
"""
from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_compare import _git, export  # noqa: E402

OUT = "byte_compare_out"

# The commands, by the last part of their name, that run again on one CPU.
ONE_CPU = ("simulate", "minimax", "verify")

# (label, --config or None for the bundled scenario, seed)
SCENARIOS = (("bundled", None, 0), ("bundled", None, 5),
             ("minimax_n3", os.path.join("bench", "minimax_n3.json"), 3))


def commands() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every command, in the order they run; name
    is also the command's output directory under OUT."""
    out = []
    for label, config, seed in SCENARIOS:
        prefix = f"{label}-s{seed}"
        common = (["--config", config] if config else []) + ["--seed", str(seed)]

        def add(name: str, command: str, *args: str) -> None:
            tag = f"{prefix}-{name}"
            out.append((tag, [command, *common, *args,
                              "--out", os.path.join(OUT, tag)]))

        add("simulate", "simulate", "--paths", "200", "--theta", "0.5")
        add("simulate1", "simulate", "--paths", "1")
        add("filter", "filter", "--theta-hat", "0.5", "--obs",
            os.path.join(OUT, f"{prefix}-simulate1", "ensemble.csv"))
        add("riccati", "riccati")
        add("decompose", "decompose", "--theta", "1.0")
        add("minimax", "minimax", "--paths", "400")
        add("bang_bang", "minimax", "--class", "bang_bang")
        add("verify", "verify")
    return out


def _pin_one_cpu() -> None:
    """Pin the calling process to the lowest of its usable CPUs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _run(tree: str, argv: list[str],
         one_cpu: bool = False) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, stderr) of one CLI command run in tree; with
    one_cpu, the command's process is pinned to one CPU before it starts."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "robustkb.cli", *argv],
                          cwd=tree, env=env, capture_output=True,
                          preexec_fn=_pin_one_cpu if one_cpu else None)
    return proc.returncode, proc.stdout, proc.stderr


def _normalize(text: bytes, tree: str) -> bytes:
    """text with the tree's path replaced by <tree> and the line numbers of
    source locations inside it by N."""
    root = re.escape(os.fsencode(tree))
    text = re.sub(root + rb'([^\s":]*\.py)(:|", line )\d+', rb"<tree>\1\2N", text)
    return text.replace(os.fsencode(tree), b"<tree>")


def _files(directory: str) -> dict[str, bytes]:
    """Every file under directory, by its path relative to it."""
    found = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, directory)] = fh.read()
    return found


def run_commands(tree: str, one_cpu: bool = False) -> dict[str, dict]:
    """Exit code, normalized stdout and stderr, and output files of every
    command of commands(), run in tree; with one_cpu, of the commands of
    ONE_CPU only, each pinned to one CPU.  A command's output directory is
    emptied before it runs."""
    results = {}
    for name, argv in commands():
        if one_cpu and name.rsplit("-", 1)[1] not in ONE_CPU:
            continue
        shutil.rmtree(os.path.join(tree, OUT, name), ignore_errors=True)
        code, stdout, stderr = _run(tree, argv, one_cpu)
        print(f"{os.path.basename(tree)} {name}: exit {code}"
              + (" on one CPU" if one_cpu else ""), file=sys.stderr)
        results[name] = {"exit": code, "stdout": _normalize(stdout, tree),
                         "stderr": _normalize(stderr, tree),
                         "files": _files(os.path.join(tree, OUT, name))}
    return results


def differences(parent: dict, change: dict) -> list[str]:
    """One line for every exit code, stream or file of a command that
    differs between two run_commands results."""
    found = []
    for name, p in parent.items():
        c = change[name]
        if p["exit"] != c["exit"]:
            found.append(f"{name}: exit {p['exit']} != {c['exit']}")
        for stream in ("stdout", "stderr"):
            if p[stream] != c[stream]:
                found.append(f"{name}: {stream} differs")
        for path in sorted(set(p["files"]) | set(c["files"])):
            if path not in p["files"] or path not in c["files"]:
                found.append(f"{name}: {path} written on one side only")
            elif p["files"][path] != c["files"][path]:
                found.append(f"{name}: {path} differs")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_REV")
    args = parser.parse_args(argv)
    shas = {"parent": _git("rev-parse", "--verify", f"{args.parent}^{{commit}}"),
            "change": _git("rev-parse", "--verify", "HEAD^{commit}")}
    tmp_root = tempfile.mkdtemp(prefix="robustkb-bytes-")
    try:
        results = {}
        for side, sha in shas.items():
            tree = os.path.join(tmp_root, side)
            export(sha, tree)
            results[side] = run_commands(tree)
        pinned = run_commands(os.path.join(tmp_root, "change"), one_cpu=True)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    found = differences(results["parent"], results["change"])
    found += [f"one CPU: {line}"
              for line in differences(pinned, results["change"])]
    for line in found:
        print(line)
    n_files = sum(len(r["files"]) for r in results["change"].values())
    print(f"{len(results['change'])} commands, {n_files} files and "
          f"{len(pinned)} one-CPU reruns: {len(found)} differences between "
          f"{shas['parent'][:12]} and {shas['change'][:12]}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

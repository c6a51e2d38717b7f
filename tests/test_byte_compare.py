"""The byte-for-byte CLI comparison: its command list, and its verdict on
canned runs."""

import importlib.util
import os
import subprocess
import sys

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "byte_compare.py")


@pytest.fixture(scope="module")
def byte_compare():
    spec = importlib.util.spec_from_file_location("byte_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_runner(byte_compare, change_of=None):
    """A _run that writes one file per command; on a tree named "change",
    change_of(name, files, out, err, code) may alter what it writes."""
    ran = []

    def fake_run(tree, argv, one_cpu=False):
        out_dir = argv[argv.index("--out") + 1]
        name = os.path.basename(out_dir)
        ran.append((os.path.basename(tree), name))
        files = {"result.csv": f"{name},{argv[0]}\n".encode()}
        # A warning names the tree and a source line, which may move.
        line = 10 if os.path.basename(tree) == "parent" else 11
        err = f"{tree}/src/robustkb/minimax.py:{line}: Warning\n".encode()
        out, code = f"wrote {out_dir}\n".encode(), 0
        if change_of is not None and os.path.basename(tree) == "change":
            files, out, err, code = change_of(name, files, out, err, code)
        os.makedirs(os.path.join(tree, out_dir))
        for path, blob in files.items():
            with open(os.path.join(tree, out_dir, path), "wb") as fh:
                fh.write(blob)
        return code, out, err

    return fake_run, ran


def test_commands_cover_the_three_scenarios(byte_compare):
    cmds = dict(byte_compare.commands())
    assert len(cmds) == 3 * 8
    assert cmds["bundled-s5-simulate"][:3] == ["simulate", "--seed", "5"]
    assert cmds["minimax_n3-s3-bang_bang"][:6] == [
        "minimax", "--config", os.path.join("bench", "minimax_n3.json"),
        "--seed", "3", "--class"]
    assert cmds["minimax_n3-s3-verify"][:5] == [
        "verify", "--config", os.path.join("bench", "minimax_n3.json"),
        "--seed", "3"]
    assert cmds["bundled-s0-verify"][0] == "verify"
    obs = cmds["bundled-s0-filter"][cmds["bundled-s0-filter"].index("--obs") + 1]
    assert obs == os.path.join(byte_compare.OUT, "bundled-s0-simulate1",
                               "ensemble.csv")
    names = [name for name, _ in byte_compare.commands()]
    assert names.index("bundled-s0-simulate1") < names.index("bundled-s0-filter")


@pytest.mark.parametrize("edit, want", [
    (None, []),
    ("file", ["bundled-s5-riccati: result.csv differs"]),
    ("extra", ["bundled-s5-riccati: extra.csv written on one side only"]),
    ("stdout", ["bundled-s5-riccati: stdout differs"]),
    ("exit", ["bundled-s5-riccati: exit 0 != 1"]),
])
def test_differences_name_every_changed_output(byte_compare, monkeypatch,
                                               tmp_path, edit, want):
    def change_of(name, files, out, err, code):
        if name == "bundled-s5-riccati":
            if edit == "file":
                files = {"result.csv": b"other\n"}
            elif edit == "extra":
                files = dict(files, **{"extra.csv": b"x\n"})
            elif edit == "stdout":
                out += b"more\n"
            elif edit == "exit":
                code = 1
        return files, out, err, code

    fake_run, ran = _fake_runner(byte_compare, change_of)
    monkeypatch.setattr(byte_compare, "_run", fake_run)
    results = {side: byte_compare.run_commands(str(tmp_path / side))
               for side in ("parent", "change")}
    assert byte_compare.differences(results["parent"], results["change"]) == want
    assert len(ran) == 2 * len(byte_compare.commands())


def test_main_exports_both_revisions_and_passes_on_equal_outputs(
        byte_compare, monkeypatch, capsys):
    head = subprocess.run(["git", "-C", os.path.dirname(TOOL), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    fake_run, ran = _fake_runner(byte_compare)
    trees = []
    monkeypatch.setattr(byte_compare, "_run", lambda tree, argv, one_cpu=False: (
        trees.append(os.path.isfile(os.path.join(tree, "BENCHMARK.json")))
        or fake_run(tree, argv, one_cpu)))
    assert byte_compare.main(["HEAD"]) == 0
    assert all(trees) and len(trees) == 2 * len(byte_compare.commands()) + 9
    assert "9 one-CPU reruns: 0 differences" in capsys.readouterr().out

    def differ(name, files, out, err, code):
        return files, out + b"!", err, code

    fake_run, _ = _fake_runner(byte_compare, differ)
    monkeypatch.setattr(byte_compare, "_run", fake_run)
    assert byte_compare.main(["HEAD"]) == 1


def test_one_cpu_reruns_must_match_the_all_cpu_runs(byte_compare, monkeypatch,
                                                    tmp_path):
    """The simulate --paths 200, minimax --paths 400 and verify commands run
    again on one CPU, into emptied output directories, and every difference
    from their all-CPU runs is named."""
    fake_run, ran = _fake_runner(byte_compare)
    pinned = []

    def run(tree, argv, one_cpu=False):
        if one_cpu:
            pinned.append(argv[0])
        code, out, err = fake_run(tree, argv, one_cpu)
        return code, out + (b"!" if one_cpu and argv[0] == "minimax" else b""), err

    monkeypatch.setattr(byte_compare, "_run", run)
    tree = str(tmp_path / "change")
    every = byte_compare.run_commands(tree)
    one = byte_compare.run_commands(tree, one_cpu=True)
    assert sorted(one) == sorted(
        f"{prefix}-{name}" for prefix in ("bundled-s0", "bundled-s5",
                                          "minimax_n3-s3")
        for name in ("simulate", "minimax", "verify"))
    assert sorted(pinned) == ["minimax"] * 3 + ["simulate"] * 3 + ["verify"] * 3
    assert byte_compare.differences(one, every) == [
        "bundled-s0-minimax: stdout differs", "bundled-s5-minimax: stdout differs",
        "minimax_n3-s3-minimax: stdout differs"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_pinned_child_sees_one_cpu(byte_compare):
    """_pin_one_cpu, run in the child before it starts, leaves that child one
    usable CPU and the calling process all of its own."""
    before = os.sched_getaffinity(0)
    proc = subprocess.run(
        [sys.executable, "-c", "import os; print(len(os.sched_getaffinity(0)))"],
        preexec_fn=byte_compare._pin_one_cpu, capture_output=True, text=True)
    assert proc.stdout == "1\n"
    assert os.sched_getaffinity(0) == before

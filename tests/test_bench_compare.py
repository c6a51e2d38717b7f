"""The before/after recorder: its statistics on canned runs, and its export
of a commit."""

import importlib.util
import os
import subprocess

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_compare.py")


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pair_ratios_cancel_a_step_in_machine_speed(bench_compare, monkeypatch):
    # The machine gets 1.5x faster after pair 2; the change is 20% faster
    # throughout.  Each side's spread shows the step, each pair's ratio not.
    speed = [1.0, 1.0, 1.5, 1.5]
    order = []

    def fake_run(tree, workload, seed, seconds):
        order.append(tree)
        base = 2.0 / speed[seed]
        value = base if tree == "p" else 0.8 * base
        return {"metrics": {"wall_s": {"value": value}}, "failed": 0,
                "attempted": 1}

    monkeypatch.setattr(bench_compare, "_bench_run", fake_run)
    spec = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
    res = bench_compare.compare({"parent": "p", "change": "c"}, "w", 4, 0, 1, spec)
    assert order == ["p", "c", "c", "p", "p", "c", "c", "p"]
    wall = res["metrics"]["wall_s"]
    assert wall["pair_ratio"]["runs"] == pytest.approx([0.8] * 4)
    assert wall["pair_ratio"]["q3"] - wall["pair_ratio"]["q1"] == pytest.approx(0.0)
    assert wall["parent"]["q3"] - wall["parent"]["q1"] > 0.3
    assert wall["wins"] == 4
    assert wall["bound"] == 0.25 and wall["within_bound"] is True


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_bound_verdict_compares_the_medians(bench_compare, monkeypatch, better):
    # Parent runs 1, 2, 3 (median 2).  A change 20% worse is within a 25%
    # bound; 30% worse is outside it, whichever direction is better.
    sign = 1.0 if better == "lower" else -1.0
    for frac, within in ((0.2, True), (0.3, False)):
        def fake_run(tree, workload, seed, seconds):
            base = 1.0 + seed
            value = base if tree == "p" else base * (1.0 + sign * frac)
            return {"metrics": {"m": {"value": value}}, "failed": 0, "attempted": 1}

        monkeypatch.setattr(bench_compare, "_bench_run", fake_run)
        spec = [{"name": "m", "unit": "s", "better": better, "bound": 0.25}]
        res = bench_compare.compare({"parent": "p", "change": "c"}, "w", 3, 0, 1, spec)
        assert res["metrics"]["m"]["within_bound"] is within, (frac, better)
    assert bench_compare.within_bound(2.0, 2.5, 0.25, lower=True)
    assert not bench_compare.within_bound(2.0, 1.5 - 1e-9, 0.25, lower=False)


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_gain_verdict_needs_nine_tenths_and_the_parent_spread(bench_compare,
                                                             monkeypatch, better):
    # Parent runs 1.0, 1.1, ..., 1.9: median 1.45, quartiles 1.225 and 1.675,
    # so a gain must move the median by more than 0.45.
    sign = 1.0 if better == "lower" else -1.0
    parent = [1.0 + 0.1 * i for i in range(10)]
    lower = better == "lower"

    def verdict(change):
        def fake_run(tree, workload, seed, seconds):
            value = parent[seed] if tree == "p" else change[seed]
            return {"metrics": {"m": {"value": value}}, "failed": 0, "attempted": 1}

        monkeypatch.setattr(bench_compare, "_bench_run", fake_run)
        spec = [{"name": "m", "unit": "s", "better": better, "bound": 0.25}]
        res = bench_compare.compare({"parent": "p", "change": "c"}, "w", 10, 0, 1, spec)
        m = res["metrics"]["m"]
        assert m["gain"] is bench_compare.is_gain(parent, change, lower)
        return m["wins"], m["gain"]

    far = [p - sign * 0.6 for p in parent]
    assert verdict(far) == (10, True)
    # A tie counts for neither side: 9 of 10 still gains, 8 of 10 does not.
    assert verdict(parent[:1] + far[1:]) == (9, True)
    assert verdict(parent[:2] + far[2:]) == (8, False)
    # Winning every pair by less than the parent's spread is no gain.
    assert verdict([p - sign * 0.4 for p in parent]) == (10, False)


def test_loc_change_parses_numstat(bench_compare):
    numstat = ("3\t12\tsrc/robustkb/decomposition.py\n"
               "0\t17\tsrc/robustkb/ode.py\n"
               "-\t-\tsrc/robustkb/data/blob.bin\n"
               "5\t1\tsrc/robustkb/{old.py => new.py}\n")
    loc = bench_compare.loc_change(numstat)
    assert loc["path"] == "src/robustkb"
    assert (loc["added"], loc["deleted"], loc["net"]) == (8, 30, -22)
    assert loc["files"]["src/robustkb/ode.py"] == {"added": 0, "deleted": 17}
    assert loc["files"]["src/robustkb/data/blob.bin"] == {"added": 0, "deleted": 0}
    assert len(loc["files"]) == 4
    assert bench_compare.loc_change("")["net"] == 0


def test_export_writes_the_committed_files(bench_compare, tmp_path):
    # Each side runs in a plain export of one commit, outside the repository.
    git = ["git", "-C", os.path.dirname(TOOL)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    tree = str(tmp_path / "head")
    bench_compare.export(head.stdout.strip(), tree)
    committed = subprocess.run(git + ["show", "HEAD:BENCHMARK.json"], check=True,
                               capture_output=True).stdout
    with open(os.path.join(tree, "BENCHMARK.json"), "rb") as fh:
        assert fh.read() == committed
    assert os.path.isfile(os.path.join(tree, "bench", "run.py"))
    assert not os.path.exists(os.path.join(tree, ".git"))

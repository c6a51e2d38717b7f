"""CSV/JSON writers: exact round-trips and byte-stable layout."""

import contextlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import robustkb as rk
from robustkb import export
from robustkb.export import (
    _BLOCK_ROWS,
    _cell,
    filter_run_rows,
    matrix_labels,
    riccati_rows,
    vector_labels,
    write_csv,
    write_ensemble_csv,
    write_json,
)


def test_labels():
    assert matrix_labels("P", 2, 2) == ["P_00", "P_01", "P_10", "P_11"]
    assert vector_labels("x", 3) == ["x_0", "x_1", "x_2"]


def test_csv_layout_and_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    rows = [[0, 0.1, float("nan")], [1, -2.5e-17, 3.0]]
    write_csv(path, ["k", "a", "b"], rows, comment="hello")
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "# hello"
    assert lines[1] == "k,a,b"
    assert lines[2].startswith("0,0.1,nan")
    assert text.endswith("\n")
    # repr cells parse back to the identical float
    assert float(lines[3].split(",")[1]) == -2.5e-17


def test_csv_without_comment(tmp_path):
    path = tmp_path / "plain.csv"
    write_csv(path, ["t"], [[1.0]])
    assert path.read_text() == "t\n1.0\n"


@settings(max_examples=80, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_cells_round_trip(x):
    from robustkb.export import _cell

    assert float(_cell(x)) == x


def test_integer_cells_have_no_decimal_point():
    from robustkb.export import _cell

    assert _cell(np.int64(7)) == "7"
    assert _cell(3) == "3"
    assert _cell(np.float64(2.0)) == "2.0"


def test_json_is_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"b": 1, "a": [1.5, None]})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": [1.5, None]}


def test_json_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"a": (np.float64(np.nan), 1.0), "b": {"c": -np.inf},
                      "d": float("inf"), "e": 2})

    def refuse(token):
        raise ValueError(f"{token} is not a JSON token")

    assert json.loads(path.read_text(), parse_constant=refuse) == {
        "a": [None, 1.0], "b": {"c": None}, "d": None, "e": 2}


def test_riccati_rows_shape(fast_model, fast_riccati):
    cols, rows = riccati_rows(fast_riccati)
    assert cols == ["t", "P_00"]
    assert rows.shape == (201, 2)
    assert rows[0, 0] == 0.0 and rows[-1, 0] == 2.0
    assert rows[-1, 1] == fast_riccati.P[-1, 0, 0]


def test_filter_run_rows_layout(fast_model, fast_riccati):
    ens = rk.simulate_paths(fast_model, np.zeros((200, 1)), 1, master_seed=3)
    run = rk.run_classical_filter(fast_model, fast_riccati, ens.m[0])
    cols, rows = filter_run_rows(run)
    assert cols == ["t", "xhat_0", "dI_0", "P_00"]
    assert rows.shape == (201, 4)
    # the terminal node has no increment
    assert np.isnan(rows[-1, 2])
    assert np.array_equal(rows[:-1, 2], run.innovations[:, 0])


def _csv_table(path):
    """Header and data rows of a CSV written without a comment line."""
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_ensemble_rows_long_format(fast_model, tmp_path):
    ens = rk.simulate_paths(fast_model, np.full((200, 1), 0.5), 2,
                            master_seed=3, path_offset=10)
    path = tmp_path / "ens.csv"
    write_ensemble_csv(path, ens)
    cols, rows = _csv_table(path)
    assert cols == ["path", "t", "x_0", "m_0", "logw"]
    assert len(rows) == 2 * 201
    assert [rows[0][0], rows[201][0]] == ["10", "11"]
    assert rows[0][1] == "0.0" and rows[200][1] == "2.0"
    assert [row[1] for row in rows[201:]] == [row[1] for row in rows[:201]]
    assert float(rows[0][2]) == ens.x[0, 0, 0]
    assert float(rows[200][3]) == ens.m[0, 200, 0]
    for p in range(2):
        block = rows[201 * p:201 * (p + 1)]
        assert {row[0] for row in block} == {str(10 + p)}
        assert {row[4] for row in block} == {repr(float(ens.log_density[p]))}


def test_ensemble_csv_path_ids_are_integers(fast_model, tmp_path):
    ens = rk.simulate_paths(fast_model, np.zeros((200, 1)), 1, master_seed=5)
    path = tmp_path / "ens.csv"
    write_ensemble_csv(path, ens)
    _, rows = _csv_table(path)
    assert rows[0][0] == "0"
    assert {row[0] for row in rows} == {"0"}


def test_ensemble_csv_holds_one_path_at_a_time(default_model, tmp_path):
    """The writer's traced peak stays far below the ensemble's own arrays,
    so no whole-table array or line list can come back unnoticed."""
    ens = rk.simulate_paths(default_model, np.zeros((default_model.n_steps, 1)),
                            200, 3)
    tracemalloc.start()
    try:
        write_ensemble_csv(tmp_path / "ens.csv", ens, comment="memory")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * (ens.x.nbytes + ens.m.nbytes)


def test_csv_reruns_are_byte_identical(fast_model, fast_riccati, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cols, rows = riccati_rows(fast_riccati)
    write_csv(a, cols, rows, comment="same")
    write_csv(b, cols, rows, comment="same")
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# block-streamed writer against the per-cell reference


def _reference_csv(columns, rows, comment=None) -> bytes:
    """The per-cell writer: _cell on every value of every row in turn."""
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reference_ensemble_rows(ensemble) -> tuple[list[str], np.ndarray]:
    """The long-format ensemble table as one object array: Python int path
    ids and Python floats, one object per cell."""
    n_paths, k, n = ensemble.x.shape
    m = ensemble.m.shape[2]
    cols = (["path", "t"] + vector_labels("x", n) + vector_labels("m", m)
            + ["logw"])
    rows = np.empty((n_paths * k, len(cols)), dtype=object)
    rows[:, 0] = np.repeat(np.arange(n_paths) + ensemble.path_offset, k)
    rows[:, 1] = np.tile(ensemble.model.grid.times, n_paths)
    rows[:, 2:2 + n] = ensemble.x.reshape(n_paths * k, n)
    rows[:, 2 + n:2 + n + m] = ensemble.m.reshape(n_paths * k, m)
    rows[:, -1] = np.repeat(ensemble.log_density, k)
    return cols, rows


_SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                   5e-324, 1e16, 1e-5, 0.1, -2.5e-17]
_FLOATS = st.sampled_from(_SPECIAL_FLOATS) | st.floats()
_INTS = st.integers(-(2 ** 63), 2 ** 63 - 1)
_MIXED = st.one_of(
    _FLOATS,
    _INTS,
    _INTS.map(np.int64),
    st.booleans(),
    (st.sampled_from(_SPECIAL_FLOATS) | st.floats(width=32)).map(np.float32),
    _FLOATS.map(np.float64),
)


_ROW_COUNTS = st.sampled_from([0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                               _BLOCK_ROWS + 1])


@st.composite
def _tables(draw):
    """(columns, rows) as a float or int ndarray, an object ndarray with int
    and float columns, or a list of tuples whose columns hold floats, ints,
    bools or a mix of scalar types.  Each column repeats a small drawn pool
    of values in a drawn order."""
    kind = draw(st.sampled_from(["array", "object", "tuples"]))
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(_ROW_COUNTS)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pools = []
    for _ in range(n_cols):
        if kind == "tuples":
            values = draw(st.sampled_from([_MIXED, _FLOATS, _INTS,
                                           st.booleans()]))
        elif kind == "object":
            values = draw(st.sampled_from([_FLOATS, _INTS]))
        else:
            values = _FLOATS
        pools.append(draw(st.lists(values, min_size=1, max_size=6)))
    cols = [[pool[i] for i in rng.integers(0, len(pool), n_rows)]
            for pool in pools]
    columns = [f"c{j}" for j in range(n_cols)]
    if kind == "tuples":
        return columns, list(zip(*cols))
    if kind == "object":
        rows = np.empty((n_rows, n_cols), dtype=object)
        for j, col in enumerate(cols):
            rows[:, j] = col
        return columns, rows
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64]))
    if dtype is np.int64:
        return columns, rng.integers(-10 ** 12, 10 ** 12, (n_rows, n_cols))
    with np.errstate(over="ignore"):
        return columns, np.array(cols, dtype=float).T.astype(dtype)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables(), comment=st.none() | st.just("robustkb x seed=1"))
def test_block_writer_matches_per_cell_reference(tmp_path, table, comment):
    columns, rows = table
    path = tmp_path / "out.csv"
    write_csv(path, columns, rows, comment=comment)
    assert path.read_bytes() == _reference_csv(columns, rows, comment)


def test_cli_ensemble_matches_per_cell_reference(default_model, tmp_path,
                                                 capsys):
    import hashlib
    from importlib import resources

    from robustkb.cli import main

    out = tmp_path / "out"
    assert main(["simulate", "--paths", "3", "--seed", "7",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    blob = (resources.files("robustkb") / "data"
            / "default_scenario.json").read_bytes()
    comment = (f"robustkb {rk.__version__} "
               f"config_sha256={hashlib.sha256(blob).hexdigest()} seed=7")
    ens = rk.simulate_paths(default_model, np.zeros((default_model.n_steps, 1)),
                            3, 7)
    cols, rows = _reference_ensemble_rows(ens)
    # 3 x 2001 rows: a block boundary falls inside a path.
    assert len(rows) == 6003
    assert (out / "ensemble.csv").read_bytes() == _reference_csv(cols, rows,
                                                                 comment)


@st.composite
def _ensembles(draw):
    """Hand-built PathEnsembles: n, m in 1..3, 1..4 paths, 1..5 steps, a
    path_offset up to 2**40, and x, m and logw drawn with the special
    floats (signed zeros, nan, infinities, subnormals)."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n_paths, n_steps = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    horizon = draw(st.floats(1e-3, 1e3))
    model = rk.constant_model(-np.eye(n), np.zeros(n), np.ones((m, n)),
                              np.zeros(m), np.eye(n), np.eye(m), np.zeros(n),
                              horizon=horizon, n_steps=n_steps)

    def values(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(_FLOATS, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    return rk.PathEnsemble(
        model=model, policy=rk.zero_policy(model), master_seed=0,
        path_offset=draw(st.integers(0, 2 ** 40)),
        x=values(n_paths, n_steps + 1, n), m=values(n_paths, n_steps + 1, m),
        dw=np.zeros((n_paths, n_steps, n)), dv=np.zeros((n_paths, n_steps, m)),
        log_density=values(n_paths))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ens=_ensembles(), comment=st.none() | st.just("robustkb x seed=1"))
def test_ensemble_writer_matches_object_array_reference(tmp_path, ens, comment):
    path = tmp_path / "ens.csv"
    write_ensemble_csv(path, ens, comment=comment)
    cols, rows = _reference_ensemble_rows(ens)
    assert path.read_bytes() == _reference_csv(cols, rows, comment)


@contextlib.contextmanager
def _parent_only():
    """End a forked child that comes back into the test with status 3, which
    its parent reports as a failed writer, so each test body runs once."""
    pid = os.getpid()
    try:
        yield
    finally:
        if os.getpid() != pid:
            os._exit(3)


def _split_over(monkeypatch, cpus: int) -> list:
    """Let write_ensemble_csv use up to cpus processes of one path or more
    each; returns a list that gains an entry per fork."""
    monkeypatch.setattr(export, "_MIN_CELLS_PER_PROCESS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


@pytest.mark.parametrize("cpus", [2, 3, 4])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ens=_ensembles(), comment=st.none() | st.just("robustkb x seed=1"))
def test_split_ensemble_writer_keeps_the_bytes(tmp_path, monkeypatch, cpus,
                                               ens, comment):
    """min(cpus, paths) processes, fewer paths than CPUs included, write the
    reference's bytes."""
    path = tmp_path / "ens.csv"
    with _parent_only(), monkeypatch.context() as patch:
        forks = _split_over(patch, cpus)
        write_ensemble_csv(path, ens, comment=comment)
    assert len(forks) == min(cpus, len(ens.x)) - 1
    cols, rows = _reference_ensemble_rows(ens)
    assert path.read_bytes() == _reference_csv(cols, rows, comment)


def test_failed_ensemble_writer_reaps_every_child(fast_model, tmp_path,
                                                  monkeypatch):
    """A range that fails in a child raises OSError naming the range, the
    exit status and the child's exception; one that fails in the parent
    raises its own exception.
    Either way no child is left, running or unreaped."""
    ens = rk.simulate_paths(fast_model, np.zeros((200, 1)), 4, master_seed=1)
    write = export._write_paths

    def fail_on(bad):
        def write_or_fail(fh, ensemble, times, lo, hi):
            if lo == bad:
                raise RuntimeError(f"range {lo} failed")
            write(fh, ensemble, times, lo, hi)
        return write_or_fail

    with _parent_only():
        forks = _split_over(monkeypatch, 4)
        write_ensemble_csv(tmp_path / "whole.csv", ens)
        assert len(forks) == 3
        monkeypatch.setattr(export, "_write_paths", fail_on(2))
        with pytest.raises(OSError, match=r"paths 2\.\.2 .* status 1: "
                                          r"RuntimeError: range 2 failed$"):
            write_ensemble_csv(tmp_path / "child.csv", ens)
        monkeypatch.setattr(export, "_write_paths", fail_on(0))
        with pytest.raises(RuntimeError, match="range 0 failed"):
            write_ensemble_csv(tmp_path / "parent.csv", ens)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("rows, bad", [
    ([(1.0, 2.0), (3.0,), (4.0, 5.0)], 1),
    ([(1.0, 2.0)] * _BLOCK_ROWS + [(1.0, 2.0, 3.0)], _BLOCK_ROWS),
    (np.zeros((3, 3)), 0),
    (np.zeros(3), 0),
])
def test_ragged_rows_raise(tmp_path, rows, bad):
    path = tmp_path / "bad.csv"
    with pytest.raises(rk.DimensionMismatch, match=f"row {bad} "):
        write_csv(path, ["a", "b"], rows)
    assert not path.exists()


def test_csv_needs_a_column(tmp_path):
    with pytest.raises(rk.DimensionMismatch):
        write_csv(tmp_path / "none.csv", [], [()])

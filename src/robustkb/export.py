"""CSV and JSON writers for time series and reports.

Layout is gnuplot-friendly: t first, then value columns.  Floats are written
with repr, which round-trips exactly; reruns with the same inputs produce
byte-identical files.  The CSV writer streams blocks of _BLOCK_ROWS rows and
formats each block column by column, with one map per column: float.__repr__
or int.__repr__ where every value of the column has that exact type, _cell
otherwise.  The bytes are those of _cell applied to every value in turn.

The long-format ensemble (path, t, x_*, m_*, logw) has its own writer,
write_ensemble_csv, which reads the ensemble's float arrays directly and
writes one path at a time: the grid times are formatted once per file, the
path id and logw once per path, and only x and m once per row.  Its bytes are
those write_csv gives for the same table with int path ids.

The ensemble is formatted by one forked process per usable CPU, each writing
a contiguous range of paths to its own temporary file, which the parent
appends in path order; the bytes do not depend on the number of processes.
A second process is used only when each gets _MIN_CELLS_PER_PROCESS cells
or more, and where os.fork or os.sched_getaffinity is missing the calling
process writes every path itself.  The fork, the reaping and the cleanup on
error are simulate._on_processes, which the Monte-Carlo MSE also runs its
chunks on.  A child only formats floats and writes its file, so it takes no
lock that another thread of the parent could hold.  On Python 3.12 and
later, os.fork issues a DeprecationWarning in a process with several
threads, such as one whose BLAS keeps a thread pool; it is not filtered.
"""
from __future__ import annotations

import io
import json
import shutil
from itertools import repeat

import numpy as np

from .errors import DimensionMismatch
from .simulate import _on_processes, _process_count

_BLOCK_ROWS = 4096

_FLOAT_TYPES = {float, np.float64}

# A forked writer costs a fork, a reap and a temporary file, about 1-3 ms on
# a 2-core x86 machine, while a cell costs about 0.5 us to format: two
# processes already won at 20 000 cells in all, so this leaves wide margin
# for a slower fork.
_MIN_CELLS_PER_PROCESS = 50_000


def _cell(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def matrix_labels(prefix: str, rows: int, cols: int) -> list[str]:
    return [f"{prefix}_{i}{j}" for i in range(rows) for j in range(cols)]


def vector_labels(prefix: str, dim: int) -> list[str]:
    return [f"{prefix}_{i}" for i in range(dim)]


def _column_cells(col):
    """Cells of one column: a C-level repr where its types allow, else _cell."""
    types = set(map(type, col))
    if types <= _FLOAT_TYPES:
        return map(float.__repr__, col)
    if types <= {int}:
        return map(int.__repr__, col)
    return map(_cell, col)


def write_csv(path, columns, rows, comment: str | None = None) -> None:
    """Write rows of numbers as CSV with an optional leading comment line.

    rows is a 2-D array or a sequence of rows; a row whose width differs
    from the header raises DimensionMismatch before the file is opened.
    """
    width = len(columns)
    if not width:
        raise DimensionMismatch("a CSV needs at least one column")
    is_array = isinstance(rows, np.ndarray)
    if is_array and len(rows) and (rows.ndim != 2 or rows.shape[1] != width):
        raise DimensionMismatch(
            f"row 0 has shape {rows.shape[1:]}, header has {width} columns")
    if not is_array and set(map(len, rows)) - {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise DimensionMismatch(
            f"row {i} has {len(rows[i])} cells, header has {width} columns")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            cols = block.T.tolist() if is_array else zip(*block)
            cells = [_column_cells(col) for col in cols]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def riccati_rows(riccati) -> tuple[list[str], np.ndarray]:
    """Columns and rows for a covariance path CSV."""
    k, n, _ = riccati.P.shape
    cols = ["t"] + matrix_labels("P", n, n)
    rows = np.column_stack([riccati.grid.times, riccati.P.reshape(k, n * n)])
    return cols, rows


def filter_run_rows(run) -> tuple[list[str], np.ndarray]:
    """Columns and rows for a filter run CSV.

    Innovation increments live on intervals; the terminal node's entry is
    NaN.  The covariance path is flattened alongside.
    """
    xhat = run.xhat
    k = xhat.shape[0]
    n = xhat.shape[1]
    m = run.innovations.shape[1]
    cols = (["t"] + vector_labels("xhat", n) + vector_labels("dI", m)
            + matrix_labels("P", n, n))
    innov = np.vstack([run.innovations, np.full((1, m), np.nan)])
    rows = np.column_stack([
        run.model.grid.times, xhat, innov, run.riccati.P.reshape(k, n * n),
    ])
    return cols, rows


def _write_paths(fh, ensemble, times, lo: int, hi: int) -> None:
    """Write the rows of paths lo..hi-1, one path at a time."""
    first = ensemble.path_offset
    for p, logw in enumerate(ensemble.log_density[lo:hi].tolist(), lo):
        cells = [repeat(str(first + p)), times]
        cells += [map(float.__repr__, col) for col in
                  ensemble.x[p].T.tolist() + ensemble.m[p].T.tolist()]
        cells.append(repeat(float.__repr__(logw)))
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_ensemble_csv(path, ensemble, comment: str | None = None) -> None:
    """Long-format ensemble CSV (path, t, x_*, m_*, logw), with the same
    header and comment line as write_csv.

    The paths are split into contiguous ranges, one per process (see
    simulate._process_count), and run by simulate._on_processes: every child
    is forked before anything is written and writes its range to a
    temporary file; the parent writes the comment, the header and the first
    range, then waits for each child in path order and appends its bytes.
    Every process writes one path at a time, so none holds more than one
    path's cells, and the bytes are the same for any number of processes.  A
    child that fails raises OSError naming its path range, exit status and
    exception; on any exception in the parent every child not yet reaped is
    killed and reaped, so no process outlives the call.
    """
    n_paths, k, n = ensemble.x.shape
    columns = (["path", "t"] + vector_labels("x", n)
               + vector_labels("m", ensemble.m.shape[2]) + ["logw"])
    times = list(map(float.__repr__, ensemble.model.grid.times.tolist()))
    count = _process_count(n_paths, n_paths * k * len(columns),
                           _MIN_CELLS_PER_PROCESS)
    bounds = [n_paths * i // count for i in range(count + 1)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        def work(lo, hi, part):
            if part is not None:
                text = io.TextIOWrapper(part, encoding="utf-8", newline="\n")
                _write_paths(text, ensemble, times, lo, hi)
                text.detach()  # flushed, and part left open
                return
            if comment is not None:
                fh.write(f"# {comment}\n")
            fh.write(",".join(columns) + "\n")
            _write_paths(fh, ensemble, times, lo, hi)

        def take(lo, hi, part):
            fh.flush()
            shutil.copyfileobj(part, fh.buffer)

        _on_processes(bounds, work, take, lambda lo, hi: (
            f"writing paths {lo}..{hi - 1} of the ensemble"))

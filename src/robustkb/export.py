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
"""
from __future__ import annotations

import json
from itertools import repeat

import numpy as np

from .errors import DimensionMismatch

_BLOCK_ROWS = 4096

_FLOAT_TYPES = {float, np.float64}


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


def write_ensemble_csv(path, ensemble, comment: str | None = None) -> None:
    """Long-format ensemble CSV (path, t, x_*, m_*, logw), written one path
    at a time, with the same header and comment line as write_csv; never
    more than one path's cells are held at once."""
    n = ensemble.x.shape[2]
    columns = (["path", "t"] + vector_labels("x", n)
               + vector_labels("m", ensemble.m.shape[2]) + ["logw"])
    times = list(map(float.__repr__, ensemble.model.grid.times.tolist()))
    first = ensemble.path_offset
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        for p, logw in enumerate(ensemble.log_density.tolist()):
            cells = [repeat(str(first + p)), times]
            cells += [map(float.__repr__, col) for col in
                      ensemble.x[p].T.tolist() + ensemble.m[p].T.tolist()]
            cells.append(repeat(float.__repr__(logw)))
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")

"""The scenario readers the library used before one shape-generic pair
replaced them, kept verbatim as the reference for `config._single` and
`config._schedule`.

`_single_matrix`/`_matrix_schedule` read the (rows, cols) coefficients
F, G, Q, R and `_single_vector`/`_vector_schedule` the length-dim ones f, g,
x0, mu.  The new reader must give the same arrays, bit for bit, or raise a
ConfigError with the same message.
"""
from numbers import Real

import numpy as np

from robustkb.errors import ConfigError


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{path}: expected a number, got {type(value).__name__}")
    return float(value)


def _single_matrix(value, rows: int, cols: int, path: str) -> np.ndarray | None:
    """One (rows, cols) matrix from a scalar, nested list, or flat list."""
    if isinstance(value, Real) and not isinstance(value, bool):
        if rows == cols == 1:
            return np.array([[float(value)]])
        return None
    if not isinstance(value, list) or not value:
        return None
    if all(isinstance(r, list) for r in value):
        if len(value) != rows or any(len(r) != cols for r in value):
            return None
        try:
            return np.array([[_as_number(x, path) for x in r] for r in value])
        except ConfigError:
            return None
    if all(isinstance(x, Real) and not isinstance(x, bool) for x in value):
        if len(value) == rows * cols:
            return np.array([float(x) for x in value]).reshape(rows, cols)
    return None


def _matrix_schedule(value, n_steps: int, rows: int, cols: int, path: str) -> np.ndarray:
    single = _single_matrix(value, rows, cols, path)
    if single is not None:
        return np.broadcast_to(single, (n_steps, rows, cols)).copy()
    if isinstance(value, list) and len(value) == n_steps:
        out = np.empty((n_steps, rows, cols))
        for k, entry in enumerate(value):
            mat = _single_matrix(entry, rows, cols, f"{path}[{k}]")
            if mat is None:
                raise ConfigError(
                    f"{path}[{k}]: expected a {rows}x{cols} matrix "
                    f"(scalar, nested list, or flat list of {rows * cols})"
                )
            out[k] = mat
        return out
    raise ConfigError(
        f"{path}: expected a {rows}x{cols} matrix or a list of {n_steps} of them"
    )


def _single_vector(value, dim: int, path: str) -> np.ndarray | None:
    if isinstance(value, Real) and not isinstance(value, bool):
        if dim == 1:
            return np.array([float(value)])
        return None
    if isinstance(value, list) and len(value) == dim and all(
        isinstance(x, Real) and not isinstance(x, bool) for x in value
    ):
        return np.array([float(x) for x in value])
    return None


def _vector_schedule(value, n_steps: int, dim: int, path: str) -> np.ndarray:
    single = _single_vector(value, dim, path)
    if single is not None:
        return np.broadcast_to(single, (n_steps, dim)).copy()
    if isinstance(value, list) and len(value) == n_steps:
        out = np.empty((n_steps, dim))
        for k, entry in enumerate(value):
            vec = _single_vector(entry, dim, f"{path}[{k}]")
            if vec is None:
                raise ConfigError(f"{path}[{k}]: expected a vector of length {dim}")
            out[k] = vec
        return out
    raise ConfigError(
        f"{path}: expected a vector of length {dim} or a list of {n_steps} of them"
    )

"""Scenario configs: a small JSON schema for grid, model, and uncertainty.

One reader serves every coefficient.  A vector (f, g, x0) or matrix (F, G,
Q, R) is a scalar if it has one entry, a flat list, or, for a matrix only, a
nested list of rows.  One such value is broadcast over all intervals; a list
of n_steps of them is a per-interval schedule.  When a list could be read
either way, the single reading wins.  Parse errors name the offending JSON
path, and those of a file also name the file.  A scenario whose schedules
would need more than MAX_SCHEDULE_BYTES is refused before anything is
allocated, and a file that does not decode as JSON raises a ConfigError.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import takewhile
from numbers import Real

import numpy as np

from .errors import ConfigError, RobustKBError
from .model import (
    ModelSchedule,
    TimeGrid,
    UncertaintyBound,
    ValidatedModel,
    validate_model,
)

# Bytes of float64 coefficient schedules (F, G, Q, R, f, g) a scenario may
# ask for; larger ones are refused before anything is allocated.
MAX_SCHEDULE_BYTES = 1 << 30


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed and validated scenario."""

    grid: TimeGrid
    model: ValidatedModel
    bound: UncertaintyBound


def _require(mapping, key: str, path: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected an object")
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing")
    return mapping[key]


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _floats(values, path: str) -> list[float]:
    """float() of each number; an integer beyond the float range raises a
    ConfigError naming path."""
    try:
        return [float(x) for x in values]
    except OverflowError as exc:
        raise ConfigError(f"{path}: integer beyond the float range") from exc


def _as_number(value, path: str) -> float:
    if not _is_number(value):
        raise ConfigError(f"{path}: expected a number, got {type(value).__name__}")
    return _floats([value], path)[0]


def _as_positive_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {type(value).__name__}")
    if value < 1:
        raise ConfigError(f"{path}: must be >= 1, got {value}")
    return value


def _single(value, shape: tuple[int, ...], path: str) -> np.ndarray | None:
    """One array of shape (d,) or (r, c) from a scalar (if it has one entry),
    a flat list, or, for (r, c) only, a nested list of r rows of c; path
    names value in a ConfigError."""
    size = math.prod(shape)
    if _is_number(value):
        return np.full(shape, _as_number(value, path)) if size == 1 else None
    if not isinstance(value, list):
        return None
    flat = value
    if len(shape) == 2 and all(isinstance(row, list) for row in value):
        if len(value) != shape[0] or any(len(row) != shape[1] for row in value):
            return None
        flat = [x for row in value for x in row]
        # Rows are read in order: an integer beyond the float range before
        # the first non-number is named, as the nested reader always did.
        _floats(takewhile(_is_number, flat), path)
    if len(flat) == size and all(_is_number(x) for x in flat):
        return np.array(_floats(flat, path)).reshape(shape)
    return None


def _schedule(value, n_steps: int, shape: tuple[int, ...], path: str) -> np.ndarray:
    """(n_steps, *shape) from one array broadcast over every interval or a
    list of n_steps of them; the single reading wins where both fit."""
    single = _single(value, shape, path)
    if single is not None:
        return np.broadcast_to(single, (n_steps, *shape)).copy()
    if len(shape) == 1:
        what, forms = f"a vector of length {shape[0]}", ""
    else:
        what = f"a {shape[0]}x{shape[1]} matrix"
        forms = f" (scalar, nested list, or flat list of {math.prod(shape)})"
    if not isinstance(value, list) or len(value) != n_steps:
        raise ConfigError(f"{path}: expected {what} or a list of {n_steps} of them")
    out = np.empty((n_steps, *shape))
    for k, entry in enumerate(value):
        one = _single(entry, shape, f"{path}[{k}]")
        if one is None:
            raise ConfigError(f"{path}[{k}]: expected {what}{forms}")
        out[k] = one
    return out


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Build a validated scenario from a parsed JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError("$: expected a JSON object")
    grid_raw = _require(raw, "grid", "$")
    horizon = _as_number(_require(grid_raw, "T", "$.grid"), "$.grid.T")
    if horizon <= 0.0 or not np.isfinite(horizon):
        raise ConfigError(f"$.grid.T: must be finite and positive, got {horizon}")
    n_steps = _as_positive_int(_require(grid_raw, "n_steps", "$.grid"), "$.grid.n_steps")
    model_raw = _require(raw, "model", "$")
    n = _as_positive_int(_require(model_raw, "n", "$.model"), "$.model.n")
    m = _as_positive_int(_require(model_raw, "m", "$.model"), "$.model.m")
    nbytes = n_steps * (2 * n * n + n + m * n + m + m * m) * 8
    if nbytes > MAX_SCHEDULE_BYTES:
        raise ConfigError(
            f"$.grid.n_steps: {n_steps} intervals at n = {n}, m = {m} need "
            f"{nbytes} bytes of coefficient schedules, over the limit of "
            f"{MAX_SCHEDULE_BYTES}")
    grid = TimeGrid(horizon, n_steps)

    F, G, Q, R, f, g = (
        _schedule(_require(model_raw, key, "$.model"), n_steps, shape, f"$.model.{key}")
        for key, shape in (("F", (n, n)), ("G", (m, n)), ("Q", (n, n)),
                           ("R", (m, m)), ("f", (n,)), ("g", (m,))))
    x0 = _single(_require(model_raw, "x0", "$.model"), (n,), "$.model.x0")
    if x0 is None:
        raise ConfigError(f"$.model.x0: expected a vector of length {n}")

    unc_raw = _require(raw, "uncertainty", "$")
    mu_raw = _require(unc_raw, "mu", "$.uncertainty")
    mu_path = "$.uncertainty.mu"
    mu = (np.full(n, _as_number(mu_raw, mu_path)) if _is_number(mu_raw)
          else _single(mu_raw, (n,), mu_path))
    if mu is None:
        raise ConfigError(f"{mu_path}: expected a number or a vector of length {n}")
    if np.any(mu < 0.0):
        raise ConfigError("$.uncertainty.mu: must be componentwise nonnegative")

    schedule = ModelSchedule(F=F, f=f, G=G, g=g, Q=Q, R=R, x0=x0)
    try:
        model = validate_model(schedule, grid)
    except RobustKBError as exc:
        raise ConfigError(f"$.model: {exc}") from exc
    return ScenarioConfig(grid=grid, model=model, bound=UncertaintyBound(mu))


def scenario_from_bytes(blob: bytes, source: str) -> ScenarioConfig:
    """Decode the bytes of a scenario file and build the validated scenario;
    every ConfigError names source, the file the bytes came from."""
    try:
        raw = json.loads(blob)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{source} is not valid JSON: {exc}") from exc
    try:
        return scenario_from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def load_scenario(path: str) -> ScenarioConfig:
    """Load and validate a scenario JSON file."""
    return scenario_from_bytes(_read_bytes(path), path)

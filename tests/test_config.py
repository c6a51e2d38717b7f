import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import robustkb as rk
from robustkb import ConfigError, config

import config_reference as reference


def base_doc():
    return {
        "grid": {"T": 2.0, "n_steps": 4},
        "model": {"n": 1, "m": 1, "F": -1.0, "f": 0.0, "G": 1.0, "g": 0.0,
                  "Q": 1.0, "R": 1.0, "x0": 0.0},
        "uncertainty": {"mu": 1.0},
    }


class TestParsing:
    def test_scalar_broadcast(self):
        cfg = rk.scenario_from_dict(base_doc())
        assert cfg.grid.n_steps == 4
        assert cfg.model.F.shape == (4, 1, 1)
        assert np.all(cfg.model.F == -1.0)
        assert np.array_equal(cfg.bound.mu, [1.0])

    def test_single_matrix_broadcast(self):
        doc = base_doc()
        doc["model"].update({"n": 2, "F": [[-1.0, 0.0], [0.0, -2.0]],
                             "f": [0.0, 0.0], "G": [[1.0, 0.5]],
                             "Q": [[1.0, 0.0], [0.0, 1.0]], "x0": [0.0, 0.0]})
        cfg = rk.scenario_from_dict(doc)
        assert cfg.model.n == 2 and cfg.model.m == 1
        assert np.all(cfg.model.F[:, 1, 1] == -2.0)

    def test_flat_list_prefers_single_matrix(self):
        # n=2, n_steps=4: a flat list of four numbers is read as one 2x2
        # matrix broadcast over intervals, not as four scalar intervals.
        doc = base_doc()
        doc["model"].update({"n": 2, "F": [-1.0, 0.0, 0.0, -2.0],
                             "f": [0.0, 0.0], "G": [[1.0, 0.5]],
                             "Q": [[1.0, 0.0], [0.0, 1.0]], "x0": [0.0, 0.0]})
        cfg = rk.scenario_from_dict(doc)
        assert cfg.model.F.shape == (4, 2, 2)
        assert np.all(cfg.model.F[:, 0, 0] == -1.0)
        assert np.all(cfg.model.F[:, 1, 1] == -2.0)

    def test_per_interval_schedule(self):
        doc = base_doc()
        doc["model"]["F"] = [0.0, -1.0, -2.0, -3.0]
        cfg = rk.scenario_from_dict(doc)
        assert np.array_equal(cfg.model.F[:, 0, 0], [0.0, -1.0, -2.0, -3.0])
        assert not cfg.model.is_time_constant()

    def test_per_interval_vector_schedule(self):
        doc = base_doc()
        doc["model"]["f"] = [0.0, 0.5, 1.0, 1.5]
        cfg = rk.scenario_from_dict(doc)
        assert np.array_equal(cfg.model.f[:, 0], [0.0, 0.5, 1.0, 1.5])

    def test_vector_mu(self):
        doc = base_doc()
        doc["model"].update({"n": 2, "F": [[-1.0, 0.0], [0.0, -1.0]],
                             "f": [0.0, 0.0], "G": [[1.0, 0.0]],
                             "Q": [[1.0, 0.0], [0.0, 1.0]], "x0": [0.0, 0.0]})
        doc["uncertainty"]["mu"] = [1.0, 0.5]
        cfg = rk.scenario_from_dict(doc)
        assert np.array_equal(cfg.bound.mu, [1.0, 0.5])

    @given(st.floats(-2, 2), st.floats(0.1, 2), st.floats(0.1, 2),
           st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_random_scalar_docs_parse(self, F, Q, R, n_steps):
        doc = base_doc()
        doc["grid"]["n_steps"] = n_steps
        doc["model"].update({"F": F, "Q": Q, "R": R})
        cfg = rk.scenario_from_dict(doc)
        assert cfg.model.n_steps == n_steps
        assert np.all(cfg.model.F == F)


class TestErrors:
    @pytest.mark.parametrize("drop,path", [
        ("grid", "$.grid"),
        ("model", "$.model"),
        ("uncertainty", "$.uncertainty"),
    ])
    def test_missing_sections(self, drop, path):
        doc = base_doc()
        del doc[drop]
        with pytest.raises(ConfigError, match=path.replace("$", "\\$")):
            rk.scenario_from_dict(doc)

    def test_missing_coefficient_names_path(self):
        doc = base_doc()
        del doc["model"]["F"]
        with pytest.raises(ConfigError, match="\\$\\.model\\.F"):
            rk.scenario_from_dict(doc)

    def test_bad_interval_entry_names_index(self):
        doc = base_doc()
        doc["model"]["F"] = [0.0, -1.0, -2.0, "x"]
        with pytest.raises(ConfigError, match="\\$\\.model\\.F\\[3\\]"):
            rk.scenario_from_dict(doc)

    def test_wrong_length_schedule(self):
        doc = base_doc()
        doc["model"]["F"] = [0.0, -1.0]
        with pytest.raises(ConfigError, match="\\$\\.model\\.F"):
            rk.scenario_from_dict(doc)

    def test_bad_x0_length(self):
        doc = base_doc()
        doc["model"]["x0"] = [0.0, 0.0]
        with pytest.raises(ConfigError, match="\\$\\.model\\.x0"):
            rk.scenario_from_dict(doc)

    def test_negative_mu(self):
        doc = base_doc()
        doc["uncertainty"]["mu"] = -1.0
        with pytest.raises(ConfigError, match="\\$\\.uncertainty\\.mu"):
            rk.scenario_from_dict(doc)

    def test_bad_grid_values(self):
        doc = base_doc()
        doc["grid"]["T"] = -2.0
        with pytest.raises(ConfigError, match="\\$\\.grid\\.T"):
            rk.scenario_from_dict(doc)
        doc = base_doc()
        doc["grid"]["n_steps"] = 0
        with pytest.raises(ConfigError, match="\\$\\.grid\\.n_steps"):
            rk.scenario_from_dict(doc)

    def test_model_validation_wrapped(self):
        doc = base_doc()
        doc["model"]["R"] = 0.0
        with pytest.raises(ConfigError, match="\\$\\.model"):
            rk.scenario_from_dict(doc)

    def test_boolean_is_not_a_number(self):
        doc = base_doc()
        doc["model"]["F"] = True
        with pytest.raises(ConfigError, match="\\$\\.model\\.F"):
            rk.scenario_from_dict(doc)

    @pytest.mark.parametrize("section, key, value, path", [
        ("grid", "T", 10**400, "$.grid.T"),
        ("model", "F", 10**400, "$.model.F"),
        ("model", "Q", [1.0, 1.0, -(10**400), 1.0], "$.model.Q[2]"),
        ("model", "x0", [10**400], "$.model.x0"),
        ("uncertainty", "mu", 10**400, "$.uncertainty.mu"),
        ("uncertainty", "mu", [10**309], "$.uncertainty.mu"),
    ], ids=["T", "F", "Q-entry", "x0", "mu", "mu-vector"])
    def test_integer_beyond_the_float_range_names_path(self, section, key, value,
                                                       path):
        # float() of such an integer raises OverflowError, no RobustKBError.
        doc = base_doc()
        doc[section][key] = value
        with pytest.raises(ConfigError) as info:
            rk.scenario_from_dict(doc)
        assert str(info.value) == f"{path}: integer beyond the float range"


class TestLoadScenario:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(base_doc()))
        cfg = rk.load_scenario(str(path))
        assert cfg.model.n_steps == 4

    def test_missing_file_names_path(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        with pytest.raises(ConfigError, match="nope.json"):
            rk.load_scenario(missing)

    def test_invalid_json_names_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="broken.json"):
            rk.load_scenario(str(path))


class TestSizeAndDecode:
    def test_oversized_grid_is_refused_before_allocation(self):
        # 10**15 intervals would need 48 PB of schedules; NumPy refuses an
        # array that size at once, so without the check nothing is allocated.
        doc = base_doc()
        doc["grid"]["n_steps"] = 10**15
        with pytest.raises(ConfigError,
                           match="\\$\\.grid\\.n_steps: .* 48000000000000000 bytes"):
            rk.scenario_from_dict(doc)

    def test_limit_counts_every_coefficient_schedule(self, monkeypatch):
        # n = 2, m = 3, 4 intervals: 4 * (2n^2 + n + mn + m + m^2) * 8 bytes.
        doc = base_doc()
        doc["model"].update({"n": 2, "m": 3, "F": [-1.0, 0.0, 0.0, -1.0],
                             "f": [0.0, 0.0], "G": [1.0, 0.0, 0.0, 1.0, 1.0, 1.0],
                             "g": [0.0, 0.0, 0.0], "Q": [1.0, 0.0, 0.0, 1.0],
                             "R": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
                             "x0": [0.0, 0.0]})
        need = 4 * (8 + 2 + 6 + 3 + 9) * 8
        monkeypatch.setattr(config, "MAX_SCHEDULE_BYTES", need)
        assert rk.scenario_from_dict(doc).model.n_steps == 4
        monkeypatch.setattr(config, "MAX_SCHEDULE_BYTES", need - 1)
        with pytest.raises(ConfigError, match=f"\\$\\.grid\\.n_steps: .* {need} bytes"):
            rk.scenario_from_dict(doc)

    @pytest.mark.parametrize("body", [
        json.dumps(base_doc()).encode()[:-1] + b', "\xff": 1}',
        b'{"grid": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ], ids=["invalid-utf8", "nested-too-deep"])
    def test_undecodable_file_names_path(self, tmp_path, body):
        path = tmp_path / "undecodable.json"
        path.write_bytes(body)
        with pytest.raises(ConfigError, match="undecodable.json is not valid JSON"):
            rk.load_scenario(str(path))

    def test_file_errors_name_the_file_and_the_json_path(self, tmp_path):
        doc = base_doc()
        doc["grid"]["n_steps"] = 10
        doc["model"]["Q"] = [1.0, 2.0]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as info:
            rk.load_scenario(str(path))
        assert str(info.value) == (
            f"{path}: $.model.Q: expected a 1x1 matrix or a list of 10 of them")


# Integers reach past the float range (about 2**1024).
_INTEGERS = st.integers(-(2**1100), 2**1100)


def _leaf():
    return st.one_of(_INTEGERS, st.floats(width=64),
                     st.booleans(), st.text(max_size=2), st.none())


def _single_value(size, rows):
    """A candidate for one coefficient: a leaf, a flat list that often has
    the shape's size, or a nested list that often has its rows."""
    leaf = _leaf()
    number = st.one_of(_INTEGERS, st.floats(width=64))
    return st.one_of(
        leaf,
        st.lists(leaf, max_size=size + 2),
        st.lists(number, min_size=size, max_size=size),
        st.lists(st.lists(leaf, max_size=4), max_size=4),
        st.lists(st.lists(number, min_size=size // rows, max_size=size // rows),
                 min_size=rows, max_size=rows),
    )


@st.composite
def _reader_case(draw):
    n_steps = draw(st.integers(1, 4))
    shape = draw(st.one_of(st.tuples(st.integers(1, 3)),
                           st.tuples(st.integers(1, 3), st.integers(1, 3))))
    size, rows = int(np.prod(shape)), shape[0]
    single = _single_value(size, rows)
    value = draw(st.one_of(
        single,
        st.lists(single, min_size=n_steps, max_size=n_steps),
        st.lists(_single_value(size, rows), max_size=5),
    ))
    return value, n_steps, shape


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ConfigError as exc:
        return f"ConfigError: {exc}"
    except OverflowError:
        # Only the old readers raise it, on an integer beyond the float range.
        return OverflowError


def _same(new, old):
    if old is OverflowError:
        # The new reader names the coefficient, or the per-interval entry.
        assert isinstance(new, str), new
        assert new.startswith("ConfigError: $.model.X"), new
        assert new.endswith(": integer beyond the float range"), new
    elif isinstance(old, np.ndarray):
        assert isinstance(new, np.ndarray)
        assert new.shape == old.shape and new.dtype == old.dtype
        assert new.tobytes() == old.tobytes()
    else:
        assert new == old


@given(_reader_case())
@example(([[2 ** 1100, False]], 1, (1, 2)))
@settings(max_examples=600, deadline=None)
def test_one_reader_matches_the_matrix_and_vector_readers(case):
    value, n_steps, shape = case
    path = "$.model.X"
    if len(shape) == 1:
        old_single = _outcome(reference._single_vector, value, shape[0], path)
        old = _outcome(reference._vector_schedule, value, n_steps, shape[0], path)
    else:
        old_single = _outcome(reference._single_matrix, value, *shape, path)
        old = _outcome(reference._matrix_schedule, value, n_steps, *shape, path)
    _same(_outcome(config._single, value, shape, path), old_single)
    _same(_outcome(config._schedule, value, n_steps, shape, path), old)

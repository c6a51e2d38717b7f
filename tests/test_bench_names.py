"""The names the benchmark reaches into resolve in the package.

bench/tracing.py skips a cross-layer name the package no longer has and
matches its work sizers to functions by name, so a renamed or deleted
function would drop a per-layer metric with no error.  This loads the
benchmark's tracer and workloads by path, records the span names its own
install gives, and checks every name the benchmark uses against them.
"""

import importlib.util
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.fixture(scope="module")
def traced_keys(tracing):
    """The span name of every function Tracer.install wraps."""
    keys = set()

    class Recording(tracing.Tracer):
        def _wrap(self, fn, key, layer):
            keys.add(key)
            return super()._wrap(fn, key, layer)

    tracer = Recording()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    return keys


def test_cross_layer_names_are_traced(tracing, traced_keys):
    # install wraps public names only, so a private last name comes from
    # CROSS_LAYER, and install skips the ones the package no longer has.
    last = {key.rsplit(".", 1)[1] for key in traced_keys}
    for names in tracing.CROSS_LAYER.values():
        assert set(names) <= last, sorted(set(names) - last)


def test_sizer_and_after_keys_name_traced_functions(tracing, traced_keys):
    for table in (tracing.SIZERS, tracing.AFTER):
        assert set(table) <= traced_keys, sorted(set(table) - traced_keys)


def test_benchmarked_checks_resolve(tracing, workloads):
    from robustkb import verification

    names = {chk.__name__ for chk in verification.ALL_CHECKS}
    assert set(workloads.EXACT_CHECKS) <= names
    assert {f"check_{c}" for c in tracing.CHECKS} <= names

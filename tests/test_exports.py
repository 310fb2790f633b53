"""The public names: every ``__all__`` entry of the modules resolves, and the package imports."""

import importlib

import pytest

MODULES = ["coinwalk.grid", "coinwalk.graph", "coinwalk.runner", "coinwalk.stationary", "coinwalk.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_listed_name(name):
    # a listed name that the module no longer defines makes the star import raise
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    listed = importlib.import_module(name).__all__
    assert len(set(listed)) == len(listed)
    assert set(listed) <= namespace.keys()


def test_package_imports():
    # the package re-executes its re-exports from the loaded modules
    import coinwalk

    importlib.reload(coinwalk)
    assert coinwalk.__version__

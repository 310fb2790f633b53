"""The public names: every ``__all__`` entry of the modules resolves, the package re-exports the
library modules' lists, and the README's library example runs."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coinwalk

MODULES = ["coinwalk.grid", "coinwalk.graph", "coinwalk.runner", "coinwalk.stationary", "coinwalk.cli"]
# the package re-exports these, in this order; coinwalk.cli stays out
LIBRARY = MODULES[:-1]
README = Path(__file__).parents[1] / "README.md"


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
    importlib.reload(coinwalk)
    assert coinwalk.__version__


def test_package_all_is_the_module_lists():
    listed = [name for module in LIBRARY for name in importlib.import_module(module).__all__]
    assert coinwalk.__all__ == listed
    assert len(set(listed)) == len(listed)


@pytest.mark.parametrize("module", LIBRARY)
def test_package_names_are_the_module_objects(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        assert getattr(coinwalk, name) is getattr(mod, name)


def test_names_only_tests_called_are_gone():
    # their replacements: csv/json on the written files, np.dot of the .amp arrays,
    # zip(tail, head), MarkedSet(n), not report.truncated and build_block_tiling
    import coinwalk.cli

    removed = [
        (coinwalk.cli, "read_series_csv"),
        (coinwalk.cli, "read_series_json"),
        (coinwalk.cli, "read_table_csv"),
        (coinwalk.cli, "read_table_json"),
        (coinwalk, "overlap"),
        (coinwalk.grid, "overlap"),
        (coinwalk, "graph_overlap"),
        (coinwalk.graph, "graph_overlap"),
        (coinwalk, "build_domino_state"),
        (coinwalk.stationary, "build_domino_state"),
        (coinwalk.Graph, "arcs"),
        (coinwalk.GraphState, "copy"),
        (coinwalk.MarkedSet, "empty"),
        (coinwalk.TableReport, "complete"),
    ]
    assert [f"{owner.__name__}.{name}" for owner, name in removed if hasattr(owner, name)] == []


def test_package_import_leaves_cli_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(coinwalk.__file__).parents[1])}
    script = "import sys, coinwalk; print(sorted({'coinwalk.cli', 'argparse', 'csv'} & sys.modules.keys()))"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    exec(block, {})
    halt, conditions, _ = capsys.readouterr().out.splitlines()
    assert halt.split()[0] == "318"
    assert conditions == "(True, True, True)"
    assert f"# {conditions}\n" in block

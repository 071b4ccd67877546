"""The benchmark's tracer (czbench/tracer.py) wraps czmap functions by name.

A name in its TRACED table that no longer resolves breaks
`czbench/run.py --trace 1`, so every entry must resolve here.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "czbench",
                           "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("czbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _tracer().TRACED


@pytest.mark.parametrize("module_name, attr",
                         [(entry[0], entry[1]) for entry in TRACED])
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        # the tracer reads the method from the class's own namespace
        assert name in vars(getattr(module, owner_name))
    else:
        assert callable(getattr(module, name))


def test_counter_arguments_and_load_hook_exist():
    from czmap import cli, norms
    # the tracer's pair counter binds these parameters by name
    params = inspect.signature(norms.holder_seminorm).parameters
    assert {"points", "pair_cap"} <= set(params)
    # the benchmark's child process stamps setup time by replacing this
    assert callable(cli.load_scenario)

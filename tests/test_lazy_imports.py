"""No czmap command loads scipy.  `import czmap`, the lemma battery,
every run mode with declared radii, `czmap radius` and radii given as
`estimate` run on numpy alone: the harmonic chart's Dirichlet problem is
a block LU solve, and only its iterative route above DIRECT_SOLVE_LIMIT
interior points (which no fixture reaches) imports scipy.  Grid
interpolation is `CoordinateBox.interpolate`, so no run loads
`scipy.interpolate`.

Nor does any `czmap run`, `validate`, `radius` or `search` load
`numpy.random`, whose first use also loads OpenSSL (`_hashlib`, through
`secrets`): the sampled Lipschitz pairs, the capped Hölder pairs and the
diameter sample and a search's restart points come from the stdlib
`random`, which `import czmap.cli` already loads.

Each check runs in a fresh interpreter: the test process itself has
long since imported scipy through other tests.  A command's module set
is taken once and shared by the checks that read it.
"""

import functools
import json
import os
import subprocess
import sys

import pytest

import czmap

SRC = os.path.dirname(os.path.dirname(os.path.abspath(czmap.__file__)))

LEMMA_RUN = """
import sys
import czmap
from czmap import cli
assert cli.main(["run", "--scenario", "lemma-battery", "--out", sys.argv[1]]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


COMMAND_RUN = """
import json
import sys
import tempfile
from czmap import cli
argv = sys.argv[1:]
with tempfile.TemporaryDirectory() as out:
    if argv[0] == "run":
        argv += ["--out", out + "/run"]
    status = cli.main(argv)
print(json.dumps([status, sorted(sys.modules)]))
"""


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)


@functools.cache
def _loaded_modules(*argv) -> frozenset:
    """The modules a `czmap` command loaded; it must exit 0."""
    out = _run(COMMAND_RUN, *argv)
    assert out.returncode == 0, out.stderr
    status, modules = json.loads(out.stdout.strip().splitlines()[-1])
    assert status == 0
    return frozenset(modules)


def _scipy_modules(*argv) -> list:
    return sorted(name for name in _loaded_modules(*argv)
                  if name.split(".")[0] == "scipy")


def test_lemma_battery_loads_no_scipy(tmp_path):
    out = _run(LEMMA_RUN, str(tmp_path / "lemma"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "lemma.jsonl").exists()


@pytest.mark.parametrize("command, fixture", [
    ("run", "sphere-global"), ("run", "ball-estimate"),
    ("run", "sphere-immersion"), ("search", "saddle-search")])
def test_runs_with_declared_radii_load_no_scipy(command, fixture):
    assert _scipy_modules(command, "--scenario", fixture) == []


@pytest.mark.parametrize("command, fixture", [
    ("radius", "hyperbolic-map"), ("run", "halfplane-corollary")])
def test_dirichlet_solves_load_no_scipy(command, fixture):
    # czmap radius, and a run whose source radius is `estimate`
    assert _scipy_modules(command, "--scenario", fixture) == []


@pytest.mark.parametrize("argv", [
    ["search", "--scenario", "saddle-search"],
    ["radius", "--scenario", "hyperbolic-map"]])
def test_runs_load_no_scipy_interpolate(argv):
    assert not [name for name in _scipy_modules(*argv)
                if name.startswith("scipy.interpolate")]


@pytest.mark.parametrize("command, fixture", [
    ("run", "sphere-global"), ("run", "ball-estimate"),
    ("run", "sphere-immersion"), ("run", "halfplane-corollary"),
    ("validate", "sphere-global"), ("radius", "hyperbolic-map"),
    ("search", "saddle-search"), ("search", "sine-search")])
def test_chart_paths_load_no_numpy_random(command, fixture):
    # halfplane-corollary reaches image_diameter; every run and validate
    # checks the map's Lipschitz bound on sampled pairs; a search draws
    # its restart points
    loaded = _loaded_modules(command, "--scenario", fixture)
    assert not loaded & {"numpy.random", "_hashlib"}

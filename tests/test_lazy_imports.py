"""scipy is imported inside the functions that use it, so `import czmap`
and the lemma battery, which needs none of it, never load scipy, and no
run loads `scipy.interpolate`: grid interpolation is
`CoordinateBox.interpolate`.

Each check runs in a fresh interpreter: the test process itself has
long since imported scipy through other tests.
"""

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
import sys
from czmap import cli
status = cli.main(sys.argv[1:])
print(status, sorted(name for name in sys.modules
                     if name.startswith("scipy.interpolate")))
"""


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_lemma_battery_loads_no_scipy(tmp_path):
    out = _run(LEMMA_RUN, str(tmp_path / "lemma"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "lemma.jsonl").exists()


@pytest.mark.parametrize("argv", [
    ["search", "--scenario", "saddle-search"],
    ["radius", "--scenario", "hyperbolic-map"]])
def test_runs_load_no_scipy_interpolate(argv):
    out = _run(COMMAND_RUN, *argv)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "0 []"

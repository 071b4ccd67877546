"""czmap benchmark: four CLI workloads, timed end to end or traced by layer.

    python3 czbench/run.py --workload global-curved --seed 1 --seconds 32 \\
        --trace 0

Run from the root of a czmap checkout.  Each operation is one `czmap`
command (`run`, `search` or `radius`) in a child process started from
this process, whose outputs are then checked against values computed in
`checks.py`.  A run starts with set-up probes (the same command, stopped
once its scenario is loaded), then repeats the operation until another
one would overrun `--seconds`.

--trace 0 reports, as medians over the run's samples:
  wall_s       launch of the child until it has exited, outputs written
  setup_s      launch until `load_scenario` returned (interpreter, imports,
               scenario parse and validation), from every child
  peak_rss_mb  peak resident set of the child alone (wait4 rusage)
--trace 1 runs the operations with the layer tracer of `tracer.py` and
reports its per-layer metrics: self times as medians over the run's
operations, counts from its first operation.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Reports, generated scenarios and
child output go to `.czbench/out/<workload>`, traces to
`.czbench/trace/<workload>`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import sys
import threading
import time

import checks
from tracer import PER_LAYER, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SETUP_PROBES = 3          # set-up-only children at the start of a run
CHILD_TIMEOUT_S = 150.0   # a child still running then is killed and failed
# one BLAS thread, so that an operation keeps to one CPU and its time does
# not depend on what runs on the other
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


# ---------------------------------------------------------------------------
# workloads: argv of the czmap command and the checker of its outputs
# ---------------------------------------------------------------------------

def global_curved(seed: int, out: str):
    """`czmap run` on the shipped sphere-global fixture (ladder 33/65,
    p = 1.5, 2, 4).  The seed reaches `[run] seed`, which global mode does
    not read: the work is the same for every seed."""
    prefix = os.path.join(out, "report")
    argv = ["run", "--scenario", "sphere-global", "--seed", str(seed),
            "--out", prefix]
    return argv, lambda stdout: checks.check_global_curved(
        checks.read_jsonl(prefix + ".jsonl"))


def lemma(seed: int, out: str):
    """`czmap run` on the shipped lemma-battery fixture (9 reports).  As
    for global-curved, the seed does not change the work."""
    prefix = os.path.join(out, "report")
    argv = ["run", "--scenario", "lemma-battery", "--seed", str(seed),
            "--out", prefix]
    return argv, lambda stdout: checks.check_lemma(
        checks.read_jsonl(prefix + ".jsonl"))


SADDLE_BOUNDS = ([0.0], [0.5])   # [search] lower/upper of saddle-search
SADDLE_FIXTURE_SEED = 20859      # its [run] seed


def search_seed(seed: int) -> tuple:
    """(restart seed, evaluations) for the saddle search of `seed`.

    The number of evaluations a pattern search makes depends on where its
    seeded restarts land (32 to 44 for this family), and wall time is
    proportional to it.  The saddle ratio increases with eps, so the
    search on an increasing stand-in makes the same trace.  Candidate
    restart seeds are drawn from `seed` until one needs as many
    evaluations as the fixture's own seed (38): the restarts differ from
    seed to seed, the amount of work does not.
    """
    from czmap.search import MapFamily, extremal_ratio_search
    family = MapFamily(*SADDLE_BOUNDS, lambda params: params[0])

    def evaluations(s):
        return extremal_ratio_search(family, seed=s).evaluations

    target = evaluations(SADDLE_FIXTURE_SEED)
    rng = random.Random(seed)
    for _ in range(1000):
        candidate = rng.randrange(2 ** 31)
        if evaluations(candidate) == target:
            return candidate, target
    raise SystemExit(f"czbench: no restart seed makes {target} evaluations")


def search_flat(seed: int, out: str):
    """`czmap search` on the shipped saddle-search fixture."""
    restart_seed, evaluations = search_seed(seed)
    prefix = os.path.join(out, "report")
    argv = ["search", "--scenario", "saddle-search", "--seed",
            str(restart_seed), "--out", prefix]
    return argv, lambda stdout: checks.check_search_flat(
        checks.read_jsonl(prefix + ".jsonl"), evaluations)


# Two curved charts, each homogeneous along one axis (the sphere patch
# along ph, the half-plane along x) and mirror-symmetric across the middle
# of that axis.  Base points sit on the middle line of the other axis at
# whole grid steps from the mirror line, nearer to it than to the box
# walls, so the wall margin that sets r_max is the same for every point:
# the seed moves the points, and the work stays the same.
RADIUS_CHARTS = (
    # name, coordinates, lower, upper, resolution, metric 11/22, base line,
    # (axis moved by the seed, grid steps allowed from the mirror line)
    ("sphere", "th, ph", (1.2708, 0.0), (1.8708, 1.2), (33, 65),
     ("1", "sin(th)^2"), 1.5708, (1, range(1, 16))),
    ("halfplane", "x, y", (-0.4, 1.3), (0.4, 1.7), (65, 33),
     ("1/(y*y)", "1/(y*y)"), 1.5, (0, range(1, 16))),
)
RADIUS_PAIRS = 2   # mirrored base point pairs per chart


def radius_scenario(seed: int) -> tuple:
    """(scenario text, [(chart, point, mirrored point)]) for `seed`."""
    rng = random.Random(seed)
    sections, pairs = [], []
    for name, coords, lower, upper, res, metric, line, (axis, steps) in \
            RADIUS_CHARTS:
        h = (upper[axis] - lower[axis]) / (res[axis] - 1)
        middle = 0.5 * (lower[axis] + upper[axis])
        points = []
        for k in rng.sample(steps, RADIUS_PAIRS):
            a, b = [line, line], [line, line]
            a[axis] = middle - k * h
            b[axis] = lower[axis] + upper[axis] - a[axis]
            pairs.append((name, a, b))
            points += a + b
        sections.append("\n".join([
            f"[manifold {name}]",
            f"coordinates = {coords}",
            f"lower = {lower[0]!r}, {lower[1]!r}",
            f"upper = {upper[0]!r}, {upper[1]!r}",
            f"resolution = {res[0]}, {res[1]}",
            f"metric.1.1 = {metric[0]}",
            "metric.1.2 = 0",
            f"metric.2.2 = {metric[1]}",
            "base_points = " + ", ".join(repr(v) for v in points),
            ""]))
    sections.append("[run]\nmode = global\n")
    return "\n".join(sections), pairs


def radius_curved(seed: int, out: str):
    """`czmap radius` on a generated two-chart scenario."""
    text, pairs = radius_scenario(seed)
    path = os.path.join(out, "radius-curved.scn")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return ["radius", "--scenario", path], \
        lambda stdout: checks.check_radius(stdout, pairs)


WORKLOADS = {"global-curved": global_curved, "search-flat": search_flat,
             "lemma": lemma, "radius-curved": radius_curved}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Child:
    """Starts `child.py` with one czmap command and measures it."""

    def __init__(self, root: str, out: str, argv: list):
        self.argv = argv
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("CZBENCH_")}
        self.env.update(THREAD_ENV, PYTHONPATH=os.path.join(root, "src"))
        self.stamp = os.path.join(out, "stamp.json")
        self.stdout = os.path.join(out, "stdout.txt")
        self.stderr = os.path.join(out, "stderr.txt")

    def run(self, probe: bool = False, trace: str | None = None) -> dict:
        env = dict(self.env, CZBENCH_STAMP=self.stamp)
        if probe:
            env["CZBENCH_PROBE"] = "1"
        if trace:
            env["CZBENCH_TRACE"] = trace
        for path in (self.stamp, trace):
            if path and os.path.exists(path):
                os.remove(path)
        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
            start = time.monotonic()
            pid = os.posix_spawn(sys.executable,
                                 [sys.executable, CHILD, *self.argv], env,
                                 file_actions=actions)
            killer = threading.Timer(CHILD_TIMEOUT_S, os.kill,
                                     (pid, signal.SIGKILL))
            killer.start()
            _, status, usage = os.wait4(pid, 0)
            wall = time.monotonic() - start
            killer.cancel()
        result = {"status": os.waitstatus_to_exitcode(status), "wall_s": wall,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if os.path.exists(self.stamp):
            with open(self.stamp, encoding="utf-8") as fh:
                result["setup_s"] = json.load(fh)["loaded"] - start
        return result

    def output(self) -> str:
        with open(self.stdout, encoding="utf-8") as fh:
            return fh.read()

    def error_tail(self) -> str:
        with open(self.stderr, encoding="utf-8", errors="replace") as fh:
            return fh.read()[-2000:]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "czmap", "__init__.py")):
        raise SystemExit("czbench: run from the root of a czmap checkout "
                         "(src/czmap not found)")
    sys.path.insert(0, os.path.join(root, "src"))
    out = os.path.join(root, ".czbench", "out", workload)
    trace_dir = os.path.join(root, ".czbench", "trace", workload)
    for path in (out, trace_dir):
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
    argv, check = WORKLOADS[workload](seed, out)
    child = Child(root, out, argv)
    if child.run(probe=True)["status"] != 0:   # warm-up, not measured
        raise SystemExit(f"czbench: {workload} set-up failed:\n"
                         + child.error_tail())

    samples = {name: [] for name in END_TO_END_UNITS}
    layers, problems = [], []
    attempted = failed = 0
    start = time.monotonic()
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = child.run(probe=True)
            if probe["status"] == 0 and "setup_s" in probe:
                samples["setup_s"].append(probe["setup_s"])
    while True:
        operation_start = time.monotonic()
        trace_path = (os.path.join(trace_dir, f"trace-{attempted}.json")
                      if trace else None)
        result = child.run(trace=trace_path)
        attempted += 1
        if result["status"] != 0 or "setup_s" not in result:
            failed += 1
            print(f"czbench: {workload} operation failed with status "
                  f"{result['status']}:\n{child.error_tail()}",
                  file=sys.stderr)
        else:
            for key in samples:
                samples[key].append(result[key])
            problems += check(child.output())
            if trace:
                with open(trace_path, encoding="utf-8") as fh:
                    layers.append(layer_metrics(json.load(fh)))
                print(f"czbench: traced wall_s {result['wall_s']:.4f}",
                      file=sys.stderr)
        now = time.monotonic()
        if now - start + (now - operation_start) > seconds:
            break

    for problem in problems:
        print(f"czbench: {workload}: {problem}", file=sys.stderr)
    if trace:
        metrics = layer_summary(layers, workload)
    else:
        metrics = {name: {"value": statistics.median(values),
                          "unit": END_TO_END_UNITS[name]}
                   for name, values in samples.items() if values}
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def layer_summary(layers: list, workload: str) -> dict:
    """Median self times over the traced operations, counts from the first;
    counts that differ between operations of one run are reported."""
    metrics = {}
    for name, (unit, *_) in PER_LAYER.items():
        values = [layer[name] for layer in layers]
        if not values:
            continue
        if unit == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                print(f"czbench: {workload}: {name} varies between "
                      f"operations: {values}", file=sys.stderr)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

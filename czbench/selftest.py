"""Self-test of the benchmark's checkers and metric names.

    python3 czbench/selftest.py [workload ...]

Run from the root of a czmap checkout.  For each workload it runs the
czmap command once, requires the checker to accept the genuine output,
then perturbs that output in the ways listed in `PERTURBATIONS` (each a
change of one value or line) and requires the checker to reject every
perturbed copy.  It also requires `BENCHMARK.json` to name exactly the
metrics `run.py` prints.  Exit status 0 means all of this held.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import checks
import run
from tracer import PER_LAYER

TINY = 1.0 + 1e-9   # far below any printed digit, far above the tolerances


def _scale(key, factor, nested="terms"):
    """Multiply one value of the first record."""
    def apply(records):
        (records[0][nested] if nested else records[0])[key] *= factor
        return records
    return apply


def _set(key, value, nested="terms"):
    """Replace one value of the first record."""
    def apply(records):
        (records[0][nested] if nested else records[0])[key] = value
        return records
    return apply


def _no_convergence(records):
    """65^2 lhs_hess given the 33^2 error: the refinement gains nothing."""
    by = {(r["resolution"], r["p"]): r["terms"] for r in records}
    fine = by["65x65", 2.0]
    fine["lhs_hess"] = by["33x33", 2.0]["lhs_hess"]
    fine["t_laplacian"] = checks.SQRT2 * fine["lhs_hess"]
    return records


def _trace_value(records):
    records[0]["trace"][5]["value"] *= TINY
    return records


def _one_more_evaluation(records):
    records[0]["cover_stats"]["evaluations"] += 1
    return records


def _replace_first(old, new):
    return lambda text: text.replace(old, new, 1)


def _mismatch_mirror(text):
    """Change the last digit of the first hr2_value printed."""
    head, sep, tail = text.partition("hr2_value=")
    value, rest = tail.split(" ", 1)
    last = str((int(value[-1]) + 1) % 10)
    return head + sep + value[:-1] + last + " " + rest


def _drop_estimate(text):
    lines = text.splitlines(keepends=True)
    return "".join(lines[2:])


# workload -> [(description, perturbation of the records or stdout text)]
PERTURBATIONS = {
    "global-curved": [
        ("t_laplacian off by 1e-9", _scale("t_laplacian", TINY)),
        ("ratio off by 1e-9", _scale("ratio", TINY, nested=None)),
        ("lhs_hess not converging", _no_convergence),
        ("one report missing", lambda records: records[1:]),
    ],
    "search-flat": [
        ("best_value off by 1e-9", _scale("best_value", TINY)),
        ("best_eps below the upper bound", _set("best_eps", 0.49)),
        ("one trace value off by 1e-9", _trace_value),
        ("one evaluation more", _one_more_evaluation),
    ],
    "lemma": [
        ("dev_hessian above 1e-10", _set("dev_hessian", 1e-9)),
        ("c_emp off by 1e-9", _scale("c_emp", TINY)),
        ("failed identity check", _set("passed", False, nested=None)),
    ],
    "radius-curved": [
        ("a certificate fails", _replace_first("verdict=holds",
                                               "verdict=fails")),
        ("mirrored hr2_value differs", _mismatch_mirror),
        ("one base point missing", _drop_estimate),
    ],
}


def selftest(workload: str, root: str) -> list:
    out = os.path.join(root, ".czbench", "out", workload)
    os.makedirs(out, exist_ok=True)
    argv, check = run.WORKLOADS[workload](1, out)
    child = run.Child(root, out, argv)
    result = child.run()
    if result["status"] != 0:
        return [f"czmap exited with {result['status']}:\n{child.error_tail()}"]
    stdout = child.output()
    failures = [f"genuine output rejected: {p}" for p in check(stdout)]
    report = os.path.join(out, "report.jsonl")
    records = checks.read_jsonl(report) if "--out" in argv else None
    for description, perturb in PERTURBATIONS[workload]:
        if records is None:
            problems = check(perturb(stdout))
        else:
            with open(report, "w", encoding="utf-8") as fh:
                for r in perturb(copy.deepcopy(records)):
                    fh.write(json.dumps(r) + "\n")
            problems = check(stdout)
        verdict = "rejected" if problems else "ACCEPTED"
        print(f"  {workload}: {description}: {verdict}")
        if not problems:
            failures.append(f"perturbation accepted: {description}")
    return failures


def metric_names(root: str) -> list:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []
    pairs = (("end_to_end", run.END_TO_END_UNITS),
             ("per_layer", {k: v[0] for k, v in PER_LAYER.items()}))
    for section, printed in pairs:
        listed = {m["name"]: m["unit"] for m in spec[section]}
        if listed != printed:
            failures.append(f"BENCHMARK.json {section} {listed} != "
                            f"printed {printed}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.py")
    return failures


def main(argv=None) -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    workloads = (sys.argv[1:] if argv is None else argv) or list(run.WORKLOADS)
    failures = metric_names(root)
    for workload in workloads:
        failures += [f"{workload}: {f}" for f in selftest(workload, root)]
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

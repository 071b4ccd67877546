"""Compare the reports of two czmap source trees on every shipped fixture.

    python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``czmap`` package (a
checkout's ``src``).  For each tree and each fixture in that tree's
``czmap/fixtures``, the script runs ``czmap run --scenario <fixture>
--out <prefix>`` at the fixture's own exponents and again with ``--p
1.5,2,4`` (the work shared across exponents shows only in a run at
several), ``czmap report <prefix>.jsonl`` on the first run's records,
``czmap validate --scenario <fixture>`` and ``czmap radius --scenario
<fixture>`` in a fresh interpreter with the tree on PYTHONPATH.  A
fixture whose mode is ``search`` (as ``validate`` prints it) also runs at
each of ``SEARCH_SEEDS``, so restart points beyond the fixture's own seed
are compared.  It then compares

* the JSONL records of every run, parsed, with the wall-clock key
  ``timing_seconds`` removed;
* the TSV files of every run, byte for byte;
* the ``report``, ``validate`` and ``radius`` stdout and stderr, byte
  for byte (``radius`` prints an estimate that fails to stderr);
* the exit codes of all commands.

It prints every difference and exits 1 if there is one, else 0.  Only
the standard library is used; fixtures run one at a time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile


def _czmap(src: str, args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("CZMAP_FIXTURES", None)
    return subprocess.run([sys.executable, "-m", "czmap", *args], env=env,
                          capture_output=True, timeout=600)


def _records(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    for record in records:
        record.pop("timing_seconds", None)
    return records


def _read(path: str):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


MULTI_P = "1.5,2,4"
SEARCH_SEEDS = ("1", "99999999999999999999999")


def _run(src: str, fixture: str, prefix: str, *flags) -> dict:
    """Exit code, records and table of one ``czmap run`` with ``flags``."""
    run = _czmap(src, ["run", "--scenario", fixture, "--out", prefix, *flags])
    label = " ".join(["run", *flags])
    jsonl = prefix + ".jsonl"
    return {
        f"{label} exit code": run.returncode,
        f"{label} JSONL records (minus timing_seconds)":
            _records(jsonl) if os.path.exists(jsonl) else None,
        f"{label} TSV bytes": _read(prefix + ".tsv"),
    }


def outputs(src: str, fixture: str, workdir: str) -> dict:
    """Everything compared for one fixture under one tree."""
    prefix = os.path.join(workdir, fixture)
    validate = _czmap(src, ["validate", "--scenario", fixture])
    radius = _czmap(src, ["radius", "--scenario", fixture])
    first = _run(src, fixture, prefix)
    report = _czmap(src, ["report", prefix + ".jsonl"])
    found = {
        **first,
        **_run(src, fixture, prefix + "-multi-p", "--p", MULTI_P),
    }
    for name, done in (("report", report), ("validate", validate),
                       ("radius", radius)):
        found.update({f"{name} exit code": done.returncode,
                      f"{name} stdout": done.stdout,
                      f"{name} stderr": done.stderr})
    if validate.stdout.rstrip().endswith(b"mode search)"):
        for seed in SEARCH_SEEDS:
            found.update(_run(src, fixture, f"{prefix}-seed-{seed}",
                              "--seed", seed))
    return found


def fixtures(src: str) -> list:
    folder = os.path.join(src, "czmap", "fixtures")
    return sorted(name[:-4] for name in os.listdir(folder)
                  if name.endswith(".scn"))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = argv
    names = fixtures(parent)
    differences = []
    if names != fixtures(change):
        differences.append(f"fixture sets differ: {names} vs {fixtures(change)}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            sides = []
            for label, src in (("parent", parent), ("change", change)):
                workdir = os.path.join(tmp, label)
                os.makedirs(workdir, exist_ok=True)
                sides.append(outputs(src, name, workdir))
            found = [f"{name}: {what} differ"
                     for what in {**sides[0], **sides[1]}
                     if sides[0].get(what) != sides[1].get(what)]
            print(f"{name}: {'differs' if found else 'identical'}", flush=True)
            differences.extend(found)
    for line in differences:
        print(line)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one `czmap` command in this process, as the `czmap` script would.

    python3 czbench/child.py run --scenario sphere-global --out ...

The benchmark starts this script once per measured command, with the
checkout's `src` on PYTHONPATH.  It calls `czmap.cli.main` with the
arguments given and adds three things from outside the program:

* CZBENCH_STAMP=<file>: the CLOCK_MONOTONIC time at which
  `load_scenario` returned is written there as JSON, so the parent can
  take `setup_s` without reading the command's output;
* CZBENCH_PROBE=1: exit at that moment, so only set-up is run;
* CZBENCH_TRACE=<file>: wrap the czmap layers (see `tracer.py`), read
  back the reports the command wrote, and write the layer totals there.
"""

import json
import os
import sys
import time


def main() -> int:
    trace_path = os.environ.get("CZBENCH_TRACE")
    tracer = None
    if trace_path:
        from tracer import Tracer   # this script's directory is on sys.path
        tracer = Tracer()
        tracer.install()
    import czmap
    import czmap.cli as cli

    src = os.path.realpath(os.environ["PYTHONPATH"])
    if not os.path.realpath(czmap.__file__).startswith(src + os.sep):
        print(f"czmap was imported from {czmap.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    stamp_path = os.environ["CZBENCH_STAMP"]
    probe = os.environ.get("CZBENCH_PROBE") == "1"
    load = cli.load_scenario

    def load_and_stamp(path):
        scenario = load(path)
        loaded = time.monotonic()
        with open(stamp_path, "w", encoding="utf-8") as fh:
            json.dump({"loaded": loaded}, fh)
        if probe:
            os._exit(0)
        return scenario

    cli.load_scenario = load_and_stamp
    args = sys.argv[1:]
    status = cli.main(args)
    if tracer is not None:
        if "--out" in args:
            cli.read_reports(args[args.index("--out") + 1] + ".jsonl")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.totals(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main())

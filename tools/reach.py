"""List the czmap functions that no shipped fixture reaches.

    python3 tools/reach.py [SRC]

SRC is a directory that holds the ``czmap`` package (default: the
``src`` beside this script's folder).  With SRC first on sys.path, the
script runs, for each fixture in ``SRC/czmap/fixtures``,

    czmap validate --scenario <fixture>
    czmap run --scenario <fixture> --out <prefix>
    czmap radius --scenario <fixture> --resolution 17
    czmap report <prefix>.jsonl

(``czmap search`` in place of ``czmap run`` when the fixture's ``[run]
mode`` is ``search``) in this interpreter under ``sys.settrace``, which
records every code object that is called.  It then prints each function
and method defined in ``SRC/czmap/*.py`` that was never called, as
``file:line name``, followed by their count.  Class bodies, lambdas and
comprehensions are not listed.  A command that exits nonzero is named
on stderr.  Only the standard library is used; the commands' own output
is discarded.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile
import types


def functions(code: types.CodeType):
    """Every function code object defined, at any depth, in ``code``."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if (const.co_flags & inspect.CO_OPTIMIZED
                    and not const.co_name.startswith("<")):
                yield const
            yield from functions(const)


def _key(code: types.CodeType) -> tuple:
    return code.co_filename, code.co_firstlineno, code.co_name


def _mode(path: str) -> str:
    """The value of the scenario file's ``mode`` key ('' if absent)."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.split("#", 1)[0].partition("=")
            if key.strip() == "mode":
                return value.strip()
    return ""


def commands(name: str, prefix: str, mode: str) -> list:
    run = "search" if mode == "search" else "run"
    return [["validate", "--scenario", name],
            [run, "--scenario", name, "--out", prefix],
            ["radius", "--scenario", name, "--resolution", "17"],
            ["report", prefix + ".jsonl"]]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0] if argv else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
    package = os.path.join(src, "czmap")
    os.environ.pop("CZMAP_FIXTURES", None)
    sys.path.insert(0, src)

    defined = {}
    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py"):
            path = os.path.join(package, fname)
            with open(path, encoding="utf-8") as fh:
                module = compile(fh.read(), path, "exec")
            defined.update((_key(code), code) for code in functions(module))

    called = set()

    def tracer(frame, event, arg):
        called.add(_key(frame.f_code))

    folder = os.path.join(package, "fixtures")
    names = sorted(name[:-len(".scn")] for name in os.listdir(folder)
                   if name.endswith(".scn"))
    modes = {name: _mode(os.path.join(folder, name + ".scn"))
             for name in names}
    failed = []
    sys.settrace(tracer)         # from the import on: class bodies call too
    try:
        from czmap import cli
        with tempfile.TemporaryDirectory() as tmp:
            for name in names:
                for args in commands(name, os.path.join(tmp, name),
                                     modes[name]):
                    sink = io.StringIO()
                    with contextlib.redirect_stdout(sink), \
                            contextlib.redirect_stderr(sink):
                        code = cli.main(args)
                    if code:
                        failed.append(f"{name}: czmap {args[0]} exited {code}")
    finally:
        sys.settrace(None)
    for line in failed:
        print(line, file=sys.stderr)

    missed = sorted(key for key in defined if key not in called)
    for key in missed:
        filename, line, _ = key
        print(f"{os.path.relpath(filename, src)}:{line} "
              f"{defined[key].co_qualname}")
    print(f"{len(missed)} of {len(defined)} functions not reached "
          f"by {len(names)} fixtures")
    return 0


if __name__ == "__main__":
    sys.exit(main())

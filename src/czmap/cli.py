"""Command-line front end.

Subcommands:
    validate  parse and validate a scenario file
    run       execute a scenario and write reports
    search    run the extremal-ratio search of a scenario
    radius    estimate harmonic radii at the declared base points
    report    pretty-print a written report file

Scenario files resolve against --scenario paths first, then the fixture
directory (overridable with the CZMAP_FIXTURES environment variable).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import CzmapError, ScenarioError
from .harmonic import default_r_max, estimate_harmonic_radius
from .report import read_reports, summarize
from .runner import run_and_report
from .scenario import fixture_path, load_scenario


def _resolve_scenario(arg: str) -> str:
    if os.path.exists(arg):
        return arg
    candidate = fixture_path(arg)
    if os.path.exists(candidate):
        return candidate
    return arg


def _apply_overrides(scenario, args):
    """Set the run flags on ``scenario``; returns the issue of the first
    malformed or out-of-range flag, else None."""
    if args.mode:
        scenario.run.mode = args.mode
    return scenario.override_run(args.p, args.resolution, args.seed)


def _load(args):
    """The scenario named by ``args.scenario``, or None after printing the
    issues that rejected it."""
    try:
        return load_scenario(_resolve_scenario(args.scenario))
    except ScenarioError as exc:
        for issue in exc.issues:
            print(repr(issue), file=sys.stderr)
        return None


def cmd_validate(args) -> int:
    scenario = _load(args)
    if scenario is None:
        return 1
    print(f"{scenario.name}: ok "
          f"({len(scenario.manifolds)} manifold(s), {len(scenario.maps)} map(s), "
          f"mode {scenario.run.mode})")
    return 0


def cmd_run(args) -> int:
    scenario = _load(args)
    if scenario is None:
        return 1
    issue = _apply_overrides(scenario, args)
    if issue:
        print(repr(issue), file=sys.stderr)
        return 1
    reports, jsonl, tsv = run_and_report(scenario, args.out)
    print(summarize(reports))
    if jsonl:
        print(f"wrote {jsonl} and {tsv}")
    return 0 if all(r.passed for r in reports) else 1


def cmd_search(args) -> int:
    args.mode = "search"
    return cmd_run(args)


def cmd_radius(args) -> int:
    scenario = _load(args)
    if scenario is None:
        return 1
    resolution, r_max, issue = scenario.radius_flags(args.resolution,
                                                     args.r_max)
    if issue:
        print(repr(issue), file=sys.stderr)
        return 1
    status = 0
    for name, mdef in scenario.manifolds.items():
        chart = mdef.build_chart(None if resolution is None
                                 else [resolution] * mdef.dimension)
        points = np.asarray(mdef.base_points or [0.5 * (
            np.asarray(mdef.lower) + np.asarray(mdef.upper))], dtype=float)
        bounds = [r_max if r_max is not None else default_r_max(chart, x)
                  for x in points]
        estimates = estimate_harmonic_radius(chart, points, bounds)
        for x, bound, est in zip(points, bounds, estimates):
            if isinstance(est, CzmapError):
                print(f"{name} at {x.tolist()}: error {est}", file=sys.stderr)
                status = 1
                continue
            if isinstance(est, Exception):
                raise est
            print(f"{name} at {x.tolist()}: r_1,1/2 {est} "
                  f"(r_max {bound:.4g}, {len(est.certificates)} solves)")
            for cert in est.certificates:
                rec = cert.as_record()
                print(f"    r={rec['r']:.5g} verdict={rec['verdict']} "
                      f"hr1_margin={rec['hr1_margin']:.4g} "
                      f"hr2_value={rec['hr2_value']:.4g} "
                      f"residual={rec['residual']:.0e}")
    return status


def cmd_report(args) -> int:
    records = read_reports(args.path)
    for rec in records:
        status = "PASS" if rec.get("passed") else "FAIL"
        print(f"[{status}] {rec.get('scenario')} mode={rec.get('mode')} "
              f"p={rec.get('p')} res={rec.get('resolution')} "
              f"ratio={rec.get('ratio')}")
        terms = rec.get("terms", {})
        for key in sorted(terms):
            print(f"    {key} = {terms[key]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="czmap",
        description="numerical verification of curvature-aware second-order "
                    "estimates for maps between Riemannian chart models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True,
                       help="scenario file path or shipped fixture name")
        p.add_argument("--mode", choices=("lemma", "ball", "global", "intro",
                                          "corollaryA", "search"))
        p.add_argument("--p", help="comma-separated exponents, e.g. 1.5,2,4")
        p.add_argument("--resolution",
                       help="comma-separated source grid ladder, e.g. 33,65")
        p.add_argument("--seed", help="restart seed of a search, a whole "
                                       "number >= 0")
        p.add_argument("--out", help="report path prefix")

    pv = sub.add_parser("validate", help="validate a scenario file")
    pv.add_argument("--scenario", required=True)
    pv.set_defaults(func=cmd_validate)

    pr = sub.add_parser("run", help="run a scenario")
    add_common(pr)
    pr.set_defaults(func=cmd_run)

    ps = sub.add_parser("search", help="extremal-ratio search")
    add_common(ps)
    ps.set_defaults(func=cmd_search)

    pd = sub.add_parser("radius", help="estimate harmonic radii")
    pd.add_argument("--scenario", required=True)
    pd.add_argument("--resolution",
                    help="grid points per axis of every manifold")
    pd.add_argument("--r-max", dest="r_max",
                    help="upper end of the radius bisection (default: "
                         "0.7 of the box margin in metric units)")
    pd.set_defaults(func=cmd_radius)

    pp = sub.add_parser("report", help="pretty-print a report file")
    pp.add_argument("path")
    pp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CzmapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

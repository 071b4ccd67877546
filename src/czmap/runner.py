"""Scenario execution: builds models, drives the engine, emits reports.

Every chart-based mode runs on one ``RunContext`` per resolution level:
the charts and the harmonic radii, which do not depend on the map.  Each
map (one per level in a run, one per parameter point in a search) adds
its model and basepoint.  The cover, the jet and the immersion data are
kept by the chart or map they come from (``memo``), for every exponent.
Each chart verifier returns an ``engine.Verdict``; a report is that
verdict plus the run's scenario, mode, p, resolution and certificates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .engine import (EllipticOperatorSpec, HarmonicRadii, Verdict,
                     verify_ball_estimate, verify_euclidean_corollaries,
                     verify_global_estimate, verify_interior_estimate,
                     verify_scaling_identities)
from .errors import CzmapError
from .expressions import Expression
from .geometry import MetricChart
from .harmonic import (RadiusCertificate, declared_certificate, default_r_max,
                       estimate_harmonic_radius)
from .report import InequalityReport, write_reports
from .scenario import Scenario
from .search import MapFamily, extremal_ratio_search

DRIFT_TOLERANCE = 0.10    # relative ratio drift allowed between grid levels


def _resolve_r1(mdef, chart) -> RadiusCertificate:
    """Certificate of one manifold's r_{1,1/2}: the declaration, or the
    solver's certificate at the estimated radius."""
    if mdef.r1_half != "estimate":
        return declared_certificate(float(mdef.r1_half))
    if not mdef.base_points:
        raise CzmapError(f"manifold {mdef.name}: r1_half=estimate needs "
                         "a base_point")
    x = np.asarray(mdef.base_points[0], dtype=float)
    est = estimate_harmonic_radius(chart, x, r_max=default_r_max(chart, x))
    if est.undetermined or est.value <= 0:
        raise CzmapError(
            f"manifold {mdef.name}: harmonic-radius estimate at "
            f"{x.tolist()} is {est}; refine the grid or declare r1_half")
    return max((c for c in est.certificates if c.holds), key=lambda c: c.r)


def resolve_radii(scenario: Scenario, source_chart, target_chart) -> HarmonicRadii:
    mdef = scenario.primary_map()
    certs = (_resolve_r1(scenario.manifolds[mdef.source], source_chart),
             _resolve_r1(scenario.manifolds[mdef.target], target_chart))
    kind = ("estimated" if any(c.source == "solver" for c in certs)
            else "declared")
    return HarmonicRadii(r1M=float(certs[0].r), r1N=float(certs[1].r),
                         source=kind, certificates=certs)


def _basepoint(scenario: Scenario, map_model) -> np.ndarray:
    if scenario.run.basepoint is not None:
        return np.asarray(scenario.run.basepoint, dtype=float)
    sdef = scenario.manifolds[scenario.primary_map().source]
    if sdef.base_points:
        return map_model.values(np.asarray(sdef.base_points[0], dtype=float))
    center = 0.5 * (map_model.source_chart.box.lower
                    + map_model.source_chart.box.upper)
    return map_model.values(center)


@dataclass
class RunContext:
    """The map-independent part of one resolution level.

    Holds the SPD-checked source and target charts and the resolved
    harmonic radii with their certificates; ``intro`` reads neither
    radius, so it resolves none (``radii`` is None).  The source chart
    keeps the cover of each r_hat it is asked for.
    """

    scenario: Scenario
    source: MetricChart
    target: MetricChart
    radii: HarmonicRadii | None

    @classmethod
    def build(cls, scenario: Scenario, resolution=None) -> "RunContext":
        mdef = scenario.primary_map()
        source = scenario.manifolds[mdef.source].build_chart(resolution)
        target = scenario.manifolds[mdef.target].build_chart()
        radii = (None if scenario.run.mode == "intro"
                 else resolve_radii(scenario, source, target))
        return cls(scenario, source, target, radii)

    def build_map(self, parameter_values=None):
        """The validated primary map on these charts.  Its jet is formed
        here, so that a jet that fails ends the level in one error record."""
        map_model = self.scenario.primary_map().build(
            self.source, self.target, parameter_values)
        map_model.validate().jet()
        return map_model

    def verify_global(self, map_model, p: float) -> Verdict:
        return verify_global_estimate(
            map_model, _basepoint(self.scenario, map_model), p, self.radii,
            uniform_radius=self.scenario.run.uc_radius)


def _resolutions(scenario: Scenario):
    ladder = scenario.run.resolution_ladder
    if ladder:
        sdef = scenario.manifolds[scenario.primary_map().source]
        return [[r] * sdef.dimension for r in ladder]
    return [None]


def run_scenario(scenario: Scenario) -> list:
    """Execute a scenario per its run config; one report per (p, level)."""
    mode = scenario.run.mode
    if mode == "lemma":
        return run_lemma_battery(scenario)
    if mode == "search":
        return run_search(scenario)
    reports = []
    for resolution in _resolutions(scenario):
        reports.extend(_run_at_resolution(scenario, resolution))
    _attach_drift_checks(reports)
    return reports


def run_and_report(scenario: Scenario, out_prefix: str | None = None):
    """Run a scenario and write its report files.

    Returns ``(reports, jsonl_path, tsv_path)``; paths are None when no
    output prefix is configured.
    """
    reports = run_scenario(scenario)
    prefix = out_prefix or scenario.run.out
    if not prefix:
        return reports, None, None
    return (reports, *write_reports(reports, prefix))


def _run_at_resolution(scenario: Scenario, resolution) -> list:
    mode = scenario.run.mode
    reports = []
    report = partial(InequalityReport, scenario=scenario.name, mode=mode,
                     resolution=_res_label(scenario, resolution))
    t0 = time.perf_counter()
    try:
        ctx = RunContext.build(scenario, resolution)
        map_model = ctx.build_map()
    except CzmapError as exc:
        return [report(p=scenario.run.p_list[0], terms={}, ratio=np.nan,
                       error=f"{type(exc).__name__}: {exc}",
                       timing_seconds=time.perf_counter() - t0)]
    certificates = ([c.as_record() for c in ctx.radii.certificates]
                    if ctx.radii else [])

    for p in scenario.run.p_list:
        t1 = time.perf_counter()
        try:
            rep = report(p=p, certificates=certificates,
                         **vars(_verify(ctx, map_model, p)))
        except CzmapError as exc:
            rep = report(p=p, terms={}, ratio=np.nan,
                         error=f"{type(exc).__name__}: {exc}")
        rep.timing_seconds = time.perf_counter() - t1
        reports.append(rep)
    return reports


def _verify(ctx: RunContext, map_model, p: float) -> Verdict:
    """The verdict of the run mode's chart verifier at exponent ``p``."""
    run = ctx.scenario.run
    if run.mode == "global":
        return ctx.verify_global(map_model, p)
    if run.mode == "ball":
        return _run_ball(ctx.scenario, map_model, ctx.radii, p)
    if run.mode in ("intro", "corollaryA"):
        basepoint = (np.asarray(run.basepoint, dtype=float)
                     if run.basepoint is not None else None)
        return verify_euclidean_corollaries(
            map_model, p, mode=run.mode, basepoint=basepoint,
            radii=ctx.radii)
    raise CzmapError(f"mode {run.mode} not runnable here")


def _run_ball(scenario, map_model, radii, p) -> Verdict:
    ball = scenario.run.ball
    if "center" not in ball or "r" not in ball or "R" not in ball:
        raise CzmapError("ball mode needs ball_center, ball_r, ball_R")
    x = np.asarray(ball["center"], dtype=float)
    tc = ball.get("target_center", "image")
    y = map_model.values(x) if isinstance(tc, str) else np.asarray(tc, dtype=float)
    return verify_ball_estimate(
        map_model, x, y, ball["r"], ball["R"], p,
        source_certificate=radii.certificates[0],
        target_certificate=radii.certificates[1])


def _res_label(scenario, resolution) -> str:
    if resolution is None:
        sdef = scenario.manifolds[scenario.primary_map().source]
        resolution = sdef.resolution
    return "x".join(str(r) for r in resolution)


def _attach_drift_checks(reports):
    """Mark ratio drift between consecutive grid levels at equal p."""
    by_p = {}
    for rep in reports:
        if rep.error is None and np.isfinite(rep.ratio):
            by_p.setdefault(rep.p, []).append(rep)
    for p, chain in by_p.items():
        for prev, cur in zip(chain, chain[1:]):
            if prev.ratio == 0.0 and cur.ratio == 0.0:
                drift = 0.0
            elif prev.ratio == 0.0:
                drift = np.inf
            else:
                drift = abs(cur.ratio - prev.ratio) / abs(prev.ratio)
            cur.checks["ratio_drift_ok"] = bool(drift <= DRIFT_TOLERANCE)
            cur.terms["ratio_drift"] = float(drift)


# ---------------------------------------------------------------------------
# lemma battery
# ---------------------------------------------------------------------------

LEMMA_SCALES = (0.25, 0.5, 1.0)
_V2 = ("x1", "x2")


def _lemma_operators():
    const = [[Expression("1", _V2), Expression("0", _V2)],
             [Expression("0", _V2), Expression("1", _V2)]]
    wavy = [[Expression("1 + 0.1*sin(x1)", _V2), Expression("0", _V2)],
            [Expression("0", _V2), Expression("1", _V2)]]
    return (("laplacian", const, 2.0), ("wavy", wavy, 2.0))


def _lemma_fields():
    return (Expression("x1^2", _V2), Expression("x1*x2", _V2),
            Expression("sin(2*x1)*x2", _V2))


def run_lemma_battery(scenario: Scenario) -> list:
    """Scaling identities and interior-estimate ratios on the operator
    battery, for every q in the run's p list and every scale.

    The specs and fields do not depend on q, so they are built once: each
    spec validates and takes its transfer seminorm once, up front, so the
    Hölder pair tables are done with before any field is sampled; each
    spec then samples each field once (see ``field_samples``).
    """
    specs = {s: [EllipticOperatorSpec(s=s, coefficients=coeffs, Lambda=Lam)
                 for _, coeffs, Lam in _lemma_operators()]
             for s in LEMMA_SCALES}
    for spec in (spec for level in specs.values() for spec in level):
        spec.validate().holder_transfer()
    fields = _lemma_fields()
    reports = []
    for q in scenario.run.p_list:
        for s in LEMMA_SCALES:
            t0 = time.perf_counter()
            worst = {"dev_operator": 0.0, "dev_hessian": 0.0,
                     "dev_gradient": 0.0, "dev_norm": 0.0}
            passed = True
            ratios = []
            for spec in specs[s]:
                for u in fields:
                    rep = verify_scaling_identities(spec, u, q)
                    passed &= rep["passed"]
                    for key in worst:
                        worst[key] = max(worst[key], rep[key])
                    est = verify_interior_estimate(spec, u, q)
                    ratios.append(est["ratio"])
            terms = dict(worst)
            terms["c_emp"] = max(ratios)
            reports.append(InequalityReport(
                scenario=scenario.name, mode="lemma", p=q,
                resolution=f"s={s:g}", terms=terms,
                ratio=max(ratios),
                checks={"identities_pass": bool(passed),
                        "ratio_finite": bool(np.isfinite(max(ratios)))},
                timing_seconds=time.perf_counter() - t0))
    return reports


# ---------------------------------------------------------------------------
# extremal search
# ---------------------------------------------------------------------------

def run_search(scenario: Scenario) -> list:
    if scenario.search is None:
        raise CzmapError("search mode needs a [search] section")
    cfg = scenario.search
    p = scenario.run.p_list[0]
    t0 = time.perf_counter()
    ctx = RunContext.build(scenario)

    def evaluate(params):
        map_model = ctx.build_map(dict(zip(cfg.parameters, params)))
        return ctx.verify_global(map_model, p).ratio

    family = MapFamily(cfg.lower, cfg.upper, evaluate)
    result = extremal_ratio_search(family, seed=scenario.run.seed)
    rep = InequalityReport(
        scenario=scenario.name, mode="search", p=p,
        resolution=_res_label(scenario, None),
        terms={"best_value": result.best_value,
               **{f"best_{name}": float(v) for name, v in
                  zip(cfg.parameters, result.best_params)}},
        ratio=result.best_value,
        checks={"ratio_finite": bool(np.isfinite(result.best_value))},
        cover_stats={"evaluations": result.evaluations},
        extra={"trace": [t.as_record() for t in result.trace]},
        timing_seconds=time.perf_counter() - t0)
    return [rep]

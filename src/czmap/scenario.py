"""Scenario files: declarative manifolds, maps and run configuration.

Format: INI-like sections with ``key = value`` lines and ``#`` comments.
Metric entries and map components are arithmetic expressions over the
declared coordinates (see :mod:`czmap.expressions`).  Example::

    [manifold sphere]
    coordinates = th, ph
    lower = 0.3, 0.0
    upper = 2.84, 1.5
    resolution = 49, 49
    metric.1.1 = 1
    metric.1.2 = 0
    metric.2.2 = sin(th)^2
    ricci_lower_bound = 0
    base_point = 1.57, 0.75
    r1_half = 0.3

    [map psi]
    source = sphere
    target = ambient
    component.1 = sin(th)*cos(ph)
    lipschitz = 1        # 'inf' marks merely-continuous maps

    [run]
    mode = global        # lemma | ball | global | intro | corollaryA | search
    p = 1.5, 2, 4
    basepoint = 0, 0, 0

Validation never yields a partially usable scenario: every violated
invariant is collected with its file line and reported in one
ScenarioError.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (CzmapError, ExpressionSyntaxError, ScenarioError,
                     ValidationIssue)
from .expressions import (Expression, Num, parse_expression, substitute,
                          to_string)
from .geometry import CoordinateBox, MetricChart
from .maps import MapModel

MODES = ("lemma", "ball", "global", "intro", "corollaryA", "search")
FIXTURE_ENV_VAR = "CZMAP_FIXTURES"
# checked at parse time, so an oversized grid is one located issue and not
# a MemoryError: at this size its points alone take 16 GiB per axis
MAX_GRID_POINTS = np.iinfo(np.int32).max
# the keys each section parser reads; an entry ending in "." names a family
SECTION_KEYS = {
    "manifold": ("coordinates", "lower", "upper", "resolution",
                 "derivative_mode", "ricci_lower_bound", "base_point",
                 "base_points", "r1_half", "metric."),
    "map": ("source", "target", "lipschitz", "component."),
    "run": ("mode", "p", "basepoint", "resolution_ladder", "seed", "out",
            "ball_center", "ball_target_center", "ball_r", "ball_R",
            "uc_radius"),
    "search": ("parameters", "lower", "upper"),
}


def fixture_dir() -> str:
    env = os.environ.get(FIXTURE_ENV_VAR)
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    if not name.endswith(".scn"):
        name += ".scn"
    return os.path.join(fixture_dir(), name)


# ---------------------------------------------------------------------------
# raw file parsing
# ---------------------------------------------------------------------------

@dataclass
class _Entry:
    value: str
    line: int


@dataclass
class _Section:
    kind: str
    name: str
    line: int
    entries: dict = field(default_factory=dict)


def _parse_sections(path: str, issues: list) -> list:
    sections = []
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                if not line.endswith("]"):
                    issues.append(ValidationIssue(path, lineno, "SectionHeader",
                                                  "unterminated section header"))
                    continue
                parts = line[1:-1].split()
                kind = parts[0] if parts else ""
                name = parts[1] if len(parts) > 1 else kind
                if kind not in ("manifold", "map", "run", "search"):
                    issues.append(ValidationIssue(path, lineno, "SectionHeader",
                                                  f"unknown section kind '{kind}'"))
                    continue
                current = _Section(kind=kind, name=name, line=lineno)
                sections.append(current)
                continue
            if "=" not in line:
                issues.append(ValidationIssue(path, lineno, "KeyValue",
                                              f"expected 'key = value': {line!r}"))
                continue
            if current is None:
                issues.append(ValidationIssue(path, lineno, "KeyValue",
                                              "entry before any section header"))
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            if key in current.entries:
                issues.append(ValidationIssue(path, lineno, "DuplicateKey",
                                              f"duplicate key '{key}'"))
                continue
            if not any(key == k or (k.endswith(".") and key.startswith(k))
                       for k in SECTION_KEYS[current.kind]):
                issues.append(ValidationIssue(
                    path, lineno, "UnknownKey",
                    f"unknown {current.kind} key '{key}'"))
                continue
            current.entries[key] = _Entry(value=value, line=lineno)
    return sections


def _floats(text: str):
    return [float(tok) if tok.strip().lower() != "inf" else np.inf
            for tok in text.split(",")]


def _number(entries: dict, key: str, default, convert, path: str, issues: list):
    """``convert`` applied to the value of ``key``; ``default`` when the key
    is absent or its value malformed (then a located issue is recorded)."""
    if key not in entries:
        return default
    try:
        return convert(entries[key].value)
    except (ValueError, OverflowError) as exc:
        issues.append(ValidationIssue(path, entries[key].line, "NumberFormat",
                                      f"'{key}': {exc}"))
        return default


def _names(text: str):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


# ---------------------------------------------------------------------------
# definitions
# ---------------------------------------------------------------------------

@dataclass
class ManifoldDef:
    name: str
    coordinates: tuple
    lower: list
    upper: list
    resolution: list
    metric_exprs: dict            # (i, j) 0-based -> source text
    derivative_mode: str
    ricci_lower_bound: float
    base_points: list
    r1_half: object               # float | inf | "estimate"
    line: int

    @property
    def dimension(self) -> int:
        return len(self.coordinates)

    def build_chart(self, resolution=None) -> MetricChart:
        """The chart at ``resolution`` (default: the declared one), with its
        grid metric checked positive definite (DegenerateMetric if not)."""
        res = list(resolution) if resolution is not None else self.resolution
        box = CoordinateBox(self.lower, self.upper, res)
        m = self.dimension
        comps = [[None] * m for _ in range(m)]
        for (i, j), text in self.metric_exprs.items():
            comps[i][j] = Expression(text, self.coordinates)
        chart = MetricChart(box, comps, derivative_mode=self.derivative_mode,
                            name=self.name)
        chart.grid_metric()
        return chart


@dataclass
class MapDef:
    name: str
    source: str
    target: str
    component_exprs: list
    coordinates: tuple            # of the source manifold
    lipschitz: float
    line: int

    def build(self, source_chart: MetricChart, target_chart: MetricChart,
              parameter_values: dict | None = None) -> MapModel:
        comps = []
        for text in self.component_exprs:
            if parameter_values:
                expr = Expression(text,
                                  self.coordinates + tuple(parameter_values))
                ast = substitute(expr.ast, {k: Num(value=float(v))
                                            for k, v in parameter_values.items()})
                comps.append(Expression(ast, self.coordinates))
            else:
                comps.append(Expression(text, self.coordinates))
        return MapModel(source_chart, target_chart, comps,
                        lipschitz_bound=self.lipschitz, name=self.name)


@dataclass
class RunConfig:
    """The ``[run]`` section; each default is the value of an absent key."""

    mode: str = "global"
    p_list: list = field(default_factory=lambda: [2.0])
    basepoint: list | None = None
    # source grid point counts per level
    resolution_ladder: list = field(default_factory=list)
    seed: int = 20859
    out: str | None = None
    ball: dict = field(default_factory=dict)
    uc_radius: float | None = None

    def validate_issue(self, path: str, line: int, p_line: int):
        if self.mode not in MODES:
            return ValidationIssue(path, line, "RunMode",
                                   f"mode must be one of {MODES}")
        if not all(1.0 < p < math.inf for p in self.p_list):  # nan fails too
            return ValidationIssue(path, p_line, "UnsupportedExponent",
                                   "every p must satisfy 1 < p < inf")
        return None


@dataclass
class SearchConfig:
    parameters: tuple
    lower: list
    upper: list
    line: int


@dataclass
class Scenario:
    path: str
    manifolds: dict
    maps: dict
    run: RunConfig
    search: SearchConfig | None = None

    @property
    def name(self) -> str:
        return os.path.splitext(os.path.basename(self.path))[0]

    def primary_map(self) -> MapDef:
        if not self.maps:
            raise CzmapError(f"scenario {self.name} declares no map")
        return next(iter(self.maps.values()))

    def override_run(self, p: str | None, resolution: str | None,
                     seed: str | None = None):
        """Replace the p list, the resolution ladder and the seed by
        command-line text under the rules of the ``p``,
        ``resolution_ladder`` and ``seed`` keys.  Returns None, or the
        issue of the first flag that breaks a rule: line 0 of the scenario
        file, the flag and its text in the detail."""
        run = self.run
        for flag, text, attr, convert in (
                ("--p", p, "p_list", _floats),
                ("--resolution", resolution, "resolution_ladder", _ladder),
                ("--seed", seed, "seed", _seed)):
            if text is None:
                continue
            try:
                setattr(run, attr, convert(text))
            except (ValueError, OverflowError) as exc:
                issue = ValidationIssue(self.path, 0, "NumberFormat", str(exc))
            else:
                issue = None
                if flag == "--p":
                    issue = run.validate_issue(self.path, 0, 0)
                elif flag == "--resolution":
                    issue = _ladder_issue(run, self.manifolds, self.maps,
                                          self.path, 0)
            if issue:
                issue.detail = f"{flag} {text}: {issue.detail}"
                return issue
        return None

    def radius_flags(self, resolution: str | None, r_max: str | None):
        """``(resolution, r_max, issue)`` from the ``czmap radius`` flags,
        None for an absent flag.  ``--resolution`` is one grid point count
        for every axis of every manifold, under the rules of the
        ``[manifold] resolution`` key and the grid limit; ``--r-max`` is
        finite and > 0.  issue is None, or the issue of the first flag
        that breaks a rule, located and worded as in :meth:`override_run`."""
        parsed = {}
        for flag, text, convert, invariant in (
                ("--resolution", resolution, _grid_count, "NumberFormat"),
                ("--r-max", r_max, partial(_positive, name="r_max"),
                 "HarmonicRadius")):
            parsed[flag] = None
            if text is None:
                continue
            try:
                parsed[flag] = convert(text)
            except (ValueError, OverflowError) as exc:
                issue = ValidationIssue(self.path, 0, invariant, str(exc))
            else:
                issue = None
                if flag == "--resolution" and any(
                        parsed[flag] ** mdef.dimension > MAX_GRID_POINTS
                        for mdef in self.manifolds.values()):
                    issue = ValidationIssue(self.path, 0, "Resolution",
                                            "a grid has more than "
                                            f"{MAX_GRID_POINTS} points")
            if issue:
                issue.detail = f"{flag} {text}: {issue.detail}"
                return None, None, issue
        return parsed["--resolution"], parsed["--r-max"], None

    def build_models(self, resolution=None, parameter_values=None):
        """(source chart, target chart, MapModel) of the primary map;
        ``resolution`` overrides the source grid."""
        mdef = self.primary_map()
        source = self.manifolds[mdef.source].build_chart(resolution)
        target = self.manifolds[mdef.target].build_chart()
        return source, target, mdef.build(source, target, parameter_values)


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------

def _parse_manifold(section: _Section, path: str, issues: list) -> ManifoldDef | None:
    e = section.entries

    def need(key):
        if key not in e:
            issues.append(ValidationIssue(path, section.line, "MissingKey",
                                          f"manifold {section.name}: missing '{key}'"))
            return None
        return e[key]

    coords_entry = need("coordinates")
    if coords_entry is None:
        return None
    coordinates = _names(coords_entry.value)
    m = len(coordinates)
    ok = True
    vals = {}
    for key in ("lower", "upper", "resolution"):
        entry = need(key)
        if entry is None:
            ok = False
            continue
        try:
            nums = _floats(entry.value)
        except ValueError as exc:
            issues.append(ValidationIssue(path, entry.line, "NumberFormat", str(exc)))
            ok = False
            continue
        if len(nums) == 1:
            nums = nums * m
        if len(nums) != m:
            issues.append(ValidationIssue(path, entry.line, "DimensionMismatch",
                                          f"'{key}' needs {m} entries"))
            ok = False
            continue
        counts = key == "resolution"      # grid point counts are whole
        if not np.all(np.isfinite(nums)) or (
                counts and nums != [int(n) for n in nums]):
            issues.append(ValidationIssue(
                path, entry.line, "NumberFormat",
                f"'{key}' entries must be finite{' whole numbers' * counts}"))
            ok = False
            continue
        vals[key] = nums
    if not ok:
        return None
    for i in range(m):
        if vals["lower"][i] >= vals["upper"][i]:
            issues.append(ValidationIssue(path, e["lower"].line, "BoxOrder",
                                          f"lower[{i}] must be < upper[{i}]"))
            ok = False
        if vals["resolution"][i] < 3:
            issues.append(ValidationIssue(path, e["resolution"].line, "Resolution",
                                          "resolution must be >= 3 per axis"))
            ok = False
    if ok and math.prod(vals["resolution"]) > MAX_GRID_POINTS:
        issues.append(ValidationIssue(path, e["resolution"].line, "Resolution",
                                      f"grid has more than {MAX_GRID_POINTS} points"))
        ok = False

    metric_exprs = {}
    seen_pairs = {}
    for key, entry in e.items():
        if not key.startswith("metric."):
            continue
        parts = key.split(".")
        try:
            i, j = int(parts[1]) - 1, int(parts[2]) - 1
        except (IndexError, ValueError):
            issues.append(ValidationIssue(path, entry.line, "MetricKey",
                                          f"bad metric key '{key}'"))
            ok = False
            continue
        if not (0 <= i < m and 0 <= j < m):
            issues.append(ValidationIssue(path, entry.line, "MetricKey",
                                          f"metric index out of range in '{key}'"))
            ok = False
            continue
        try:
            ast = parse_expression(entry.value, coordinates)
        except ExpressionSyntaxError as exc:
            issues.append(ValidationIssue(path, entry.line, "Expression", str(exc)))
            ok = False
            continue
        seen_pairs[(i, j)] = (entry, ast)
    for (i, j), (entry, ast) in seen_pairs.items():
        if (j, i) in seen_pairs and i > j:
            other = seen_pairs[(j, i)][1]
            if to_string(ast) != to_string(other):
                ei = Expression(ast, coordinates)
                ej = Expression(other, coordinates)
                probe_box = CoordinateBox(vals["lower"], vals["upper"], [5] * m)
                if not np.allclose(ei(probe_box.points()), ej(probe_box.points()),
                                   atol=1e-12):
                    # recorded but not fatal to parsing, so that every other
                    # invariant of the file still gets checked
                    issues.append(ValidationIssue(
                        path, entry.line, "SymmetryViolation",
                        f"metric.{i+1}.{j+1} differs from metric.{j+1}.{i+1}"))
        metric_exprs.setdefault((min(i, j), max(i, j)), entry.value)
    for i in range(m):
        for j in range(i, m):
            if (i, j) not in metric_exprs:
                issues.append(ValidationIssue(path, section.line, "MissingKey",
                                              f"missing metric.{i+1}.{j+1}"))
                ok = False

    mode = e.get("derivative_mode", _Entry("analytic", section.line)).value
    if mode not in ("analytic", "fd"):
        issues.append(ValidationIssue(path, e["derivative_mode"].line,
                                      "DerivativeMode",
                                      f"unknown derivative mode '{mode}'"))
        ok = False

    A = _number(e, "ricci_lower_bound", 0.0, float, path, issues)
    if A < 0:
        issues.append(ValidationIssue(path, e["ricci_lower_bound"].line,
                                      "RicciBound", "A must be >= 0"))
        ok = False

    base_points = []              # (line, point)
    for key in ("base_point", "base_points"):
        if key in e:
            try:
                nums = _floats(e[key].value)
                pts = [nums[k:k + m] for k in range(0, len(nums), m)]
                if any(len(p) != m for p in pts):
                    raise ValueError("base point length mismatch")
                base_points.extend((e[key].line, p) for p in pts)
            except ValueError as exc:
                issues.append(ValidationIssue(path, e[key].line, "BasePoint",
                                              str(exc)))
                ok = False

    r1_half: object = np.inf
    if "r1_half" in e:
        raw = e["r1_half"].value.strip().lower()
        if raw == "estimate":
            r1_half = "estimate"
        else:
            try:
                r1_half = _floats(raw)[0]
                if not r1_half > 0:
                    raise ValueError("r1_half must be positive")
            except ValueError as exc:
                issues.append(ValidationIssue(path, e["r1_half"].line,
                                              "HarmonicRadius", str(exc)))
                ok = False

    if not ok:
        return None
    mdef = ManifoldDef(name=section.name, coordinates=coordinates,
                       lower=vals["lower"], upper=vals["upper"],
                       resolution=[int(r) for r in vals["resolution"]],
                       metric_exprs=metric_exprs, derivative_mode=mode,
                       ricci_lower_bound=A,
                       base_points=[p for _, p in base_points],
                       r1_half=r1_half, line=section.line)
    for line, point in base_points:
        _check_point(path, line, "base point", point, mdef, issues)
    return mdef


def _check_point(path: str, line: int, key: str, point, mdef: ManifoldDef,
                 issues: list):
    """Record the issue of ``point``, read from ``key`` at ``line``, if it
    has not ``mdef``'s dimension or lies outside its box (within the
    tolerance of ``CoordinateBox.contains``)."""
    if len(point) != mdef.dimension:
        issues.append(ValidationIssue(path, line, "DimensionMismatch",
                                      f"{key} needs {mdef.dimension} "
                                      "coordinates"))
    elif not CoordinateBox(mdef.lower, mdef.upper,
                           mdef.resolution).contains(point):
        issues.append(ValidationIssue(path, line, "OutsideBox",
                                      f"{key} {point} lies outside the box "
                                      f"of manifold {mdef.name}"))


def _parse_map(section: _Section, path: str, issues: list,
               manifolds: dict, search: SearchConfig | None) -> MapDef | None:
    e = section.entries
    ok = True
    for key in ("source", "target"):
        if key not in e:
            issues.append(ValidationIssue(path, section.line, "MissingKey",
                                          f"map {section.name}: missing '{key}'"))
            ok = False
        elif e[key].value not in manifolds:
            issues.append(ValidationIssue(path, e[key].line, "UnknownManifold",
                                          f"unknown manifold '{e[key].value}'"))
            ok = False
    if not ok:
        return None
    source = manifolds[e["source"].value]
    target = manifolds[e["target"].value]
    allowed = tuple(source.coordinates)
    if search is not None:
        allowed = allowed + tuple(search.parameters)
    components = [None] * target.dimension
    for key, entry in e.items():
        if not key.startswith("component."):
            continue
        try:
            a = int(key.split(".")[1]) - 1
        except (IndexError, ValueError):
            issues.append(ValidationIssue(path, entry.line, "ComponentKey",
                                          f"bad component key '{key}'"))
            ok = False
            continue
        if not (0 <= a < target.dimension):
            issues.append(ValidationIssue(path, entry.line, "ComponentKey",
                                          f"component index out of range in '{key}'"))
            ok = False
            continue
        try:
            parse_expression(entry.value, allowed)
        except ExpressionSyntaxError as exc:
            issues.append(ValidationIssue(path, entry.line, "Expression", str(exc)))
            ok = False
            continue
        components[a] = entry.value
    for a, comp in enumerate(components):
        if comp is None:
            issues.append(ValidationIssue(path, section.line, "MissingKey",
                                          f"missing component.{a+1}"))
            ok = False
    lipschitz = np.inf
    if "lipschitz" in e:
        try:
            lipschitz = _floats(e["lipschitz"].value)[0]
            if not lipschitz >= 0:
                raise ValueError("lipschitz bound must be >= 0 or inf")
        except ValueError as exc:
            issues.append(ValidationIssue(path, e["lipschitz"].line, "Lipschitz",
                                          str(exc)))
            ok = False
    if not ok:
        return None
    return MapDef(name=section.name, source=e["source"].value,
                  target=e["target"].value, component_exprs=components,
                  coordinates=source.coordinates, lipschitz=lipschitz,
                  line=section.line)


def _ladder(text: str) -> list:
    values = _floats(text)
    ladder = [int(x) for x in values]
    if ladder != values or any(r < 3 for r in ladder):
        raise ValueError("every grid point count must be a whole number >= 3")
    return ladder


def _seed(text: str) -> int:
    """A restart seed: one whole number >= 0, of any size."""
    seed = int(text)
    if seed < 0:
        raise ValueError("seed must be a whole number >= 0")
    return seed


def _grid_count(text: str) -> int:
    """One grid point count per axis, as a ``[manifold] resolution`` entry."""
    ladder = _ladder(text)
    if len(ladder) != 1:
        raise ValueError("need one grid point count")
    return ladder[0]


def _positive(text: str, name: str = "value", finite: bool = True) -> float:
    """One number > 0, finite too unless ``finite`` is False."""
    values = _floats(text)
    value = values[0] if len(values) == 1 else math.nan
    if not (0.0 < value < math.inf or value == math.inf and not finite):
        raise ValueError(f"{name} must be one {'finite ' * finite}number > 0")
    return value


def _ladder_issue(run: RunConfig, manifolds: dict, maps: dict, path: str,
                  line: int):
    """The issue of a ladder level whose grid on the primary map's source
    has more than MAX_GRID_POINTS points, or None."""
    source = manifolds.get(next(iter(maps.values())).source) if maps else None
    if source is not None and any(r ** source.dimension > MAX_GRID_POINTS
                                  for r in run.resolution_ladder):
        return ValidationIssue(path, line, "Resolution", "a ladder grid has "
                               f"more than {MAX_GRID_POINTS} points")
    return None


def _parse_run(section: _Section, path: str, issues: list) -> RunConfig:
    e = section.entries
    cfg = RunConfig()

    def number(key, default, convert=_floats):
        return _number(e, key, default, convert, path, issues)

    if "mode" in e:
        cfg.mode = e["mode"].value.strip()
    if "out" in e:
        cfg.out = e["out"].value
    cfg.p_list = number("p", cfg.p_list)
    cfg.basepoint = number("basepoint", cfg.basepoint)
    cfg.resolution_ladder = number("resolution_ladder", cfg.resolution_ladder,
                                   _ladder)
    cfg.seed = number("seed", cfg.seed, _seed)
    for key, convert in (("center", _floats), ("target_center", _floats),
                         ("r", _positive),
                         ("R", partial(_positive, finite=False))):
        bkey = f"ball_{key}"
        if bkey in e:
            cfg.ball[key] = (e[bkey].value if key == "target_center"
                             and e[bkey].value.strip() == "image"
                             else number(bkey, None, convert))
        elif cfg.mode == "ball" and key != "target_center":
            issues.append(ValidationIssue(path, section.line, "MissingKey",
                                          f"ball mode needs '{bkey}'"))
    cfg.uc_radius = number("uc_radius", cfg.uc_radius, _positive)
    issue = cfg.validate_issue(path, section.line,
                               e["p"].line if "p" in e else section.line)
    if issue:
        issues.append(issue)
    return cfg


def _parse_search(section: _Section, path: str, issues: list) -> SearchConfig | None:
    e = section.entries
    if "parameters" not in e:
        issues.append(ValidationIssue(path, section.line, "MissingKey",
                                      "search section missing 'parameters'"))
        return None
    params = _names(e["parameters"].value)
    found = len(issues)
    lower = _number(e, "lower", None, _floats, path, issues)
    upper = _number(e, "upper", None, _floats, path, issues)
    if len(issues) > found:
        return None
    if lower is None or upper is None or len(lower) != len(params) \
            or len(upper) != len(params):
        issues.append(ValidationIssue(path, section.line, "SearchBounds",
                                      "search needs lower/upper per parameter"))
        return None
    for key, nums in (("lower", lower), ("upper", upper)):
        if not np.all(np.isfinite(nums)):
            issues.append(ValidationIssue(path, e[key].line, "NumberFormat",
                                          f"'{key}' entries must be finite"))
            return None
    if not all(lo < hi for lo, hi in zip(lower, upper)):
        issues.append(ValidationIssue(path, e["lower"].line, "SearchBounds",
                                      "each lower must be < its upper"))
    return SearchConfig(parameters=params, lower=lower, upper=upper,
                        line=section.line)


def load_scenario(path: str) -> Scenario:
    """Parse and fully validate a scenario file.

    Unless the run mode is lemma, also builds every chart at its declared
    resolution and runs the runtime invariants (metric positive
    definiteness, map target containment).  All failures are collected
    into one ScenarioError.
    """
    issues: list[ValidationIssue] = []
    if not os.path.exists(path):
        raise ScenarioError([ValidationIssue(path, 0, "FileMissing",
                                             "no such scenario file")])
    sections = _parse_sections(path, issues)
    search = None
    for sec in sections:
        if sec.kind == "search":
            search = _parse_search(sec, path, issues)
    manifolds = {}
    for sec in sections:
        if sec.kind == "manifold":
            mdef = _parse_manifold(sec, path, issues)
            if mdef is not None:
                manifolds[mdef.name] = mdef
    maps = {}
    run_section = None
    run = RunConfig()
    for sec in sections:
        if sec.kind == "map":
            mdef = _parse_map(sec, path, issues, manifolds, search)
            if mdef is not None:
                maps[mdef.name] = mdef
        elif sec.kind == "run":
            run = _parse_run(sec, path, issues)
            run_section = sec
    if run_section is None and run.mode != "lemma":
        issues.append(ValidationIssue(path, 0, "MissingSection",
                                      "scenario has no [run] section"))
    primary = next(iter(maps.values()), None)
    if primary is not None:
        source, target = manifolds[primary.source], manifolds[primary.target]
        for key, point, mdef in (
                ("basepoint", run.basepoint, target),
                ("ball_center", run.ball.get("center"), source),
                ("ball_target_center", run.ball.get("target_center"), target)):
            if point is not None and not isinstance(point, str):
                _check_point(path, run_section.entries[key].line, key, point,
                             mdef, issues)
        # every mode but lemma resolves the map's harmonic radii
        for mdef in {source.name: source, target.name: target}.values():
            if (run.mode != "lemma" and mdef.r1_half == "estimate"
                    and not mdef.base_points):
                issues.append(ValidationIssue(
                    path, mdef.line, "MissingKey", f"manifold {mdef.name}: "
                    "r1_half = estimate needs a 'base_point'"))
    if run.resolution_ladder:
        issue = _ladder_issue(run, manifolds, maps, path,
                              run_section.entries["resolution_ladder"].line)
        if issue:
            issues.append(issue)
    if issues:
        raise ScenarioError(issues)

    scenario = Scenario(path=path, manifolds=manifolds, maps=maps, run=run,
                        search=search)
    if run.mode != "lemma":
        _runtime_validation(scenario, issues)
        if issues:
            raise ScenarioError(issues)
    return scenario


def _runtime_validation(scenario: Scenario, issues: list):
    path = scenario.path
    charts = {}
    for name, mdef in scenario.manifolds.items():
        try:
            charts[name] = mdef.build_chart()
        except CzmapError as exc:
            issues.append(ValidationIssue(path, mdef.line, type(exc).__name__,
                                          str(exc)))
    if issues:
        return
    for mapdef in scenario.maps.values():
        try:
            params = None
            if scenario.search is not None:
                params = {name: 0.5 * (lo + hi) for name, lo, hi in
                          zip(scenario.search.parameters, scenario.search.lower,
                              scenario.search.upper)}
            mapdef.build(charts[mapdef.source], charts[mapdef.target],
                         params).validate()
        except (CzmapError, ValueError) as exc:
            issues.append(ValidationIssue(path, mapdef.line, type(exc).__name__,
                                          str(exc)))

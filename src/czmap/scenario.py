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
from .search import SEARCH_SEED

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
    """The sections of ``path`` in file order.  A file holds one ``[run]``,
    one ``[search]`` and one ``[map]``, and manifolds of distinct names: a
    repeated header is a DuplicateSection issue, and its section is
    dropped."""
    sections, seen = [], set()
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
                ident = (kind, name) if kind == "manifold" else kind
                if ident in seen:
                    issues.append(ValidationIssue(path, lineno, "DuplicateSection",
                                                  f"repeated section {line}"))
                else:
                    seen.add(ident)
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


def _number(entries: dict, key: str, default, convert, path: str, issues: list,
            invariant: str = "NumberFormat"):
    """``convert`` applied to the value of ``key``; ``default`` when the key
    is absent or ``convert`` refuses its value (then an ``invariant`` issue
    is recorded at the key's line).  Each converter below is the rule of
    the keys and flags that share it, and refuses with a ValueError."""
    if key not in entries:
        return default
    try:
        return convert(entries[key].value)
    except (ValueError, OverflowError) as exc:
        issues.append(ValidationIssue(path, entries[key].line, invariant,
                                      f"'{key}': {exc}"))
        return default


def _flag(path: str, text: str, convert, invariant: str = "NumberFormat"):
    """``(value, issue)`` of a command-line flag read by ``convert``, the
    rule of the key it stands for: issue is None, or the ``invariant``
    issue at line 0 of ``path`` when ``convert`` refuses ``text``."""
    try:
        return convert(text), None
    except (ValueError, OverflowError) as exc:
        return None, ValidationIssue(path, 0, invariant, str(exc))


def _floats(text: str) -> list:
    return [float(tok) for tok in text.split(",")]


def _finite(text: str) -> list:
    values = _floats(text)
    if not all(map(math.isfinite, values)):
        raise ValueError("entries must be finite")
    return values


def _counts(text: str) -> list:
    """Grid point counts: whole numbers >= 3 (``9.0`` is one)."""
    values = _floats(text)
    if not all(math.isfinite(v) and v == int(v) >= 3 for v in values):
        raise ValueError("every grid point count must be a whole number >= 3")
    return [int(v) for v in values]


def _count(text: str) -> int:
    """One grid point count, for every axis."""
    counts = _counts(text)
    if len(counts) != 1:
        raise ValueError("need one grid point count")
    return counts[0]


def _one(text: str, zero: bool = False, finite: bool = True) -> float:
    """One number > 0 (>= 0 if ``zero``), finite too unless ``finite`` is
    False; a list is refused."""
    values = _floats(text)
    value = values[0] if len(values) == 1 else math.nan
    if not ((value >= 0.0 if zero else value > 0.0)     # nan fails too
            and (value < math.inf or not finite)):
        raise ValueError(f"must be one {'finite ' * finite}number "
                         f"{'>=' if zero else '>'} 0")
    return value


def _seed(text: str) -> int:
    """A restart seed: one whole number >= 0, of any size."""
    seed = int(text)
    if seed < 0:
        raise ValueError("seed must be a whole number >= 0")
    return seed


def _radius(text: str):
    """A declared harmonic radius (``inf`` allowed), or ``estimate``."""
    return "estimate" if text.lower() == "estimate" else _one(text, finite=False)


def _derivative_mode(text: str) -> str:
    if text not in ("analytic", "fd"):
        raise ValueError(f"unknown derivative mode '{text}'")
    return text


def _point_list(text: str, m: int) -> list:
    """Points of ``m`` coordinates each, written one after another."""
    nums = _floats(text)
    points = [nums[k:k + m] for k in range(0, len(nums), m)]
    if any(len(p) != m for p in points):
        raise ValueError(f"need {m} coordinates per point")
    return points


def _grid_issue(path: str, line: int, grids):
    """The Resolution issue of a grid in ``grids``, each a list of per-axis
    point counts, that has more than MAX_GRID_POINTS points; else None."""
    if any(math.prod(grid) > MAX_GRID_POINTS for grid in grids):
        return ValidationIssue(path, line, "Resolution", "a grid has more "
                               f"than {MAX_GRID_POINTS} points")
    return None


def _family(entries: dict, prefix: str, arity: int, size: int, variables,
            invariant: str, path: str, issues: list) -> dict:
    """``{index tuple: (entry, AST)}`` of the keys ``prefix.i`` (``arity``
    indices, each in 1..size, kept 0-based) whose value parses as an
    expression over ``variables``.  Any other key of the family is an
    ``invariant`` issue, a second key with the same indices a DuplicateKey
    issue, and a value that does not parse an Expression issue."""
    found = {}
    for key, entry in entries.items():
        if not key.startswith(prefix + "."):
            continue
        try:
            index = tuple(int(part) - 1 for part in key.split(".")[1:])
        except ValueError:
            index = ()
        if len(index) != arity or not all(0 <= i < size for i in index):
            issues.append(ValidationIssue(
                path, entry.line, invariant, f"bad key '{key}': needs "
                f"{arity} index(es), each in 1..{size}"))
        elif index in found:
            issues.append(ValidationIssue(path, entry.line, "DuplicateKey",
                                          f"'{key}' repeats an earlier key"))
        else:
            try:
                found[index] = (entry, parse_expression(entry.value, variables))
            except ExpressionSyntaxError as exc:
                issues.append(ValidationIssue(path, entry.line, "Expression",
                                              str(exc)))
    return found


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
    seed: int = SEARCH_SEED
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
        file, the flag and its text in the detail.  The lemma and search
        modes run no ladder, so ``--resolution`` breaks a rule there."""
        run = self.run
        for flag, text, attr, convert in (
                ("--p", p, "p_list", _floats),
                ("--resolution", resolution, "resolution_ladder", _counts),
                ("--seed", seed, "seed", _seed)):
            if text is None:
                continue
            value, issue = _flag(self.path, text, convert)
            if issue is None:
                setattr(run, attr, value)
                if flag == "--p":
                    issue = run.validate_issue(self.path, 0, 0)
                elif flag == "--resolution" and run.mode in ("lemma", "search"):
                    issue = ValidationIssue(self.path, 0, "RunMode",
                                            f"mode {run.mode} takes no "
                                            "resolution ladder")
                elif flag == "--resolution" and self.maps:
                    m = self.manifolds[self.primary_map().source].dimension
                    issue = _grid_issue(self.path, 0, ([r] * m for r in value))
            if issue:
                issue.detail = f"{flag} {text}: {issue.detail}"
                return issue
        return None

    def radius_flags(self, resolution: str | None, r_max: str | None):
        """``(resolution, r_max, issue)`` from the ``czmap radius`` flags,
        None for an absent flag.  ``--resolution`` is one grid point count
        for every axis of every manifold, under the rules of the
        ``[manifold] resolution`` key and the grid limit; ``--r-max`` is
        one finite number > 0.  issue is None, or the issue of the first
        flag that breaks a rule, located and worded as in
        :meth:`override_run`."""
        parsed = {}
        for flag, text, convert, invariant in (
                ("--resolution", resolution, _count, "NumberFormat"),
                ("--r-max", r_max, _one, "HarmonicRadius")):
            parsed[flag] = None
            if text is None:
                continue
            parsed[flag], issue = _flag(self.path, text, convert, invariant)
            if flag == "--resolution" and issue is None:
                issue = _grid_issue(self.path, 0, (
                    [parsed[flag]] * mdef.dimension
                    for mdef in self.manifolds.values()))
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
    found = len(issues)
    for key in ("coordinates", "lower", "upper", "resolution"):
        if key not in e:
            issues.append(ValidationIssue(path, section.line, "MissingKey",
                                          f"manifold {section.name}: missing '{key}'"))
    if "coordinates" not in e:
        return None
    coordinates = _names(e["coordinates"].value)
    m = len(coordinates)
    box = {}
    for key, convert in (("lower", _finite), ("upper", _finite),
                         ("resolution", _counts)):
        nums = _number(e, key, None, convert, path, issues)
        if nums is not None and len(nums) not in (1, m):
            issues.append(ValidationIssue(path, e[key].line, "DimensionMismatch",
                                          f"'{key}' needs {m} entries"))
        elif nums is not None:
            box[key] = nums * m if len(nums) == 1 else nums
    if len(issues) > found:
        return None
    lower, upper, resolution = box["lower"], box["upper"], box["resolution"]
    for i in range(m):
        if lower[i] >= upper[i]:
            issues.append(ValidationIssue(path, e["lower"].line, "BoxOrder",
                                          f"lower[{i}] must be < upper[{i}]"))
    ordered = len(issues) == found
    issue = _grid_issue(path, e["resolution"].line, [resolution])
    if issue:
        issues.append(issue)

    pairs = _family(e, "metric", 2, m, coordinates, "MetricKey", path, issues)
    metric_exprs = {}
    for (i, j), (entry, _) in pairs.items():
        metric_exprs.setdefault((min(i, j), max(i, j)), entry.value)
    for i in range(m):
        for j in range(i, m):
            if (i, j) not in metric_exprs:
                issues.append(ValidationIssue(path, section.line, "MissingKey",
                                              f"missing metric.{i+1}.{j+1}"))
    mode = _number(e, "derivative_mode", "analytic", _derivative_mode, path,
                   issues, "DerivativeMode")
    A = _number(e, "ricci_lower_bound", 0.0,
                partial(_one, zero=True, finite=False), path, issues,
                "RicciBound")
    base_points = []              # (line, point)
    for key in ("base_point", "base_points"):
        points = _number(e, key, [], partial(_point_list, m=m), path, issues,
                         "BasePoint")
        base_points.extend((e[key].line, p) for p in points)
    r1_half = _number(e, "r1_half", math.inf, _radius, path, issues,
                      "HarmonicRadius")
    fatal = len(issues) > found

    # recorded but not fatal to parsing, so that every other invariant of
    # the file still gets checked; probed only on a box that can be built
    for (i, j), (entry, ast) in pairs.items():
        if not (ordered and i > j and (j, i) in pairs):
            continue
        other = pairs[j, i][1]
        if to_string(ast) == to_string(other):
            continue
        try:
            probe = CoordinateBox(lower, upper, [5] * m).points()
            same = np.allclose(Expression(ast, coordinates)(probe),
                               Expression(other, coordinates)(probe),
                               atol=1e-12)
        except CzmapError as exc:
            issues.append(ValidationIssue(path, entry.line, type(exc).__name__,
                                          str(exc)))
            continue
        if not same:
            issues.append(ValidationIssue(
                path, entry.line, "SymmetryViolation",
                f"metric.{i+1}.{j+1} differs from metric.{j+1}.{i+1}"))

    if fatal:
        return None
    mdef = ManifoldDef(name=section.name, coordinates=coordinates,
                       lower=lower, upper=upper, resolution=resolution,
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
    found = len(issues)
    for key in ("source", "target"):
        if key not in e:
            issues.append(ValidationIssue(path, section.line, "MissingKey",
                                          f"map {section.name}: missing '{key}'"))
        elif e[key].value not in manifolds:
            issues.append(ValidationIssue(path, e[key].line, "UnknownManifold",
                                          f"unknown manifold '{e[key].value}'"))
    if len(issues) > found:
        return None
    source = manifolds[e["source"].value]
    n = manifolds[e["target"].value].dimension
    allowed = source.coordinates + (search.parameters if search else ())
    components = _family(e, "component", 1, n, allowed, "ComponentKey", path,
                         issues)
    for a in range(n):
        if (a,) not in components:
            issues.append(ValidationIssue(path, section.line, "MissingKey",
                                          f"missing component.{a+1}"))
    lipschitz = _number(e, "lipschitz", math.inf,
                        partial(_one, zero=True, finite=False), path, issues,
                        "Lipschitz")
    if len(issues) > found:
        return None
    return MapDef(name=section.name, source=e["source"].value,
                  target=e["target"].value,
                  component_exprs=[components[a,][0].value for a in range(n)],
                  coordinates=source.coordinates, lipschitz=lipschitz,
                  line=section.line)


def _parse_run(section: _Section, path: str, issues: list) -> RunConfig:
    e = section.entries
    cfg = RunConfig()

    def number(key, default, convert=_floats):
        return _number(e, key, default, convert, path, issues)

    if "mode" in e:
        cfg.mode = e["mode"].value
    if "out" in e:
        cfg.out = e["out"].value
    cfg.p_list = number("p", cfg.p_list)
    cfg.basepoint = number("basepoint", cfg.basepoint)
    cfg.resolution_ladder = number("resolution_ladder", cfg.resolution_ladder,
                                   _counts)
    cfg.seed = number("seed", cfg.seed, _seed)
    for key, convert in (
            ("center", _floats),
            ("target_center", lambda text: text if text == "image"
             else _floats(text)),
            ("r", _one), ("R", partial(_one, finite=False))):
        bkey = f"ball_{key}"
        if bkey in e:
            cfg.ball[key] = number(bkey, None, convert)
        elif cfg.mode == "ball" and key != "target_center":
            issues.append(ValidationIssue(path, section.line, "MissingKey",
                                          f"ball mode needs '{bkey}'"))
    cfg.uc_radius = number("uc_radius", cfg.uc_radius, _one)
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
    lower = _number(e, "lower", None, _finite, path, issues)
    upper = _number(e, "upper", None, _finite, path, issues)
    if len(issues) > found:
        return None
    if lower is None or upper is None or len(lower) != len(params) \
            or len(upper) != len(params):
        issues.append(ValidationIssue(path, section.line, "SearchBounds",
                                      "search needs lower/upper per parameter"))
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
        issue = run.resolution_ladder and _grid_issue(
            path, run_section.entries["resolution_ladder"].line,
            ([r] * source.dimension for r in run.resolution_ladder))
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

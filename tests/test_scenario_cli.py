import json
import math
import os
import random
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import count_calls
from czmap.cli import _apply_overrides, build_parser, main
from czmap.errors import CzmapError, ScenarioError
from czmap.report import read_reports
from czmap.runner import run_scenario
from czmap.scenario import (MODES, SECTION_KEYS, _parse_sections,
                            fixture_path, load_scenario)

BAD_SYMMETRY = """
[manifold twisted]
coordinates = x1, x2
lower = -1, -1
upper = 1, 1
resolution = 9, 9
metric.1.1 = 1
metric.1.2 = x1
metric.2.1 = x2
metric.2.2 = 1
r1_half = inf

[manifold target]
coordinates = y1, y2
lower = -2, -2
upper = 2, 2
resolution = 5, 5
metric.1.1 = 1
metric.1.2 = 0
metric.2.2 = 1
r1_half = inf

[map m]
source = twisted
target = target
component.1 = x1
component.2 = x2
lipschitz = 1

[run]
mode = global
p = 2
basepoint = 0, 0
"""

# a valid scenario; the malformed-number test replaces one entry at a time
NUMERIC_KEYS = """
[manifold plane]
coordinates = x1, x2
lower = -0.26, -0.26
upper = 0.26, 0.26
resolution = 9, 9
metric.1.1 = 1
metric.1.2 = 0
metric.2.2 = 1
ricci_lower_bound = 0
base_point = 0, 0
r1_half = inf

[manifold target]
coordinates = y1, y2
lower = -1, -1
upper = 1, 1
resolution = 5, 5
metric.1.1 = 1
metric.1.2 = 0
metric.2.2 = 1
r1_half = inf

[map id]
source = plane
target = target
component.1 = x1
component.2 = x2
lipschitz = 1

[run]
mode = global
p = 2
basepoint = 0, 0
resolution_ladder = 9, 17
seed = 20859
uc_radius = 0.01
ball_center = 0, 0
ball_target_center = 0, 0
ball_r = 0.1
ball_R = 0.5
"""

# identity into a wide flat target whose radius is estimated (the
# solver's bisection holds at its r_max of 0.7 * 2 = 1.4)
ESTIMATED_TARGET = """
[manifold plane]
coordinates = x1, x2
lower = -0.26, -0.26
upper = 0.26, 0.26
resolution = 29, 29
metric.1.1 = 1
metric.1.2 = 0
metric.2.2 = 1
r1_half = inf

[manifold wide]
coordinates = y1, y2
lower = -2, -2
upper = 2, 2
resolution = 41, 41
metric.1.1 = 1
metric.1.2 = 0
metric.2.2 = 1
base_point = 0, 0
r1_half = estimate

[map id]
source = plane
target = wide
component.1 = x1
component.2 = x2
lipschitz = 1

[run]
mode = global
p = 2
basepoint = 0, 0
"""


def _spelled(value):
    """What a report value reads back as: non-finite floats become the
    strings 'inf', '-inf' and 'nan'."""
    if isinstance(value, dict):
        return {k: _spelled(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_spelled(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


REPORT_VALUES = st.recursive(
    st.one_of(st.floats(), st.text(max_size=12)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=12)


FIXTURE_NAMES = ("flat-identity", "sphere-immersion", "sphere-global",
                 "cylinder-immersion", "graph-immersion", "hyperbolic-map",
                 "flat-to-sphere", "sine-search", "saddle-search",
                 "lemma-battery", "ball-estimate", "sphere-global-fd",
                 "sheared-continuous", "halfplane-corollary")


class TestLoader:
    def test_shipped_fixtures_all_load(self):
        for name in FIXTURE_NAMES:
            scenario = load_scenario(fixture_path(name))
            assert scenario.name == name

    @pytest.mark.parametrize("header, line", [
        ("[manifold source]", "metric_derivative.1.1.1 = 0"),
        ("[run]", "drift_tolerance = 0.1"),
        ("[run]", "omega_slack = 1e-9")])
    def test_removed_key_is_one_unknown_key(self, tmp_path, header, line):
        with open(fixture_path("flat-identity"), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        index = lines.index(header) + 1
        lines.insert(index, line)
        path = tmp_path / "removed.scn"
        path.write_text("\n".join(lines))
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        issue, = err.value.issues
        assert (issue.invariant, issue.line) == ("UnknownKey", index + 1)
        assert line.split(" =")[0] in issue.detail

    def test_fixture_env_var_overrides_directory(self, tmp_path, monkeypatch):
        from czmap.scenario import fixture_dir
        monkeypatch.setenv("CZMAP_FIXTURES", str(tmp_path))
        assert fixture_dir() == str(tmp_path)

    def test_sphere_scenario_is_isometric_at_declared_resolution(self):
        from czmap.maps import immersion_check
        scenario = load_scenario(fixture_path("sphere-immersion"))
        _, _, map_model = scenario.build_models()
        assert immersion_check(map_model).isometry_defect <= 1e-8

    def test_symmetry_violation_detected(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text(BAD_SYMMETRY)
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        assert any(i.invariant == "SymmetryViolation" for i in err.value.issues)

    @pytest.mark.parametrize("edits, invariant, at", [
        # the probe box would be built from an unordered box
        ({"upper = 0.26, 0.26": "upper = -0.3, 0.26",
          "metric.1.2 = 0": "metric.1.2 = 0\nmetric.2.1 = 0*x1"},
         "BoxOrder", "lower = -0.26, -0.26"),
        # log() of a negative coordinate on the probe box
        ({"metric.1.2 = 0": "metric.1.2 = 0*log(x1)\n"
                            "metric.2.1 = 0*log(x1)*1"},
         "EvalError", "metric.2.1 = 0*log(x1)*1")])
    def test_symmetry_probe_is_located(self, tmp_path, capsys, edits,
                                       invariant, at):
        with open(fixture_path("flat-identity"), encoding="utf-8") as fh:
            text = fh.read()
        for old, new in edits.items():
            text = text.replace(old, new, 1)              # the source chart
        path = tmp_path / "probe.scn"
        path.write_text(text)
        assert main(["validate", "--scenario", str(path)]) == 1
        lines = capsys.readouterr().err.strip().split("\n")
        line = text.split("\n").index(at) + 1
        assert lines[0].startswith(f"{path}:{line}: [{invariant}]")
        assert all(entry.startswith(f"{path}:") for entry in lines)

    @pytest.mark.parametrize("section", [
        "[run]\nmode = intro\np = 3",
        "[manifold source]\ncoordinates = y1, y2",
        "[map swap]\nsource = source\ntarget = target\ncomponent.1 = x2\n"
        "component.2 = x1"], ids=["run", "manifold", "map"])
    def test_repeated_section_is_one_issue(self, tmp_path, section):
        # each used to replace the section before it, or to be validated
        # and never run
        with open(fixture_path("flat-identity"), encoding="utf-8") as fh:
            text = fh.read() + "\n" + section + "\n"
        path = tmp_path / "repeated.scn"
        path.write_text(text)
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        issue, = err.value.issues
        line = len(text.split("\n")) - section.count("\n") - 1
        assert (issue.invariant, issue.line) == ("DuplicateSection", line)

    def test_all_issues_collected_with_lines(self, tmp_path):
        text = BAD_SYMMETRY.replace("p = 2", "p = 0.5").replace(
            "lipschitz = 1", "lipschitz = -2")
        path = tmp_path / "bad2.scn"
        path.write_text(text)
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        kinds = {i.invariant for i in err.value.issues}
        assert "SymmetryViolation" in kinds
        assert "UnsupportedExponent" in kinds
        assert "Lipschitz" in kinds
        assert all(i.line >= 0 and i.path.endswith("bad2.scn")
                   for i in err.value.issues)

    @pytest.mark.parametrize("key,bad", [
        ("seed", "abc"), ("seed", "-1"), ("uc_radius", "q"), ("ball_r", "z"),
        ("ricci_lower_bound", "abc"),
        ("lower", "nan"), ("resolution_ladder", "2.5"), ("lipschitz", "nan"),
        ("basepoint", "0"), ("p", "nan"), ("p", "inf"), ("resolution", "1e300"),
        ("resolution_ladder", "9, 1e300"),
        # ranges that used to end in a traceback or a silent truncation
        ("uc_radius", "0"), ("uc_radius", "-1"), ("uc_radius", "nan"),
        ("uc_radius", "inf"), ("ball_r", "-0.05"), ("ball_r", "inf"),
        ("ball_R", "0"), ("ball_R", "nan"), ("resolution", "9.5"),
        ("resolution_ladder", "9, 17.5"),
        # points of the wrong length or outside their manifold's box
        ("basepoint", "5, 5"), ("basepoint", "nan, 0"),
        ("base_point", "0.3, 0"), ("base_point", "0, 0, 0, -inf"),
        ("ball_center", "0.1"), ("ball_center", "0, 0.27"),
        ("ball_target_center", "0, 0, 0"),
        ("ball_target_center", "1.01, 0"),
        # one-number keys that used to keep a list's first entry, or nan
        ("r1_half", "0.3, 9"), ("lipschitz", "1, -5"),
        ("ricci_lower_bound", "nan")])
    def test_malformed_number_is_located(self, tmp_path, key, bad):
        path = tmp_path / "numbers.scn"
        path.write_text(NUMERIC_KEYS)
        load_scenario(str(path))
        lines = NUMERIC_KEYS.split("\n")
        index = next(i for i, line in enumerate(lines)
                     if line.startswith(f"{key} ="))
        lines[index] = f"{key} = {bad}"
        path.write_text("\n".join(lines))
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        assert err.value.issues[0].line == index + 1

    @pytest.mark.parametrize("fixture, old, new, invariant", [
        ("flat-identity", "basepoint = 0, 0", "basepoint = 5, 5",
         "OutsideBox"),
        ("ball-estimate", "ball_center = 1.5708, 0.55", "ball_center = 1.5708",
         "DimensionMismatch"),
        ("ball-estimate", "ball_center = 1.5708, 0.55", "ball_center = 5, 5",
         "OutsideBox"),
        ("ball-estimate", "ball_target_center = 0, 0, 0",
         "ball_target_center = 0, 0", "DimensionMismatch"),
        ("ball-estimate", "ball_target_center = 0, 0, 0",
         "ball_target_center = 0, 0, 1.2", "OutsideBox"),
        ("ball-estimate", "base_point = 1.5708, 0.55",
         "base_point = 5, 0.55", "OutsideBox"),
        ("halfplane-corollary", "base_points = 0, 1.5, 0.05, 1.5",
         "base_points = 0, 1.5, 0.05, 1.8", "OutsideBox")])
    def test_bad_point_is_one_located_issue(self, tmp_path, fixture, old, new,
                                            invariant):
        # each used to validate ok, then end in a raw ValueError or, for
        # a one-number ball_center, in a broadcast run that passed
        with open(fixture_path(fixture), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        index = lines.index(old)
        lines[index] = new
        path = tmp_path / "point.scn"
        path.write_text("\n".join(lines))
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        issue, = err.value.issues
        assert (issue.invariant, issue.line) == (invariant, index + 1)

    def test_every_bad_point_is_an_issue(self, tmp_path):
        path = tmp_path / "points.scn"
        path.write_text(NUMERIC_KEYS.replace(
            "base_point = 0, 0", "base_points = 0, 1, 0, 0, 1, 0").replace(
            "ball_center = 0, 0", "ball_center = 1, 1"))
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        lines = NUMERIC_KEYS.split("\n")
        assert [(i.invariant, i.line) for i in err.value.issues] == [
            ("OutsideBox", lines.index("base_point = 0, 0") + 1)] * 2 + [
            ("OutsideBox", lines.index("ball_center = 0, 0") + 1)]

    @pytest.mark.parametrize("mode", ["global", "intro", "corollaryA", "lemma"])
    def test_estimated_radius_needs_a_base_point(self, tmp_path, mode):
        text = ESTIMATED_TARGET.replace("base_point = 0, 0\n", "").replace(
            "mode = global", f"mode = {mode}")
        path = tmp_path / "no-base.scn"
        path.write_text(text)
        if mode == "lemma":                # reads no radius
            assert load_scenario(str(path)).run.mode == "lemma"
            return
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        issue, = err.value.issues
        assert issue.invariant == "MissingKey"
        assert issue.line == text.split("\n").index("[manifold wide]") + 1
        assert "r1_half = estimate needs a 'base_point'" in issue.detail

    def test_whole_valued_count_is_valid(self, tmp_path):
        path = tmp_path / "whole.scn"
        path.write_text(NUMERIC_KEYS.replace("resolution = 9, 9",
                                             "resolution = 9.0, 9"))
        assert load_scenario(str(path)).manifolds["plane"].resolution == [9, 9]

    @pytest.mark.parametrize("fixture, old, new, invariant", [
        ("saddle-search", "upper = 0.5", "upper = 0", "SearchBounds"),
        ("ball-estimate", "ball_r = 0.12", "", "MissingKey"),
        ("ball-estimate", "ball_R = 2.5", "", "MissingKey"),
        ("ball-estimate", "ball_center = 1.5708, 0.55", "", "MissingKey")])
    def test_search_bounds_and_ball_keys_are_one_issue(self, tmp_path, fixture,
                                                       old, new, invariant):
        with open(fixture_path(fixture), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        index = lines.index(old)
        lines[index] = new
        path = tmp_path / "broken.scn"
        path.write_text("\n".join(lines))
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        issue, = err.value.issues
        assert issue.invariant == invariant
        # the lower bound's line, or the [run] header for a missing key
        header = "[search]" if fixture == "saddle-search" else "[run]"
        line = lines.index(header) + (2 if invariant == "SearchBounds" else 0)
        assert issue.line == line + 1

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            load_scenario("/nonexistent/path.scn")

    def test_located_expression_error(self, tmp_path):
        text = BAD_SYMMETRY.replace("metric.2.1 = x2", "metric.2.1 = x1") \
                           .replace("component.1 = x1", "component.1 = x1 +* 2")
        path = tmp_path / "bad3.scn"
        path.write_text(text)
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        issue = next(i for i in err.value.issues if i.invariant == "Expression")
        assert "component.1 = x1 +* 2" in BAD_SYMMETRY.replace(
            "component.1 = x1", "component.1 = x1 +* 2")
        assert issue.line > 0


class TestFixtureFeatures:
    """Every feature the scenario format keeps is run by a shipped fixture."""

    def test_fixture_names_are_the_shipped_set(self):
        folder = os.path.dirname(fixture_path("flat-identity"))
        shipped = sorted(name[:-len(".scn")] for name in os.listdir(folder)
                         if name.endswith(".scn"))
        assert sorted(FIXTURE_NAMES) == shipped

    def test_every_key_family_is_set_by_a_fixture(self):
        issues, seen = [], set()
        for name in FIXTURE_NAMES:
            for sec in _parse_sections(fixture_path(name), issues):
                # metric.1.2 sets the family metric.
                seen.update((sec.kind, key.split(".")[0] + "." if "." in key
                             else key) for key in sec.entries)
        assert not issues
        declared = {(kind, family) for kind, families in SECTION_KEYS.items()
                    for family in families}
        # out is where reports go: a deployment path, not a feature
        assert declared - seen <= {("run", "out")}

    def test_every_mode_and_hypothesis_form_is_shipped(self):
        scenarios = [load_scenario(fixture_path(n)) for n in FIXTURE_NAMES]
        assert {s.run.mode for s in scenarios} == set(MODES)
        manifolds = [m for s in scenarios for m in s.manifolds.values()]
        r1_half = [m.r1_half for m in manifolds]
        assert "estimate" in r1_half and math.inf in r1_half
        assert any(isinstance(r, float) and math.isfinite(r) for r in r1_half)
        assert "fd" in {m.derivative_mode for m in manifolds}
        assert math.inf in {m.lipschitz for s in scenarios
                            for m in s.maps.values()}


# replacement values and lines; a grid they declare is small or over the limit
JUNK = ("", "abc", "nan", "inf", "-inf", "-1", "0", "2", "0.5", "3.5", "1e-300",
        "1e300", "-1e300", "1e999", "(", "x1 +", "exp(", "sin(", "1/0",
        "1, 2, 3", "0, 0", "inf, 1", "=", ",", "x1", "th", "x1*1e999",
        "th*1e999", "eps")
JUNK_LINES = JUNK + ("[run]", "[manifold x]", "[map]", "[search]",
                     "[bogus y]", "[manifold", "key = 1")


def _mutate(lines: list, kind: str, index: int, junk: str) -> None:
    index %= len(lines)
    if kind == "drop":
        del lines[index]
    elif kind == "duplicate":
        lines.insert(index, lines[index])
    elif "=" in lines[index]:
        lines[index] = lines[index].split("=", 1)[0] + "= " + junk
    else:
        lines[index] = junk


class TestMutatedFixtures:
    @settings(max_examples=1000, deadline=None)
    @given(name=st.sampled_from(FIXTURE_NAMES),
           edits=st.lists(st.tuples(
               st.sampled_from(("drop", "duplicate", "corrupt")),
               st.integers(0, 10 ** 6), st.sampled_from(JUNK_LINES)),
               min_size=1, max_size=3))
    def test_validate_ends_clean_or_located(self, name, edits):
        with open(fixture_path(name), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        for kind, index, junk in edits:
            if lines:
                _mutate(lines, kind, index, junk)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mutated.scn")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines))
            try:
                load_scenario(path)
            except ScenarioError as err:
                assert err.issues
                for issue in err.issues:
                    assert issue.path == path
                    assert 0 <= issue.line <= len(lines)

    def test_mutated_fixtures_that_load_run(self, tmp_path):
        # a seeded sample of the mutations above; a file that loads must
        # run to records or to a CzmapError, never to a raw exception
        rng = random.Random(0)
        path = str(tmp_path / "mutated.scn")
        for _ in range(200):
            with open(fixture_path(rng.choice(FIXTURE_NAMES)),
                      encoding="utf-8") as fh:
                lines = fh.read().split("\n")
            for _ in range(rng.randint(1, 3)):
                if lines:
                    _mutate(lines, rng.choice(("drop", "duplicate", "corrupt")),
                            rng.randint(0, 10 ** 6), rng.choice(JUNK_LINES))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines))
            try:
                scenario = load_scenario(path)
            except ScenarioError:
                continue
            try:
                assert run_scenario(scenario)
            except CzmapError:
                pass

    @pytest.mark.parametrize("key, value", [("lower", "inf"), ("upper", "nan"),
                                            ("lower", "abc")])
    def test_search_bounds_must_be_finite(self, tmp_path, key, value):
        with open(fixture_path("saddle-search"), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        index = next(i for i, line in enumerate(lines)
                     if line.startswith(f"{key} ="))   # the [search] section
        lines[index] = f"{key} = {value}"
        path = tmp_path / "bounds.scn"
        path.write_text("\n".join(lines))
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        assert err.value.issues[0].line == index + 1

    @pytest.mark.parametrize("key, value", [("lower", "-1e300"),
                                            ("upper", "1e300")])
    def test_overflowing_lipschitz_check_is_located(self, tmp_path, key,
                                                    value):
        # a source box this wide overflows the sampled segment lengths;
        # inf/inf quotients are nan and must not pass the Lipschitz check
        with open(fixture_path("sphere-global"), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        index = next(i for i, line in enumerate(lines)
                     if line.startswith(f"{key} ="))      # the source patch
        lines[index] = f"{key} = {value}"
        path = tmp_path / "overflow.scn"
        path.write_text("\n".join(lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ScenarioError) as err:
                load_scenario(str(path))
        issue = err.value.issues[0]
        assert issue.invariant == "LipschitzViolation"
        assert issue.line == lines.index("[map immersion]") + 1
        assert "not finite" in issue.detail

    def test_overflowing_grid_step_is_named(self, tmp_path):
        # the metric length of a target grid step overflows to inf, so
        # the target's grid distances cannot be formed
        with open(fixture_path("graph-immersion"), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        lines[lines.index("lower = -0.6, -0.6, -0.5")] = "lower = -1e300"
        path = tmp_path / "wide.scn"
        path.write_text("\n".join(lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reports = run_scenario(load_scenario(str(path)))
        assert len(reports) == 6
        assert all("edge lengths are not finite" in rep.error
                   for rep in reports)

    @pytest.mark.parametrize("value", ["1e999", "-1e999"])
    def test_infinite_metric_entry_is_located(self, tmp_path, value):
        # eigvalsh gives nan for an infinite entry, and nan must fail the
        # positive-definiteness check: the grid distances never settle on
        # nan weights, and a finite Lipschitz bound would name the wrong
        # invariant
        with open(fixture_path("flat-identity"), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        lines[lines.index("metric.1.1 = 1")] = f"metric.1.1 = {value}"
        lines[lines.index("lipschitz = 1")] = "lipschitz = inf"
        path = tmp_path / "infinite.scn"
        path.write_text("\n".join(lines))
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        [issue] = err.value.issues
        assert issue.invariant == "DegenerateMetric"
        assert issue.line == lines.index("[manifold source]") + 1
        assert main(["radius", "--scenario", str(path)]) == 1

    def test_infinite_off_diagonal_entry_is_located(self, tmp_path, capsys):
        # on this 3-D chart eigvalsh raises LinAlgError instead of giving
        # nan, so the infinite matrices never reach it
        with open(fixture_path("ball-estimate"), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        lines[lines.index("metric.1.3 = 0")] = "metric.1.3 = 1e999"
        path = tmp_path / "bad13.scn"
        path.write_text("\n".join(lines))
        assert main(["validate", "--scenario", str(path)]) == 1
        [line] = capsys.readouterr().err.strip().split("\n")
        assert line.startswith(
            f"{path}:{lines.index('[manifold ambient]') + 1}: "
            "[DegenerateMetric]")
        assert line.endswith("min eigenvalue nan")

    @pytest.mark.parametrize("entries, invariant", [
        # the partial's text holds the literal
        (["metric.1.1 = x1*1e999", "metric.1.2 = 0"], "EvalError"),
        # so does the text the symmetry check compares
        (["metric.1.1 = 1", "metric.1.2 = 1e999", "metric.2.1 = 1e999"],
         "DegenerateMetric")])
    def test_infinite_literal_is_located(self, tmp_path, entries, invariant):
        # to_string writes an infinite literal without int(), which
        # refuses it with a raw OverflowError
        with open(fixture_path("flat-identity"), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        index = lines.index("metric.1.1 = 1")             # the source chart
        assert lines[index + 1] == "metric.1.2 = 0"
        lines[index:index + 2] = entries
        path = tmp_path / "literal.scn"
        path.write_text("\n".join(lines))
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        [issue] = err.value.issues
        assert issue.invariant == invariant
        assert issue.line == lines.index("[manifold source]") + 1

    @pytest.mark.parametrize("name, key, misspelt", [
        ("flat-identity", "resolution_ladder", "resolution_laddr"),
        ("flat-identity", "ricci_lower_bound", "ricci_lower_bnd"),
        ("flat-identity", "lipschitz", "lipshitz"),
        ("saddle-search", "upper", "uper"),          # the [search] section
        ("saddle-search", "metric.1.1", "metrik.1.1")])
    def test_unknown_key_is_located(self, tmp_path, name, key, misspelt):
        self.check_renamed_key(tmp_path, name, key, misspelt, "UnknownKey")

    @pytest.mark.parametrize("key, renamed, invariant", [
        # each used to load as the key it extends
        ("metric.1.2", "metric.1.2.9", "MetricKey"),
        ("component.1", "component.1.7", "ComponentKey")])
    def test_key_with_extra_index_is_located(self, tmp_path, key, renamed,
                                             invariant):
        self.check_renamed_key(tmp_path, "flat-identity", key, renamed,
                               invariant)

    @staticmethod
    def check_renamed_key(tmp_path, name, key, renamed, invariant):
        """The first issue of fixture ``name`` with its first ``key``
        renamed is ``invariant`` at that line and names the new key."""
        with open(fixture_path(name), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        index = next(i for i, line in enumerate(lines)
                     if line.startswith(f"{key} ="))
        lines[index] = lines[index].replace(key, renamed, 1)
        path = tmp_path / "renamed.scn"
        path.write_text("\n".join(lines))
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        issue = err.value.issues[0]
        assert (issue.invariant, issue.line) == (invariant, index + 1)
        assert renamed in issue.detail


class TestRunner:
    def test_flat_identity_report_contents(self):
        scenario = load_scenario(fixture_path("flat-identity"))
        reports = run_scenario(scenario)
        assert len(reports) == 2  # two grid levels
        for rep in reports:
            assert rep.passed
            assert rep.terms["lhs_hess"] == 0.0
            assert rep.ratio == 0.0
        assert reports[1].checks["ratio_drift_ok"]

    def test_ball_mode_scenario(self):
        scenario = load_scenario(fixture_path("ball-estimate"))
        reports = run_scenario(scenario)
        assert len(reports) == 1
        rep = reports[0]
        assert rep.passed
        assert rep.mode == "ball"
        for key in ("lhs_hess", "t_laplacian", "t_du", "t_du_2p_sq", "t_dist"):
            assert key in rep.terms
        assert np.isfinite(rep.ratio) and rep.ratio > 0

    def test_run_and_report_writes_files(self, tmp_path):
        from czmap.runner import run_and_report
        scenario = load_scenario(fixture_path("flat-identity"))
        scenario.run.resolution_ladder = [29]
        reports, jsonl, tsv = run_and_report(scenario,
                                             str(tmp_path / "out" / "rep"))
        assert len(reports) == 1
        assert os.path.exists(jsonl) and os.path.exists(tsv)

    def test_failed_run_reports_error_and_nonzero_exit(self, tmp_path):
        # ball mode without its parameters is an engine error, not a crash
        scenario = load_scenario(fixture_path("flat-identity"))
        scenario.run.mode = "ball"
        reports = run_scenario(scenario)
        assert any(r.error for r in reports)
        assert not all(r.passed for r in reports)

    def test_estimated_radius_resolution(self, tmp_path):
        from czmap.runner import resolve_radii
        text = open(fixture_path("hyperbolic-map")).read().replace(
            "r1_half = 0.25", "r1_half = estimate").replace(
            "lower = -0.2, 1.3", "lower = -0.45, 1.05").replace(
            "upper = 0.2, 1.7", "upper = 0.45, 1.95").replace(
            "lower = -0.25, 0.2", "lower = -0.5, 0").replace(
            "upper = 0.25, 0.6", "upper = 0.5, 0.75").replace(
            "lipschitz = 1.7", "lipschitz = 2").replace(
            "resolution = 33, 33", "resolution = 49, 49")
        path = tmp_path / "est.scn"
        path.write_text(text)
        scenario = load_scenario(str(path))
        _, _, map_model = scenario.build_models()
        radii = resolve_radii(scenario, map_model.source_chart,
                              map_model.target_chart)
        assert radii.source == "estimated"
        assert 0.0 < radii.r1M < 0.45
        assert np.isinf(radii.r1N)
        source_cert, target_cert = radii.certificates
        assert source_cert.source == "solver" and source_cert.holds
        assert source_cert.r == radii.r1M
        assert np.isfinite(source_cert.hr1_margin)
        assert target_cert.source == "declared"

    def test_estimated_radius_certificate_is_written(self, tmp_path):
        from czmap.runner import run_and_report
        path = tmp_path / "est.scn"
        path.write_text(ESTIMATED_TARGET)
        reports, jsonl, _ = run_and_report(load_scenario(str(path)),
                                           str(tmp_path / "est"))
        assert reports[0].passed
        source_cert, target_cert = read_reports(jsonl)[0]["certificates"]
        assert source_cert["source"] == "declared"
        assert target_cert["source"] == "solver"
        assert target_cert["verdict"] == "holds"
        assert target_cert["r"] == pytest.approx(1.4)
        assert math.isfinite(target_cert["hr1_margin"])

    def test_fd_twin_matches_analytic_fixture(self):
        # central differences of the source metric move each term by a
        # relative 5e-5 at most (9e-6 on the ratio at 33^2)
        analytic = run_scenario(load_scenario(fixture_path("sphere-global")))
        twin = run_scenario(load_scenario(fixture_path("sphere-global-fd")))
        assert len(twin) == len(analytic) == 6
        for a, b in zip(analytic, twin):
            assert b.passed and (b.p, b.resolution) == (a.p, a.resolution)
            assert b.checks == a.checks
            assert b.ratio == pytest.approx(a.ratio, rel=1e-4)
            for key in ("lhs_hess", "t_laplacian", "t_du", "t_du_2p_sq",
                        "t_dist"):
                assert b.terms[key] == pytest.approx(a.terms[key], rel=1e-4)

    def test_estimated_source_certificate_in_corollary_records(
            self, tmp_path, monkeypatch):
        import czmap.engine as engine
        from czmap.runner import run_and_report
        scenario = load_scenario(fixture_path("halfplane-corollary"))
        assert scenario.override_run("1.5, 2, 4", None) is None
        diameters = count_calls(monkeypatch, engine, "image_diameter")
        reports, jsonl, _ = run_and_report(scenario, str(tmp_path / "cor"))
        records = read_reports(jsonl)
        assert len(records) == 3 and all(r["passed"] for r in records)
        # the map keeps its image diameter for every exponent
        assert len(diameters) == 1
        assert len({r["terms"]["diameter"] for r in records}) == 1
        for record in records:
            source_cert, target_cert = record["certificates"]
            assert source_cert["source"] == "solver"
            assert source_cert["verdict"] == "holds"
            assert record["terms"]["r"] == source_cert["r"]
            assert target_cert["source"] == "declared"
            assert record["warnings"] == []

    def test_records_state_the_radii_they_read(self):
        # ball records carry both certificates; intro reads no radius
        ball, = run_scenario(load_scenario(fixture_path("ball-estimate")))
        assert [c["source"] for c in ball.certificates] == ["declared"] * 2
        intro = run_scenario(load_scenario(fixture_path("sphere-immersion")))
        assert all(rep.certificates == [] for rep in intro)

    def test_intro_resolves_no_harmonic_radius(self, tmp_path, monkeypatch):
        # intro reads neither radius, so an estimated one costs no solve
        import czmap.harmonic as harmonic
        with open(fixture_path("sphere-immersion"), encoding="utf-8") as fh:
            text = fh.read()
        assert "mode = intro" in text and "r1_half = 0.3" in text
        path = tmp_path / "sphere-estimate.scn"
        path.write_text(text.replace("r1_half = 0.3", "r1_half = estimate"),
                        encoding="utf-8")
        scenario = load_scenario(str(path))
        assert scenario.manifolds["sphere"].base_points
        estimates = count_calls(monkeypatch, harmonic,
                                "estimate_harmonic_radius")
        reports = run_scenario(scenario)
        assert estimates == []
        assert reports and all(rep.error is None and rep.certificates == []
                               for rep in reports)

    def test_lemma_battery_scenario(self):
        scenario = load_scenario(fixture_path("lemma-battery"))
        reports = run_scenario(scenario)
        assert len(reports) == 9  # three exponents, three scales
        for rep in reports:
            assert rep.passed
            assert rep.checks["identities_pass"]
            assert np.isfinite(rep.terms["c_emp"]) and rep.terms["c_emp"] > 0

    def test_uniform_continuity_key_flags_extrapolation(self, tmp_path,
                                                        monkeypatch):
        import czmap.engine as engine
        import czmap.maps as maps
        from czmap.runner import run_and_report
        scenario = load_scenario(fixture_path("sheared-continuous"))
        assert math.isinf(scenario.primary_map().lipschitz)
        assert scenario.run.uc_radius == 0.08
        assert scenario.override_run("1.5, 2, 4", None) is None
        covers = count_calls(monkeypatch, engine, "build_cover")
        profiles = count_calls(monkeypatch, maps, "uniform_continuity_profile")
        reports, jsonl, _ = run_and_report(scenario, str(tmp_path / "uc"))
        records = read_reports(jsonl)
        assert len(records) == 3 and all(r["passed"] for r in records)
        assert all(r["extrapolated"] is True for r in records)
        # one cover on the source chart, one profile on the map
        assert (len(covers), len(profiles)) == (1, 1)

    def test_sphere_intro_values(self):
        import math
        scenario = load_scenario(fixture_path("sphere-immersion"))
        reports = run_scenario(scenario)
        rep = reports[0]
        assert rep.passed
        assert rep.terms["norm_ii"] == pytest.approx(math.sqrt(8 * math.pi),
                                                     abs=1e-2)
        assert rep.terms["norm_h"] == pytest.approx(2 * math.sqrt(4 * math.pi),
                                                    abs=1e-2)

    def test_reports_are_deterministic(self, tmp_path):
        from czmap.report import write_reports
        scenario = load_scenario(fixture_path("sphere-immersion"))
        paths = []
        for tag in ("a", "b"):
            reports = run_scenario(scenario)
            for rep in reports:
                rep.timing_seconds = 0.0
            jsonl, tsv = write_reports(reports, str(tmp_path / tag / "rep"))
            paths.append((jsonl, tsv))
        a = open(paths[0][0], "rb").read()
        b = open(paths[1][0], "rb").read()
        assert a == b
        assert open(paths[0][1], "rb").read() == open(paths[1][1], "rb").read()


class TestReports:
    @settings(max_examples=60, deadline=None)
    @given(terms=st.dictionaries(st.text(max_size=10), REPORT_VALUES,
                                 max_size=4),
           ratio=st.floats(), note=st.text(max_size=20))
    def test_write_read_round_trip(self, terms, ratio, note):
        from czmap.report import InequalityReport, write_reports
        rep = InequalityReport(scenario="codec", mode="global", p=2.0,
                               resolution="9x9", terms=terms, ratio=ratio,
                               warnings=[note], extra={"values": [terms]})
        with tempfile.TemporaryDirectory() as tmp:
            jsonl, _ = write_reports([rep], os.path.join(tmp, "rep"))
            record, = read_reports(jsonl)
        assert record["terms"] == _spelled(terms)
        assert record["values"] == [_spelled(terms)]
        assert record["ratio"] == _spelled(ratio)
        assert record["warnings"] == [note]

    def test_numpy_scalars_are_spelled(self, tmp_path):
        from czmap.report import InequalityReport, write_reports
        rep = InequalityReport(
            scenario="codec", mode="global", p=2.0, resolution="9x9",
            terms={"a": np.float32(-np.inf), "b": np.float64(np.nan),
                   "c": np.array([1.5, np.inf]), "d": np.int64(3)},
            ratio=np.float64(np.inf), warnings=["NaN-check", "Infinity"])
        jsonl, _ = write_reports([rep], str(tmp_path / "rep"))
        record, = read_reports(jsonl)
        assert record["terms"] == {"a": "-inf", "b": "nan",
                                   "c": [1.5, "inf"], "d": 3}
        assert record["ratio"] == "inf"
        assert record["warnings"] == ["NaN-check", "Infinity"]


class TestCli:
    def test_validate_ok(self, capsys):
        assert main(["validate", "--scenario", "flat-identity"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text(BAD_SYMMETRY)
        assert main(["validate", "--scenario", str(path)]) == 1
        assert "SymmetryViolation" in capsys.readouterr().err

    def test_run_writes_reports_and_exits_zero(self, tmp_path, capsys):
        out = str(tmp_path / "rep")
        code = main(["run", "--scenario", "flat-identity", "--resolution",
                     "29", "--out", out])
        assert code == 0
        records = read_reports(out + ".jsonl")
        assert len(records) == 1
        assert records[0]["passed"] is True
        assert os.path.exists(out + ".tsv")
        with open(out + ".tsv") as fh:
            header = fh.readline().strip().split("\t")
        assert header[:4] == ["scenario", "mode", "p", "resolution"]

    def test_report_subcommand_prints(self, tmp_path, capsys):
        out = str(tmp_path / "rep")
        main(["run", "--scenario", "flat-identity", "--resolution", "29",
              "--out", out])
        capsys.readouterr()
        assert main(["report", out + ".jsonl"]) == 0
        assert "flat-identity" in capsys.readouterr().out

    def test_mode_override(self, capsys):
        code = main(["run", "--scenario", "sphere-immersion", "--mode",
                     "corollaryA", "--p", "2"])
        assert code == 0
        assert "corollaryA" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, invariant", [
        ("--p", "abc", "NumberFormat"), ("--p", "0.5", "UnsupportedExponent"),
        ("--p", "nan", "UnsupportedExponent"),
        ("--p", "inf", "UnsupportedExponent"),
        ("--resolution", "2", "NumberFormat"),
        ("--resolution", "2.5", "NumberFormat"),
        ("--resolution", "29.9", "NumberFormat")])
    def test_bad_override_flag_is_one_issue(self, capsys, flag, value,
                                            invariant):
        # the [run] rules of p and resolution_ladder hold for the flags
        assert main(["run", "--scenario", "flat-identity", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        issue, = captured.err.strip().split("\n")
        assert f"[{invariant}] {flag} {value}:" in issue
        assert issue.startswith(fixture_path("flat-identity") + ":0: ")

    @pytest.mark.parametrize("argv", [
        ["--seed", "-1"], ["--seed=-1"], ["--seed", "abc"]])
    def test_bad_search_seed_is_one_issue(self, capsys, argv):
        # checked before the search starts; the draw needs a seed >= 0
        assert main(["search", "--scenario", "saddle-search", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        issue, = captured.err.strip().split("\n")
        value = argv[-1].removeprefix("--seed=")
        assert f"[NumberFormat] --seed {value}:" in issue
        assert issue.startswith(fixture_path("saddle-search") + ":0: ")

    @pytest.mark.parametrize("argv", [
        ["search", "--scenario", "sine-search"],
        ["run", "--scenario", "lemma-battery"],
        ["run", "--scenario", "flat-identity", "--mode", "lemma"]])
    def test_resolution_without_a_ladder_is_one_issue(self, capsys, argv):
        # the lemma battery and the search run no ladder, so the flag
        # has nothing to set
        assert main([*argv, "--resolution", "33"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        issue, = captured.err.strip().split("\n")
        assert "[RunMode] --resolution 33:" in issue
        assert issue.startswith(fixture_path(argv[2]) + ":0: ")

    @pytest.mark.parametrize("flag, value, invariant", [
        ("--resolution", "2", "NumberFormat"),
        ("--resolution", "0", "NumberFormat"),
        ("--resolution", "2.5", "NumberFormat"),
        ("--resolution", "29.9", "NumberFormat"),
        ("--resolution", "abc", "NumberFormat"),
        ("--resolution", "nan", "NumberFormat"),
        ("--resolution", "inf", "NumberFormat"),
        ("--resolution", "29,33", "NumberFormat"),
        ("--resolution", "46341", "Resolution"),
        ("--r-max", "-1", "HarmonicRadius"), ("--r-max", "0", "HarmonicRadius"),
        ("--r-max", "nan", "HarmonicRadius"),
        ("--r-max", "inf", "HarmonicRadius"),
        ("--r-max", "abc", "HarmonicRadius")])
    def test_bad_radius_flag_is_one_issue(self, capsys, flag, value,
                                          invariant):
        # checked before any chart is built, so 46341^2 grid points are
        # never allocated
        assert main(["radius", "--scenario", "flat-identity", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        issue, = captured.err.strip().split("\n")
        assert f"[{invariant}] {flag} {value}:" in issue
        assert issue.startswith(fixture_path("flat-identity") + ":0: ")

    def test_radius_flags_set_grid_and_bisection(self, capsys):
        assert main(["radius", "--scenario", "flat-identity",
                     "--resolution", "9", "--r-max", "0.1"]) == 0
        out = capsys.readouterr().out
        # a 9-point grid is too coarse for a radius of 0.1 on the source
        assert "source at [0.0, 0.0]: r_1,1/2 undetermined" in out
        assert out.count("(r_max 0.1, ") == 2

    def test_override_ladder_grid_limit(self):
        # validation alone: a run at these levels would allocate the grid
        for ladder, kind in (("46341", "Resolution"), ("29, 1e300", "Resolution"),
                             ("inf", "NumberFormat"), ("46340", None)):
            args = build_parser().parse_args(
                ["run", "--scenario", "flat-identity", "--resolution", ladder])
            issue = _apply_overrides(
                load_scenario(fixture_path("flat-identity")), args)
            assert (issue and issue.invariant) == kind

    def test_radius_subcommand_flat_sentinel(self, tmp_path, capsys):
        text = """
[manifold plane]
coordinates = x1, x2
lower = -2, -2
upper = 2, 2
resolution = 41, 41
metric.1.1 = 1
metric.1.2 = 0
metric.2.2 = 1
base_point = 0, 0
r1_half = inf

[run]
mode = global
p = 2
basepoint = 0, 0
"""
        # a map section is not needed for the radius estimator
        path = tmp_path / "plane.scn"
        path.write_text(text + """
[manifold t2]
coordinates = y1, y2
lower = -2, -2
upper = 2, 2
resolution = 5, 5
metric.1.1 = 1
metric.1.2 = 0
metric.2.2 = 1
r1_half = inf

[map id]
source = plane
target = t2
component.1 = x1
component.2 = x2
lipschitz = 1
""")
        assert main(["radius", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert ">=" in out

    def test_radius_mirrored_base_points_agree(self, tmp_path, capsys):
        # each chart is homogeneous along one axis and mirror-symmetric
        # across its middle (ph -> 1.2 - ph, x -> -x); each pair of base
        # points sits 4 grid steps either side of that line, so the two
        # estimates and every certificate's hr2_value must agree
        path = tmp_path / "mirrored.scn"
        path.write_text("""
[manifold sphere]
coordinates = th, ph
lower = 1.2708, 0.0
upper = 1.8708, 1.2
resolution = 17, 33
metric.1.1 = 1
metric.1.2 = 0
metric.2.2 = sin(th)^2
base_points = 1.5708, 0.45, 1.5708, 0.75

[manifold halfplane]
coordinates = x, y
lower = -0.4, 1.3
upper = 0.4, 1.7
resolution = 33, 17
metric.1.1 = 1/(y*y)
metric.1.2 = 0
metric.2.2 = 1/(y*y)
base_points = -0.1, 1.5, 0.1, 1.5

[run]
mode = global
""", encoding="utf-8")
        assert main(["radius", "--scenario", str(path)]) == 0
        estimates = {}
        for line in capsys.readouterr().out.splitlines():
            if not line.startswith(" "):
                point = line[line.index("["):line.index("]") + 1]
                key = (line.split(" at ")[0], tuple(json.loads(point)))
                estimates[key] = [line.split(": ", 1)[1].split(" (")[0]]
            else:
                estimates[key].append(line.split("hr2_value=")[1].split()[0])
        assert len(estimates) == 4
        for name, a, b in (("sphere", (1.5708, 0.45), (1.5708, 0.75)),
                           ("halfplane", (-0.1, 1.5), (0.1, 1.5))):
            assert len(estimates[name, a]) > 1
            assert estimates[name, a] == estimates[name, b]

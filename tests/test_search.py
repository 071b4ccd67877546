import random

import numpy as np
import pytest

from czmap.engine import HarmonicRadii, verify_global_estimate
from czmap.errors import EmptyFeasibleSet, PreconditionFailed
from czmap.expressions import Expression
from builders import flat_chart
from czmap.maps import MapModel
from czmap.runner import run_scenario
from czmap.scenario import fixture_path, load_scenario
from czmap.search import MapFamily, extremal_ratio_search


def sine_ratio(k: float, resolution: int = 65) -> float:
    source = flat_chart(0.0, 0.5, resolution, dim=1, names=("x",))
    target = flat_chart(-1.1, 1.1, 5, dim=1, names=("u",))
    comp = Expression(f"sin({k:.17g}*x)/{k:.17g}", ("x",))
    wave = MapModel(source, target, [comp], lipschitz_bound=1.0)
    radii = HarmonicRadii(np.inf, np.inf)
    return verify_global_estimate(wave, [0.0], 2.0, radii).ratio


class TestPatternSearch:
    def test_affine_family_stays_zero(self):
        def affine_ratio(params):
            a = float(params[0])
            source = flat_chart(0.0, 0.5, 33, dim=1, names=("x",))
            target = flat_chart(-3.0, 3.0, 5, dim=1, names=("u",))
            m = MapModel(source, target,
                         [Expression(f"{a:.17g}*x", ("x",))],
                         lipschitz_bound=max(abs(a), 1e-6))
            return verify_global_estimate(m, [0.0], 2.0,
                                          HarmonicRadii(np.inf, np.inf)).ratio

        family = MapFamily([0.2], [2.0], affine_ratio)
        result = extremal_ratio_search(family, restarts=2, max_contractions=3)
        assert result.best_value == 0.0

    def test_oscillation_family_peaks_at_upper_bound(self):
        # direct-evaluation oracle over the parameter grid
        direct = [sine_ratio(k) for k in range(1, 9)]
        assert all(b > a for a, b in zip(direct, direct[1:]))

        family = MapFamily([1.0], [8.0], lambda p: sine_ratio(float(p[0])))
        result = extremal_ratio_search(family, restarts=2, max_contractions=4)
        assert result.best_params[0] == pytest.approx(8.0)
        assert result.best_value == pytest.approx(direct[-1], rel=1e-12)

    def test_final_point_dominates_final_poll(self):
        family = MapFamily([1.0], [8.0], lambda p: sine_ratio(float(p[0]), 33))
        result = extremal_ratio_search(family, restarts=1, max_contractions=3)
        final_polls = [t for t in result.trace if t.phase == "final-poll"
                       and t.feasible]
        assert all(t.value <= result.best_value + 1e-15 for t in final_polls)

    def test_trace_is_deterministic(self):
        family = MapFamily([1.0], [8.0], lambda p: sine_ratio(float(p[0]), 33))
        r1 = extremal_ratio_search(family, seed=7, restarts=2,
                                   max_contractions=3)
        r2 = extremal_ratio_search(family, seed=7, restarts=2,
                                   max_contractions=3)
        assert [t.as_record() for t in r1.trace] == \
            [t.as_record() for t in r2.trace]
        assert r1.best_value == r2.best_value

    def test_empty_feasible_set(self):
        def always_bad(params):
            raise PreconditionFailed("infeasible by construction")

        family = MapFamily([0.0], [1.0], always_bad)
        with pytest.raises(EmptyFeasibleSet):
            extremal_ratio_search(family, restarts=2, max_contractions=1)

    def test_lipschitz_violation_is_infeasible(self):
        def steep(params):
            source = flat_chart(0.0, 0.5, 9, dim=1, names=("x",))
            target = flat_chart(-3.0, 3.0, 5, dim=1, names=("u",))
            MapModel(source, target, [Expression("4*x", ("x",))],
                     lipschitz_bound=1.0).validate()
            return 0.0

        family = MapFamily([0.0], [1.0], steep)
        with pytest.raises(EmptyFeasibleSet):
            extremal_ratio_search(family, restarts=1, max_contractions=1)

    def test_other_errors_end_the_search(self):
        def faulty(params):
            raise ValueError("a fault, not an infeasible candidate")

        family = MapFamily([0.0], [1.0], faulty)
        with pytest.raises(ValueError, match="a fault"):
            extremal_ratio_search(family, restarts=1, max_contractions=1)


class TestRestartDraws:
    """The restart points are the stdlib's random.Random(seed) draws,
    restart by restart and axis by axis."""

    @pytest.mark.parametrize("seed", [0, 1, 20859, 2 ** 32 - 1, 2 ** 32,
                                      2 ** 64 - 1, 2 ** 64,
                                      99999999999999999999999])
    def test_restart_points_are_random_draws(self, seed):
        k, restarts = 3, 4
        family = MapFamily([0.0] * k, [1.0] * k, lambda p: 0.0)
        result = extremal_ratio_search(family, seed=seed, restarts=restarts,
                                       max_contractions=0)
        starts = [t.params for t in result.trace if t.phase == "restart"]
        assert starts[0] == (0.5,) * k
        rng = random.Random(seed)
        expected = [rng.random() for _ in range(k * (restarts - 1))]
        assert [x for start in starts[1:] for x in start] == expected

    def test_saddle_stand_in_workload(self):
        # the saddle-search fixture's seed makes 34 evaluations on an
        # increasing family: 12 from the center, then 12 and 10 from the
        # random.Random restarts at 0.315 and 0.486, the last nearer the
        # upper bound; benchmarks match their seeds to this count
        family = MapFamily([0], [0.5], lambda p: p[0])
        assert extremal_ratio_search(family, seed=20859).evaluations == 34

    def test_negative_seed_is_refused(self):
        # random.Random folds the sign away, so -1 would repeat seed 1
        family = MapFamily([0.0], [1.0], lambda p: 0.0)
        with pytest.raises(ValueError, match=">= 0"):
            extremal_ratio_search(family, seed=-1)


class TestSearchScenarios:
    def test_sine_scenario(self):
        scenario = load_scenario(fixture_path("sine-search"))
        reports = run_scenario(scenario)
        assert len(reports) == 1
        rep = reports[0]
        assert rep.passed
        assert rep.terms["best_k"] == pytest.approx(8.0)
        assert rep.extra["trace"]

    def test_search_shares_one_cover(self, monkeypatch, tmp_path):
        import czmap.engine as engine
        from czmap.report import read_reports, write_reports
        builds = []
        original = engine.build_cover

        def counting_build_cover(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        # the source chart keeps the cover; engine builds it on first use
        monkeypatch.setattr(engine, "build_cover", counting_build_cover)
        scenario = load_scenario(fixture_path("sine-search"))
        reports = run_scenario(scenario)
        rep = reports[0]
        assert len(builds) == 1
        assert rep.cover_stats["evaluations"] > 1
        assert rep.terms["best_k"] == 8.0
        jsonl, _ = write_reports(reports, str(tmp_path / "sine"))
        trace = read_reports(jsonl)[0]["trace"]
        assert trace[0]["feasible"] is True

    def test_saddle_scenario_vanishes_at_flat_member(self):
        scenario = load_scenario(fixture_path("saddle-search"))
        reports = run_scenario(scenario)
        rep = reports[0]
        assert rep.passed
        # the ratio is continuous in eps and zero at eps = 0
        zero_evals = [t for t in rep.extra["trace"]
                      if t["feasible"] and abs(t["params"][0]) < 1e-12]
        assert all(t["value"] == 0.0 for t in zero_evals)
        small = sorted((t["params"][0], t["value"])
                       for t in rep.extra["trace"] if t["feasible"])
        values = [v for _, v in small]
        assert values == sorted(values)

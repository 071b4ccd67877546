import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import czmap.engine as engine
from czmap.engine import (DIAMETER_SAMPLES, HarmonicRadii, build_cover,
                          compute_r_hat, image_diameter, omega_decomposition,
                          verify_ball_estimate, verify_euclidean_corollaries,
                          verify_global_estimate)
from czmap.errors import (CertificateRequired, DegenerateRadius,
                          PreconditionFailed, ResolutionTooCoarse)
from czmap.expressions import Expression
from builders import (count_calls, flat_chart, flat_to_sphere_map,
                      graph_immersion, hyperbolic_chart, identity_map,
                      ring_table, sphere_chart, sphere_immersion,
                      tilted_chart_3d, verified_cover)
from czmap.geodesics import segment_length
from czmap.harmonic import declared_certificate
from czmap.maps import MapModel

V2 = ("x1", "x2")


def immersion_scenario(mode: str, tmp_path):
    """``sphere-immersion`` in ``mode`` at p = 1.5, 2, 4 on two levels."""
    from czmap.scenario import fixture_path, load_scenario
    with open(fixture_path("sphere-immersion"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / f"sphere-{mode}.scn"
    path.write_text(text.replace("mode = intro", f"mode = {mode}"),
                    encoding="utf-8")
    scenario = load_scenario(str(path))
    assert scenario.run.mode == mode
    assert scenario.override_run("1.5, 2, 4", "17, 33") is None
    return scenario


class TestRHat:
    def test_finite_inputs(self):
        assert compute_r_hat(2.0, 1.0, 4.0) == pytest.approx(1.0 / 64.0)

    def test_infinite_convention(self):
        assert compute_r_hat(np.inf, np.inf, np.inf) == pytest.approx(1.0 / 16.0)

    def test_mixed(self):
        assert compute_r_hat(0.5, np.inf, 3.0) == pytest.approx(1.0 / 32.0)

    def test_degenerate_combination(self):
        with pytest.raises(DegenerateRadius):
            compute_r_hat(1.0, 2.0, np.inf)

    def test_monotonicity(self):
        base = compute_r_hat(0.4, 0.6, 2.0)
        assert compute_r_hat(0.5, 0.6, 2.0) >= base
        assert compute_r_hat(0.4, 0.7, 2.0) >= base
        assert compute_r_hat(0.4, 0.6, 3.0) <= base

    @given(r1M=st.floats(0.01, 100.0), r1N=st.floats(0.01, 100.0),
           L=st.floats(0.0, 50.0), bump=st.floats(0.0, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_monotonicity_and_bounds_property(self, r1M, r1N, L, bump):
        base = compute_r_hat(r1M, r1N, L)
        assert 0.0 < base <= 1.0 / 16.0
        assert compute_r_hat(r1M + bump, r1N, L) >= base
        assert compute_r_hat(r1M, r1N + bump, L) >= base
        assert compute_r_hat(r1M, r1N, L + bump) <= base


class TestOmega:
    def test_constant_map_all_inside(self):
        source = flat_chart(-1.0, 1.0, 21, dim=2)
        target = flat_chart(-2.0, 2.0, 5, dim=2)
        const = MapModel(source, target,
                         [Expression("0.3", V2), Expression("0", V2)], 0.0)
        om = omega_decomposition(const, [0.3, 0.0], 2.0)
        assert om.mask.all()

    def test_infinite_radius_whole_source(self):
        ident = identity_map()
        om = omega_decomposition(ident, [0.0, 0.0], np.inf)
        assert om.mask.all()

    def test_identity_map_preimage_ball(self):
        # grid chosen so no point sits exactly on the threshold circle
        source = flat_chart(-2.0, 2.0, 40, dim=2)
        target = flat_chart(-2.5, 2.5, 7, dim=2)
        ident = MapModel(source, target,
                         [Expression("x1", V2), Expression("x2", V2)], 1.0)
        om = omega_decomposition(ident, [0.0, 0.0], 4.0)
        expected = (np.linalg.norm(source.box.points(), axis=1) < 1.0)
        assert np.array_equal(om.mask.reshape(-1), expected)


class TestCover:
    def test_interval_cover_and_multiplicity(self):
        chart = flat_chart(0.0, 1.0, 65, dim=1, names=("x",))
        cover = build_cover(chart, 0.25)
        checks = cover.verify()
        assert checks["cover_holds"]
        # brute-force oracle: recount both sums from scratch
        pts = chart.box.points()
        count8 = np.zeros(pts.shape[0], dtype=int)
        count1 = np.zeros(pts.shape[0], dtype=int)
        for c in pts[cover.center_indices]:
            row = segment_length(chart, c[None, :], pts)
            count8 += row <= 0.25 / 8.0
            count1 += row <= 0.25
        assert np.array_equal(count8, cover.count_eighth)
        assert np.array_equal(count1, cover.count_full)
        assert count8.min() >= 1
        assert count1.max() == cover.multiplicity

    def test_single_center_degenerate_case(self):
        chart = flat_chart(0.0, 0.05, 3, dim=1, names=("x",))
        cover = build_cover(chart, 0.5)
        assert cover.size == 1
        assert cover.multiplicity == 1

    def test_square_cover_brute_force(self):
        chart = flat_chart(0.0, 1.0, 17, dim=2)
        cover = build_cover(chart, 0.5)
        checks = cover.verify()
        assert checks["cover_holds"]
        pts = chart.box.points()
        counts = np.zeros(pts.shape[0], dtype=int)
        for c in pts[cover.center_indices]:
            counts += segment_length(chart, c[None, :], pts) <= 0.5
        assert counts.max() == cover.multiplicity

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["flat", "scaled", "sphere", "hyperbolic",
                                 "flat-3d", "tilted-3d"]),
           resolution=st.tuples(st.integers(3, 12), st.integers(3, 12)),
           factor=st.floats(1.05, 30.0))
    def test_ring_table_matches_full_rows(self, kind, resolution, factor):
        # factor spans grid-limited covers (C == N), separated ones
        # (r_hat / 8 above the step) and windows wider than the box; the
        # uneven 3-D box would show a flat shift that wraps across rows
        chart = {
            "flat": lambda: flat_chart([0.0, 0.0], [1.0, 0.7], resolution),
            "scaled": lambda: flat_chart([0.0, 0.0], [1.0, 0.7], resolution,
                                         scale=2.5),
            "sphere": lambda: sphere_chart((0.7, 2.4), (0.0, 1.4), resolution),
            "hyperbolic": lambda: hyperbolic_chart(resolution=resolution),
            "flat-3d": lambda: flat_chart([0.0] * 3, [0.8, 1.0, 1.2],
                                          [5, 6, 7]),
            "tilted-3d": tilted_chart_3d,
        }[kind]()
        step_len = chart.box.steps.max() * np.sqrt(chart.ellipticity_range()[1])
        r_hat = factor * step_len
        cover = build_cover(chart, r_hat)

        # reference: the greedy pass on full rows, center first
        pts = chart.box.points()
        min_dist = np.full(len(pts), np.inf)
        centers, rows = [], []
        for c in range(len(pts)):
            if min_dist[c] <= r_hat / 8.0:
                continue
            row = segment_length(chart, pts[c][None, :], pts)
            centers.append(c)
            rows.append(row)
            np.minimum(min_dist, row, out=min_dist)
        rows = np.array(rows)
        codes = sum((rows <= t).astype(int)
                    for t in (2.0 * r_hat, r_hat, r_hat / 8.0))
        assert np.array_equal(cover.center_indices, centers)
        assert cover.rings.shape == (len(cover.shifts), cover.size)
        assert cover.rings.any(axis=1).all()
        assert np.array_equal(ring_table(cover), codes)
        assert np.array_equal(cover.count_eighth, (codes == 3).sum(axis=0))
        assert np.array_equal(cover.count_full, (codes >= 2).sum(axis=0))
        assert cover.multiplicity == (codes >= 2).sum(axis=0).max()

    def test_too_coarse_rejected(self):
        chart = flat_chart(0.0, 1.0, 5, dim=2)
        with pytest.raises(ResolutionTooCoarse):
            build_cover(chart, 0.1)


class TestBallEstimate:
    def setup_method(self):
        self.ident = identity_map(extent=1.0, resolution=33)
        self.certs = dict(
            source_certificate=declared_certificate(np.inf),
            target_certificate=declared_certificate(np.inf))

    def test_affine_has_zero_ratio(self):
        inst = verify_ball_estimate(self.ident, [0.0, 0.0], [0.0, 0.0],
                                    0.3, 1.0, 2.0, **self.certs)
        assert inst.terms["lhs_hess"] == 0.0
        assert inst.ratio == 0.0
        assert inst.terms["t_du"] > 0.0

    def test_certificates_required(self):
        with pytest.raises(CertificateRequired):
            verify_ball_estimate(self.ident, [0, 0], [0, 0], 0.3, 1.0, 2.0)

    def test_radius_precondition(self):
        with pytest.raises(PreconditionFailed):
            verify_ball_estimate(
                self.ident, [0, 0], [0, 0], 0.3, 1.0, 2.0,
                source_certificate=declared_certificate(0.5),
                target_certificate=declared_certificate(np.inf))

    def test_containment_precondition(self):
        with pytest.raises(PreconditionFailed):
            verify_ball_estimate(self.ident, [0, 0], [0, 0], 0.3, 0.1, 2.0,
                                 **self.certs)

    def test_sphere_patch_ratio_stable(self):
        ratios = []
        for res in (33, 65):
            psi = sphere_immersion((math.pi / 2 - 0.55, math.pi / 2 + 0.55),
                                   (0.0, 1.1), res)
            inst = verify_ball_estimate(
                psi, [math.pi / 2, 0.55], [0.0, 0.0, 0.0], 0.12, 2.5, 2.0,
                source_certificate=declared_certificate(0.3),
                target_certificate=declared_certificate(np.inf))
            assert np.isfinite(inst.ratio) and inst.ratio > 0
            ratios.append(inst.ratio)
        assert abs(ratios[1] - ratios[0]) <= 0.10 * ratios[0]


SPLIT_BASEPOINT = [1.6208, 0.05]
SPLIT_RADII = HarmonicRadii(r1M=np.inf, r1N=0.3)


@pytest.fixture(scope="module")
def split_regime_map():
    return flat_to_sphere_map(resolution=65)


@pytest.fixture(scope="module")
def split_regime_instance(split_regime_map):
    return verify_global_estimate(split_regime_map, SPLIT_BASEPOINT, 2.0,
                                  SPLIT_RADII)


def target_calls(calls, model) -> list:
    """The ``segment_length`` calls on the target chart, as (a, b) shapes."""
    return [(np.shape(args[1]), np.shape(args[2])) for args in calls
            if args[0] is model.target_chart]


class TestGlobalEstimate:
    def test_affine_identity_zero(self, flat_identity):
        radii = HarmonicRadii(np.inf, np.inf)
        inst = verify_global_estimate(flat_identity, [0.0, 0.0], 2.0, radii)
        assert inst.terms["lhs_hess"] == 0.0
        assert inst.ratio == 0.0
        assert all(v for v in inst.checks.values() if isinstance(v, bool))

    def test_graph_immersion_zero(self):
        psi = graph_immersion(extent=0.26, resolution=29)
        radii = HarmonicRadii(np.inf, np.inf)
        inst = verify_global_estimate(psi, [0.0, 0.0, 0.0], 2.0, radii)
        assert inst.ratio == 0.0

    def test_regime_split_present_and_checked(self, split_regime_map,
                                              split_regime_instance):
        inst = split_regime_instance
        cover = verified_cover(split_regime_map, SPLIT_RADII)
        assert inst.cover_stats["centers"] == cover.size
        in_omega = omega_decomposition(
            split_regime_map, SPLIT_BASEPOINT,
            SPLIT_RADII.r1N).mask.reshape(-1)[cover.center_indices]
        assert in_omega.any() and not in_omega.all()
        assert inst.checks["regime_dichotomy"]

    def test_regime_dichotomy_can_fail(self, split_regime_map,
                                       split_regime_instance, monkeypatch):
        # a negative slack makes the far test fail for every point, and
        # some centers lie outside Omega
        import czmap.engine as engine
        inst = split_regime_instance
        builds = count_calls(monkeypatch, engine, "build_cover")
        broken = verify_global_estimate(split_regime_map, SPLIT_BASEPOINT,
                                        2.0, SPLIT_RADII, omega_slack=-1.0)
        assert builds == []                # the fixture's cover, reused
        assert not broken.checks["regime_dichotomy"]
        assert broken.ratio == inst.ratio

    def test_infinite_target_radius_measures_no_image_pairs(self,
                                                            monkeypatch):
        import czmap.engine as engine
        import czmap.geodesics as geodesics
        from czmap.norms import dist_to_basepoint_field
        psi = flat_to_sphere_map(resolution=17)
        o = SPLIT_BASEPOINT
        dist_to_basepoint_field(psi, o)        # builds the target's field
        calls = count_calls(monkeypatch, geodesics, "segment_length")
        builds = count_calls(monkeypatch, engine, "build_cover")
        inst = verify_global_estimate(psi, o, 2.0,
                                      HarmonicRadii(np.inf, np.inf))
        # Omega's distances from o are the only target lengths measured
        assert target_calls(calls, psi) == [((1, 2), (17 * 17, 2))]
        cover = verified_cover(psi, HarmonicRadii(np.inf, np.inf))
        assert omega_decomposition(psi, o, np.inf).mask.reshape(-1)[
            cover.center_indices].all()
        assert inst.checks["regime_dichotomy"]
        # a finite radius as large checks the same cover pair by pair,
        # one call per ring offset
        del calls[:]
        finite = verify_global_estimate(psi, o, 2.0,
                                        HarmonicRadii(np.inf, 1e6))
        assert len(builds) == 1
        shapes = target_calls(calls, psi)
        assert len(shapes) == 1 + len(cover.shifts)
        assert shapes[0] == ((1, 2), (17 * 17, 2))
        assert sum(math.prod(a[:-1]) for a, _ in shapes[1:]) == (
            np.count_nonzero(cover.rings))
        assert finite.checks["regime_dichotomy"]

    def test_nan_target_radius_rejected_before_the_regime_check(
            self, monkeypatch, flat_identity):
        import czmap.geodesics as geodesics
        from czmap.maps import uniform_continuity_profile
        o = [0.0, 0.0]
        uniform_continuity_profile(flat_identity, 0.2)  # builds its fields
        calls = count_calls(monkeypatch, geodesics, "segment_length")
        with pytest.raises(ValueError, match="r1N"):
            verify_global_estimate(flat_identity, o, 2.0,
                                   HarmonicRadii(np.inf, np.nan))
        assert calls == []
        with pytest.raises(PreconditionFailed, match="r1N/16=nan"):
            verify_global_estimate(flat_identity, o, 2.0,
                                   HarmonicRadii(10.0, np.nan),
                                   uniform_radius=0.2)
        # the profile measures from one image point at a time
        shapes = target_calls(calls, flat_identity)
        assert shapes and all(a[:-1] in ((), (1,)) for a, _ in shapes)

    def test_curvature_term_active_for_finite_target_radius(
            self, split_regime_instance):
        assert split_regime_instance.terms["t_du_2p_sq"] > 0.0
        assert np.isfinite(split_regime_instance.ratio)

    def test_summation_and_cover_checks(self, split_regime_instance):
        checks = split_regime_instance.checks
        assert checks["cover_holds"]
        assert checks["summation_lower"]
        assert checks["summation_upper"]

    def test_uniform_continuity_reuse_is_flagged(self, flat_identity):
        radii = HarmonicRadii(10.0, 10.0)
        inst = verify_global_estimate(flat_identity, [0.0, 0.0], 2.0, radii,
                                      uniform_radius=0.2)
        assert inst.extra == {"extrapolated": True}
        assert inst.ratio == 0.0

    def test_one_cover_per_chart_and_r_hat(self, monkeypatch):
        import czmap.engine as engine
        source = flat_chart(0.0, 0.5, 33, dim=1, names=("x",))
        target = flat_chart(-1.0, 1.0, 5, dim=1, names=("u",))

        def line_map(chart, lipschitz):
            return MapModel(chart, target, [Expression("x^2", ("x",))],
                            lipschitz_bound=lipschitz)

        builds = count_calls(monkeypatch, engine, "build_cover")
        radii = HarmonicRadii(np.inf, 2.0)
        first = verify_global_estimate(line_map(source, 1.0), [0.0], 2.0, radii)
        # another map on the same chart at the same r_hat, other exponents
        for p in (1.5, 4.0):
            verify_global_estimate(line_map(source, 1.0), [0.0], p, radii)
        assert [args[0] for args in builds] == [source]
        # a new r_hat on the same chart, or a second chart with the same
        # data, gets a cover of its own
        halved = verify_global_estimate(line_map(source, 4.0), [0.0], 2.0,
                                        radii)
        assert (halved.cover_stats["separation"]
                == first.cover_stats["separation"] / 2.0)
        other = flat_chart(0.0, 0.5, 33, dim=1, names=("x",))
        verify_global_estimate(line_map(other, 1.0), [0.0], 2.0, radii)
        assert [args[0] for args in builds] == [source, source, other]

    def test_run_builds_one_jet_and_one_cover_per_level(self, monkeypatch):
        import czmap.engine as engine
        import czmap.maps as maps
        import czmap.runner as runner
        from czmap.scenario import fixture_path, load_scenario
        jets = count_calls(monkeypatch, maps, "generalized_hessian")
        covers = count_calls(monkeypatch, engine, "build_cover")
        reports = runner.run_scenario(
            load_scenario(fixture_path("sphere-global")))
        assert len(reports) == 6           # two levels, three exponents
        assert all(rep.error is None for rep in reports)
        assert (len(jets), len(covers)) == (2, 2)

    def test_regime_dichotomy_measured_once_for_every_exponent(
            self, monkeypatch):
        # the pass reads no p: three exponents measure the target
        # segments of one, and the verdict is the same at each
        import czmap.geodesics as geodesics
        calls = count_calls(monkeypatch, geodesics, "segment_length")
        counts = []
        for exponents in ((2.0,), (1.5, 2.0, 4.0)):
            psi = flat_to_sphere_map(resolution=33)
            del calls[:]
            verdicts = [verify_global_estimate(psi, SPLIT_BASEPOINT, p,
                                               SPLIT_RADII)
                        for p in exponents]
            counts.append(len(target_calls(calls, psi)))
            assert len({v.checks["regime_dichotomy"] for v in verdicts}) == 1
        assert counts[0] == counts[1] > 1

    def test_uniform_continuity_needs_small_profile(self, flat_identity):
        radii = HarmonicRadii(10.0, 1.0)
        with pytest.raises(PreconditionFailed):
            verify_global_estimate(flat_identity, [0.0, 0.0], 2.0, radii,
                                   uniform_radius=0.2)


class TestEuclideanCorollaries:
    def test_flat_graph_zero(self):
        psi = graph_immersion(extent=0.5, resolution=21)
        verdict = verify_euclidean_corollaries(psi, 2.0, mode="intro")
        assert verdict.terms["norm_ii"] == 0.0
        assert verdict.ratio == verdict.terms["ratio"] == 0.0

    def test_sphere_closed_form_norms(self):
        # ||II||_2 = sqrt(2 vol), ||H||_2 = 2 sqrt(vol) with vol ~ 4 pi
        psi = sphere_immersion((0.04, math.pi - 0.04), (0.0, 2 * math.pi), 65)
        terms = verify_euclidean_corollaries(psi, 2.0, mode="intro").terms
        assert terms["norm_ii"] == pytest.approx(math.sqrt(8 * math.pi), abs=1e-2)
        assert terms["norm_h"] == pytest.approx(2 * math.sqrt(4 * math.pi), abs=1e-2)
        assert terms["norm_dist"] == pytest.approx(math.sqrt(4 * math.pi), abs=1e-2)

    def test_rho_family_ratio_scale_invariant(self):
        for rho in (0.5, 1.0, 2.0):
            psi = sphere_immersion((0.7, math.pi - 0.7), (0.0, 1.4), 33,
                                   rho=rho)
            terms = verify_euclidean_corollaries(psi, 2.0, mode="intro").terms
            assert terms["norm_ii"] / terms["norm_h"] == pytest.approx(
                1.0 / math.sqrt(2.0), abs=1e-3)

    def test_gradient_norm_closed_form_for_isometries(self):
        psi = sphere_immersion(resolution=33)
        terms = verify_euclidean_corollaries(psi, 2.0, mode="intro").terms
        assert terms["du_sq_minus_m"] <= 1e-10
        assert terms["norm_du_2p_sq"] == pytest.approx(
            terms["norm_du_2p_sq_closed_form"], rel=1e-12)

    def test_corollary_mode_reports_diameter(self):
        psi = sphere_immersion(resolution=33)
        radii = HarmonicRadii(0.3, np.inf)
        verdict = verify_euclidean_corollaries(psi, 2.0, mode="corollaryA",
                                               radii=radii)
        terms = verdict.terms
        assert terms["diameter_is_lower_bound"] is True
        assert 0 < terms["diameter"] <= 2.0 + 1e-9
        assert terms["r"] == pytest.approx(0.3)
        assert np.isfinite(verdict.ratio) and verdict.ratio > 0
        assert verdict.checks == {"ratio_finite": True}

    @pytest.mark.parametrize("mode", ["intro", "corollaryA"])
    def test_run_builds_one_jet_per_level(self, mode, monkeypatch, tmp_path):
        import czmap.maps as maps
        import czmap.runner as runner
        calls = count_calls(monkeypatch, maps, "generalized_hessian")
        reports = runner.run_scenario(immersion_scenario(mode, tmp_path))
        assert len(reports) == 6
        assert all(rep.error is None for rep in reports)
        assert len(calls) == 2

    @pytest.mark.parametrize("mode", ["intro", "corollaryA"])
    def test_run_checks_the_immersion_once_per_level(self, mode, monkeypatch,
                                                     tmp_path):
        import czmap.maps as maps
        import czmap.runner as runner
        calls = count_calls(monkeypatch, maps, "immersion_check")
        reports = runner.run_scenario(immersion_scenario(mode, tmp_path))
        assert len(reports) == 6
        assert all(rep.error is None for rep in reports)
        assert len(calls) == 2

    def test_corollary_mode_requires_radii(self):
        psi = sphere_immersion(resolution=17)
        with pytest.raises(CertificateRequired):
            verify_euclidean_corollaries(psi, 2.0, mode="corollaryA")


def brute_force_diameter(map_model) -> float:
    """max of segment_length over every ordered pair of image points."""
    values = map_model.values_on_grid()
    return float(segment_length(map_model.target_chart, values[:, None, :],
                                values[None, :, :]).max())


class TestImageDiameter:
    @pytest.mark.parametrize("build", [
        lambda: sphere_immersion(resolution=17),
        lambda: flat_to_sphere_map(resolution=33)],
        ids=["sphere-immersion", "flat-to-sphere"])
    def test_every_image_pair_under_the_cap(self, build):
        model = build()
        assert model.values_on_grid().shape[0] <= DIAMETER_SAMPLES
        assert image_diameter(model) == brute_force_diameter(model)

    def test_seeded_sample_above_the_cap(self, monkeypatch):
        model = flat_to_sphere_map(resolution=17)
        monkeypatch.setattr(engine, "DIAMETER_SAMPLES", 40)
        sampled = image_diameter(model)
        assert image_diameter(model) == sampled
        assert 0.0 < sampled <= brute_force_diameter(model)


class TestDistanceFieldReuse:
    @pytest.mark.parametrize("name, p, fields", [
        ("sphere-global", None, 2),         # two levels, one basepoint
        ("saddle-search", None, 1),         # 38 maps, one basepoint
        ("sphere-immersion", "1.5, 2, 4", 1)])
    def test_one_distance_field_per_basepoint_and_level(self, name, p, fields,
                                                        monkeypatch):
        import czmap.geodesics as geodesics
        import czmap.runner as runner
        from czmap.scenario import fixture_path, load_scenario
        calls = count_calls(monkeypatch, geodesics, "distance_field")
        scenario = load_scenario(fixture_path(name))
        assert scenario.override_run(p, None) is None
        reports = runner.run_scenario(scenario)
        assert all(rep.error is None for rep in reports)
        assert len(calls) == fields

    def test_one_source_field_for_every_exponent(self, monkeypatch):
        import czmap.runner as runner
        from czmap.geodesics import GridGraph
        from czmap.scenario import fixture_path, load_scenario
        shapes = []
        original = GridGraph.dijkstra_from

        def counting(self, node):
            shapes.append(self.shape)
            return original(self, node)

        monkeypatch.setattr(GridGraph, "dijkstra_from", counting)
        scenario = load_scenario(fixture_path("ball-estimate"))
        assert scenario.override_run("1.5, 2, 4", None) is None
        reports = runner.run_scenario(scenario)
        assert len(reports) == 3
        assert all(rep.error is None for rep in reports)
        # one field around the ball center, one around the target center
        assert sorted(shapes) == [(5, 5, 5), (49, 49)]

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czmap.engine import (HarmonicRadii, build_cover, compute_r_hat,
                          omega_decomposition, verify_ball_estimate,
                          verify_euclidean_corollaries, verify_global_estimate)
from czmap.errors import (CertificateRequired, DegenerateRadius,
                          PreconditionFailed, ResolutionTooCoarse)
from czmap.expressions import Expression
from builders import (flat_chart, flat_to_sphere_map, graph_immersion,
                      hyperbolic_chart, identity_map, sphere_chart,
                      sphere_immersion)
from czmap.geodesics import segment_length
from czmap.harmonic import declared_certificate
from czmap.maps import MapModel

V2 = ("x1", "x2")


def count_calls(monkeypatch, module, name) -> list:
    """Count the calls of ``module.name``, made through every czmap module
    that holds the function under any name; returns the growing list of
    their positional arguments."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "czmap" or key.startswith("czmap."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


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
        for c in cover.centers:
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
        for c in cover.centers:
            counts += segment_length(chart, c[None, :], pts) <= 0.5
        assert counts.max() == cover.multiplicity

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["flat", "scaled", "sphere", "hyperbolic"]),
           resolution=st.tuples(st.integers(3, 12), st.integers(3, 12)),
           factor=st.floats(1.05, 30.0))
    def test_ring_table_matches_full_rows(self, kind, resolution, factor):
        # factor spans grid-limited covers (C == N), separated ones
        # (r_hat / 8 above the step) and windows wider than the box
        chart = {
            "flat": lambda: flat_chart([0.0, 0.0], [1.0, 0.7], resolution),
            "scaled": lambda: flat_chart([0.0, 0.0], [1.0, 0.7], resolution,
                                         scale=2.5),
            "sphere": lambda: sphere_chart((0.7, 2.4), (0.0, 1.4), resolution),
            "hyperbolic": lambda: hyperbolic_chart(resolution=resolution),
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
        assert cover.indptr.shape == (cover.size + 1,)
        assert cover.indptr[-1] == cover.indices.size == cover.codes.size
        table = np.zeros((cover.size, len(pts)), dtype=int)
        for c in range(cover.size):
            row = slice(cover.indptr[c], cover.indptr[c + 1])
            assert np.all(np.diff(cover.indices[row]) > 0)
            table[c, cover.indices[row]] = cover.codes[row]
        assert np.array_equal(table, codes)
        assert np.all(cover.codes > 0)
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


@pytest.fixture(scope="module")
def split_regime_instance():
    psi = flat_to_sphere_map(resolution=65)
    radii = HarmonicRadii(r1M=np.inf, r1N=0.3)
    return verify_global_estimate(psi, [1.6208, 0.05], 2.0, radii,
                                  name="flat-to-sphere")


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

    def test_regime_split_present_and_checked(self, split_regime_instance):
        inst = split_regime_instance
        assert inst.in_omega.shape == (inst.cover.size,)
        assert inst.in_omega.any() and not inst.in_omega.all()
        assert inst.checks["regime_dichotomy"]

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
        assert inst.extrapolated
        assert inst.ratio == 0.0

    def test_cover_of_another_chart_is_not_reused(self):
        def line_map():
            source = flat_chart(0.0, 0.5, 33, dim=1, names=("x",))
            target = flat_chart(-1.0, 1.0, 5, dim=1, names=("u",))
            return MapModel(source, target, [Expression("x^2", ("x",))],
                            lipschitz_bound=1.0)

        radii = HarmonicRadii(np.inf, np.inf)
        r_hat = compute_r_hat(radii.r1M, radii.r1N, 1.0)
        u, other = line_map(), line_map()
        own = build_cover(u.source_chart, r_hat)
        foreign = build_cover(other.source_chart, r_hat)
        assert verify_global_estimate(u, [0.0], 2.0, radii,
                                      cover=own).cover is own
        inst = verify_global_estimate(u, [0.0], 2.0, radii, cover=foreign)
        assert inst.cover is not foreign
        assert inst.cover.chart is u.source_chart

    def test_uniform_continuity_needs_small_profile(self, flat_identity):
        radii = HarmonicRadii(10.0, 1.0)
        with pytest.raises(PreconditionFailed):
            verify_global_estimate(flat_identity, [0.0, 0.0], 2.0, radii,
                                   uniform_radius=0.2)


class TestEuclideanCorollaries:
    def test_flat_graph_zero(self):
        psi = graph_immersion(extent=0.5, resolution=21)
        rec = verify_euclidean_corollaries(psi, 2.0, mode="intro")
        assert rec["norm_ii"] == 0.0
        assert rec["ratio"] == 0.0

    def test_sphere_closed_form_norms(self):
        # ||II||_2 = sqrt(2 vol), ||H||_2 = 2 sqrt(vol) with vol ~ 4 pi
        psi = sphere_immersion((0.04, math.pi - 0.04), (0.0, 2 * math.pi), 65)
        rec = verify_euclidean_corollaries(psi, 2.0, mode="intro")
        assert rec["norm_ii"] == pytest.approx(math.sqrt(8 * math.pi), abs=1e-2)
        assert rec["norm_h"] == pytest.approx(2 * math.sqrt(4 * math.pi), abs=1e-2)
        assert rec["norm_dist"] == pytest.approx(math.sqrt(4 * math.pi), abs=1e-2)

    def test_rho_family_ratio_scale_invariant(self):
        for rho in (0.5, 1.0, 2.0):
            psi = sphere_immersion((0.7, math.pi - 0.7), (0.0, 1.4), 33,
                                   rho=rho)
            rec = verify_euclidean_corollaries(psi, 2.0, mode="intro")
            assert rec["norm_ii"] / rec["norm_h"] == pytest.approx(
                1.0 / math.sqrt(2.0), abs=1e-3)

    def test_gradient_norm_closed_form_for_isometries(self):
        psi = sphere_immersion(resolution=33)
        rec = verify_euclidean_corollaries(psi, 2.0, mode="intro")
        assert rec["du_sq_minus_m"] <= 1e-10
        assert rec["norm_du_2p_sq"] == pytest.approx(
            rec["norm_du_2p_sq_closed_form"], rel=1e-12)

    def test_corollary_mode_reports_diameter(self):
        psi = sphere_immersion(resolution=33)
        radii = HarmonicRadii(0.3, np.inf)
        rec = verify_euclidean_corollaries(psi, 2.0, mode="corollaryA",
                                           radii=radii)
        assert rec["diameter_is_lower_bound"]
        assert 0 < rec["diameter"] <= 2.0 + 1e-9
        assert rec["r"] == pytest.approx(0.3)
        assert np.isfinite(rec["ratio"]) and rec["ratio"] > 0

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

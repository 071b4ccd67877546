"""Acceptance battery: every shipped guarantee at its stated tolerance.

Each test prints one `ACCEPTANCE <n> PASS/FAIL` line (visible with -s, and
in the failure report otherwise) and asserts the criterion.
"""

import math

import numpy as np
import pytest

from czmap.engine import (compute_r_hat,
                          verify_euclidean_corollaries,
                          verify_global_estimate, verify_scaling_identities,
                          EllipticOperatorSpec)
from czmap.errors import DegenerateRadius
from czmap.expressions import Expression
from builders import (cylinder_immersion, flat_chart, geodesic_distance,
                      graph_immersion, sphere_chart, sphere_immersion)
from czmap.geodesics import segment_length
from czmap.harmonic import (check_hr_conditions, estimate_harmonic_radius,
                            solve_harmonic_chart)
from czmap.maps import generalized_hessian, immersion_check
from czmap.norms import lp_norm_on
from czmap.runner import resolve_radii
from czmap.scenario import fixture_path, load_scenario

FD_THETA = (math.pi / 2 - 0.2, math.pi / 2 + 0.2)
FD_PHI = (0.0, 0.4)

BATTERY = ("flat-identity", "sphere-global", "cylinder-immersion",
           "graph-immersion", "hyperbolic-map")
AFFINE_FIXTURES = ("flat-identity", "graph-immersion")
BATTERY_P = (1.5, 2.0, 4.0)


def _report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def global_battery():
    """One global-estimate instance per (fixture, grid level, p)."""
    instances = {}
    for name in BATTERY:
        scenario = load_scenario(fixture_path(name))
        for level, res in enumerate(scenario.run.resolution_ladder):
            sdef = scenario.manifolds[scenario.primary_map().source]
            _, _, map_model = scenario.build_models([res] * sdef.dimension)
            radii = resolve_radii(scenario, map_model.source_chart,
                                  map_model.target_chart)
            jet = generalized_hessian(map_model)
            o = np.asarray(scenario.run.basepoint, dtype=float)
            cover = None
            for p in BATTERY_P:
                inst = verify_global_estimate(map_model, o, p, radii, jet=jet,
                                              cover=cover, name=name)
                cover = inst.cover
                instances[(name, level, p)] = inst
    return instances


class TestCriterion1ImmersionOracles:
    def test_sphere_cylinder_graph_closed_forms(self):
        jets = {}
        for res in (33, 65):
            psi = sphere_immersion(FD_THETA, FD_PHI, res, mode="fd")
            jets[res] = generalized_hessian(psi)
        # 64-cell grid (65 sample points per axis)
        err_ii = float(np.abs(jets[65].norm_hess - math.sqrt(2)).max())
        err_h = float(np.abs(jets[65].norm_laplacian - 2.0).max())
        fac_ii = float(np.abs(jets[33].norm_hess - math.sqrt(2)).max()) / err_ii
        fac_h = float(np.abs(jets[33].norm_laplacian - 2.0).max()) / err_h

        cyl = generalized_hessian(cylinder_immersion(resolution=65, mode="fd"))
        err_cyl_ii = float(np.abs(cyl.norm_hess - 1.0).max())
        err_cyl_h = float(np.abs(cyl.norm_laplacian - 1.0).max())

        graph = generalized_hessian(graph_immersion(resolution=65, mode="fd"))
        err_graph = float(np.abs(graph.norm_hess).max())

        ok = (err_ii <= 1e-3 and err_h <= 1e-3
              and 3.5 <= fac_ii <= 4.5 and 3.5 <= fac_h <= 4.5
              and err_cyl_ii <= 1e-3 and err_cyl_h <= 1e-3
              and err_graph <= 1e-8)
        _report(1, ok,
                f"sphere |II| err {err_ii:.2e} |H| err {err_h:.2e} "
                f"factors ({fac_ii:.2f}, {fac_h:.2f}); cylinder errs "
                f"({err_cyl_ii:.2e}, {err_cyl_h:.2e}); graph |II| {err_graph:.1e}")


class TestCriterion2TraceIdentity:
    def test_two_routes_agree_everywhere(self):
        from builders import (flat_to_sphere_map, hyperbolic_log_map,
                              split_laplacian)
        fixtures = [
            sphere_immersion(resolution=33),
            sphere_immersion(FD_THETA, FD_PHI, 65, mode="fd"),
            cylinder_immersion(resolution=33),
            graph_immersion(resolution=29),
            hyperbolic_log_map(resolution=33),
            flat_to_sphere_map(resolution=33),
        ]
        worst = 0.0
        for psi in fixtures:
            # the trace g^{ij} Hess^a_ij against the split route
            lap = generalized_hessian(psi).laplacian
            scale = max(1.0, float(np.abs(lap).max()))
            route_gap = float(np.abs(lap - split_laplacian(psi)).max())
            worst = max(worst, route_gap / scale)
        _report(2, worst <= 1e-10, f"max relative trace defect {worst:.2e}")


class TestCriterion3GaussNormality:
    def test_normality_at_finest_grids(self):
        defects = {
            "sphere-analytic": immersion_check(
                sphere_immersion(resolution=65)).normality_defect,
            "cylinder-analytic": immersion_check(
                cylinder_immersion(resolution=65)).normality_defect,
            "graph-analytic": immersion_check(
                graph_immersion(resolution=65)).normality_defect,
            "sphere-fd-129": immersion_check(
                sphere_immersion(FD_THETA, FD_PHI, 129,
                                 mode="fd")).normality_defect,
            "cylinder-fd-65": immersion_check(
                cylinder_immersion(resolution=65, mode="fd")).normality_defect,
        }
        worst = max(defects.values())
        _report(3, worst <= 1e-5,
                "; ".join(f"{k}={v:.1e}" for k, v in defects.items()))


class TestCriterion4ScalingIdentities:
    def test_dilation_identities_analytic(self):
        coeffs = [[Expression("1 + 0.1*sin(x1)", ("x1", "x2")),
                   Expression("0", ("x1", "x2"))],
                  [Expression("0", ("x1", "x2")),
                   Expression("1", ("x1", "x2"))]]
        u = Expression("sin(2*x1)*x2", ("x1", "x2"))
        worst = 0.0
        for s in (0.25, 0.5, 1.0):
            for q in (1.5, 2.0, 4.0):
                spec = EllipticOperatorSpec(s=s, coefficients=coeffs,
                                            Lambda=2.0)
                rep = verify_scaling_identities(spec, u, q)
                worst = max(worst, rep["dev_operator"], rep["dev_hessian"],
                            rep["dev_gradient"], rep["dev_norm"])
        _report(4, worst <= 1e-10, f"max identity deviation {worst:.2e}")


class TestCriterion5HarmonicSolver:
    def test_flat_curved_and_sentinel(self):
        flat = flat_chart(-2.0, 2.0, 41, dim=2)
        cand = solve_harmonic_chart(flat, [0.0, 0.0], 1.0)
        pushed_dev = float(np.abs(cand.pushed_inverse[cand.jet_mask]
                                  - np.eye(2)).max())
        cert = check_hr_conditions(cand)

        curved = sphere_chart((0.9, math.pi - 0.9), (-0.9, 0.9), 33)
        curved_cand = solve_harmonic_chart(curved, [math.pi / 2, 0.0], 0.35)

        big = flat_chart(-13.0, 13.0, 41, dim=2)
        est = estimate_harmonic_radius(big, [0.0, 0.0], r_max=10.0)

        ok = (pushed_dev <= 1e-8 and cert.hr2_value <= 1e-6
              and curved_cand.laplace_residual <= 1e-6
              and est.at_least and est.value == 10.0)
        _report(5, ok,
                f"flat pushed dev {pushed_dev:.1e}, hr2 {cert.hr2_value:.1e}, "
                f"curved residual {curved_cand.laplace_residual:.1e}, "
                f"flat estimate {est}")


class TestCriterion6CoveringVerifier:
    def test_brute_force_cover_sums(self, global_battery):
        checked = set()
        ok = True
        details = []
        for (name, level, p), inst in global_battery.items():
            assert inst.checks["cover_holds"], (name, level, p)
            key = (name, level)
            if key in checked:
                continue
            checked.add(key)
            cover = inst.cover
            chart = cover.chart
            pts = chart.box.points()
            count8 = np.zeros(pts.shape[0], dtype=int)
            count1 = np.zeros(pts.shape[0], dtype=int)
            for c in cover.centers:
                row = segment_length(chart, c[None, :], pts)
                count8 += row <= cover.r_hat / 8.0
                count1 += row <= cover.r_hat
            good = (count8.min() >= 1
                    and np.array_equal(count8, cover.count_eighth)
                    and count1.max() == cover.multiplicity)
            ok &= good
            details.append(f"{name}@{level}: min_cover={count8.min()} "
                           f"D={count1.max()}")
        _report(6, ok, "; ".join(details))


class TestCriterion7PipelineRegression:
    def test_battery_ratios(self, global_battery):
        ok = True
        details = []
        for (name, level, p), inst in global_battery.items():
            if not np.isfinite(inst.ratio):
                ok = False
                details.append(f"{name} p={p} level {level}: ratio not finite")
            if name in AFFINE_FIXTURES and inst.ratio != 0.0:
                ok = False
                details.append(f"{name} p={p}: affine ratio {inst.ratio}")
        # drift under one grid halving
        for name in BATTERY:
            for p in BATTERY_P:
                r0 = global_battery[(name, 0, p)].ratio
                r1 = global_battery[(name, 1, p)].ratio
                drift = 0.0 if r0 == r1 == 0.0 else abs(r1 - r0) / max(r0, 1e-300)
                if drift > 0.10:
                    ok = False
                    details.append(f"{name} p={p}: drift {drift:.3f}")
        # deterministic reproduction
        scenario = load_scenario(fixture_path("sphere-global"))
        _, _, map_model = scenario.build_models([33, 33])
        radii = resolve_radii(scenario, map_model.source_chart,
                              map_model.target_chart)
        again = verify_global_estimate(
            map_model, np.asarray(scenario.run.basepoint), 2.0, radii)
        if again.ratio != global_battery[("sphere-global", 0, 2.0)].ratio:
            ok = False
            details.append("sphere-global p=2 not reproduced bit-for-bit")
        _report(7, ok, "; ".join(details) if details else
                f"{len(global_battery)} runs finite, stable, deterministic")


class TestCriterion8RadiusArithmetic:
    def test_examples_exact(self):
        ok = (compute_r_hat(2.0, 1.0, 4.0) == 1.0 / 64.0
              and compute_r_hat(np.inf, np.inf, np.inf) == 1.0 / 16.0
              and compute_r_hat(0.5, np.inf, 3.0) == 1.0 / 32.0)
        try:
            compute_r_hat(1.0, 2.0, np.inf)
            ok = False
        except DegenerateRadius:
            pass
        _report(8, ok, "1/64, 1/16 (inf/inf convention), 1/32 all exact")


class TestCriterion9RhoFamily:
    def test_norm_ratio_scale_invariance(self):
        worst = 0.0
        for rho in (0.5, 1.0, 2.0):
            psi = sphere_immersion((0.7, math.pi - 0.7), (0.0, 1.4), 33,
                                   rho=rho)
            rec = verify_euclidean_corollaries(psi, 2.0, mode="intro")
            worst = max(worst, abs(rec["norm_ii"] / rec["norm_h"]
                                   - 1.0 / math.sqrt(2.0)))
        _report(9, worst <= 1e-3, f"max |ratio - 1/sqrt(2)| = {worst:.2e}")


class TestCriterion10ScalingLaws:
    def test_quadrupled_metric(self):
        flat = flat_chart(-2.0, 2.0, 33, dim=2)
        quad = flat_chart(-2.0, 2.0, 33, dim=2, scale=4.0)
        d_flat = geodesic_distance(flat, [0.0, 0.0], [0.75, 0.5])
        d_quad = geodesic_distance(quad, [0.0, 0.0], [0.75, 0.5])
        dist_dev = abs(d_quad - 2.0 * d_flat)

        sphere1 = sphere_chart(resolution=33)
        sphere2 = sphere_chart(resolution=33, rho=2.0)
        s1 = geodesic_distance(sphere1, [1.2, 0.2], [1.6, 0.8])
        s2 = geodesic_distance(sphere2, [1.2, 0.2], [1.6, 0.8])
        sphere_dev = abs(s2 - 2.0 * s1)

        field = np.cos(flat.box.points()[:, 0]).reshape(flat.box.shape) + 1.5
        n1 = lp_norm_on(flat.box, 2.0, field, flat.grid_sqrt_det())
        n2 = lp_norm_on(quad.box, 2.0, field, quad.grid_sqrt_det())
        norm_dev = abs(n2 - 2.0 * n1)

        gamma_dev = float(np.abs(quad.grid_christoffel()
                                 - flat.grid_christoffel()).max())
        curved1 = sphere1.grid_christoffel()
        v = ("th", "ph")
        from czmap.geometry import MetricChart
        sphere4 = MetricChart(sphere1.box,
                              [[Expression("4", v), Expression("0", v)],
                               [Expression("0", v),
                                Expression("4*sin(th)^2", v)]])
        gamma_dev = max(gamma_dev,
                        float(np.abs(sphere4.grid_christoffel()
                                     - curved1).max()))

        ok = (dist_dev <= 1e-6 and sphere_dev <= 1e-6 and norm_dev <= 1e-6
              and gamma_dev <= 1e-6)
        _report(10, ok,
                f"distance devs ({dist_dev:.1e}, {sphere_dev:.1e}), "
                f"norm dev {norm_dev:.1e}, christoffel dev {gamma_dev:.1e}")

import math
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czmap.errors import NotImmersion, TargetEscape
from czmap.expressions import Expression
from builders import (flat_chart, graph_immersion, hessian_chain_bound,
                      hessian_parts, identity_map, reference_jet,
                      sphere_immersion, split_laplacian)
from czmap.geometry import CoordinateBox, MetricChart
from czmap.maps import (JetField, MapModel, generalized_hessian,
                        immersion_check, uniform_continuity_profile)

V2 = ("x1", "x2")


def flat_map(components, lipschitz=np.inf, res=21, extent=1.0,
             target_extent=3.0, target_dim=None, mode="analytic"):
    target_dim = target_dim or len(components)
    source = flat_chart(-extent, extent, res, dim=2, mode=mode)
    target = flat_chart(-target_extent, target_extent, 5, dim=target_dim)
    comps = [Expression(c, V2) for c in components]
    return MapModel(source, target, comps, lipschitz_bound=lipschitz)


class TestDifferential:
    def test_identity_norm_is_sqrt_dim(self):
        jet = generalized_hessian(flat_map(["x1", "x2"], 1.0))
        assert np.allclose(jet.du[..., 0, 0], 1.0)
        assert np.allclose(jet.du[..., 0, 1], 0.0)
        assert np.allclose(jet.norm_du, math.sqrt(2.0))

    def test_constant_map(self):
        jet = generalized_hessian(flat_map(["0.5", "-0.25"], 0.0))
        assert np.abs(jet.du).max() == 0.0
        assert np.abs(jet.norm_du).max() == 0.0

    def test_anisotropic_stretch(self):
        jet = generalized_hessian(flat_map(["2*x1", "x2"], 2.0))
        assert np.allclose(jet.norm_du ** 2, 5.0)

    def test_target_escape_names_point(self):
        bad = flat_map(["10*x1", "x2"], target_extent=3.0)
        with pytest.raises(TargetEscape):
            bad.values_on_grid()


class TestGeneralizedHessian:
    def test_affine_map_is_flat(self):
        jet = generalized_hessian(flat_map(["0.5*x1 - x2", "x1 + 1"], 2.0))
        assert np.abs(jet.hess).max() == 0.0
        assert np.abs(jet.norm_hess).max() == 0.0

    def test_pure_second_partial(self):
        jet = generalized_hessian(flat_map(["x1^2"], target_extent=2.0))
        assert np.allclose(jet.hess[..., 0, 0, 0], 2.0)
        assert np.allclose(jet.hess[..., 0, 0, 1], 0.0)
        assert np.allclose(jet.norm_hess, 2.0)

    def test_sphere_second_fundamental_form(self, sphere_jet):
        psi, jet = sphere_jet
        assert np.allclose(jet.norm_hess, math.sqrt(2.0), atol=1e-12)

    def test_flat_target_reduction_is_exact(self):
        # with vanishing target symbols the jet equals the scalar Hessians
        model = flat_map(["sin(x1)*x2", "x1 - x2"], 3.0)
        jet = generalized_hessian(model)
        scalar_hess, nonlinear_term = hessian_parts(model)
        assert np.abs(nonlinear_term).max() == 0.0
        assert np.array_equal(jet.hess, scalar_hess)

    def test_hessian_symmetry(self, sphere_jet):
        _, jet = sphere_jet
        assert np.array_equal(jet.hess, np.swapaxes(jet.hess, -1, -2))

    def test_interpolated_target_symbols_match_analytic(self):
        # an fd-mode target chart takes the central-difference symbols
        # at each image point
        from builders import flat_to_sphere_map, sphere_chart
        analytic = flat_to_sphere_map(resolution=17)
        fd_target = MapModel(analytic.source_chart,
                             sphere_chart((1.25, 1.9), (-0.35, 0.35), 49,
                                          mode="fd"),
                             analytic.components, lipschitz_bound=0.5)
        jet_a = generalized_hessian(analytic)
        jet_f = generalized_hessian(fd_target)
        scale = max(1.0, float(np.abs(jet_f.laplacian).max()))
        route_gap = np.abs(jet_f.laplacian - split_laplacian(fd_target)).max()
        assert route_gap <= 1e-10 * scale
        assert np.abs(jet_a.hess - jet_f.hess).max() <= 5e-3


def kind_chart(kind: str, dim: int, extent: float, prefix: str) -> MetricChart:
    """A chart on [-extent, extent]^dim with 5 points per axis.

    ``flat``: the identity metric; ``constant``: 2 on the diagonal and 0.3
    off it; ``curved``: 1 + 0.2 x_i^2 on the diagonal and
    0.1 sin(x_i x_j) off it; ``fd``: the identity metric in fd mode.
    """
    names = tuple(f"{prefix}{i + 1}" for i in range(dim))

    def entry(i, j):
        if kind == "constant":
            return "2" if i == j else "0.3"
        if kind == "curved":
            return (f"1 + 0.2*{names[i]}^2" if i == j
                    else f"0.1*sin({names[i]}*{names[j]})")
        return "1" if i == j else "0"

    comps = [[Expression(entry(i, j), names) for j in range(dim)]
             for i in range(dim)]
    box = CoordinateBox([-extent] * dim, [extent] * dim, [5] * dim)
    mode = "fd" if kind == "fd" else "analytic"
    return MetricChart(box, comps, derivative_mode=mode,
                       name=f"{kind}-{prefix}")


def jet_and_christoffel_charts(model: MapModel) -> tuple:
    """The jet and the charts whose ``christoffel_at`` it called."""
    original = MetricChart.christoffel_at
    with mock.patch.object(MetricChart, "christoffel_at", autospec=True,
                           side_effect=original) as spy:
        jet = generalized_hessian(model)
    return jet, {id(call.args[0]) for call in spy.call_args_list}


def assert_same_jet(jet: JetField, model: MapModel):
    """Every field equals the einsum route's; a zero's sign may differ."""
    ref = reference_jet(model)
    for f in fields(JetField):
        got, want = getattr(jet, f.name), getattr(ref, f.name)
        assert got.shape == want.shape, f.name
        assert np.array_equal(got, want, equal_nan=True), f.name


coefficient = st.floats(-0.5, 0.5, allow_nan=False).map(lambda c: round(c, 3))


class TestJetReference:
    """``generalized_hessian`` skips the Christoffel terms of flat charts
    and must still equal the einsum route on every field."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 3), n=st.integers(1, 3),
           source_kind=st.sampled_from(["flat", "constant", "curved"]),
           target_kind=st.sampled_from(["flat", "constant", "curved"]),
           data=st.data())
    def test_jet_matches_einsum_route(self, m, n, source_kind, target_kind,
                                      data):
        source = kind_chart(source_kind, m, 0.5, "x")
        target = kind_chart(target_kind, n, 2.0, "y")
        names = tuple(f"x{i + 1}" for i in range(m))
        comps = []
        for a in range(n):
            c = data.draw(st.lists(coefficient, min_size=m + 2,
                                   max_size=m + 2))
            linear = " + ".join(f"({c[k]})*{names[k]}" for k in range(m))
            comps.append(Expression(
                f"({c[m]}) + {linear} + ({c[m + 1]})*{names[0]}*{names[-1]}"
                f" + 0.1*sin({names[a % m]})", names))
        model = MapModel(source, target, comps)
        jet, called = jet_and_christoffel_charts(model)
        assert (id(source) in called) == (source_kind == "curved")
        assert (id(target) in called) == (target_kind == "curved")
        assert_same_jet(jet, model)

    @pytest.mark.parametrize("kinds", [("fd", "flat"), ("curved", "fd"),
                                       ("flat", "fd"), ("fd", "fd")])
    def test_callable_partials_keep_the_contraction(self, kinds):
        source = kind_chart(kinds[0], 2, 0.5, "x")
        target = kind_chart(kinds[1], 3, 2.0, "y")
        comps = [Expression(e, V2) for e in ("x1 + x2^2", "sin(x2)",
                                             "x1*x2")]
        model = MapModel(source, target, comps)
        jet, called = jet_and_christoffel_charts(model)
        assert (id(source) in called) == (kinds[0] != "flat")
        assert (id(target) in called) == (kinds[1] != "flat")
        assert_same_jet(jet, model)

    @pytest.mark.parametrize("kinds", [("flat", "flat"), ("flat", "curved"),
                                       ("curved", "flat")])
    def test_infinite_derivative_reaches_the_norms(self, kinds):
        # sqrt(s), s = x1 + x2 + 1, vanishes at the corner (-0.5, -0.5)
        # alone, so du is inf there (expressions refuse non-finite values,
        # so the component is a plain callable with its partials)
        class Component:
            def __init__(self, f, partials=None):
                self.f, self.partials = f, partials

            def __call__(self, points):
                s = points[..., 0] + points[..., 1] + 1.0
                with np.errstate(divide="ignore"):
                    return self.f(s)

            def partial(self, axis):
                return self.partials

        hess = Component(lambda s: -0.25 * s ** -1.5)
        grad = Component(lambda s: 0.5 / np.sqrt(s), hess)
        source = kind_chart(kinds[0], 2, 0.5, "x")
        target = kind_chart(kinds[1], 3, 2.0, "y")
        comps = [Expression("x1", V2), Expression("x2", V2),
                 Component(np.sqrt, grad)]
        model = MapModel(source, target, comps)
        with np.errstate(invalid="ignore"):      # inf - inf on curved charts
            jet, _ = jet_and_christoffel_charts(model)
            assert_same_jet(jet, model)
        bad = ~np.isfinite(jet.du).all(axis=(-2, -1))
        assert bad[0, 0] and bad.sum() == 1
        assert np.isnan(jet.norm_hess[0, 0])
        assert np.isfinite(jet.norm_hess[~bad]).all()


class TestGeneralizedLaplacian:
    def test_quadratic_bowl(self):
        model = flat_map(["x1^2 + x2^2"], target_extent=3.0)
        jet = generalized_hessian(model)
        assert np.allclose(jet.laplacian[..., 0], 4.0)
        route_gap = np.abs(jet.laplacian - split_laplacian(model)).max()
        assert route_gap <= 1e-10 * 4.0

    def test_harmonic_component_vanishes(self):
        model = flat_map(["x1*x2"], target_extent=2.0)
        jet = generalized_hessian(model)
        assert np.abs(jet.laplacian).max() < 1e-13
        route_gap = np.abs(jet.laplacian - split_laplacian(model)).max()
        assert route_gap <= 1e-10

    def test_sphere_mean_curvature(self, sphere_jet):
        _, jet = sphere_jet
        assert np.allclose(jet.norm_laplacian, 2.0, atol=1e-12)

    def test_trace_identity_on_all_fixtures(self, sphere_jet, cylinder_jet,
                                            sphere_fd_jets):
        # g^{ij} Hess^a_ij against the scalar Laplace-Beltrami operator of
        # each component plus the trace of the nonlinear term
        for psi, jet in (sphere_jet, cylinder_jet, sphere_fd_jets[33]):
            scale = max(1.0, float(np.abs(jet.laplacian).max()))
            route_gap = np.abs(jet.laplacian - split_laplacian(psi)).max()
            assert route_gap <= 1e-10 * scale


class TestPointwiseNorms:
    def test_affine_map_all_zero_second_order(self):
        jet = generalized_hessian(flat_map(["x1 + x2", "x1"], 3.0))
        assert np.abs(jet.norm_hess).max() == 0.0

    def test_scaled_source_contraction(self):
        # g = 4 delta, u = x1^2: |Hess|^2 = g^11 g^11 (2)^2 = 1/4
        source = flat_chart(-1.0, 1.0, 21, dim=2, scale=4.0)
        target = flat_chart(-3.0, 3.0, 5, dim=1, names=("u",))
        jet = generalized_hessian(MapModel(source, target,
                                           [Expression("x1^2", V2)]))
        assert np.allclose(jet.norm_hess, 0.5)

    def test_norms_are_read_only_einsum_contractions(self, sphere_jet):
        psi, jet = sphere_jet
        ginv = psi.source_chart.grid_inverse()
        h = jet.target_metric
        expected = {
            "norm_du": np.einsum("...ij,...ab,...ai,...bj->...",
                                 ginv, h, jet.du, jet.du),
            "norm_hess": np.einsum("...aij,...blk,...ik,...jl,...ab->...",
                                   jet.hess, jet.hess, ginv, ginv, h),
            "norm_laplacian": np.einsum("...ab,...a,...b->...",
                                        h, jet.laplacian, jet.laplacian),
        }
        for name, sq in expected.items():
            norm = getattr(jet, name)
            assert np.array_equal(norm, np.sqrt(np.maximum(sq, 0.0)))
            assert not norm.flags.writeable
            with pytest.raises(ValueError):
                norm[(0,) * norm.ndim] = 0.0

    def test_chain_bound_finite_and_stable(self):
        bounds = []
        for res in (33, 65):
            psi = sphere_immersion((math.pi / 2 - 0.5, math.pi / 2 + 0.5),
                                   (0.0, 1.0), res)
            b = hessian_chain_bound(psi, generalized_hessian(psi))
            assert np.isfinite(b) and b > 0
            bounds.append(b)
        assert abs(bounds[1] - bounds[0]) <= 0.1 * bounds[0]


class TestImmersionCheck:
    def test_flat_graph(self):
        graph = graph_immersion(resolution=21)
        data = immersion_check(graph)
        assert data.isometry_defect < 1e-12
        assert np.abs(graph.jet().hess).max() < 1e-12
        assert np.abs(graph.jet().laplacian).max() < 1e-12

    def test_sphere(self, sphere_jet):
        psi, jet = sphere_jet
        data = immersion_check(psi)
        assert psi.jet() is jet         # checked on the map's own jet
        assert data.isometry_defect <= 1e-8
        assert np.allclose(jet.norm_laplacian, 2.0, atol=1e-10)
        assert data.normality_defect <= 1e-6

    def test_cylinder_principal_curvatures(self, cylinder_jet):
        psi, jet = cylinder_jet
        data = immersion_check(psi)
        assert psi.jet() is jet
        assert np.allclose(jet.norm_laplacian, 1.0, atol=1e-12)
        assert np.allclose(jet.norm_hess, 1.0, atol=1e-12)
        assert data.isometry_defect <= 1e-12

    def test_rank_deficiency_names_point(self):
        collapsed = flat_map(["x1", "x1"], target_extent=2.0)
        with pytest.raises(NotImmersion):
            immersion_check(collapsed)

    def test_second_order_convergence_of_mean_curvature(self, sphere_fd_jets):
        errs = [np.abs(sphere_fd_jets[res][1].norm_laplacian - 2.0).max()
                for res in (33, 65)]
        factor = errs[0] / errs[1]
        assert 3.5 <= factor <= 4.5


class TestUniformContinuity:
    def test_identity(self):
        # grid step 0.25 divides r, so the profile is attained exactly
        ident = identity_map(extent=1.0, resolution=9)
        assert uniform_continuity_profile(ident, 0.5) == pytest.approx(0.5)

    def test_constant(self):
        source = flat_chart(-1.0, 1.0, 9, dim=2)
        target = flat_chart(-2.0, 2.0, 5, dim=2)
        const = MapModel(source, target,
                         [Expression("0.5", V2), Expression("0", V2)], 0.0)
        assert uniform_continuity_profile(const, 0.5) == 0.0

    def test_linear_stretch_one_dimension(self):
        source = flat_chart(-1.0, 1.0, 17, dim=1, names=("x",))
        target = flat_chart(-3.0, 3.0, 9, dim=1, names=("y",))
        double = MapModel(source, target, [Expression("2*x", ("x",))], 2.0)
        assert uniform_continuity_profile(double, 0.25) == pytest.approx(0.5)

    def test_lipschitz_bound_holds(self):
        psi = sphere_immersion(resolution=17)
        R = uniform_continuity_profile(psi, 0.3)
        assert R <= 1.0 * 0.3 * (1.0 + 1e-9)


class TestLipschitzValidation:
    def test_violating_declaration_rejected(self):
        with pytest.raises(ValueError):
            flat_map(["3*x1", "x2"], lipschitz=1.0).validate()

    def test_honest_declaration_passes(self):
        flat_map(["3*x1", "x2"], lipschitz=3.0).validate()
        identity_map().validate()

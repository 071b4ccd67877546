import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import constant_tilted_chart, tilted_chart_3d
from conftest import make_flat, make_hyperbolic, make_sphere
from czmap.errors import DegenerateMetric
from czmap.expressions import Expression
from czmap.geometry import (CoordinateBox, MetricChart, RicciBoundWarning,
                            check_ricci_lower_bound, ricci_samples)


class TestMetricAt:
    """Metric values at points and the grid's inverse, volume density and
    eigenvalue sandwich."""

    def test_flat_identity(self):
        chart = make_flat()
        assert np.allclose(chart.metric([0.3, -0.7]), np.eye(2))
        assert np.allclose(chart.grid_inverse(), np.eye(2))
        assert np.allclose(chart.grid_sqrt_det(), 1.0)
        assert chart.ellipticity_range() == pytest.approx((1.0, 1.0))

    def test_constant_conformal_scaling(self):
        chart = make_flat(scale=4.0)
        assert np.allclose(chart.metric([0.1, 0.2]), 4.0 * np.eye(2))
        assert np.allclose(chart.grid_inverse(), 0.25 * np.eye(2))
        assert np.allclose(chart.grid_sqrt_det(), 4.0)   # sqrt(det) = sqrt(16)

    def test_sphere_equator(self):
        chart = make_sphere()
        assert np.allclose(chart.metric([math.pi / 2, 0.3]), np.eye(2))
        # volume density sin(th), 1 on the equator (the middle grid row)
        th = chart.box.axes[0]
        assert th[16] == pytest.approx(math.pi / 2)
        assert np.allclose(chart.grid_sqrt_det(), np.sin(th)[:, None])

    def test_inverse_is_exact(self):
        chart = make_sphere()
        G, Ginv = chart.grid_metric(), chart.grid_inverse()
        assert np.abs(Ginv @ G - np.eye(2)).max() < 1e-12

    def test_degenerate_metric_names_point(self):
        v = ("x1", "x2")
        comps = [[Expression("x1", v), Expression("0", v)],
                 [Expression("0", v), Expression("1", v)]]
        chart = MetricChart(CoordinateBox([-1, -1], [1, 1], [5, 5]), comps)
        with pytest.raises(DegenerateMetric) as err:
            chart.grid_metric()
        # the first grid point of the smallest eigenvalue, g_11 = x1 = -1
        assert err.value.point == (-1.0, -1.0)
        assert err.value.min_eigenvalue == -1.0


class TestChristoffel:
    def test_flat_vanishes(self):
        gam = make_flat().grid_christoffel()
        assert np.abs(gam).max() == 0.0

    def test_constant_metric_vanishes(self):
        gam = make_flat(scale=4.0).grid_christoffel()
        assert np.abs(gam).max() == 0.0

    def test_sphere_closed_form(self):
        # closed forms: Gamma^th_phph = -sin th cos th, Gamma^ph_thph = cot th
        chart = make_sphere()
        gam = chart.christoffel_at(np.array([math.pi / 4, 0.2]))
        assert gam[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)
        assert gam[1, 0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_everywhere(self):
        gam = make_sphere().grid_christoffel()
        assert np.array_equal(gam, np.swapaxes(gam, -1, -2))

    def test_fd_mode_cross_check(self):
        # default step ~0.054 puts the central-difference error near 2e-3
        an = make_sphere(mode="analytic")
        fdc = make_sphere(mode="fd")
        pt = np.array([math.pi / 4, 0.2])
        assert np.allclose(fdc.christoffel_at(pt), an.christoffel_at(pt),
                           atol=5e-3)

    def test_fd_error_halves_at_second_order(self):
        an = make_sphere()
        pts = an.box.points()[200:260]
        errs = []
        for h in (0.02, 0.01):
            fdc = make_sphere(mode="fd")
            fdc.fd_step = np.array([h, h])
            errs.append(np.abs(fdc.metric_derivative(pts)
                               - an.metric_derivative(pts)).max())
        factor = errs[0] / errs[1]
        assert 3.5 <= factor <= 4.5

    def test_fd_christoffel_follows_reassigned_step(self):
        pt = np.array([math.pi / 3, 0.2])
        chart = make_sphere(mode="fd")
        before = chart.christoffel_at(pt)
        chart.fd_step = np.array([0.01, 0.01])
        fresh = make_sphere(mode="fd")
        fresh.fd_step = np.array([0.01, 0.01])
        after = chart.christoffel_at(pt)
        assert not np.array_equal(after, before)
        assert after.tobytes() == fresh.christoffel_at(pt).tobytes()

    def test_oversized_fd_step_asks_to_shrink_domain(self):
        from czmap.errors import ShrinkDomain
        chart = make_sphere(mode="fd")
        chart.fd_step = np.array([5.0, 5.0])  # wider than the box
        with pytest.raises(ShrinkDomain) as err:
            chart.christoffel_at(np.array([math.pi / 2, 0.5]))
        assert err.value.suggested_margin > 0


class TestRicci:
    def test_flat_zero(self):
        ric = ricci_samples(make_flat())
        assert np.abs(ric.values).max() < 1e-12

    def test_sphere_matches_closed_form(self):
        # Ric = (m-1)/rho^2 * g on the rho-sphere; rho = 1 here
        chart = make_sphere(res=49)
        ric = ricci_samples(chart)
        assert np.abs(ric.values - chart.grid_metric()).max() < 6e-3
        assert np.abs(ric.min_eigenvalue - 1.0).max() < 6e-3

    def test_rho_sphere_closed_form(self):
        rho = 2.0
        chart = make_sphere(res=49, rho=rho)
        ric = ricci_samples(chart)
        expected = (1.0 / rho ** 2) * chart.grid_metric()
        assert np.abs(ric.values - expected).max() < 6e-3

    def test_hyperbolic_constant_negative(self):
        ric = ricci_samples(make_hyperbolic(res=49))
        assert np.abs(ric.min_eigenvalue + 1.0).max() < 5e-3

    def test_fd_mode_cross_check(self):
        # interior comparison: the pointwise stencils switch shape inside
        # the three outermost grid layers, which pollutes the outer
        # derivative there
        an = ricci_samples(make_sphere(res=33))
        fd = ricci_samples(make_sphere(res=33, mode="fd"))
        dev = np.abs(an.values - fd.values)[3:-3, 3:-3]
        assert dev.max() < 5e-3


class TestManifoldModel:
    """A manifold's declared Ricci lower bound Ric >= -A against its chart."""

    def test_negative_bound_parameter_rejected(self):
        with pytest.raises(ValueError):
            check_ricci_lower_bound(make_flat(), -1.0)

    def test_ricci_violation_warns_not_raises(self):
        with pytest.warns(RicciBoundWarning):
            check_ricci_lower_bound(make_hyperbolic(), 0.0)

    def test_flat_with_zero_bound_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_ricci_lower_bound(make_flat(), 0.0)

    def test_warning_tolerance_tracks_bound_size(self):
        # sampled floor is -1 up to grid noise; a generous declared bound
        # must stay quiet even though the tight one warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_ricci_lower_bound(make_hyperbolic(res=49), 1.1)


class TestScalingLaws:
    def test_christoffel_invariant_under_constant_scaling(self):
        base = make_sphere().grid_christoffel()
        v = ("th", "ph")
        comps = [[Expression("4", v), Expression("0", v)],
                 [Expression("0", v), Expression("4*sin(th)^2", v)]]
        box = make_sphere().box
        scaled = MetricChart(box, comps).grid_christoffel()
        assert np.abs(base - scaled).max() < 1e-6

    def test_volume_density_scales_by_lambda_m(self):
        flat = make_flat()
        scaled = make_flat(scale=4.0)  # lambda = 2, m = 2
        ratio = scaled.grid_sqrt_det() / flat.grid_sqrt_det()
        assert np.abs(ratio - 4.0).max() < 1e-12


def _explicit_half_plane():
    v = ("x", "y")
    comps = [[Expression("1/(y*y)", v), Expression("0", v)],
             [Expression("0", v), Expression("1/(y*y)", v)]]
    dy = Expression("-2/(y*y*y)", v)
    oracles = {(0, 0, 0): Expression("0", v), (0, 0, 1): dy,
               (1, 1, 0): Expression("0", v), (1, 1, 1): lambda p: dy(p)}
    return MetricChart(CoordinateBox([-0.8, 0.7], [0.8, 2.3], [9, 9]), comps,
                       derivative_oracles=oracles, name="explicit")


ACCELERATION_CHARTS = {
    "flat": make_flat(), "constant-tilted": constant_tilted_chart(),
    "sphere": make_sphere(), "half-plane": make_hyperbolic(),
    "sphere-fd": make_sphere(mode="fd"), "explicit": _explicit_half_plane(),
    "tilted-3d": tilted_chart_3d()}


class TestGeodesicAcceleration:
    @settings(max_examples=120, deadline=None)
    @given(name=st.sampled_from(sorted(ACCELERATION_CHARTS)),
           data=st.data())
    def test_matches_christoffel_contraction(self, name, data):
        chart = ACCELERATION_CHARTS[name]
        m = chart.dimension
        rows = data.draw(st.integers(1, 6))
        unit = st.floats(0.0, 1.0)
        t = np.array(data.draw(st.lists(unit, min_size=rows * m,
                                        max_size=rows * m))).reshape(rows, m)
        pts = chart.box.lower + t * (chart.box.upper - chart.box.lower)
        v = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=rows * m,
                                        max_size=rows * m))).reshape(rows, m)
        gam = chart.christoffel_at(pts)
        expected = -np.einsum("...lij,...i,...j->...l", gam, v, v)
        got = chart.geodesic_acceleration(pts, v)
        assert got.shape == expected.shape
        # each term's size, through |g^-1| and the condition number of g
        g = chart.metric(pts)
        sym = np.abs(chart.metric_derivative(pts))
        av = np.abs(v)
        terms = (np.einsum("...jki,...i,...j->...k", sym, av, av)
                 + 0.5 * np.einsum("...ijk,...i,...j->...k", sym, av, av))
        scale = np.einsum("...lk,...k->...l", np.abs(np.linalg.inv(g)), terms)
        ulp = 8 * np.finfo(float).eps * np.linalg.cond(g)[:, None] * scale
        # products of tiny velocities may underflow differently
        assert np.all(np.abs(got - expected)
                      <= ulp + np.finfo(float).smallest_normal)


class TestInterpolate:
    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 3), res=st.lists(st.integers(3, 6), min_size=3,
                                             max_size=3),
           trailing=st.lists(st.integers(1, 3), max_size=2),
           rows=st.integers(1, 12), extrapolate=st.booleans(),
           nan_values=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_same_bits_as_regular_grid_interpolator(
            self, m, res, trailing, rows, extrapolate, nan_values, seed):
        from scipy.interpolate import RegularGridInterpolator
        # generic floats from a seeded generator: round numbers would
        # hide a change in the order of the products
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-5.0, 5.0, m)
        width = rng.uniform(0.01, 10.0, m)
        box = CoordinateBox(lower, lower + width, res[:m])
        values = rng.normal(scale=rng.uniform(0.1, 1e3),
                            size=tuple(res[:m]) + tuple(trailing))
        if nan_values:
            values[rng.random(values.shape) < 0.2] = np.nan
        # coordinates inside, outside (up to half a box away), on grid
        # nodes and nan
        points = lower + rng.uniform(-0.5, 1.5, (rows, m)) * width
        kind = rng.integers(0, 4, (rows, m))
        for r, k in zip(*np.nonzero(kind == 0)):
            points[r, k] = box.axes[k][rng.integers(res[k])]
        points[kind == 1] = np.nan
        expected = RegularGridInterpolator(
            box.axes, values, bounds_error=False,
            fill_value=None if extrapolate else np.nan)(points)
        got = box.interpolate(values, points, extrapolate=extrapolate)
        assert got.shape == expected.shape == (rows,) + tuple(trailing)
        assert got.tobytes() == expected.tobytes()

    def test_point_shape_is_kept(self):
        box = CoordinateBox([0.0, 0.0], [1.0, 2.0], [3, 5])
        values = np.add.outer(box.axes[0], box.axes[1])      # x + y, exact
        points = np.array([[[0.25, 0.5], [1.0, 2.0]], [[0.5, 1.5], [0.0, 0.0]]])
        assert box.interpolate(values, points).shape == (2, 2)
        assert box.interpolate(values, points[0, 0]) == 0.75
        assert np.isnan(box.interpolate(values, [1.5, 0.0]))
        assert box.interpolate(values, [1.5, 0.0], extrapolate=True) == 1.5

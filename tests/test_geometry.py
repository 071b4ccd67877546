import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import (constant_tilted_chart, reference_acceleration,
                      sphere_chart, tilted_chart_3d)
from conftest import make_flat, make_hyperbolic, make_sphere
from czmap.errors import DegenerateMetric, EvalError
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
        # the fd step is the grid step: 0.02, then 0.01 on both axes
        an = make_sphere()
        pts = an.box.points()[200:260]
        errs = []
        for res in ((81, 71), (161, 141)):
            fdc = sphere_chart((0.7, 2.3), (0.0, 1.4), res, mode="fd")
            assert np.allclose(fdc.box.steps, 1.6 / (res[0] - 1))
            errs.append(np.abs(fdc.metric_derivative(pts)
                               - an.metric_derivative(pts)).max())
        factor = errs[0] / errs[1]
        assert 3.5 <= factor <= 4.5

    def test_fd_stencil_fits_a_three_point_axis(self):
        # the stencil spans the whole axis and slides to fit at the faces;
        # a three-point fit of a quadratic is exact
        v = ("x", "y")
        comps = [[Expression("1 + x*x", v), Expression("0", v)],
                 [Expression("0", v), Expression("1", v)]]
        chart = MetricChart(CoordinateBox([-0.5, 0.0], [1.5, 1.0], [3, 4]),
                            comps, derivative_mode="fd")
        x = np.array([-0.5, 0.5, 1.5, -0.5, 1.5, 0.1])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 0.7])
        dg = chart.metric_derivative(np.stack([x, y], axis=-1))
        assert np.abs(dg[:, 0, 0, 0] - 2.0 * x).max() <= 1e-12
        assert np.abs(dg[:, 0, 0, 1]).max() <= 1e-12


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


ACCELERATION_CHARTS = {
    "flat": make_flat(), "constant-tilted": constant_tilted_chart(),
    "sphere": make_sphere(), "half-plane": make_hyperbolic(),
    "sphere-fd": make_sphere(mode="fd"), "tilted-3d": tilted_chart_3d()}


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


HALF_PLANE_SCENARIO = """\
[manifold halfplane]
coordinates = x, y
lower = -0.4, 1.3
upper = 0.4, 1.7
resolution = 9, 9
metric.1.1 = {g11}
metric.1.2 = 0
metric.2.2 = 1/(y*y)

[run]
mode = global
"""


class TestSharedOracles:
    def _chart(self, tmp_path, g11):
        from czmap.scenario import load_scenario
        path = tmp_path / "halfplane.scn"
        path.write_text(HALF_PLANE_SCENARIO.format(g11=g11), encoding="utf-8")
        return load_scenario(str(path)).manifolds["halfplane"].build_chart()

    def test_each_distinct_oracle_is_evaluated_once(self, tmp_path,
                                                    monkeypatch):
        shared = self._chart(tmp_path, "1/(y*y)")
        # same expression, other text: two oracles, evaluated on their own
        apart = self._chart(tmp_path, "1/(y * y)")
        oracles = [o for _, _, g, partials in shared.oracles()
                   for o in [g] + partials if not isinstance(o, float)]
        assert len({id(o) for o in oracles}) == 2   # 1/(y*y) and d_y
        pts = np.array([[0.1, 1.4], [-0.3, 1.65], [0.0, 1.5]])
        v = np.array([[0.2, -0.1], [1.0, 0.5], [-0.0, 0.3]])
        expected = {name: getattr(apart, name)(*args) for name, args in (
            ("geodesic_acceleration", (pts, v)), ("metric", (pts,)),
            ("metric_derivative", (pts,)))}
        called = []
        original = Expression.__call__

        def counting(self, points):
            called.append(id(self))
            return original(self, points)

        monkeypatch.setattr(Expression, "__call__", counting)
        # the compiled chart kernel calls no oracle
        got = shared.geodesic_acceleration(pts, v)
        assert called == []
        assert got.tobytes() == expected["geodesic_acceleration"].tobytes()
        assert got.tobytes() == reference_acceleration(apart, pts, v).tobytes()
        # the per-oracle route calls each distinct oracle once
        for chart in (shared, apart):
            monkeypatch.setitem(chart._cache, "acceleration_kernel", None)
        called.clear()
        got = shared.geodesic_acceleration(pts, v)
        assert sorted(called) == sorted({id(o) for o in oracles})
        assert got.tobytes() == expected["geodesic_acceleration"].tobytes()
        for name in ("metric", "metric_derivative"):
            called.clear()
            got = getattr(shared, name)(pts)
            assert len(called) == 1
            assert got.tobytes() == expected[name].tobytes()
        called.clear()
        apart.geodesic_acceleration(pts, v)
        assert len(called) == 4


# bounded terms for random metric entries; several entries draw the same
# term, so the chart kernel meets shared subtrees
_KERNEL_TERMS = ("sin({a})^2", "cos({a})", "exp({a}/4)", "1/({a}*{a})",
                 "sqrt(1 + {a}*{a})", "log(1 + {a})", "pow({a}, 1.5)",
                 "abs({a} - 0.25)", "{a}^3/4", "-{a}")


@st.composite
def _kernel_charts(draw):
    """An analytic chart in 1-3 dimensions on [0.5, 1.5]^m whose entries
    mix shared terms, float constants and zero off-diagonal entries,
    diagonally dominant so that g is SPD."""
    m = draw(st.integers(1, 3))
    names = ("x", "y", "z")[:m]
    args = list(names) + ["(x + 0.5*%s)" % names[-1]]
    terms = [t.format(a=draw(st.sampled_from(args)))
             for t in draw(st.lists(st.sampled_from(_KERNEL_TERMS),
                                    min_size=1, max_size=3))]
    term = st.sampled_from(terms)
    comps = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            if i == j:
                kind = draw(st.sampled_from(["constant", "term", "terms"]))
                text = {"constant": "2.5",
                        "term": "4 + 0.5*%s" % draw(term),
                        "terms": "4 + 0.5*%s - 0.25*%s" % (draw(term),
                                                           draw(term))}[kind]
            else:
                text = draw(st.sampled_from(["0", "0.125", "0.0625*%s"
                                             % draw(term)]))
            comps[i][j] = Expression(text, names)
    box = CoordinateBox([0.5] * m, [1.5] * m, [5] * m)
    return MetricChart(box, comps, name="random")


def _kernel_batch(data, chart):
    m = chart.dimension
    rows = data.draw(st.integers(1, 8))
    t = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=rows * m,
                                    max_size=rows * m))).reshape(rows, m)
    pts = chart.box.lower + t * (chart.box.upper - chart.box.lower)
    speed = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0]))
    v = np.array(data.draw(st.lists(speed, min_size=rows * m,
                                    max_size=rows * m))).reshape(rows, m)
    return pts, v


class TestAccelerationKernel:
    """The compiled chart kernel returns the per-oracle route's bits and,
    where it cannot, hands the call to that route."""

    @settings(max_examples=150, deadline=None)
    @given(chart=_kernel_charts(), data=st.data())
    def test_matches_per_oracle_route(self, chart, data):
        pts, v = _kernel_batch(data, chart)
        expected = reference_acceleration(chart, pts, v)
        kernel = chart._acceleration_kernel()
        assert kernel is not None
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            direct = kernel(pts, v)
        assert np.array_equal(direct, expected)
        assert direct.tobytes() == expected.tobytes()
        got = chart.geodesic_acceleration(pts, v)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["sphere-fd"])
    def test_fd_and_explicit_oracles_keep_the_per_oracle_route(
            self, name, monkeypatch):
        chart = ACCELERATION_CHARTS[name]
        pts = np.array([[1.0, 1.2], [1.3, 0.9], [0.8, 1.1]])
        v = np.array([[0.5, -0.25], [1.0, 2.0], [-0.0, 0.75]])
        assert chart._acceleration_kernel() is None
        expected = reference_acceleration(chart, pts, v)
        called = []
        original = Expression.__call__

        def counting(self, points):
            called.append(id(self))
            return original(self, points)

        monkeypatch.setattr(Expression, "__call__", counting)
        got = chart.geodesic_acceleration(pts, v)
        assert called
        assert got.tobytes() == expected.tobytes()

    def test_plain_callable_component_keeps_the_per_oracle_route(self):
        # a plain callable has no symbolic partials: an fd chart takes it
        v = ("x", "y")
        g11 = Expression("1 + x*x", v)
        comps = [[lambda p: g11(p), Expression("0", v)],
                 [Expression("0", v), Expression("2 + y", v)]]
        chart = MetricChart(CoordinateBox([0.0, 0.0], [1.0, 1.0], [5, 5]),
                            comps, derivative_mode="fd")
        pts = np.array([[0.25, 0.5], [0.75, 0.125]])
        vel = np.array([[1.0, -2.0], [0.5, 0.25]])
        assert chart._acceleration_kernel() is None
        assert chart.geodesic_acceleration(pts, vel).tobytes() == \
            reference_acceleration(chart, pts, vel).tobytes()

    def test_divide_by_zero_falls_back_to_the_located_error(self):
        chart = MetricChart(CoordinateBox([-1.0], [1.0], [5]),
                            [[Expression("2 + sin(x)/x", ("x",))]])
        pts = np.array([[0.5], [0.0]])
        v = np.array([[1.0], [1.0]])
        assert chart._acceleration_kernel() is not None
        with pytest.raises(EvalError) as expected:
            reference_acceleration(chart, pts, v)
        with pytest.raises(EvalError) as got:
            chart.geodesic_acceleration(pts, v)
        assert str(got.value) == str(expected.value)
        assert got.value.position == expected.value.position

    def test_overflow_falls_back_to_the_same_values(self):
        chart = make_sphere()
        pts = np.array([[1.0, 0.5], [1.2, 0.7]])
        v = np.array([[1e200, 1.0], [0.5, -1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = reference_acceleration(chart, pts, v)
            got = chart.geodesic_acceleration(pts, v)
        assert not np.isfinite(expected).all()
        assert got.tobytes() == expected.tobytes()


class TestInterpolate:
    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 3), res=st.lists(st.integers(3, 6), min_size=3,
                                             max_size=3),
           trailing=st.lists(st.integers(1, 3), max_size=2),
           rows=st.integers(1, 12), nan_values=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_same_bits_as_regular_grid_interpolator(
            self, m, res, trailing, rows, nan_values, seed):
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
            box.axes, values, bounds_error=False, fill_value=np.nan)(points)
        got = box.interpolate(values, points)
        assert got.shape == expected.shape == (rows,) + tuple(trailing)
        assert got.tobytes() == expected.tobytes()

    def test_point_shape_is_kept(self):
        box = CoordinateBox([0.0, 0.0], [1.0, 2.0], [3, 5])
        values = np.add.outer(box.axes[0], box.axes[1])      # x + y, exact
        points = np.array([[[0.25, 0.5], [1.0, 2.0]], [[0.5, 1.5], [0.0, 0.0]]])
        assert box.interpolate(values, points).shape == (2, 2)
        assert box.interpolate(values, points[0, 0]) == 0.75
        assert np.isnan(box.interpolate(values, [1.5, 0.0]))

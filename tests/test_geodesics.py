import glob
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import (constant_tilted_chart, flat_chart, geodesic_distance,
                      hyperbolic_chart, reference_shoot, sphere_chart,
                      tilted_chart_3d)
from conftest import make_flat, make_hyperbolic, make_sphere
from czmap.expressions import Expression
from czmap.geodesics import (GridGraph, _metric_is_constant, _neighbor_offsets,
                             distance_field, log_map, metric_ball,
                             offset_slices, segment_length, shoot)
from czmap.geometry import CoordinateBox, MetricChart
from czmap.scenario import fixture_dir, fixture_path, load_scenario

FIXTURES = sorted(os.path.basename(path)[:-len(".scn")]
                  for path in glob.glob(os.path.join(fixture_dir(), "*.scn")))


class TestGeodesicDistance:
    def test_flat_three_four_five(self):
        chart = make_flat(-4.0, 5.0, 41)
        assert geodesic_distance(chart, [0, 0], [3, 4]) == pytest.approx(5.0,
                                                                         abs=1e-9)

    def test_constant_scaling_doubles_lengths(self):
        chart = make_flat(scale=4.0)
        d = geodesic_distance(chart, [0, 0], [1, 0])
        assert d == pytest.approx(2.0, abs=1e-9)

    def test_sphere_equator_arc(self):
        # great-circle oracle: the equator is a geodesic, arc length = dphi
        chart = make_sphere(res=49, theta=(0.4, math.pi - 0.4), phi=(-0.5, 2.2))
        d = geodesic_distance(chart, [math.pi / 2, 0.0],
                              [math.pi / 2, math.pi / 2])
        assert d == pytest.approx(math.pi / 2, abs=1e-3)

    def test_symmetry_is_exact(self):
        chart = make_sphere(res=33)
        a, b = [1.1, 0.3], [1.7, 0.9]
        assert geodesic_distance(chart, a, b) == geodesic_distance(chart, b, a)

    def test_triangle_inequality_on_sampled_triples(self):
        chart = make_sphere(res=33)
        pts = [[1.2, 0.2], [1.5, 0.6], [1.8, 1.0]]
        d01 = geodesic_distance(chart, pts[0], pts[1])
        d12 = geodesic_distance(chart, pts[1], pts[2])
        d02 = geodesic_distance(chart, pts[0], pts[2])
        assert d02 <= d01 + d12 + 1e-6

    def test_scaling_law_on_sphere(self):
        base = make_sphere(res=33)
        scaled = make_sphere(res=33, rho=2.0)
        a, b = [1.2, 0.2], [1.6, 0.8]
        d1 = geodesic_distance(base, a, b)
        d2 = geodesic_distance(scaled, a, b)
        assert d2 == pytest.approx(2.0 * d1, abs=1e-6)


class TestMetricBall:
    def test_tiny_radius_keeps_nearest_grid_point(self):
        chart = make_flat(-2.0, 2.0, 17)  # step 0.25
        ball = metric_ball(chart, [0.06, -0.04], 0.05)
        assert ball.indices.size == 1
        pt = chart.box.points()[ball.indices[0]]
        assert np.allclose(pt, [0.0, 0.0])

    def test_flat_unit_ball_is_euclidean(self):
        chart = make_flat(-2.0, 2.0, 41)
        ball = metric_ball(chart, [0.0, 0.0], 1.0)
        expected = np.linalg.norm(chart.box.points(), axis=1) <= 1.0
        assert np.array_equal(ball.mask.reshape(-1), expected)
        assert not ball.truncated

    def test_scaled_metric_shrinks_coordinate_radius(self):
        chart = make_flat(-2.0, 2.0, 41, scale=4.0)
        ball = metric_ball(chart, [0.0, 0.0], 1.0)
        expected = np.linalg.norm(chart.box.points(), axis=1) <= 0.5
        assert np.array_equal(ball.mask.reshape(-1), expected)

    def test_monotone_in_radius(self):
        chart = make_sphere(res=33)
        d = distance_field(chart, [1.3, 0.5])
        small = metric_ball(chart, [1.3, 0.5], 0.2, distances=d)
        large = metric_ball(chart, [1.3, 0.5], 0.35, distances=d)
        assert np.all(large.mask[small.mask])

    def test_truncation_flag(self):
        chart = make_flat(-1.0, 1.0, 21)
        ball = metric_ball(chart, [0.8, 0.0], 0.5)
        assert ball.truncated
        assert ball.warnings


class TestSegmentsAndLogMap:
    def test_segment_exact_for_constant_metric(self):
        chart = make_flat(scale=4.0)
        L = segment_length(chart, np.array([0.0, 0.0]), np.array([0.3, 0.4]))
        assert float(L) == pytest.approx(1.0, abs=1e-12)

    def test_constant_metric_is_decided_from_the_expression(self):
        v = ("x1", "x2")
        comps = [[Expression("1 + 1e-15*x1", v), Expression("0", v)],
                 [Expression("0", v), Expression("1", v)]]
        chart = MetricChart(CoordinateBox([-1, -1], [1, 1], [5, 5]), comps)
        g = chart.grid_metric()
        # sampled values cannot tell this metric from a constant one
        assert np.abs(g - g[0, 0]).max() <= 1e-14
        assert not _metric_is_constant(chart)
        assert _metric_is_constant(make_flat(scale=4.0))

    def test_log_map_flat_is_displacement(self):
        chart = make_flat(-2.0, 2.0, 21)
        targets = np.array([[0.5, 0.25], [-0.75, 0.5]])
        v, ok = log_map(chart, [0.0, 0.0], targets)
        assert ok.all()
        assert np.allclose(v, targets, atol=1e-10)

    def test_log_map_sphere_recovers_arc(self):
        chart = make_sphere(res=33, phi=(-0.8, 0.8))
        v, ok = log_map(chart, [math.pi / 2, 0.0], np.array([[math.pi / 2, 0.5]]))
        assert ok[0]
        G = chart.metric(np.array([math.pi / 2, 0.0]))
        assert math.sqrt(v[0] @ G @ v[0]) == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("make, x, escape", [
        (make_sphere, [1.4, 0.6], [2.5, 0.1]),
        (make_hyperbolic, [0.1, 1.2], [0.2, -1.5]),
    ])
    def test_stacked_shot_equals_per_block_shots(self, make, x, escape):
        chart = make()
        rng = np.random.default_rng(5)
        blocks = [0.3 * rng.standard_normal((4, 2)) for _ in range(3)]
        blocks[1][2] = escape
        ends, oks = shoot(chart, x, np.concatenate(blocks))
        assert not oks[4 + 2] and oks.sum() == 11
        for b, block in enumerate(blocks):
            end, ok = shoot(chart, x, block)
            rows = slice(4 * b, 4 * b + 4)
            assert ends[rows].tobytes() == end.tobytes()
            assert np.array_equal(oks[rows], ok)

    def test_shot_forms_no_christoffel_tensor(self, monkeypatch):
        chart = make_sphere()
        v0 = np.array([[0.3, -0.2], [0.1, 0.4], [-0.25, 0.05]])
        expected = shoot(chart, [1.4, 0.6], v0)

        def banned(*args, **kwargs):
            raise AssertionError("shoot formed the Christoffel tensor")

        monkeypatch.setattr(MetricChart, "christoffel_at", banned)
        monkeypatch.setattr(np.linalg, "inv", banned)
        monkeypatch.setattr(np, "einsum", banned)
        ends, oks = shoot(chart, [1.4, 0.6], v0)
        assert ends.tobytes() == expected[0].tobytes()
        assert np.array_equal(oks, expected[1])


def _tilted_chart_2d() -> MetricChart:
    """A varying metric with an off-diagonal entry (the elimination step)."""
    v = ("x", "y")
    comps = [[Expression("1 + x^2", v), Expression("0.3*sin(y)", v)],
             [None, Expression("2 + cos(x*y)", v)]]
    return MetricChart(CoordinateBox([-1, -1], [1, 1], [9, 9]), comps,
                       name="tilted-2d")


SHOT_CHARTS = {
    "sphere": sphere_chart(), "half-plane": hyperbolic_chart(),
    "tilted-2d": _tilted_chart_2d(), "tilted-3d": tilted_chart_3d(),
    "half-plane-fd": hyperbolic_chart(mode="fd"),
    "constant-tilted": constant_tilted_chart()}


def _assert_shot_matches_reference(chart, x, v0):
    ends, oks = shoot(chart, x, v0)
    ref_ends, ref_oks = reference_shoot(chart, x, v0)
    assert ends.shape == ref_ends.shape == v0.shape
    assert ends.tobytes() == ref_ends.tobytes()
    assert oks.tobytes() == ref_oks.tobytes()
    return oks


class TestShotKernel:
    """The stacked shot returns the bits of the two-array reference."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(SHOT_CHARTS)),
           batch=st.integers(1, 24), reach=st.sampled_from([0.3, 1.0, 3.0]),
           seed=st.integers(0, 2 ** 32 - 1), on_face=st.booleans(),
           zero_column=st.booleans())
    def test_matches_reference_shot(self, name, batch, reach, seed, on_face,
                                    zero_column):
        chart = SHOT_CHARTS[name]
        box = chart.box
        m = chart.dimension
        width = box.upper - box.lower
        rng = np.random.default_rng(seed)
        x = box.lower + rng.uniform(0.2, 0.8, m) * width
        if on_face:
            x[-1] = box.lower[-1]       # e.g. the sphere's ph = 0.0 face
        # per-row reach in box widths: none, some or all rows leave the box
        v0 = rng.uniform(0.0, reach, (batch, 1)) * rng.uniform(-1, 1, (batch, m)) * width
        if zero_column:
            v0[:, 0] = -0.0
        _assert_shot_matches_reference(chart, x, v0)

    @pytest.mark.parametrize("name", sorted(SHOT_CHARTS))
    @pytest.mark.parametrize("reach, escaped", [
        ([0.3], "none"), ([0.3, 0.8], "some"), ([0.8, 3.0], "all")])
    def test_rows_leaving_mid_shot(self, name, reach, escaped):
        chart = SHOT_CHARTS[name]
        box = chart.box
        m = chart.dimension
        direction = np.random.default_rng(7).standard_normal((12, m))
        direction /= np.abs(direction).max(axis=1, keepdims=True)
        scale = np.resize(reach, 12)[:, None]
        oks = _assert_shot_matches_reference(
            chart, 0.5 * (box.lower + box.upper),
            scale * direction * (box.upper - box.lower))
        left = int((~oks).sum())
        assert {"none": left == 0, "some": 0 < left < 12,
                "all": left == 12}[escaped]

    @pytest.mark.parametrize("name", sorted(SHOT_CHARTS))
    @pytest.mark.parametrize("side", [-0.1, 1.1])
    def test_clamp_keeps_the_np_clip_bits(self, name, side):
        # the shot clamps by np.maximum then np.minimum, the reference by
        # np.clip: a start outside the box makes the clamps act, and
        # signed-zero velocities must come out on the same bits
        chart = SHOT_CHARTS[name]
        box = chart.box
        m = chart.dimension
        width = box.upper - box.lower
        x = box.lower + side * width
        v0 = np.random.default_rng(3).uniform(-0.5, 0.5, (6, m)) * width
        v0[1] = -0.0
        v0[2, 0] = -0.0
        _assert_shot_matches_reference(chart, x, v0)


def _einsum_segment_length(chart, a, b, n_quad):
    """The d.g.d contraction through ``chart.metric`` and ``einsum``, with
    a bound on how far reordering the sums can move it."""
    d = b - a
    m = chart.dimension
    if _metric_is_constant(chart):
        n_quad = 1
    total = bound = 0.0
    for k in range(n_quad):
        g = chart.metric(a + ((k + 0.5) / n_quad) * d)
        q = np.maximum(np.einsum("...i,...ij,...j->...", d, g, d), 0.0)
        size = np.einsum("...i,...ij,...j->...", np.abs(d), np.abs(g),
                         np.abs(d))
        # two sums of m^2 terms of at most three factors each
        err = 4 * m * m * np.finfo(float).eps * size
        total = total + np.sqrt(q)
        safe = np.where(q > 0, q, 1.0)
        bound = bound + np.where(q > 0, err / np.sqrt(safe), np.sqrt(err))
    return total / n_quad, bound / n_quad


SEGMENT_CHARTS = {
    "flat": make_flat(), "scaled-flat-3d": make_flat(dim=3, res=5, scale=2.5),
    "constant-tilted": constant_tilted_chart(), "sphere": make_sphere(),
    "half-plane": make_hyperbolic(), "tilted-3d": tilted_chart_3d()}


class TestSegmentQuadraticForm:
    @settings(max_examples=120, deadline=None)
    @given(name=st.sampled_from(sorted(SEGMENT_CHARTS)),
           n_quad=st.sampled_from([1, 2, 8]), data=st.data())
    def test_matches_einsum_contraction(self, name, n_quad, data):
        chart = SEGMENT_CHARTS[name]
        m = chart.dimension
        rows = data.draw(st.integers(1, 6))
        unit = st.lists(st.floats(0.0, 1.0), min_size=2 * rows * m,
                        max_size=2 * rows * m)
        t = np.array(data.draw(unit)).reshape(2, rows, m)
        a, b = chart.box.lower + t * (chart.box.upper - chart.box.lower)
        if data.draw(st.booleans()):
            a = a[0]                            # one start for every row
        expected, bound = _einsum_segment_length(chart, a, b, n_quad)
        got = segment_length(chart, a, b, n_quad)
        assert got.shape == expected.shape == (rows,)
        # the shared sum and division, and products that underflow
        slack = 4 * np.finfo(float).eps * expected \
            + np.sqrt(np.finfo(float).smallest_normal)
        assert np.all(np.abs(got - expected) <= bound + slack)

    def test_reads_the_metric_oracles_only(self, monkeypatch):
        chart = make_sphere()
        a = np.array([[1.0, 0.2], [1.3, 0.9], [2.0, 1.1]])
        b = np.array([[1.2, 0.5], [1.3, 0.1], [0.8, 0.3]])
        expected = segment_length(chart, a, b)

        def banned(*args, **kwargs):
            raise AssertionError("segment_length formed the metric matrices")

        monkeypatch.setattr(MetricChart, "metric", banned)
        monkeypatch.setattr(np, "einsum", banned)
        assert segment_length(chart, a, b).tobytes() == expected.tobytes()


def scipy_graph_distances(chart, node):
    """Reference: scipy's Dijkstra on the grid graph assembled as a COO
    matrix, one entry per (point, neighbor offset) edge, made undirected by
    ``directed=False``."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra
    box = chart.box
    pts = box.points()
    idx = np.arange(box.num_points).reshape(box.shape)
    rows, cols, weights = [], [], []
    for off in _neighbor_offsets(box.dimension):
        a, b = offset_slices(off, box.shape)
        src, dst = idx[a].reshape(-1), idx[b].reshape(-1)
        rows.append(src)
        cols.append(dst)
        weights.append(segment_length(chart, pts[src], pts[dst], n_quad=2))
    matrix = coo_matrix((np.concatenate(weights),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(box.num_points,) * 2).tocsr()
    return dijkstra(matrix, directed=False, indices=node)


class TestGridGraph:
    """The relaxation returns scipy's Dijkstra distances bit for bit."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_matches_scipy_dijkstra_on_fixture_charts(self, name):
        scenario = load_scenario(fixture_path(name))
        rng = np.random.default_rng(20859)
        for mdef in scenario.manifolds.values():
            chart = mdef.build_chart()
            graph = GridGraph(chart)
            n = chart.box.num_points
            for node in rng.choice(n, size=min(5, n), replace=False):
                assert np.array_equal(graph.dijkstra_from(int(node)),
                                      scipy_graph_distances(chart, int(node)))

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["flat", "scaled", "sphere", "hyperbolic"]),
           resolution=st.tuples(st.integers(3, 40), st.integers(3, 40)),
           data=st.data())
    def test_matches_scipy_dijkstra_on_builder_charts(self, kind, resolution,
                                                      data):
        chart = {
            "flat": lambda: flat_chart([0.0, 0.0], [1.0, 0.7], resolution),
            "scaled": lambda: flat_chart([0.0, 0.0], [1.0, 0.7], resolution,
                                         scale=2.5),
            "sphere": lambda: sphere_chart((0.7, 2.4), (0.0, 1.4), resolution),
            "hyperbolic": lambda: hyperbolic_chart(resolution=resolution),
        }[kind]()
        node = data.draw(st.integers(0, chart.box.num_points - 1))
        assert np.array_equal(GridGraph(chart).dijkstra_from(node),
                              scipy_graph_distances(chart, node))

    @settings(max_examples=30, deadline=None)
    @given(m=st.sampled_from([1, 3]), tilted=st.booleans(), data=st.data())
    def test_matches_scipy_dijkstra_in_one_and_three_dimensions(
            self, m, tilted, data):
        # the plane sweeps run along every axis; a 1-D plane is one point
        resolution = data.draw(st.lists(st.integers(3, 12 if m == 3 else 60),
                                        min_size=m, max_size=m))
        if tilted and m == 3:
            chart = tilted_chart_3d()
        else:
            chart = flat_chart([0.0] * m, [1.0] * m, resolution,
                               scale=2.5 if tilted else 1.0)
        graph = GridGraph(chart)
        for _ in range(2):      # the distance buffer is reused across calls
            node = data.draw(st.integers(0, chart.box.num_points - 1))
            assert np.array_equal(graph.dijkstra_from(node),
                                  scipy_graph_distances(chart, node))

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_flat
from czmap.errors import UnsupportedExponent
from czmap.expressions import Expression
from builders import flat_chart, sphere_immersion
from czmap.geometry import CoordinateBox
from czmap.norms import (_PAIR_CHUNK, NormRequest, PairTable,
                         dist_to_basepoint_field, holder_seminorm, lp_norm,
                         lp_norm_on, quadrature_weights, sample_pairs)


def unit_square(res=41):
    return make_flat(0.0, 1.0, res)


def drawn_pairs(n, count, seed, chunk=_PAIR_CHUNK):
    """The blocks of ``sample_pairs`` joined into one ``(i, j)``."""
    i, j = zip(*sample_pairs(n, count, seed, chunk))
    return np.concatenate(i), np.concatenate(j)


class TestLpNorm:
    def test_constant_on_unit_square(self):
        chart = unit_square()
        value = lp_norm_on(chart.box, 2.0, np.ones(chart.box.shape),
                           chart.grid_sqrt_det())
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_constant_with_scaled_metric(self):
        chart = flat_chart(0.0, 1.0, 41, dim=2, scale=4.0)
        value = lp_norm_on(chart.box, 2.0, np.ones(chart.box.shape),
                           chart.grid_sqrt_det())
        assert value == pytest.approx(2.0, abs=1e-12)  # vol = 4

    def test_linear_field_in_one_dimension(self):
        # exact integral of x^2 over [0, 1] is 1/3
        box = CoordinateBox([0.0], [1.0], [101])
        x = box.points()[:, 0]
        value = lp_norm_on(box, 2.0, x, np.ones(box.shape))
        assert value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-4)

    def test_rejects_p_at_most_one(self):
        box = CoordinateBox([0.0], [1.0], [5])
        with pytest.raises(UnsupportedExponent):
            lp_norm_on(box, 1.0, np.ones(5), np.ones(5))
        req = NormRequest(p=0.5, region=np.ones(5, dtype=bool),
                          field=np.ones(5), volume_weight=np.ones(5))
        with pytest.raises(UnsupportedExponent):
            lp_norm(req, box)

    def test_region_monotone(self):
        chart = unit_square(21)
        rng = np.random.default_rng(3)
        field = rng.random(chart.box.shape) + 0.2
        vol = chart.grid_sqrt_det()
        for _ in range(12):
            small = rng.random(chart.box.shape) < 0.4
            small[0, 0] = True
            large = small | (rng.random(chart.box.shape) < 0.4)
            ns = lp_norm_on(chart.box, 2.5, field, vol, small)
            nl = lp_norm_on(chart.box, 2.5, field, vol, large)
            assert nl >= ns - 1e-15

    def test_quadrature_convergence_rate(self):
        # masked-ball integrand: first order or better per step halving
        errors = []
        for res in (33, 65):
            chart = make_flat(-1.0, 1.0, res)
            pts = chart.box.points()
            mask = (np.linalg.norm(pts, axis=1) <= 0.8).reshape(chart.box.shape)
            f = np.cos(pts[:, 0] * 2.0) * (1.3 + pts[:, 1])
            val = lp_norm_on(chart.box, 2.0, f.reshape(chart.box.shape),
                             chart.grid_sqrt_det(), mask)
            errors.append(val)
        fine = errors[-1]
        chart = make_flat(-1.0, 1.0, 257)
        pts = chart.box.points()
        mask = (np.linalg.norm(pts, axis=1) <= 0.8).reshape(chart.box.shape)
        f = np.cos(pts[:, 0] * 2.0) * (1.3 + pts[:, 1])
        reference = lp_norm_on(chart.box, 2.0, f.reshape(chart.box.shape),
                               chart.grid_sqrt_det(), mask)
        e_coarse = abs(errors[0] - reference)
        e_fine = abs(errors[1] - reference)
        assert e_coarse / e_fine >= 1.8

    def test_scaling_law_for_fixed_scalar(self):
        # g -> 4 g with m = 2, p = 2 doubles the norm, exactly as computed
        flat = unit_square()
        scaled = flat_chart(0.0, 1.0, 41, dim=2, scale=4.0)
        field = np.sin(flat.box.points()[:, 0]).reshape(flat.box.shape) + 2.0
        n1 = lp_norm_on(flat.box, 2.0, field, flat.grid_sqrt_det())
        n2 = lp_norm_on(scaled.box, 2.0, field, scaled.grid_sqrt_det())
        assert n2 == pytest.approx(2.0 * n1, abs=1e-10)

    def test_weights_match_cell_fraction_rule(self):
        # vertex weights equal cell volume times incident-cell fraction
        box = CoordinateBox([0.0, 0.0], [1.0, 2.0], [3, 5])
        w = quadrature_weights(box)
        cell = (0.5) * (0.5)
        assert w[0, 0] == pytest.approx(cell / 4)
        assert w[1, 0] == pytest.approx(cell / 2)
        assert w[1, 2] == pytest.approx(cell)
        assert w.sum() == pytest.approx(2.0)


class TestHolderSeminorm:
    def test_constant_field(self):
        pts = np.linspace(0, 1, 20)[:, None]
        assert holder_seminorm(pts, np.ones(20), 0.5) == 0.0

    def test_linear_field_alpha_one(self):
        pts = np.linspace(0, 1, 50)[:, None]
        assert holder_seminorm(pts, pts[:, 0], 1.0) == pytest.approx(1.0)

    def test_sqrt_attains_one_against_origin(self):
        pts = np.linspace(0.0, 1.0, 101)[:, None]
        value = holder_seminorm(pts, np.sqrt(pts[:, 0]), 0.5)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_never_exceeds_closed_form(self):
        pts = np.linspace(0.0, 1.0, 257)[:, None]
        assert holder_seminorm(pts, np.sqrt(pts[:, 0]), 0.5) <= 1.0 + 1e-12

    def test_monotone_under_refinement(self):
        coarse = np.linspace(0.0, 1.0, 33)[:, None]
        fine = np.linspace(0.0, 1.0, 65)[:, None]
        f = lambda x: np.sin(3 * x) + x ** 2
        sc = holder_seminorm(coarse, f(coarse[:, 0]), 0.5)
        sf = holder_seminorm(fine, f(fine[:, 0]), 0.5)
        assert sf >= sc - 1e-15

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 420), dim=st.integers(1, 3),
           alpha=st.floats(0.0, 1.0, exclude_min=True),
           capped=st.booleans(), cap=st.integers(10, 80_000),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_pair_table_matches_direct_formula(self, n, dim, alpha, capped,
                                               cap, seed):
        # bit-identical to the one-shot formula on the same pairs, on the
        # all-pairs path and on the capped, seeded path; each field of a
        # batch, a constant one and one holding a nan among them, equals
        # its one-field value
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-2.0, 2.0, size=(n, dim))
        vals = rng.normal(size=n)
        pair_cap = cap if capped else 10 ** 6
        if n * (n - 1) // 2 <= pair_cap:
            i, j = np.triu_indices(n, k=1)
        else:
            i, j = drawn_pairs(n, pair_cap, seed)
        den = np.linalg.norm(pts[i] - pts[j], axis=1) ** alpha
        table = PairTable(pts, alpha, pair_cap, seed)
        expected = np.max(np.abs(vals[i] - vals[j]) / den)
        assert table.seminorm(vals) == expected
        assert holder_seminorm(pts, vals, alpha, pair_cap, seed) == expected
        holed = rng.normal(size=n)
        holed[i[0]] = np.nan                  # a point of a compared pair
        fields = np.stack([vals, np.full(n, 0.75), holed])
        batch = table.seminorms(fields)
        # equal bits, nan matching nan
        np.testing.assert_array_equal(
            batch, [table.seminorm(field) for field in fields])
        assert batch[0] == expected and batch[1] == 0.0
        assert np.isnan(batch[2])

    def test_all_pairs_seminorm_stores_no_pair_table(self):
        # 1400 points, 979300 pairs: just under the cap, so every pair is
        # compared; the stored int32 indices and float64 denominators
        # would take about 15 MiB
        g = np.linspace(0.0, 1.0, 40)
        pts = np.stack(np.meshgrid(g[:35], g), axis=-1).reshape(-1, 2)
        vals = np.sin(3.0 * pts[:, 0]) * pts[:, 1]
        assert pts.shape[0] * (pts.shape[0] - 1) // 2 <= 10 ** 6
        tracemalloc.start()
        try:
            holder_seminorm(pts, vals, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_capped_seminorm_streams_its_draw(self):
        # 2500 points, 3123750 pairs: over the cap, so 10^6 pairs are
        # drawn; two int64 index arrays of the whole draw would take
        # 15 MiB before the filter copies them
        g = np.linspace(0.0, 1.0, 50)
        pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        vals = np.sin(3.0 * pts[:, 0]) * pts[:, 1]
        assert pts.shape[0] * (pts.shape[0] - 1) // 2 > 10 ** 6
        tracemalloc.start()
        try:
            holder_seminorm(pts, vals, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20


class TestSamplePairs:
    @pytest.mark.parametrize("n", [2, 3, 2500, 2 ** 31 - 1])
    def test_draw_does_not_depend_on_the_blocks(self, n):
        count = 3 * _PAIR_CHUNK + 11
        i, j = drawn_pairs(n, count, 20859)
        for chunk in (7, 1000):
            ci, cj = drawn_pairs(n, count, 20859, chunk)
            np.testing.assert_array_equal(ci, i)
            np.testing.assert_array_equal(cj, j)
        assert i.min() >= 0 and j.min() >= 0
        assert i.max() < n and j.max() < n
        assert not np.any(i == j)

    def test_same_seed_same_pairs(self):
        count = 2 * _PAIR_CHUNK + 1
        sizes = [i.size for i, _ in sample_pairs(50, count, 7)]
        assert len(sizes) == 3 and max(sizes) <= _PAIR_CHUNK
        np.testing.assert_array_equal(drawn_pairs(50, count, 7),
                                      drawn_pairs(50, count, 7))
        assert not np.array_equal(drawn_pairs(50, count, 8)[0],
                                  drawn_pairs(50, count, 7)[0])


class TestDistanceField:
    def test_constant_map_gives_zero(self):
        from builders import flat_chart as fc
        from czmap.maps import MapModel
        v = ("x1", "x2")
        source = fc(-1.0, 1.0, 21, dim=2)
        target = fc(-2.0, 2.0, 9, dim=2)
        const = MapModel(source, target,
                         [Expression("0.5", v), Expression("-0.25", v)])
        field = dist_to_basepoint_field(const, [0.5, -0.25])
        assert np.abs(field).max() < 1e-12

    def test_identity_map_gives_euclidean_norm(self):
        from builders import flat_chart as fc
        from czmap.maps import MapModel
        v = ("x1", "x2")
        source = fc(-1.0, 1.0, 21, dim=2)
        target = fc(-2.0, 2.0, 9, dim=2)
        ident = MapModel(source, target,
                         [Expression("x1", v), Expression("x2", v)])
        field = dist_to_basepoint_field(ident, [0.0, 0.0])
        expected = np.linalg.norm(source.box.points(), axis=1)
        assert np.allclose(field.reshape(-1), expected, atol=1e-12)

    def test_sphere_immersion_antipodal_chord(self):
        psi = sphere_immersion((0.04, math.pi - 0.04), (0.0, 2 * math.pi), 49)
        field = dist_to_basepoint_field(psi, [0.0, 0.0, 1.0])  # north pole
        # at the chart's southernmost points the chord approaches 2
        assert field.max() == pytest.approx(2.0, abs=1e-3)

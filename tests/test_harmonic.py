import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_flat, make_hyperbolic, make_sphere
from czmap.errors import PreconditionFailed, SolverDiverged
from builders import derivative_decay_experiment
from czmap.harmonic import (HarmonicChartCandidate, _block_solve,
                            check_hr_conditions, declared_certificate,
                            estimate_harmonic_radius, solve_harmonic_chart)


@pytest.fixture(scope="module")
def flat_candidate():
    chart = make_flat(-2.0, 2.0, 41)
    return solve_harmonic_chart(chart, [0.1, -0.2], 1.0)


@pytest.fixture(scope="module")
def sphere_candidate():
    chart = make_sphere(res=33, theta=(0.9, math.pi - 0.9), phi=(-0.9, 0.9))
    return solve_harmonic_chart(chart, [math.pi / 2, 0.0], 0.35)


class TestSolve:
    def test_flat_coordinates_are_affine(self, flat_candidate):
        cand = flat_candidate
        assert cand.laplace_residual <= 1e-8
        mask = cand.jet_mask
        assert np.abs(cand.pushed_inverse[mask] - np.eye(2)).max() <= 1e-8

    def test_flat_is_centered(self, flat_candidate):
        from scipy.interpolate import RegularGridInterpolator
        cand = flat_candidate
        for a in range(2):
            interp = RegularGridInterpolator(cand.chart.box.axes,
                                             cand.fields[a])
            assert abs(float(interp([0.1, -0.2])[0])) < 1e-12

    def test_constant_metric_rescales_to_identity(self):
        # linear change z = sqrt(3) x is harmonic and pushes 3*delta to delta
        chart = make_flat(-2.0, 2.0, 33, scale=3.0)
        cand = solve_harmonic_chart(chart, [0.0, 0.0], 1.0)
        assert np.abs(cand.pushed_inverse[cand.jet_mask] - np.eye(2)).max() < 1e-10

    def test_curved_residual_small(self, sphere_candidate):
        assert sphere_candidate.laplace_residual <= 1e-6
        assert sphere_candidate.boundary_fallbacks == 0

    def test_curved_jacobian_near_isometric(self, sphere_candidate):
        ratio = sphere_candidate.jacobian_ratio
        vals = ratio[np.isfinite(ratio)]
        assert vals.min() >= 0.9 and vals.max() <= 1.1

    def test_truncated_ball_rejected(self):
        chart = make_flat(-1.0, 1.0, 21)
        with pytest.raises(PreconditionFailed):
            solve_harmonic_chart(chart, [0.8, 0.0], 0.6)


class TestIterativeSolve:
    """The lgmres route, taken above DIRECT_SOLVE_LIMIT interior points
    (no fixture reaches it), forced on a ball of 387 interior points."""

    X, R = [1.5708, 0.6], 0.3

    @pytest.fixture(scope="class")
    def chart(self):
        return make_sphere(res=33, theta=(1.0, 2.14), phi=(0.0, 1.2))

    def test_matches_the_direct_solve(self, chart, monkeypatch):
        import czmap.harmonic as harmonic
        direct = solve_harmonic_chart(chart, self.X, self.R)
        monkeypatch.setattr(harmonic, "DIRECT_SOLVE_LIMIT", 0)
        iterative = solve_harmonic_chart(chart, self.X, self.R)
        assert int(iterative.interior_mask.sum()) == 387
        solved = np.isfinite(direct.fields)
        assert np.array_equal(solved, np.isfinite(iterative.fields))
        gap = np.abs(direct.fields[solved] - iterative.fields[solved]).max()
        assert gap <= 1e-6
        assert (check_hr_conditions(iterative).holds
                == check_hr_conditions(direct).holds)

    def test_stalled_iteration_raises(self, chart, monkeypatch):
        import czmap.harmonic as harmonic
        from czmap.errors import SolverDiverged
        monkeypatch.setattr(harmonic, "DIRECT_SOLVE_LIMIT", 0)
        monkeypatch.setattr(harmonic, "ITERATIVE_MAXITER", 1)
        with pytest.raises(SolverDiverged):
            solve_harmonic_chart(chart, self.X, self.R)


def _splu_solve(cols, coef, first, rhs):
    """SuperLU on the interior part of the same stencil rows."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import splu
    rows = first.size
    inner = cols < rows
    r = np.broadcast_to(np.arange(rows)[:, None], cols.shape)
    A = coo_matrix((coef[inner], (r[inner], cols[inner])),
                   shape=(rows, rows)).tocsc()
    lu = splu(A)
    return np.column_stack([lu.solve(rhs[:, k]) for k in range(rhs.shape[1])])


def _sheared_chart():
    from czmap.scenario import fixture_path, load_scenario
    scenario = load_scenario(fixture_path("sheared-continuous"))
    return scenario.manifolds["sheared"].build_chart()


BLOCK_CASES = {
    # off-diagonal metric: the cross terms e_i +- e_j of the stencil
    "sheared": (_sheared_chart, [0.0, 0.0], 0.12),
    "half-plane": (lambda: make_hyperbolic(res=33), [0.0, 1.3], 0.3),
    "flat-3d": (lambda: make_flat(-1.0, 1.0, 25, dim=3), [0.0] * 3, 0.45),
}


class TestBlockSolve:
    """The block LU route against SuperLU on the same stencil."""

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_matches_superlu(self, case, monkeypatch):
        import czmap.harmonic as harmonic
        build, x, r = BLOCK_CASES[case]
        chart = build()
        block = solve_harmonic_chart(chart, x, r)
        monkeypatch.setattr(harmonic, "_block_solve", _splu_solve)
        reference = solve_harmonic_chart(chart, x, r)
        solved = np.isfinite(reference.fields)
        assert np.array_equal(solved, np.isfinite(block.fields))
        scale = np.abs(reference.fields[solved]).max()
        gap = np.abs(block.fields[solved] - reference.fields[solved]).max()
        assert gap <= 1e-10 * scale
        assert block.laplace_residual <= 1e-10
        assert (check_hr_conditions(block).verdict
                == check_hr_conditions(reference).verdict)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_any_block_tridiagonal_system(self, seed):
        # blocks of any size, first-axis gaps (blocks that do not touch)
        # and columns on the boundary, against a dense solve
        rng = np.random.default_rng(seed)
        first = np.sort(rng.choice(8, size=rng.integers(1, 16)))
        rows = first.size
        near = np.abs(first[:, None] - first[None, :]) <= 1
        A = np.where(near & (rng.random((rows, rows)) < 0.6),
                     rng.uniform(-1, 1, (rows, rows)), 0.0)
        A += np.diag(1.0 + np.abs(A).sum(axis=1))
        width = int((A != 0).sum(axis=1).max()) + 1
        col = np.full((rows, width), rows + 1)     # a boundary column
        coef = rng.uniform(-1, 1, (rows, width))
        for i in range(rows):
            nz = np.flatnonzero(A[i])
            col[i, :nz.size] = nz
            coef[i, :nz.size] = A[i, nz]
        rhs = rng.standard_normal((rows, 2))
        sol = _block_solve(col, coef, first, rhs)
        assert np.allclose(sol, np.linalg.solve(A, rhs), rtol=0, atol=1e-12)

    def test_singular_block_raises(self):
        col = np.array([[0, 1], [1, 0]])
        with pytest.raises(SolverDiverged, match="block 0 .* is singular"):
            _block_solve(col, np.zeros((2, 2)), np.array([0, 0]),
                         np.ones((2, 1)))


class TestConditions:
    def test_flat_margins(self, flat_candidate):
        cert = check_hr_conditions(flat_candidate, alpha=0.5)
        assert cert.hr1_margin == pytest.approx(0.5, abs=1e-10)
        assert cert.hr2_value <= 1e-6
        assert cert.verdict == "holds"

    def test_inflated_inverse_fails_sandwich(self, flat_candidate):
        # pushed inverse metric constant 3*delta violates the upper bound
        cand = flat_candidate
        fake = HarmonicChartCandidate(
            chart=cand.chart, center=cand.center, radius=cand.radius,
            ball=cand.ball, fields=cand.fields,
            interior_mask=cand.interior_mask, jet_mask=cand.jet_mask,
            deriv_mask=cand.deriv_mask, outer_jet_mask=cand.outer_jet_mask,
            laplace_residual=cand.laplace_residual, jacobian=cand.jacobian,
            jacobian_ratio=cand.jacobian_ratio,
            pushed_inverse=3.0 * cand.pushed_inverse)
        cert = check_hr_conditions(fake)
        assert cert.verdict == "fails"
        assert cert.hr1_margin == pytest.approx(-1.0, abs=1e-9)

    def test_weighted_bound_stable_under_refinement(self):
        values = []
        for res in (33, 49):
            chart = make_sphere(res=res, theta=(0.9, math.pi - 0.9),
                                phi=(-0.9, 0.9))
            cand = solve_harmonic_chart(chart, [math.pi / 2, 0.0], 0.35)
            values.append(check_hr_conditions(cand).hr2_value)
        assert abs(values[1] - values[0]) <= 0.10 * values[0]

    def test_certificate_record_fields(self, sphere_candidate):
        rec = check_hr_conditions(sphere_candidate).as_record()
        for key in ("r", "residual", "hr1_margin", "hr2_value", "verdict"):
            assert key in rec


class TestRadiusEstimate:
    def test_flat_returns_lower_bound_sentinel(self):
        chart = make_flat(-13.0, 13.0, 41)
        est = estimate_harmonic_radius(chart, [0.0, 0.0], r_max=10.0)
        assert est.at_least
        assert est.value == 10.0
        assert str(est) == ">= 10"

    def test_rescaled_constant_metric_sentinel(self):
        chart = make_flat(-3.0, 3.0, 33, scale=3.0)
        est = estimate_harmonic_radius(chart, [0.0, 0.0], r_max=1.2)
        assert est.at_least

    def test_sphere_estimate_finite_positive(self):
        chart = make_sphere(res=33, theta=(0.9, math.pi - 0.9),
                            phi=(-0.65, 0.65))
        est = estimate_harmonic_radius(chart, [math.pi / 2, 0.0], r_max=0.6,
                                       bisection_steps=5)
        assert not est.at_least
        assert 0.0 < est.value <= 0.6

    def test_verdicts_monotone_over_tested_radii(self):
        chart = make_sphere(res=33, theta=(0.9, math.pi - 0.9),
                            phi=(-0.65, 0.65))
        est = estimate_harmonic_radius(chart, [math.pi / 2, 0.0], r_max=0.6,
                                       bisection_steps=5)
        held = [c.r for c in est.certificates if c.holds]
        failed = [c.r for c in est.certificates if not c.holds]
        if held and failed:
            assert max(held) < min(failed) + 1e-12

    def test_one_distance_field_per_base_point(self, monkeypatch):
        from czmap.geodesics import GridGraph
        sources = []
        original = GridGraph.dijkstra_from

        def counting(self, node):
            sources.append(node)
            return original(self, node)

        monkeypatch.setattr(GridGraph, "dijkstra_from", counting)
        chart = make_sphere(res=33, theta=(0.9, math.pi - 0.9),
                            phi=(-0.65, 0.65))
        solves = []
        for x in ([math.pi / 2, 0.0], [math.pi / 2, 0.1]):
            est = estimate_harmonic_radius(chart, x, r_max=0.6,
                                           bisection_steps=2)
            solves.append(len(est.certificates))
        assert solves == [3, 3]         # r_max and two bisection radii
        assert len(sources) == 2

    def test_estimate_scales_with_the_metric(self):
        # on the rho-sphere the bisection stops at the same r/rho for every
        # rho: its gap is the grid step in metric units at the base point
        runs = []
        for rho in (0.5, 1.0, 2.0, 4.0):
            chart = make_sphere(res=49, rho=rho)
            est = estimate_harmonic_radius(chart, [math.pi / 2, 0.7],
                                           r_max=2.0 * rho)
            verdicts = [c.verdict for c in est.certificates]
            runs.append((est.value / rho, verdicts))
        assert runs[0][0] == 0.4375
        assert all(run == runs[0] for run in runs)
        assert len(runs[0][1]) == 8

    def test_alpha_dependence_of_seminorm(self):
        # the unweighted seminorm grows with alpha whenever sampled pair
        # distances stay below one; the radius-weighted certificate value
        # need not be monotone (the r^{1+alpha} weight can win on small
        # balls), so only the guaranteed ordering is asserted
        from czmap.harmonic import _pushed_derivatives
        from czmap.norms import holder_seminorm
        chart = make_sphere(res=33, theta=(0.9, math.pi - 0.9),
                            phi=(-0.9, 0.9))
        cand = solve_harmonic_chart(chart, [math.pi / 2, 0.0], 0.35)
        dz, dmask = _pushed_derivatives(cand)
        zpts = cand.image_points(dmask)
        pair_diam = np.linalg.norm(zpts[:, None, :] - zpts[None, :, :],
                                   axis=-1).max()
        assert pair_diam < 1.0
        samples = dz[..., 1, 1, 0][dmask]
        low = holder_seminorm(zpts, samples, 0.3)
        high = holder_seminorm(zpts, samples, 0.7)
        assert high >= low - 1e-12


class TestDerivativeDecay:
    def test_flat_products_vanish(self):
        chart = make_flat(-2.0, 2.0, 33)
        rows = derivative_decay_experiment(chart, [0.0, 0.0], [0.4, 0.8])
        for row in rows:
            assert row["product"] <= 1e-10
            assert row["verdict"] == "holds"

    def test_sphere_products_below_one_where_held(self):
        chart = make_sphere(res=33, theta=(0.9, math.pi - 0.9),
                            phi=(-0.9, 0.9))
        rows = derivative_decay_experiment(chart, [math.pi / 2, 0.0],
                                           [0.15, 0.25, 0.35])
        for row in rows:
            if row["verdict"] == "holds":
                assert row["product"] <= 1.0


def test_declared_certificate_is_trusted():
    cert = declared_certificate(0.5)
    assert cert.holds and cert.source == "declared"

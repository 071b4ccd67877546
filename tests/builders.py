"""Programmatic chart and map builders for the test suite.

Everything here is expression backed, so analytic derivative oracles come
for free; pass ``mode="fd"`` for the finite-difference variants used in
convergence studies.  The jet references at the end recompute parts of a
map's generalized Hessian by a second route from the map's own
primitives, so tests can check ``maps.generalized_hessian`` against them;
``reference_jet`` keeps the jet's full einsum route, Christoffel terms on
every chart.  The acceleration reference keeps the per-oracle route that
the compiled chart kernel must match bit for bit, the shot reference the
two-array RK4 shot that ``geodesics.shoot`` must match, and
``geodesic_distance`` refines a graph distance by one shooting pass.  The
derivative-decay experiment samples the harmonic solver at a ladder of
radii.  ``count_calls`` counts the calls of a czmap function, and
``verified_cover`` reads the cover a global verification used, and
``ring_table`` spreads a cover's ring codes into a dense table.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from czmap.engine import build_cover, compute_r_hat
from czmap.expressions import Expression
from czmap.geodesics import (SHOOTING_STEPS, distance_field, log_map,
                             segment_length)
from czmap.geometry import CoordinateBox, MetricChart, _evaluator, _is_zero
from czmap.harmonic import (_pushed_derivatives, check_hr_conditions,
                            solve_harmonic_chart)
from czmap.maps import JetField, MapModel, component_derivatives


def flat_chart(lower, upper, resolution, dim: int | None = None,
               names=None, mode: str = "analytic", scale: float = 1.0,
               name: str = "flat") -> MetricChart:
    """Euclidean chart, optionally with the constant conformal factor
    ``scale`` (metric = scale * identity)."""
    if np.isscalar(lower):
        dim = dim or 2
        lower = [lower] * dim
        upper = [upper] * dim
        resolution = [resolution] * dim
    dim = len(lower)
    names = names or tuple(f"x{i + 1}" for i in range(dim))
    entry = f"{scale:.17g}" if scale != 1.0 else "1"
    comps = [[Expression(entry if i == j else "0", names) for j in range(dim)]
             for i in range(dim)]
    box = CoordinateBox(lower, upper, resolution)
    return MetricChart(box, comps, derivative_mode=mode, name=name)


def sphere_chart(theta_range=(0.7, math.pi - 0.7), phi_range=(0.0, 1.4),
                 resolution=33, rho: float = 1.0, mode: str = "analytic",
                 name: str = "sphere") -> MetricChart:
    """Round sphere of radius rho in angle coordinates (th, ph)."""
    v = ("th", "ph")
    r2 = f"{rho * rho:.17g}"
    comps = [[Expression(r2, v), Expression("0", v)],
             [Expression("0", v), Expression(f"{r2}*sin(th)^2", v)]]
    res = [resolution, resolution] if np.isscalar(resolution) else resolution
    box = CoordinateBox([theta_range[0], phi_range[0]],
                        [theta_range[1], phi_range[1]], res)
    return MetricChart(box, comps, derivative_mode=mode, name=name)


def hyperbolic_chart(x_range=(-0.8, 0.8), y_range=(0.7, 2.3), resolution=33,
                     mode: str = "analytic",
                     name: str = "half-plane") -> MetricChart:
    """Hyperbolic upper half-plane patch, metric delta / y^2."""
    v = ("x", "y")
    comps = [[Expression("1/(y*y)", v), Expression("0", v)],
             [Expression("0", v), Expression("1/(y*y)", v)]]
    res = [resolution, resolution] if np.isscalar(resolution) else resolution
    box = CoordinateBox([x_range[0], y_range[0]], [x_range[1], y_range[1]], res)
    return MetricChart(box, comps, derivative_mode=mode, name=name)


def tilted_chart_3d() -> MetricChart:
    """A 3-D chart whose metric varies and couples every axis pair."""
    v = ("x", "y", "z")
    comps = [[Expression("1 + x^2", v), Expression("0.3*sin(y)", v),
              Expression("0", v)],
             [None, Expression("2 + cos(x*z)", v), Expression("0.2*x*y", v)],
             [None, None, Expression("1 + y^2 + 0.5*z", v)]]
    return MetricChart(CoordinateBox([-0.5] * 3, [0.5] * 3, [5] * 3), comps,
                       name="tilted-3d")


def constant_tilted_chart() -> MetricChart:
    """A constant metric with an off-diagonal entry."""
    v = ("x1", "x2")
    comps = [[Expression("2", v), Expression("0.5", v)],
             [None, Expression("1", v)]]
    return MetricChart(CoordinateBox([-1, -1], [1, 1], [5, 5]), comps,
                       name="constant-tilted")


def euclidean_target(extent: float = 1.2, dim: int = 3,
                     resolution: int = 5) -> MetricChart:
    return flat_chart(-extent, extent, resolution, dim=dim,
                      names=tuple(f"y{i + 1}" for i in range(dim)),
                      name=f"R{dim}")


def sphere_immersion(theta_range=(0.7, math.pi - 0.7), phi_range=(0.0, 1.4),
                     resolution=33, rho: float = 1.0, mode: str = "analytic",
                     target: MetricChart | None = None) -> MapModel:
    """Round-sphere immersion (th, ph) -> rho * (unit vector) in R^3."""
    source = sphere_chart(theta_range, phi_range, resolution, rho, mode)
    target = target or euclidean_target(extent=1.2 * rho)
    v = ("th", "ph")
    r = f"{rho:.17g}"
    comps = [Expression(f"{r}*sin(th)*cos(ph)", v),
             Expression(f"{r}*sin(th)*sin(ph)", v),
             Expression(f"{r}*cos(th)", v)]
    return MapModel(source, target, comps, lipschitz_bound=1.0,
                    name=f"sphere-immersion-rho={rho:g}")


def cylinder_immersion(t_range=(0.0, 1.5), z_range=(0.0, 1.5),
                       resolution=33, mode: str = "analytic") -> MapModel:
    """Unit cylinder (t, z) -> (cos t, sin t, z); flat source metric."""
    source = flat_chart([t_range[0], z_range[0]], [t_range[1], z_range[1]],
                        [resolution, resolution], names=("t", "z"),
                        mode=mode, name="cylinder-chart")
    target = euclidean_target(extent=1.0 + max(abs(z_range[0]), abs(z_range[1])))
    v = ("t", "z")
    comps = [Expression("cos(t)", v), Expression("sin(t)", v),
             Expression("z", v)]
    return MapModel(source, target, comps, lipschitz_bound=1.0,
                    name="cylinder-immersion")


def graph_immersion(extent: float = 0.5, resolution: int = 33,
                    height: str = "0", lipschitz: float = 1.0,
                    mode: str = "analytic") -> MapModel:
    """Graph immersion (x1, x2) -> (x1, x2, height(x1, x2))."""
    v = ("x1", "x2")
    source = flat_chart(-extent, extent, resolution, dim=2, mode=mode,
                        name="graph-chart")
    target = euclidean_target(extent=1.5 * extent + 1.0)
    comps = [Expression("x1", v), Expression("x2", v), Expression(height, v)]
    return MapModel(source, target, comps, lipschitz_bound=lipschitz,
                    name="graph-immersion")


def identity_map(extent: float = 0.26, resolution: int = 29) -> MapModel:
    v = ("x1", "x2")
    source = flat_chart(-extent, extent, resolution, dim=2, name="flat-source")
    target = flat_chart(-2 * extent, 2 * extent, 5, dim=2, name="flat-target")
    return MapModel(source, target, [Expression("x1", v), Expression("x2", v)],
                    lipschitz_bound=1.0, name="flat-identity")


def hyperbolic_log_map(resolution: int = 33) -> MapModel:
    """(x, y) on the half-plane -> (x, log y) in flat R^2."""
    source = hyperbolic_chart((-0.2, 0.2), (1.3, 1.7), resolution,
                              name="half-plane")
    target = flat_chart([-0.25, 0.2], [0.25, 0.6], [5, 5],
                        names=("u1", "u2"), name="R2")
    v = ("x", "y")
    comps = [Expression("x", v), Expression("log(y)", v)]
    return MapModel(source, target, comps, lipschitz_bound=1.7,
                    name="hyperbolic-log")


def flat_to_sphere_map(resolution: int = 65, scale: float = 0.5) -> MapModel:
    """Flat square into a sphere chart; finite target radius regime."""
    source = flat_chart(-0.2, 0.2, resolution, dim=2, name="flat-square")
    target = sphere_chart((1.25, 1.9), (-0.35, 0.35), 49, name="sphere-target")
    v = ("x1", "x2")
    comps = [Expression(f"{math.pi / 2:.17g} + {scale:.17g}*x1", v),
             Expression(f"{scale:.17g}*x2", v)]
    return MapModel(source, target, comps, lipschitz_bound=scale,
                    name="flat-to-sphere")


# ---------------------------------------------------------------------------
# jet references
# ---------------------------------------------------------------------------

def hessian_parts(map_model: MapModel) -> tuple:
    """The two parts of the generalized Hessian: the source-covariant
    d_i d_j u^a - sGamma^l_ij d_l u^a and the nonlinear term
    tGamma^a_bc(u) d_i u^b d_j u^c."""
    values, du, ddu = component_derivatives(map_model)
    sgam = map_model.source_chart.grid_christoffel()
    tgam = map_model.target_chart.christoffel_at(values)
    return (ddu - np.einsum("...lij,...al->...aij", sgam, du),
            np.einsum("...abc,...bi,...cj->...aij", tgam, du, du))


def reference_jet(map_model: MapModel) -> JetField:
    """The jet by the einsum route on every chart: the sum of the two
    ``hessian_parts``, then the trace and the norms by the contractions
    of ``maps.generalized_hessian``."""
    scalar_hess, nonlinear = hessian_parts(map_model)
    hess = scalar_hess + nonlinear
    values, du, _ = component_derivatives(map_model)
    h = map_model.target_chart.metric(values)
    ginv = map_model.source_chart.grid_inverse()
    laplacian = np.einsum("...ij,...aij->...a", ginv, hess)

    def norm(sq):
        return np.sqrt(np.maximum(sq, 0.0))
    return JetField(
        du=du, hess=hess, laplacian=laplacian, target_metric=h,
        norm_du=norm(np.einsum("...ij,...ab,...ai,...bj->...",
                               ginv, h, du, du)),
        norm_hess=norm(np.einsum("...aij,...blk,...ik,...jl,...ab->...",
                                 hess, hess, ginv, ginv, h)),
        norm_laplacian=norm(np.einsum("...ab,...a,...b->...",
                                      h, laplacian, laplacian)))


def split_laplacian(map_model: MapModel) -> np.ndarray:
    """Tension field ``(*grid, n)`` by the split route: the scalar
    Laplace-Beltrami operator of each component plus the trace of the
    nonlinear term."""
    values, du, ddu = component_derivatives(map_model)
    source = map_model.source_chart
    ginv = source.grid_inverse()
    sgam = source.grid_christoffel()
    tgam = map_model.target_chart.christoffel_at(values)
    scalar_lap = (np.einsum("...ij,...aij->...a", ginv, ddu)
                  - np.einsum("...ij,...lij,...al->...a", ginv, sgam, du))
    return scalar_lap + np.einsum("...abc,...ij,...bi,...cj->...a",
                                  tgam, ginv, du, du)


def hessian_chain_bound(map_model: MapModel, jet) -> float:
    """Smallest pointwise b with |Hess(u)| <= b * sum_a (|G^-1 H^a|_HS +
    |G^-1 T^a|_HS), H and T the two ``hessian_parts``."""
    ginv = map_model.source_chart.grid_inverse()
    gh, gt = (np.einsum("...ik,...akj->...aij", ginv, part)
              for part in hessian_parts(map_model))
    rhs = (np.sqrt(np.sum(gh ** 2, axis=(-2, -1)))
           + np.sqrt(np.sum(gt ** 2, axis=(-2, -1)))).sum(axis=-1)
    lhs = jet.norm_hess
    active = rhs > 1e-14 * max(1.0, float(lhs.max()))
    if not np.any(active):
        return 0.0
    return float(np.max(lhs[active] / rhs[active]))


# ---------------------------------------------------------------------------
# acceleration reference
# ---------------------------------------------------------------------------

def reference_acceleration(chart: MetricChart, points, v) -> np.ndarray:
    """The per-oracle geodesic acceleration: each distinct oracle called
    once through ``Expression.__call__``, then the w sums, the unpivoted
    elimination and the back substitution on its values.  The compiled
    chart kernel of ``MetricChart.geodesic_acceleration`` must return its
    bits and raise its errors."""
    points = np.asarray(points, dtype=float)
    v = np.asarray(v, dtype=float)
    m = chart.dimension
    at = _evaluator(points)
    vs = [v[..., i] for i in range(m)]
    g = [[0.0] * m for _ in range(m)]
    w = [0.0] * m
    for i, j, gij, partials in chart.oracles():
        g[i][j] = g[j][i] = at(gij)
        dgs = [(k, at(dg)) for k, dg in enumerate(partials)
               if not _is_zero(dg)]
        if not dgs:
            continue
        along = sum(vs[k] * dg for k, dg in dgs)
        w[j] = w[j] + vs[i] * along
        if i == j:
            quad = 0.5 * vs[i] * vs[i]
        else:
            w[i] = w[i] + vs[j] * along
            quad = vs[i] * vs[j]
        for k, dg in dgs:
            w[k] = w[k] - quad * dg
    rhs = [-wk for wk in w]
    for c in range(m):
        for r in range(c + 1, m):
            if _is_zero(g[r][c]):
                continue
            f = g[r][c] / g[c][c]
            for k in range(c + 1, m):
                g[r][k] = g[r][k] - f * g[c][k]
            rhs[r] = rhs[r] - f * rhs[c]
    acc = np.empty(points.shape if points.shape == v.shape
                   else np.broadcast_shapes(points.shape, v.shape))
    for r in reversed(range(m)):
        s = rhs[r]
        for k in range(r + 1, m):
            if not _is_zero(g[r][k]):
                s = s - g[r][k] * acc[..., k]
        acc[..., r] = s / g[r][r]
    return acc


# ---------------------------------------------------------------------------
# shot reference
# ---------------------------------------------------------------------------

def reference_shoot(chart: MetricChart, x, v0: np.ndarray):
    """The geodesic shot on separate position and velocity arrays, each
    right-hand side gathering the rows still in the box and scattering
    their accelerations back: ``geodesics.shoot`` must return its bits."""
    x = np.asarray(x, dtype=float)
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    batch = v0.shape[0]
    pos = np.broadcast_to(x, v0.shape).copy()
    vel = v0.copy()
    ok = np.ones(batch, dtype=bool)
    box = chart.box
    h = 1.0 / SHOOTING_STEPS

    def rhs(p, v, valid):
        acc = np.zeros_like(v)
        if valid.any():
            safe = np.clip(p[valid], box.lower, box.upper)
            acc[valid] = chart.geodesic_acceleration(safe, v[valid])
        return v, acc

    for _ in range(SHOOTING_STEPS):
        k1p, k1v = rhs(pos, vel, ok)
        k2p, k2v = rhs(pos + 0.5 * h * k1p, vel + 0.5 * h * k1v, ok)
        k3p, k3v = rhs(pos + 0.5 * h * k2p, vel + 0.5 * h * k2v, ok)
        k4p, k4v = rhs(pos + h * k3p, vel + h * k3v, ok)
        pos = pos + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        vel = vel + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        ok &= box.contains(pos, margin=-1e-9)
    return pos, ok


# ---------------------------------------------------------------------------
# pair distance
# ---------------------------------------------------------------------------

def geodesic_distance(chart: MetricChart, x, y) -> float:
    """Geodesic distance between two chart points.

    Graph estimate refined by one Newton shooting pass; the graph value is
    kept when shooting fails to converge (tolerance documented per run).
    Arguments are evaluated in canonical order, so the result is exactly
    symmetric.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if tuple(y.tolist()) < tuple(x.tolist()):
        x, y = y, x
    if np.array_equal(x, y):
        return 0.0
    field_x = distance_field(chart, x)
    box = chart.box
    node_y = box.ravel_index(box.nearest_index(y))
    hop = segment_length(chart, box.points()[node_y], y)
    graph_est = float(min(field_x[node_y] + hop, segment_length(chart, x, y)))
    v, converged = log_map(chart, x, y[None, :])
    if converged[0]:
        G = chart.metric(x)
        length = float(np.sqrt(v[0] @ G @ v[0]))
        # a refined minimizer can't exceed a path-length upper bound
        if length <= graph_est * 1.05 + 1e-12:
            return length
    return graph_est


# ---------------------------------------------------------------------------
# harmonic derivative decay
# ---------------------------------------------------------------------------

def derivative_decay_experiment(chart: MetricChart, x, radii) -> list:
    """(r, sup |d g~^{ab}| * r over the inner half-ball, verdict) rows.

    Whenever the certificate holds the reported product stays <= 1, the
    grid realization of the derivative-decay bound behind the flatness
    characterization of infinite-radius points.
    """
    rows = []
    for r in radii:
        cand = solve_harmonic_chart(chart, x, float(r))
        cert = check_hr_conditions(cand)
        dz, dmask = _pushed_derivatives(cand)
        half = dmask & (cand.ball.distances <= 0.5 * r)
        if half.sum() == 0:
            half = dmask
        sup = float(np.nanmax(np.abs(dz[half]))) if half.any() else np.nan
        rows.append({"r": float(r), "sup_dginv": sup, "product": sup * float(r),
                     "verdict": cert.verdict, "hr2_value": cert.hr2_value})
    return rows


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


def verified_cover(map_model, radii):
    """The cover that ``verify_global_estimate`` uses for ``map_model`` at
    ``radii`` with no uniform radius: the source chart's memo at that
    r_hat, so the one the verifier built if it has run."""
    source = map_model.source_chart
    r_hat = compute_r_hat(radii.r1M, radii.r1N, map_model.lipschitz_bound)
    return source.memo(("cover", r_hat), lambda: build_cover(source, r_hat))


def ring_table(cover) -> np.ndarray:
    """The cover's ring codes as a dense (C, N) table: row c holds the
    code of center c at every grid point, 0 where it stores none."""
    table = np.zeros((cover.size, cover.chart.box.num_points), dtype=int)
    for shift, ring in zip(cover.shifts, cover.rings):
        rows = np.flatnonzero(ring)
        table[rows, cover.center_indices[rows] + shift] = ring[rows]
    return table

"""Programmatic chart and map builders for the test suite.

Everything here is expression backed, so analytic derivative oracles come
for free; pass ``mode="fd"`` for the finite-difference variants used in
convergence studies.  The jet references at the end recompute parts of a
map's generalized Hessian by a second route from the map's own
primitives, so tests can check ``maps.generalized_hessian`` against them.
"""

from __future__ import annotations

import math

import numpy as np

from czmap.expressions import Expression
from czmap.geometry import CoordinateBox, MetricChart
from czmap.maps import (MapModel, component_derivatives,
                        target_christoffel_at)


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
    tgam = target_christoffel_at(map_model, values)
    return (ddu - np.einsum("...lij,...al->...aij", sgam, du),
            np.einsum("...abc,...bi,...cj->...aij", tgam, du, du))


def split_laplacian(map_model: MapModel) -> np.ndarray:
    """Tension field ``(*grid, n)`` by the split route: the scalar
    Laplace-Beltrami operator of each component plus the trace of the
    nonlinear term."""
    values, du, ddu = component_derivatives(map_model)
    source = map_model.source_chart
    ginv = source.grid_inverse()
    sgam = source.grid_christoffel()
    tgam = target_christoffel_at(map_model, values)
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

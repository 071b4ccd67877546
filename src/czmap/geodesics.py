"""Geodesic distances and metric balls on chart grids.

Two estimators cooperate:

* a graph estimate: shortest paths (Dijkstra's, bit for bit) over the grid
  with full ``3^m - 1`` neighbor stencils and Riemannian segment weights,
  improved by the minimum with the direct straight-segment length (both
  are path lengths, hence upper bounds; exact for constant metrics);
* a shooting refinement for point pairs: Newton iteration on the initial
  velocity of the geodesic ODE until the endpoint hits the target.  Each
  Newton step makes one batched RK4 shot of the base velocities and the m
  forward-difference probes of the endpoint's Jacobian; RK4 rows are
  independent, so the batch gives each row the bits of a separate shot.
  The RK4 right-hand side is (v, -Γ(v, v)) from
  :meth:`MetricChart.geodesic_acceleration`, which solves g a = -w on the
  metric oracles and never forms the Christoffel tensor.

Pair distances evaluate the arguments in a canonical order so symmetry
holds exactly as computed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import Unreachable
from .geometry import MetricChart, _at, _is_zero

SEGMENT_QUADRATURE = 8
SHOOTING_STEPS = 64           # RK4 steps per shot
SHOOTING_MAX_ITER = 50        # Newton steps per log_map
SHOOTING_TOL = 1e-10          # endpoint tolerance relative to the offset


def _metric_is_constant(chart: MetricChart) -> bool:
    """Exact test: every component is an expression without a variable.

    Any other component callable counts as non-constant.
    """
    return all(isinstance(g, float) for _, _, g, _ in chart.oracles())


def segment_length(chart: MetricChart, a, b, n_quad: int = SEGMENT_QUADRATURE):
    """Riemannian length of straight chart segments, batched.

    ``a``, ``b``: arrays of shape ``(..., m)``.  Composite midpoint rule
    with ``n_quad`` nodes; one node suffices (and is exact) for constant
    metrics, which evaluate nothing and build no midpoint.  The quadratic
    form d.g.d is read straight from the metric oracles:
    sum over i <= j of c_ij d_i d_j g_ij, c_ij = 1 on the diagonal and 2
    off it, float-0.0 entries skipped.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    constant = _metric_is_constant(chart)
    if constant:
        n_quad = 1
    terms = []                          # (c_ij d_i d_j, g_ij)
    for i, j, g, _ in chart.oracles():
        if not _is_zero(g):
            dd = d[..., i] * d[..., j]
            terms.append((dd if i == j else 2.0 * dd, g))
    total = np.zeros(d.shape[:-1])
    for k in range(n_quad):
        mid = None if constant else a + ((k + 0.5) / n_quad) * d
        quad = sum(dd * _at(g, mid) for dd, g in terms)
        total = total + np.sqrt(np.maximum(quad, 0.0))
    return total / n_quad


def offset_slices(offset, shape) -> tuple:
    """Slices ``(a, b)`` pairing each grid index j in ``arr[a]`` with
    j + offset in ``arr[b]``; needs ``|offset[k]| <= shape[k]``."""
    a = tuple(slice(max(0, -o), s - max(0, o)) for o, s in zip(offset, shape))
    b = tuple(slice(max(0, o), s - max(0, -o)) for o, s in zip(offset, shape))
    return a, b


def _neighbor_offsets(m: int):
    offs = [np.array(o) for o in itertools.product((-1, 0, 1), repeat=m)
            if any(v != 0 for v in o)]
    # keep one of each +/- pair; the graph relaxes each edge both ways
    return [o for o in offs if tuple(o) > tuple(-o)]


class GridGraph:
    """Undirected neighbor graph of a chart grid: per neighbor offset, the
    slices pairing grid points and their grid-shaped metric lengths."""

    def __init__(self, chart: MetricChart):
        box = chart.box
        self.shape = box.shape
        pts = box.points().reshape(box.shape + (box.dimension,))
        self.edges = [(a, b, segment_length(chart, pts[a], pts[b], n_quad=2))
                      for a, b in (offset_slices(off, box.shape)
                                   for off in _neighbor_offsets(box.dimension))]

    def dijkstra_from(self, node: int) -> np.ndarray:
        """Graph distances from ``node``, flat in grid C order.  Every edge
        relaxes both ways until a sweep changes nothing; each value is a
        path's left-to-right float sum and fl(a + w) is monotone in a, so
        this least fixed point is Dijkstra's result, bit for bit."""
        dist = np.full(self.shape, np.inf)
        dist.flat[node] = 0.0
        before = None
        while not np.array_equal(dist, before):
            before = dist.copy()
            for a, b, w in self.edges:
                np.minimum(dist[b], dist[a] + w, out=dist[b])
                np.minimum(dist[a], dist[b] + w, out=dist[a])
        return dist.reshape(-1)


def distance_field(chart: MetricChart, source) -> np.ndarray:
    """Upper-bound distance field from ``source`` to all grid points.

    min(straight segment, segment-to-nearest-node + graph distance).  Flat
    result shape ``(num_points,)`` in grid C order.
    """
    source = np.asarray(source, dtype=float)
    box = chart.box
    node = box.ravel_index(box.nearest_index(source))
    if "grid_graph" not in chart._cache:
        chart._cache["grid_graph"] = GridGraph(chart)
    dij = chart._cache["grid_graph"].dijkstra_from(node)
    if np.any(np.isinf(dij)):
        raise Unreachable(f"grid is disconnected from {source.tolist()}")
    hop = segment_length(chart, source, box.points()[node])
    direct = segment_length(chart, source[None, :], box.points())
    return np.minimum(direct, dij + hop)


@dataclass
class MetricBall:
    """Grid realization of a metric ball; mask is in grid shape."""

    chart: MetricChart
    center: np.ndarray
    radius: float
    mask: np.ndarray                    # bool, box.shape
    distances: np.ndarray               # float, box.shape
    truncated: bool = False
    warnings: list = field(default_factory=list)

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask.reshape(-1))


def metric_ball(chart: MetricChart, center, r: float,
                distances: np.ndarray | None = None) -> MetricBall:
    """Grid points within geodesic distance ``r`` of ``center``.

    Monotone in ``r`` by construction (one distance field, thresholded).
    A ball touching the box boundary is flagged ``truncated`` since the
    true manifold ball may extend past the chart.
    """
    if r <= 0:
        raise ValueError("ball radius must be positive")
    box = chart.box
    if distances is None:
        distances = distance_field(chart, center)
    dist = distances.reshape(box.shape)
    mask = dist <= r
    if not mask.any():
        mask = np.zeros(box.shape, dtype=bool)
        mask[box.nearest_index(center)] = True
    truncated = False
    for axis in range(box.dimension):
        lo = np.take(mask, 0, axis=axis)
        hi = np.take(mask, -1, axis=axis)
        if lo.any() or hi.any():
            truncated = True
    warn = []
    if truncated:
        warn.append(f"ball of radius {r:.4g} reaches the box boundary; "
                    "the grid ball is truncated")
    return MetricBall(chart=chart, center=np.asarray(center, dtype=float),
                      radius=float(r), mask=mask, distances=dist,
                      truncated=truncated, warnings=warn)


def shoot(chart: MetricChart, x, v0: np.ndarray):
    """Integrate the geodesic equation from ``x`` with initial velocities.

    ``v0`` has shape ``(batch, m)``; SHOOTING_STEPS RK4 steps on t in
    [0, 1] for x' = v, v' = -Γ^l_ij v^i v^j, the acceleration read straight
    from the metric oracles (:meth:`MetricChart.geodesic_acceleration`).  Rows
    still in the box are evaluated at their position clipped to it.
    Returns endpoints ``(batch, m)`` and a validity mask (False where the
    trajectory left the chart box, where the metric oracle is undefined).
    """
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


def log_map(chart: MetricChart, x, targets):
    """Initial velocities of geodesics from ``x`` reaching ``targets``.

    Newton iteration on the shooting endpoint, batched over targets.
    Returns ``(velocities, converged_mask)``.
    """
    x = np.asarray(x, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    m = x.size
    v = targets - x
    scale = max(1.0, float(np.abs(targets - x).max()))
    converged = np.zeros(targets.shape[0], dtype=bool)
    for _ in range(SHOOTING_MAX_ITER):
        active = ~converged
        if not active.any():
            break
        va = v[active]
        # one shot for the base velocities and the m forward-difference
        # probes va + eps e_k of the endpoint's Jacobian; rows are independent
        eps = 1e-6 * max(1.0, float(np.abs(va).max()))
        probes = eps * np.eye(m)
        ends, oks = shoot(chart, x, np.concatenate(
            [va] + [va + probes[k] for k in range(m)]))
        ends = ends.reshape(m + 1, *va.shape)
        oks = oks.reshape(m + 1, va.shape[0])
        end, ok = ends[0], oks[0]
        res = end - targets[active]
        hit = ok & (np.abs(res).max(axis=1) <= SHOOTING_TOL * scale)
        jac = np.empty((va.shape[0], m, m))
        for k in range(m):
            jac[:, :, k] = (ends[k + 1] - end) / eps
            ok &= oks[k + 1]
        try:
            delta = np.linalg.solve(jac, res[..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
        new_v = va - np.where(ok[:, None], delta, 0.0)
        v[active] = new_v
        full_hit = np.zeros_like(converged)
        full_hit[np.flatnonzero(active)[hit]] = True
        converged |= full_hit
        if not ok.any():
            break
    return v, converged


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

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
  metric oracles (on an analytic chart one compiled kernel that evaluates
  each distinct subtree of the oracle table once per call) and never
  forms the Christoffel tensor.

A shot keeps its state as one array y = (x, v) with slope (v, a), stored
one contiguous row per coordinate, shape ``(2m, batch)``: every RK4 stage
combination and update is one elementwise operation over both halves (the
same operation on each element as two separate arrays would take), and
the box clip and the slope assembly work on whole rows.  While every
trajectory of the batch is still in the box, the right-hand side hands
all of them (positions clipped to the box) to the acceleration at once;
once one has left, only those still in the box are gathered, and the
others get acceleration 0.  Both routes give each trajectory the same
bits, because its acceleration depends on its own position and velocity
alone.  On both routes the positions reach the acceleration as a
C-ordered ``(batch, m)`` array, so the oracles read their coordinate
columns with the same strides; the velocities enter only +, -, * and /,
which round the same way in any memory layout.

Pair distances evaluate the arguments in a canonical order so symmetry
holds exactly as computed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import Unreachable
from .geometry import MetricChart, _evaluator, _is_zero

SEGMENT_QUADRATURE = 8
SHOOTING_STEPS = 64           # RK4 steps per shot
SHOOTING_MAX_ITER = 50        # Newton steps per log_map
SHOOTING_TOL = 1e-10          # endpoint tolerance relative to the offset


def _metric_is_constant(chart: MetricChart) -> bool:
    """Exact test: every component is an expression without a variable,
    which :meth:`MetricChart.oracles` stores as its float."""
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
        at = _evaluator(None if constant else a + ((k + 0.5) / n_quad) * d)
        quad = sum(dd * at(g) for dd, g in terms)
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
    slices pairing grid points and their grid-shaped metric lengths.

    It also keeps one distance buffer and, per axis, the plane-by-plane
    views of it that a sweep along that axis relaxes: for each pair of
    neighboring grid planes, every edge between them as (views of the
    lower plane, the upper plane, the weights).
    """

    def __init__(self, chart: MetricChart):
        box = chart.box
        self.shape = box.shape
        pts = box.points().reshape(box.shape + (box.dimension,))
        offsets = _neighbor_offsets(box.dimension)
        self.edges = [(a, b, segment_length(chart, pts[a], pts[b], n_quad=2))
                      for a, b in (offset_slices(off, box.shape)
                                   for off in offsets)]
        self._dist = np.empty(self.shape)
        self._sweeps = []
        for k in range(box.dimension):
            across = []
            for off, (a, b, w) in zip(offsets, self.edges):
                if off[k] != 0:
                    lower, upper, w = (np.moveaxis(x, k, 0) for x in
                                       (self._dist[a], self._dist[b], w))
                    across.append((lower, upper, w) if off[k] > 0
                                  else (upper, lower, w))
            self._sweeps.append([[(lower[t, ...], upper[t, ...], w[t, ...])
                                  for lower, upper, w in across]
                                 for t in range(self.shape[k] - 1)])

    def dijkstra_from(self, node: int) -> np.ndarray:
        """Graph distances from ``node``, flat in grid C order.

        Edges are relaxed plane by plane, up and then down each axis, so
        one sweep carries a distance across the whole grid; then every
        edge relaxes both ways at once, and the rounds repeat until that
        changes nothing.  Each value is a path's left-to-right float sum
        and fl(a + w) is monotone in a, so the least fixed point reached
        is Dijkstra's result, bit for bit, in any relaxation order.
        """
        dist = self._dist
        dist.fill(np.inf)
        dist.flat[node] = 0.0
        while True:
            for planes in self._sweeps:
                for edges in planes:
                    for lower, upper, w in edges:
                        np.minimum(upper, lower + w, out=upper)
                for edges in reversed(planes):
                    for lower, upper, w in edges:
                        np.minimum(lower, upper + w, out=lower)
            before = dist.copy()
            for a, b, w in self.edges:
                np.minimum(dist[b], dist[a] + w, out=dist[b])
                np.minimum(dist[a], dist[b] + w, out=dist[a])
            if np.array_equal(dist, before):
                return before.reshape(-1)


def distance_field(chart: MetricChart, source) -> np.ndarray:
    """Upper-bound distance field from ``source`` to all grid points.

    min(straight segment, segment-to-nearest-node + graph distance).  Flat
    result shape ``(num_points,)`` in grid C order, read-only: the chart
    keeps one field per source (keyed by its bytes, so -0.0 and 0.0
    differ) and returns it on every later call.
    """
    source = np.asarray(source, dtype=float)

    def build():
        box = chart.box
        node = box.ravel_index(box.nearest_index(source))
        graph = chart.memo("grid_graph", lambda: GridGraph(chart))
        dij = graph.dijkstra_from(node)
        if np.any(np.isinf(dij)):
            raise Unreachable(f"grid is disconnected from {source.tolist()}")
        hop = segment_length(chart, source, box.points()[node])
        direct = segment_length(chart, source[None, :], box.points())
        dist = np.minimum(direct, dij + hop)
        dist.flags.writeable = False
        return dist
    return chart.memo(("distance_field", source.tobytes()), build)


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
    from the metric oracles (:meth:`MetricChart.geodesic_acceleration`).
    The state is one array y = (x, v) with slope (v, acceleration), one
    contiguous row per coordinate: shape ``(2m, batch)``.  Trajectories
    still in the box are evaluated at their position clipped to it; those
    that left it move on with acceleration 0.  Returns endpoints
    ``(batch, m)`` and a validity mask (False where the trajectory left the
    chart box, where the metric oracle is undefined).
    """
    x = np.asarray(x, dtype=float)
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    batch, m = v0.shape
    y = np.concatenate([np.broadcast_to(x, v0.shape).T, v0.T])
    ok = np.ones(batch, dtype=bool)
    lower, upper = chart.box.lower, chart.box.upper
    # the bounds of box.contains(pos, margin=-1e-9), formed once
    above = lower + -1e-9 - 1e-12
    below = upper - -1e-9 + 1e-12
    h = 1.0 / SHOOTING_STEPS

    def clipped(rows):
        # np.clip(rows, lower, upper) as (count, m) points (a transposed
        # view, one contiguous row per coordinate): the same bits, nan
        # kept, without np.clip's Python wrappers or a strided output
        pos = np.maximum(rows, lower[:, None])
        np.minimum(pos, upper[:, None], out=pos)
        return pos.T

    def slope(y, valid):
        if valid is None:               # every row in the box
            acc = chart.geodesic_acceleration(clipped(y[:m]), y[m:].T)
            return np.concatenate([y[m:], acc.T])
        k = np.zeros_like(y)
        k[:m] = y[m:]
        if valid.any():
            pos = clipped(y[:m, valid])
            k[m:, valid] = chart.geodesic_acceleration(pos, y[m:, valid].T).T
        return k

    for _ in range(SHOOTING_STEPS):
        valid = None if ok.all() else ok
        k1 = slope(y, valid)
        k2 = slope(y + 0.5 * h * k1, valid)
        k3 = slope(y + 0.5 * h * k2, valid)
        k4 = slope(y + h * k3, valid)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        for i in range(m):
            ok &= (y[i] >= above[i]) & (y[i] <= below[i])
    return y[:m].T.copy(), ok


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

"""Volume-weighted L^p norms and Hölder seminorms on chart grids.

Quadrature is the midpoint rule per grid cell with the cell value taken as
the average over its included vertices; a cell cut by a region mask is
weighted by its included-vertex fraction ``count / 2^m``.  Summed per
vertex this is a trapezoidal-type rule: every vertex carries weight
``cell_volume * (#incident cells) / 2^m`` and masking just restricts the
vertex sum, which makes region monotonicity exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import TargetEscape, UnsupportedExponent
from .geodesics import distance_field, segment_length
from .geometry import CoordinateBox, MetricChart


def quadrature_weights(box: CoordinateBox) -> np.ndarray:
    """Per-vertex quadrature weights in grid shape."""
    w = np.ones(box.shape)
    for axis in range(box.dimension):
        shape = [1] * box.dimension
        shape[axis] = box.shape[axis]
        line = np.ones(box.shape[axis])
        line[0] = 0.5
        line[-1] = 0.5
        w = w * (line * box.steps[axis]).reshape(shape)
    return w


@dataclass
class NormRequest:
    """One weighted L^p norm evaluation over a grid region."""

    p: float
    region: np.ndarray          # bool mask, grid shape (or flat)
    field: np.ndarray           # scalar samples, same layout
    volume_weight: np.ndarray   # sqrt(det g) samples, same layout

    def validate(self, box: CoordinateBox):
        if not (1.0 < self.p < np.inf):
            raise UnsupportedExponent(self.p)
        if not np.any(self.region):
            raise ValueError("empty integration region")
        if np.any(self.volume_weight[self.region] <= 0):
            raise ValueError("volume weights must be positive on the region")


def lp_norm_on(box: CoordinateBox, p: float, field: np.ndarray,
               volume_weight: np.ndarray, region: np.ndarray | None = None) -> float:
    """(∫_region |field|^p dvol)^(1/p) by masked vertex quadrature."""
    if not (1.0 < p < np.inf):
        raise UnsupportedExponent(p)
    field = np.asarray(field, dtype=float).reshape(box.shape)
    vol = np.asarray(volume_weight, dtype=float).reshape(box.shape)
    w = quadrature_weights(box)
    integrand = np.abs(field) ** p * vol * w
    if region is not None:
        integrand = np.where(np.asarray(region).reshape(box.shape), integrand, 0.0)
    return float(np.sum(integrand) ** (1.0 / p))


def lp_norm(req: NormRequest, box: CoordinateBox) -> float:
    """Norm of a validated request; see :func:`lp_norm_on`."""
    req.validate(box)
    return lp_norm_on(box, req.p, req.field, req.volume_weight, req.region)


_PAIR_CAP = 10 ** 6
_PAIR_CHUNK = 1 << 16          # pairs per denominator block in PairTable


@functools.lru_cache(maxsize=2)
def _all_pairs(n: int):
    """Read-only int32 ``triu_indices(n, k=1)``, shared by every table on n points."""
    i, j = np.triu_indices(n, k=1)
    i, j = i.astype(np.int32), j.astype(np.int32)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _pair_indices(n: int, cap: int = _PAIR_CAP, seed: int = 20859):
    if n * (n - 1) // 2 <= cap:
        return _all_pairs(n)
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=cap)
    j = rng.integers(0, n, size=cap)
    keep = i != j
    return i[keep], j[keep]


class PairTable:
    """Point pairs of one point set and their denominators ``|x-y|^alpha``.

    Chart-coordinate distances.  All pairs when their count fits under the
    cap, otherwise a seeded subsample; either way :meth:`seminorm` is a
    lower bound of the true seminorm and grows under grid refinement.
    Build one table per point set and alpha, then evaluate many fields.
    """

    def __init__(self, points: np.ndarray, alpha: float,
                 pair_cap: int = _PAIR_CAP, seed: int = 20859):
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        points = np.asarray(points, dtype=float)
        if points.shape[0] < 2:
            raise ValueError("need at least two points")
        self.size = points.shape[0]
        self.i, self.j = _pair_indices(self.size, pair_cap, seed)
        self.den = np.empty(self.i.shape[0])
        for start in range(0, self.den.shape[0], _PAIR_CHUNK):
            block = slice(start, start + _PAIR_CHUNK)
            self.den[block] = np.linalg.norm(
                points[self.i[block]] - points[self.j[block]], axis=1) ** alpha
        self.den.flags.writeable = False      # tables are shared by callers

    def seminorm(self, values: np.ndarray) -> float:
        """max over the pairs of |f(x)-f(y)| / |x-y|^alpha."""
        values = np.asarray(values, dtype=float).reshape(self.size)
        quotient = values[self.i] - values[self.j]
        np.abs(quotient, out=quotient)
        quotient /= self.den
        return float(np.max(quotient))


def holder_seminorm(points: np.ndarray, values: np.ndarray, alpha: float,
                    pair_cap: int = _PAIR_CAP, seed: int = 20859) -> float:
    """max over sampled point pairs of |f(x)-f(y)| / |x-y|^alpha; one
    field on a one-off :class:`PairTable`."""
    return PairTable(points, alpha, pair_cap, seed).seminorm(values)


class DistanceEvaluator:
    """Distance-to-basepoint evaluator on a target chart.

    Grid distance field (graph distances + segment minimum) interpolated at query
    points, again min-ed with the direct segment; exact for flat metrics.
    """

    def __init__(self, chart: MetricChart, basepoint):
        self.chart = chart
        self.basepoint = np.asarray(basepoint, dtype=float)
        if not bool(chart.box.contains(self.basepoint)):
            raise ValueError(
                f"basepoint {self.basepoint.tolist()} is outside the "
                f"chart box of {chart.name}")
        self.field = distance_field(chart, self.basepoint).reshape(chart.box.shape)

    def __call__(self, queries: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries, dtype=float)
        inside = self.chart.box.contains(queries)
        if not np.all(inside):
            bad = np.argwhere(~inside)[0]
            q = queries[tuple(bad)] if queries.ndim > 1 else queries
            raise TargetEscape(q, q)
        grid_est = self.chart.box.interpolate(self.field, queries)
        direct = segment_length(self.chart, self.basepoint[None, :]
                                if queries.ndim > 1 else self.basepoint, queries)
        return np.minimum(np.nan_to_num(grid_est, nan=np.inf), direct)


def dist_to_basepoint_field(map_model, o) -> np.ndarray:
    """dist_N(u(x), o) on a map's source grid; one evaluator per o and chart."""
    chart = map_model.target_chart
    key = ("distance_to", np.asarray(o, dtype=float).tobytes())
    evaluator = chart.memo(key, lambda: DistanceEvaluator(chart, o))
    values = map_model.values_on_grid()
    return evaluator(values).reshape(map_model.source_chart.box.shape)

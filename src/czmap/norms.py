"""Volume-weighted L^p norms and Hölder seminorms on chart grids.

Quadrature is the midpoint rule per grid cell with the cell value taken as
the average over its included vertices; a cell cut by a region mask is
weighted by its included-vertex fraction ``count / 2^m``.  Summed per
vertex this is a trapezoidal-type rule: every vertex carries weight
``cell_volume * (#incident cells) / 2^m`` and masking just restricts the
vertex sum, which makes region monotonicity exact.
"""

from __future__ import annotations

import random
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
_PAIR_CHUNK = 1 << 16          # pairs per block of PairTable.seminorms


def sample_pairs(n: int, count: int, seed: int, chunk: int = _PAIR_CHUNK):
    """Yield ``(i, j)`` index blocks of a seeded draw of ``count`` ordered
    pairs of n points, at most ``chunk`` draws per block, the pairs with
    i == j dropped.

    Every block comes from one ``random.Random(seed)``: a pair is two
    little-endian uint32 words of ``randbytes``, each mapped to [0, n) by
    multiply-shift (exact in uint64 for n < 2**32), so the draw is the same
    however it is cut into blocks.
    """
    rng = random.Random(seed)
    for start in range(0, count, chunk):
        size = min(chunk, count - start)
        words = np.frombuffer(rng.randbytes(8 * size), "<u4").astype(np.uint64)
        words *= n
        words >>= 32
        i, j = words.view(np.int64).reshape(size, 2).T
        keep = i != j
        yield i[keep], j[keep]


class PairTable:
    """Hölder quotients ``|f(x)-f(y)| / |x-y|^alpha`` over the point pairs
    of one point set.

    Chart-coordinate distances.  All pairs when their count fits under the
    cap, otherwise ``pair_cap`` pairs drawn by :func:`sample_pairs`; either
    way :meth:`seminorms` is a lower bound of the true seminorm and grows
    under grid refinement.  A table keeps its points, alpha, cap and seed,
    no pair array.  The pairs are walked in blocks of about
    ``_PAIR_CHUNK``: on the all-pairs path, rows [a, b) of the strict upper
    triangle against columns (a, n); on the capped path, the blocks of the
    draw as they are made, so no whole sample is held.  Each block's
    denominators are formed once and serve every field of one
    :meth:`seminorms` call.
    """

    def __init__(self, points: np.ndarray, alpha: float,
                 pair_cap: int = _PAIR_CAP, seed: int = 20859):
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        points = np.asarray(points, dtype=float)
        if points.shape[0] < 2:
            raise ValueError("need at least two points")
        self.points = points
        self.alpha = alpha
        self.size = points.shape[0]
        self.pair_cap, self.seed = pair_cap, seed

    def _denominators(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``|x-y|^alpha`` over the last axis, the squares summed in
        coordinate order as ``np.linalg.norm`` sums them."""
        total = None
        for k in range(self.points.shape[1]):
            d = x[..., k] - y[..., k]
            d *= d
            if total is None:
                total = d
            else:
                total += d
        np.sqrt(total, out=total)
        total **= self.alpha
        return total

    def _blocks(self):
        """Yield ``(rows, cols, lower)`` per block of about ``_PAIR_CHUNK``
        pairs: ``f[rows] - f[cols]`` are a field's differences f(x) - f(y)
        over the block, and ``lower``, unless None, indexes its entries
        that pair no points (j <= i)."""
        n = self.size
        if n * (n - 1) // 2 > self.pair_cap:
            for i, j in sample_pairs(n, self.pair_cap, self.seed):
                yield i, j, None
            return
        a = 0
        while a < n - 1:
            b = min(n - 1, a + max(1, _PAIR_CHUNK // (n - 1 - a)))
            # rows [a, b) against columns (a, n): the j <= i entries lie
            # in the leading square
            lower = np.nonzero(np.tri(b - a, b - a - 1, k=-1, dtype=bool))
            yield np.s_[a:b, None], np.s_[None, a + 1:], lower
            a = b

    def seminorms(self, fields) -> np.ndarray:
        """max over the pairs of |f(x)-f(y)| / |x-y|^alpha for each field f,
        a row of ``fields``; a nan quotient makes that field's value nan."""
        fields = np.asarray(fields, dtype=float).reshape(-1, self.size)
        maxima = []
        for rows, cols, lower in self._blocks():
            den = self._denominators(self.points[rows], self.points[cols])
            if lower is not None:
                den[lower] = 1.0          # no 0/0 on the diagonal
            block = []
            for f in fields:
                quotient = f[rows] - f[cols]
                if lower is not None:
                    quotient[lower] = 0.0
                np.abs(quotient, out=quotient)
                quotient /= den
                block.append(np.max(quotient))
            maxima.append(block)
        return np.max(np.array(maxima), axis=0)

    def seminorm(self, values: np.ndarray) -> float:
        """max over the pairs of |f(x)-f(y)| / |x-y|^alpha."""
        return float(self.seminorms(values)[0])


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

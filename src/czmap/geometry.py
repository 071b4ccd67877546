"""Riemannian metrics on coordinate boxes.

A chart is a box in R^m together with symmetric metric component functions
g_ij.  All pointwise geometric data (inverse metric, volume density,
Christoffel symbols, Ricci samples) derive from the component oracles,
either through symbolic partials ("analytic" mode) or central differences
("fd" mode).

Component callables must be vectorized: they take point arrays of shape
``(..., m)`` and return value arrays of shape ``(...,)``.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import fd
from .errors import DegenerateMetric
from .expressions import (Expression, Program, TracedArray, evaluate,
                          has_variable)

SPD_EIGENVALUE_FLOOR = 1e-12


class RicciBoundWarning(UserWarning):
    """Sampled Ricci eigenvalues dip below the declared lower bound."""


class CoordinateBox:
    """Axis-aligned box with a uniform grid of sample points."""

    def __init__(self, lower, upper, resolution):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must be equal-length vectors")
        self.dimension = self.lower.size
        self.resolution = tuple(int(r) for r in np.atleast_1d(resolution))
        if len(self.resolution) != self.dimension:
            raise ValueError("resolution must give one count per axis")
        if any(r < 3 for r in self.resolution):
            raise ValueError("resolution must be >= 3 on every axis")
        if not np.all(self.lower < self.upper):
            raise ValueError("need lower[i] < upper[i] on every axis")
        self.steps = (self.upper - self.lower) / (np.array(self.resolution) - 1.0)
        self.shape = self.resolution
        self.num_points = int(np.prod(self.resolution))
        self._points = None

    @property
    def axes(self):
        return [np.linspace(self.lower[k], self.upper[k], self.resolution[k])
                for k in range(self.dimension)]

    def points(self) -> np.ndarray:
        """All grid points, shape ``(num_points, m)``, C order."""
        if self._points is None:
            mesh = np.meshgrid(*self.axes, indexing="ij")
            self._points = np.stack([g.reshape(-1) for g in mesh], axis=-1)
        return self._points

    def contains(self, points, margin: float = 0.0) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        above = np.all(points >= self.lower + margin - 1e-12, axis=-1)
        below = np.all(points <= self.upper - margin + 1e-12, axis=-1)
        return above & below

    def nearest_index(self, point) -> tuple:
        point = np.asarray(point, dtype=float)
        idx = np.rint((point - self.lower) / self.steps).astype(int)
        idx = np.clip(idx, 0, np.array(self.resolution) - 1)
        return tuple(int(i) for i in idx)

    def ravel_index(self, idx) -> int:
        return int(np.ravel_multi_index(idx, self.resolution))

    def interpolate(self, values, points, extrapolate: bool = False) -> np.ndarray:
        """Multilinear interpolation of grid samples at ``points``.

        ``values`` has shape ``box.shape + trailing`` and ``points``
        ``(..., m)``; the result has shape ``points.shape[:-1] + trailing``.
        A point outside the box gives nan unless ``extrapolate`` (then the
        edge cell's multilinear form is continued); a nan coordinate gives
        nan.  The arithmetic is that of the usual compiled linear
        regular-grid interpolator, term for term, so the results are the
        same bits as its: a 2-D scalar field sums the four
        corners as its compiled path does, any other field adds
        ``v * (1.0 * w_0 * w_1 ...)`` over the corners in
        ``itertools.product`` order.
        """
        values = np.asarray(values, dtype=float)
        points = np.asarray(points, dtype=float)
        m = self.dimension
        flat = points.reshape(-1, m)
        cells, ys = [], []
        outside = np.zeros(flat.shape[0], dtype=bool)
        for k, axis in enumerate(self.axes):
            x = flat[:, k]
            i = np.clip(np.searchsorted(axis, x, side="right") - 1,
                        0, axis.size - 2)
            cells.append(i)
            ys.append((x - axis[i]) / (axis[i + 1] - axis[i]))
            outside |= (x < axis[0]) | (x > axis[-1])
        if m == 2 and values.ndim == 2:
            (i0, i1), (y0, y1) = cells, ys
            out = 0.0 + values[i0, i1] * (1 - y0) * (1 - y1)
            out = out + values[i0, i1 + 1] * (1 - y0) * y1
            out = out + values[i0 + 1, i1] * y0 * (1 - y1)
            out = out + values[i0 + 1, i1 + 1] * y0 * y1
        else:
            trailing = (1,) * (values.ndim - m)
            sides = [(1 - y, y) for y in ys]
            out = 0.0
            for corner in itertools.product((0, 1), repeat=m):
                weight = 1.0
                for c, side in zip(corner, sides):
                    weight = weight * side[c]
                corner_values = values[tuple(i + c for i, c in zip(cells, corner))]
                out = out + corner_values * weight.reshape(weight.shape + trailing)
        if not extrapolate:
            out[outside] = np.nan
        out[np.isnan(flat).any(axis=1)] = np.nan
        return out.reshape(points.shape[:-1] + values.shape[m:])

    def __repr__(self):
        return (f"CoordinateBox(lower={self.lower.tolist()}, "
                f"upper={self.upper.tolist()}, resolution={self.resolution})")


def _symmetrize(components, m: int):
    comps = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            entry = components[i][j]
            if entry is None:
                entry = components[j][i]
            comps[i][j] = entry
            comps[j][i] = entry  # shared object: g_ij = g_ji exactly
    return comps


def _constant_or_oracle(oracle):
    """The float of an expression without a variable, else the oracle."""
    if isinstance(oracle, Expression) and not has_variable(oracle.ast):
        return float(evaluate(oracle.ast, {}, oracle.text))
    return oracle


def _evaluator(points, evaluate=None):
    """``at(oracle)``: a float oracle itself, else the oracle's values at
    ``points`` (or ``evaluate(oracle)``), each distinct oracle object
    evaluated once."""
    values = {}

    def at(oracle):
        if isinstance(oracle, float):
            return oracle
        key = id(oracle)
        if key not in values:
            values[key] = oracle(points) if evaluate is None else evaluate(oracle)
        return values[key]
    return at


def _is_zero(value) -> bool:
    """True for the float 0.0 that stands for a vanishing constant term."""
    return isinstance(value, float) and value == 0.0


def _empty_acceleration(points, v) -> np.ndarray:
    return np.empty(points.shape if points.shape == v.shape
                    else np.broadcast_shapes(points.shape, v.shape))


def _acceleration(oracles, at, vs, empty):
    """``acc[..., l] = -Gamma^l_ij v^i v^j``, the arithmetic of
    :meth:`MetricChart.geodesic_acceleration`, on arrays or traced values.

    ``at`` gives an oracle's value, ``vs`` the velocity components and
    ``empty()`` the output.  g a = -w with
    w_k = sum_ij (d_i g_jk - 1/2 d_k g_ij) v^i v^j, float-0.0 oracles
    skipped.  g is SPD, so Gaussian elimination without pivoting is safe;
    it is unrolled over the components, and every row of the batch is
    computed on its own.
    """
    m = len(vs)
    g = [[0.0] * m for _ in range(m)]
    w = [0.0] * m
    for i, j, gij, partials in oracles:
        g[i][j] = g[j][i] = at(gij)
        dgs = [(k, at(dg)) for k, dg in enumerate(partials)
               if not _is_zero(dg)]
        if not dgs:
            continue
        # the entry stands for g_ij and g_ji in both sums of w
        along = sum(vs[k] * dg for k, dg in dgs)   # v^a d_a g_ij
        w[j] = w[j] + vs[i] * along
        if i == j:
            quad = 0.5 * vs[i] * vs[i]
        else:
            w[i] = w[i] + vs[j] * along
            quad = vs[i] * vs[j]
        for k, dg in dgs:
            w[k] = w[k] - quad * dg
    rhs = [-wk for wk in w]
    for c in range(m):                 # forward elimination
        for r in range(c + 1, m):
            if _is_zero(g[r][c]):
                continue
            f = g[r][c] / g[c][c]
            for k in range(c + 1, m):
                g[r][k] = g[r][k] - f * g[c][k]
            rhs[r] = rhs[r] - f * rhs[c]
    acc = empty()
    for r in reversed(range(m)):       # back substitution
        s = rhs[r]
        for k in range(r + 1, m):
            if not _is_zero(g[r][k]):
                s = s - g[r][k] * acc[..., k]
        acc[..., r] = s / g[r][r]
    return acc


class MetricChart:
    """Metric component oracles over a coordinate box.

    derivative_mode "analytic" uses the components' ``partial(axis)``
    method (expressions provide it); "fd" uses central differences with
    the grid step of each axis.
    """

    def __init__(self, box: CoordinateBox, components, derivative_mode="analytic",
                 name="chart"):
        self.box = box
        m = box.dimension
        self.components = _symmetrize(components, m)
        if derivative_mode not in ("analytic", "fd"):
            raise ValueError(f"unknown derivative_mode {derivative_mode!r}")
        self.derivative_mode = derivative_mode
        self.name = name
        self._cache: dict = {}

    @property
    def dimension(self) -> int:
        return self.box.dimension

    def memo(self, key, build):
        """``build()`` at the first call with ``key``, then kept."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- pointwise evaluation -------------------------------------------------

    def oracles(self) -> list:
        """``(i, j, g_ij, [d_k g_ij for each k])`` for every i <= j, built once.

        An expression without a variable is stored as its float.  A
        partial is the component's ``partial(k)`` ("analytic") or a central
        difference at the grid step ("fd").  Expressions with equal text and
        variables become one object, so equal entries share their oracle
        and their analytic partials, and an evaluator calls each once;
        other callables are shared only where they are the same object.
        """
        def build():
            m = self.dimension
            shared, comps = {}, {}
            for i in range(m):
                for j in range(i, m):
                    comp = self.components[i][j]
                    if isinstance(comp, Expression):
                        comp = shared.setdefault((comp.text, comp.variables), comp)
                    comps[i, j] = comp
            return [(i, j, _constant_or_oracle(comp),
                     [_constant_or_oracle(self._partial_oracle(comp, k))
                      for k in range(m)])
                    for (i, j), comp in comps.items()]
        return self.memo("oracles", build)

    def _partial_oracle(self, comp, k: int):
        if self.derivative_mode == "analytic":
            return comp.partial(k)
        return lambda points: fd.point_diff1(
            comp, points, k, float(self.box.steps[k]),
            self.box.lower, self.box.upper)

    def metric(self, points) -> np.ndarray:
        """Metric matrices ``(..., m, m)`` at arbitrary points."""
        points = np.asarray(points, dtype=float)
        m = self.dimension
        at = _evaluator(points)
        out = np.empty(points.shape[:-1] + (m, m), dtype=float)
        for i, j, g, _ in self.oracles():
            val = at(g)
            out[..., i, j] = val
            out[..., j, i] = val
        return out

    def metric_derivative(self, points) -> np.ndarray:
        """Partials of the metric, shape ``(..., m, m, m)``, last index k."""
        points = np.asarray(points, dtype=float)
        m = self.dimension
        at = _evaluator(points)
        out = np.empty(points.shape[:-1] + (m, m, m), dtype=float)
        for i, j, _, partials in self.oracles():
            for k, dg in enumerate(partials):
                val = at(dg)
                out[..., i, j, k] = val
                out[..., j, i, k] = val
        return out

    def christoffel_at(self, points) -> np.ndarray:
        """Christoffel symbols ``(..., l, i, j)`` at arbitrary points."""
        g = self.metric(points)
        dg = self.metric_derivative(points)        # (..., i, j, k) = d_k g_ij
        ginv = np.linalg.inv(g)
        D = np.moveaxis(dg, -1, -3)                # (..., a, i, j) = d_a g_ij
        t_i_jk = D                                 # d_i g_jk  at slots (i, j, k)
        t_j_ik = np.swapaxes(D, -3, -2)            # d_j g_ik
        t_k_ij = np.moveaxis(D, -3, -1)            # d_k g_ij
        sym = t_i_jk + t_j_ik - t_k_ij
        # Gamma^l_ij = 1/2 g^{lk} (d_i g_jk + d_j g_ik - d_k g_ij)
        return 0.5 * np.einsum("...lk,...ijk->...lij", ginv, sym)

    def geodesic_acceleration(self, points, v) -> np.ndarray:
        """``-Gamma^l_ij v^i v^j`` at ``points``, shape ``(..., m)``.

        Gamma is never formed: :func:`_acceleration` solves g a = -w on
        the metric oracles.  An analytic chart runs it as one compiled
        kernel (:meth:`_acceleration_kernel`) under raising floating-point
        flags, on finite points only; a raised flag or a non-finite result
        sends the call down the per-oracle route, which performs the same
        operations, so the values are the same bits and the errors the
        same located ones.
        """
        points = np.asarray(points, dtype=float)
        v = np.asarray(v, dtype=float)
        kernel = self._acceleration_kernel()
        if kernel is not None and np.isfinite(points).all():
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    acc = kernel(points, v)
                # a non-finite oracle value would reach the result (from
                # finite points it cannot arise without a flag)
                if np.isfinite(acc).all():
                    return acc
            except ArithmeticError:
                pass
        return _acceleration(self.oracles(), _evaluator(points),
                             [v[..., i] for i in range(self.dimension)],
                             lambda: _empty_acceleration(points, v))

    def _acceleration_kernel(self):
        """:func:`_acceleration` traced into one function ``(p, v) -> acc``
        over the points ``p`` and velocities ``v``, built on first use; None
        unless every oracle is a float or a compilable expression (fd mode
        keeps the per-oracle route)."""
        def build():
            oracles = [o for _, _, g, partials in self.oracles()
                       for o in [g] + partials if not isinstance(o, float)]
            if not all(isinstance(o, Expression) and o.compilable
                       for o in oracles):
                return None
            program = Program()
            vs = [program.emit(f"v[..., {i}]") for i in range(self.dimension)]
            acc = _acceleration(
                self.oracles(), _evaluator(None, program.expression), vs,
                lambda: TracedArray(program, program.emit(
                    "{}(p, v)", _empty_acceleration).name))
            return program.build("p, v", acc)
        return self.memo("acceleration_kernel", build)

    # -- grid samples ----------------------------------------------------------

    def grid_metric(self) -> np.ndarray:
        def build():
            g = self.metric(self.box.points()).reshape(self.box.shape + (self.dimension,) * 2)
            eig = np.linalg.eigvalsh(g)
            bad = ~(eig[..., 0] > SPD_EIGENVALUE_FLOOR)     # nan is bad too
            if np.any(bad):
                flat = np.argmin(eig[..., 0])
                idx = np.unravel_index(flat, self.box.shape)
                pt = [self.box.axes[k][idx[k]] for k in range(self.dimension)]
                raise DegenerateMetric(pt, eig[..., 0].reshape(-1)[flat])
            return g
        return self.memo("metric", build)

    def grid_inverse(self) -> np.ndarray:
        return self.memo("inverse", lambda: np.linalg.inv(self.grid_metric()))

    def grid_sqrt_det(self) -> np.ndarray:
        return self.memo("sqrt_det",
                         lambda: np.sqrt(np.linalg.det(self.grid_metric())))

    def grid_christoffel(self) -> np.ndarray:
        """Christoffel symbols on the grid, ``(*grid, l, i, j)``."""
        return self.memo("christoffel", lambda: self.christoffel_at(
            self.box.points()).reshape(self.box.shape + (self.dimension,) * 3))

    def ellipticity_range(self):
        """(min, max) metric eigenvalue over the grid."""
        eig = np.linalg.eigvalsh(self.grid_metric())
        return float(eig[..., 0].min()), float(eig[..., -1].max())

    def __repr__(self):
        return f"MetricChart({self.name!r}, box={self.box!r}, mode={self.derivative_mode!r})"


@dataclass
class RicciSamples:
    """Grid-sampled Ricci tensor and its generalized eigenvalue floor."""

    values: np.ndarray            # (*grid, m, m)
    min_eigenvalue: np.ndarray    # (*grid,), eigenvalues of Ric relative to g

    def floor(self) -> float:
        return float(self.min_eigenvalue.min())


def ricci_samples(chart: MetricChart) -> RicciSamples:
    """Ricci tensor on the grid from Christoffel derivatives.

    R_ij = d_l Gamma^l_ij - d_j Gamma^l_il + Gamma^l_lk Gamma^k_ij
           - Gamma^l_jk Gamma^k_il.  The derivative of the Christoffel field
    is taken on the grid (second-order stencils), so Ricci values converge
    at O(h^2) regardless of the chart's derivative mode.  Eigenvalues are
    relative to g (the pairing that enters lower Ricci bounds).
    """
    m = chart.dimension
    gam = chart.grid_christoffel()               # (*grid, l, i, j)
    steps = chart.box.steps
    dgam = [fd.diff1(gam, axis=a, h=steps[a]) for a in range(m)]
    # dgam[a][..., l, i, j] = d_a Gamma^l_ij
    term1 = sum(dgam[l][..., l, :, :] for l in range(m))
    contracted = np.einsum("...lil->...i", gam)  # Gamma^l_il
    dcon = [fd.diff1(contracted, axis=a, h=steps[a]) for a in range(m)]
    term2 = np.stack([dcon[j] for j in range(m)], axis=-1)  # (..., i, j)
    trace_gam = np.einsum("...llk->...k", gam)   # Gamma^l_lk
    term3 = np.einsum("...k,...kij->...ij", trace_gam, gam)
    term4 = np.einsum("...ljk,...kil->...ij", gam, gam)
    ric = term1 - term2 + term3 - term4
    ric = 0.5 * (ric + np.swapaxes(ric, -1, -2))
    g = chart.grid_metric()
    L = np.linalg.cholesky(g)
    Linv = np.linalg.inv(L)
    rel = Linv @ ric @ np.swapaxes(Linv, -1, -2)
    eig = np.linalg.eigvalsh(rel)
    return RicciSamples(values=ric, min_eigenvalue=eig[..., 0])


def check_ricci_lower_bound(chart: MetricChart, A: float) -> float:
    """Sampled Ricci floor of a chart against a declared bound Ric >= -A.

    Returns the floor.  A violation beyond grid noise (tolerance
    ``1e-4 (1 + A)``) is a RicciBoundWarning, not an error, since grid
    noise must not block runs.
    """
    if A < 0:
        raise ValueError("ricci lower-bound parameter A must be >= 0")
    tol = 1e-4 * (1.0 + A)
    floor = ricci_samples(chart).floor()
    if floor < -A - tol:
        warnings.warn(
            f"chart {chart.name}: sampled Ricci eigenvalue "
            f"{floor:.4e} below -A={-A:.4e} (tol {tol:.1e})",
            RicciBoundWarning, stacklevel=2)
    return floor

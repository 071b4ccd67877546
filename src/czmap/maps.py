"""First and second order calculus of maps between metric charts.

For a map u with components u^a between charts with metrics g (source,
indices i, j, l) and h (target, indices a, b, c), the generalized Hessian
has coordinate components

    Hess(u)^a_ij = d_i d_j u^a - sGamma^l_ij d_l u^a
                   + tGamma^a_bc(u) d_i u^b d_j u^c,

and its trace against g^{ij} is the generalized Laplacian (tension
field).  Pointwise norms use the full tensor contractions

    |du|^2      = g^{ij} h_ab(u) d_i u^a d_j u^b,
    |Hess(u)|^2 = Hess^a_ij Hess^b_lk g^{ik} g^{jl} h_ab(u),
    |Lap(u)|^2  = h_ab(u) Lap^a Lap^b.

For isometric immersions these are the second fundamental form and mean
curvature data.

A chart is flat when every metric partial in ``chart.oracles()`` is the
float 0.0 (constant expression components in analytic mode).  Its
Christoffel symbols are then +-0 exactly, so each Gamma term above is +-0
wherever du is finite, and adding it changes no value, only perhaps the
sign of a zero, which no norm and no report reads.  The jet skips a flat
chart's symbols and their contraction unless du is not finite at some
grid point: then it keeps both, so that 0 * inf = nan still reaches the
norms.  fd-mode charts give callable partials and always contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import fd
from .errors import LipschitzViolation, NotImmersion, TargetEscape
from .geodesics import metric_ball, segment_length
from .geometry import MetricChart, _is_zero
from .norms import DistanceEvaluator, sample_pairs

RANK_THRESHOLD = 1e-8
# MapModel.validate: sampled pairs, slack over the declared bound, seed
LIPSCHITZ_PAIRS = 256
LIPSCHITZ_TOL = 0.05
LIPSCHITZ_SEED = 20859
UC_CENTERS = 16                # sub-lattice size of uniform_continuity_profile


class MapModel:
    """Map components between a source and a target chart.

    ``components``: one vectorized scalar callable per target coordinate.
    ``lipschitz_bound`` may be ``inf`` (merely continuous).
    """

    def __init__(self, source_chart: MetricChart, target_chart: MetricChart,
                 components, lipschitz_bound: float = np.inf, name="map"):
        self.source_chart = source_chart
        self.target_chart = target_chart
        self.components = list(components)
        if len(self.components) != target_chart.dimension:
            raise ValueError("need one component per target dimension")
        if lipschitz_bound < 0:
            raise ValueError("lipschitz bound must be nonnegative")
        self.lipschitz_bound = float(lipschitz_bound)
        self.name = name
        self._cache: dict = {}

    @property
    def target_dimension(self) -> int:
        return self.target_chart.dimension

    def values(self, points) -> np.ndarray:
        """Map values ``(..., n)`` at arbitrary source points."""
        points = np.asarray(points, dtype=float)
        return np.stack([c(points) for c in self.components], axis=-1)

    def memo(self, key, build):
        """``build()`` at the first call with ``key``, then kept."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def values_on_grid(self) -> np.ndarray:
        def build():
            vals = self.values(self.source_chart.box.points())
            inside = self.target_chart.box.contains(vals)
            if not np.all(inside):
                bad = int(np.flatnonzero(~inside)[0])
                raise TargetEscape(self.source_chart.box.points()[bad], vals[bad])
            return vals
        return self.memo("values", build)

    def jet(self) -> "JetField":
        """The map's :func:`generalized_hessian`, formed once."""
        return self.memo("jet", lambda: generalized_hessian(self))

    def validate(self) -> "MapModel":
        """Target containment plus sampled Lipschitz difference quotients.

        The quotients are taken over ``LIPSCHITZ_PAIRS`` pairs of source
        grid points drawn by :func:`norms.sample_pairs` with
        ``LIPSCHITZ_SEED``, in one block.
        """
        self.values_on_grid()
        L = self.lipschitz_bound
        if np.isfinite(L):
            pts = self.source_chart.box.points()
            i, j = next(sample_pairs(pts.shape[0], LIPSCHITZ_PAIRS,
                                     LIPSCHITZ_SEED, chunk=LIPSCHITZ_PAIRS))
            # an overflowing length is reported below, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                num = segment_length(self.target_chart, self.values(pts[i]),
                                     self.values(pts[j]))
                den = segment_length(self.source_chart, pts[i], pts[j])
                quotient = np.max(num / np.maximum(den, 1e-300))
            if not np.all(np.isfinite(num) & np.isfinite(den)):
                raise LipschitzViolation(
                    f"map {self.name}: a sampled segment length is not "
                    f"finite, so the Lipschitz bound {L:.4g} cannot be checked")
            if quotient > L * (1.0 + LIPSCHITZ_TOL):
                raise LipschitzViolation(
                    f"map {self.name}: sampled difference quotient {quotient:.4g} "
                    f"exceeds declared Lipschitz bound {L:.4g}")
        return self


def field_jet(u, values: np.ndarray, points: np.ndarray, steps,
              mode: str) -> tuple:
    """Gradient ``(m, *grid)`` and Hessian ``(m, m, *grid)`` of a scalar
    field on a grid.

    ``values`` are the field's samples in grid shape and ``points`` the
    matching flat grid points.  ``analytic`` mode evaluates the symbolic
    partials of the expression ``u`` at ``points`` (d_i d_j for j >= i,
    mirrored); ``fd`` mode differentiates ``values`` with grid stencils at
    ``steps`` and does not read ``u``.
    """
    if mode != "analytic":
        return fd.grid_gradient(values, steps), fd.grid_hessian(values, steps)
    shape, m = values.shape, values.ndim
    grad = np.empty((m,) + shape)
    hess = np.empty((m, m) + shape)
    for i in range(m):
        di = u.partial(i)
        grad[i] = di(points).reshape(shape)
        for j in range(i, m):
            hess[i, j] = hess[j, i] = di.partial(j)(points).reshape(shape)
    return grad, hess


def target_christoffel_at(map_model: MapModel, values: np.ndarray) -> np.ndarray:
    """tGamma^a_bc along the image, shape ``(..., n, n, n)``.

    Analytic charts evaluate exactly; otherwise the grid field is
    interpolated multilinearly (interpolation order recorded in reports).
    """
    target = map_model.target_chart
    if target.derivative_mode == "analytic":
        return target.christoffel_at(values)
    return target.box.interpolate(target.grid_christoffel(), values,
                                  extrapolate=True)


@dataclass(frozen=True)
class JetField:
    """Sampled first and second order data of a map and its pointwise norms.

    Every array is read-only: the norms are formed once from the others.
    """

    du: np.ndarray                 # (*grid, n, m)
    hess: np.ndarray               # (*grid, n, m, m)
    laplacian: np.ndarray          # (*grid, n)
    target_metric: np.ndarray      # (*grid, n, n) h at u(x)
    norm_du: np.ndarray            # (*grid,)
    norm_hess: np.ndarray          # (*grid,)
    norm_laplacian: np.ndarray     # (*grid,)

    def __post_init__(self):
        for value in vars(self).values():
            value.flags.writeable = False


def _norm(sq: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(sq, 0.0))


def _term_sum(shape: tuple, terms) -> np.ndarray:
    """Sum over ``terms``, each a tuple of grid arrays multiplied left to
    right, added in order to zeros.  That is how ``np.einsum`` (no
    ``optimize``) forms a full contraction over the tensor axes of
    C-ordered operands on a grid of three points or more (every chart
    grid), so the bits are einsum's when ``terms`` come in its label
    order."""
    acc = np.zeros(shape)
    term = np.empty(shape)
    for first, second, *rest in terms:
        np.multiply(first, second, out=term)
        for factor in rest:
            term *= factor
        acc += term
    return acc


def component_derivatives(map_model: MapModel) -> tuple:
    """(u^a, d_i u^a, d_i d_j u^a) on the source grid, shapes
    ``(*grid, n)``, ``(*grid, n, m)`` and ``(*grid, n, m, m)``."""
    source = map_model.source_chart
    box = source.box
    m, n = source.dimension, map_model.target_dimension
    values = map_model.values_on_grid().reshape(box.shape + (n,))
    du = np.empty(box.shape + (n, m))
    ddu = np.empty(box.shape + (n, m, m))
    for a, comp in enumerate(map_model.components):
        grad, hess = field_jet(comp, values[..., a], box.points(), box.steps,
                               source.derivative_mode)
        du[..., a, :] = np.moveaxis(grad, 0, -1)
        ddu[..., a, :, :] = np.moveaxis(hess, (0, 1), (-2, -1))
    return values, du, ddu


def _is_flat(chart: MetricChart) -> bool:
    """Every metric partial is the float 0.0, so Gamma is +-0 exactly."""
    return all(_is_zero(dg) for *_, partials in chart.oracles()
               for dg in partials)


def generalized_hessian(map_model: MapModel) -> JetField:
    """Full second-order jet of a map; see the module formula."""
    source = map_model.source_chart
    values, du, ddu = component_derivatives(map_model)
    h_at_u = map_model.target_chart.metric(values)

    # a flat chart's Gamma term is +-0 if du is finite (module docstring)
    finite = bool(np.isfinite(du).all())
    hess = ddu
    if not (finite and _is_flat(source)):
        hess = hess - np.einsum("...lij,...al->...aij",
                                source.grid_christoffel(), du)
    if not (finite and _is_flat(map_model.target_chart)):
        hess = hess + np.einsum("...abc,...bi,...cj->...aij",
                                target_christoffel_at(map_model, values),
                                du, du)
    ginv = source.grid_inverse()
    laplacian = np.einsum("...ij,...aij->...a", ginv, hess)
    # |du|^2 and |Hess|^2 term by term on strided views, in the order of
    # np.einsum("...ij,...ab,...ai,...bj->...") (labels a, b, i, j) and
    # of np.einsum("...aij,...blk,...ik,...jl,...ab->...") (a, b, i, j, l, k)
    n, m = du.shape[-2:]
    grid = du.shape[:-2]
    sq_du = _term_sum(grid, (
        (ginv[..., i, j], h_at_u[..., a, b], du[..., a, i], du[..., b, j])
        for a, b, i, j in product(range(n), range(n), range(m), range(m))))
    sq_hess = _term_sum(grid, (
        (hess[..., a, i, j], hess[..., b, l, k], ginv[..., i, k],
         ginv[..., j, l], h_at_u[..., a, b])
        for a, b, i, j, l, k in product(range(n), range(n), range(m),
                                        range(m), range(m), range(m))))
    return JetField(
        du=du, hess=hess, laplacian=laplacian, target_metric=h_at_u,
        norm_du=_norm(sq_du), norm_hess=_norm(sq_hess),
        norm_laplacian=_norm(np.einsum("...ab,...a,...b->...",
                                       h_at_u, laplacian, laplacian)))


@dataclass
class ImmersionData:
    """Immersion specialization of a map's jet.

    The second fundamental form is ``jet.hess`` and the mean curvature its
    trace ``jet.laplacian``; the defects measure how isometric (pullback
    metric against g) and how normal (h(Hess_ij, d_k u)) the data is.
    """

    isometry_defect: float
    normality_defect: float


def immersion_check(map_model: MapModel) -> ImmersionData:
    """Isometry defect and Gauss-formula normality of the map's jet.

    Raises NotImmersion when the differential drops rank (smallest singular
    value below the FD noise floor) at some grid point.
    """
    jet = map_model.jet()
    du = jet.du                      # (*grid, a, i)
    sigma = np.linalg.svd(du, compute_uv=False)
    smin = sigma[..., -1]
    if float(smin.min()) < RANK_THRESHOLD:
        flat = int(np.argmin(smin.reshape(-1)))
        pt = map_model.source_chart.box.points()[flat]
        raise NotImmersion(pt, float(smin.reshape(-1)[flat]))
    h = jet.target_metric
    pullback = np.einsum("...ab,...ai,...bj->...ij", h, du, du)
    g = map_model.source_chart.grid_metric()
    normality = np.einsum("...ab,...aij,...bk->...ijk", h, jet.hess, du)
    return ImmersionData(isometry_defect=float(np.abs(pullback - g).max()),
                         normality_defect=float(np.abs(normality).max()))


def uniform_continuity_profile(map_model: MapModel, r: float) -> float:
    """Smallest sampled R with u(B_r(center)) inside B_R(u(center)).

    Centers are a sub-lattice of about UC_CENTERS source grid points.  For
    an L-Lipschitz map the result is <= L * r up to grid tolerance.
    """
    if r <= 0:
        raise ValueError("radius r must be positive")
    source = map_model.source_chart
    box = source.box
    stride = [max(1, s // int(round(UC_CENTERS ** (1 / box.dimension))))
              for s in box.shape]
    mesh = np.meshgrid(*[ax[::st] for ax, st in zip(box.axes, stride)],
                       indexing="ij")
    centers = np.stack([g.reshape(-1) for g in mesh], axis=-1)
    values = map_model.values_on_grid()
    R = 0.0
    for c in centers:
        ball = metric_ball(source, c, r)
        image_center = map_model.values(c)
        evaluator = DistanceEvaluator(map_model.target_chart, image_center)
        dist = evaluator(values[ball.indices])
        R = max(R, float(dist.max()))
    return R

"""Inequality verification engine.

Assembles and checks, at desk scale:

* the scaling identities and interior estimate of the scaled elliptic
  lemma (operator P = a^{ij} d_i d_j on concentric Euclidean balls);
* the local ball estimate for maps,

      C^-1 ||1_{B_{r/2}} Hess u||_p <= ||1_{B_2r} Lap u||_p
          + R^-1 ||1_{B_2r} du||_{2p}^2 + r^-2 ||1_{B_2r} dist_N(u,y)||_p
          + r^-1 ||1_{B_2r} du||_p;

* the global estimate: working radius arithmetic, basepoint-ball
  decomposition of the source, bounded-multiplicity covering, per-center
  regime checks and the summation step;
* the Euclidean-target immersion inequality and its curved-target
  corollary.

Constants are never assumed: every verifier reports the empirical ratio
of its two sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fd
from .errors import (CertificateRequired, DegenerateRadius, HypothesisFailed,
                     PreconditionFailed, ResolutionTooCoarse, UnsupportedExponent)
from .geodesics import metric_ball, distance_field, segment_length
from .geometry import CoordinateBox, MetricChart
from .harmonic import RadiusCertificate
from .maps import JetField, MapModel, generalized_hessian, immersion_check
from .norms import DistanceEvaluator, holder_seminorm, lp_norm_on, quadrature_weights

COMPLETENESS_CAVEAT = ("chart model is a bounded box; estimates are verified "
                      "on interior balls only")
COVER_SEPARATION_FACTOR = 0.125     # separation of cover centers, in units of r_hat
OMEGA_SLACK = 1e-9


# ---------------------------------------------------------------------------
# scaled elliptic lemma
# ---------------------------------------------------------------------------

class EllipticOperatorSpec:
    """Second-order operator P = a^{ij} d_i d_j on the Euclidean ball B_2s.

    ``coefficients``: symmetric nested sequence of scalar callables.
    Hypotheses checked by :meth:`validate`: (a^{ij}) >= 1/2 as bilinear
    forms on the grid, sup |a^{ij}| <= Lambda, and the Hölder bound
    [a^{ij}]_alpha <= Lambda s^-alpha.
    """

    def __init__(self, s: float, q: float, coefficients, Lambda: float,
                 alpha: float = 0.5, dimension: int = 2, resolution: int = 33):
        if not (0.0 < s <= 1.0):
            raise ValueError("s must lie in (0, 1]")
        if not (1.0 < q < np.inf):
            raise UnsupportedExponent(q)
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        self.s = float(s)
        self.q = float(q)
        self.alpha = float(alpha)
        self.Lambda = float(Lambda)
        self.dimension = int(dimension)
        self.resolution = int(resolution)
        m = self.dimension
        self.coefficients = [[coefficients[min(i, j)][max(i, j)]
                              for j in range(m)] for i in range(m)]
        # reference grid on [-2, 2]^m; the scaled grid is s * reference,
        # which realizes the dilation operator sample-for-sample
        self.reference_box = CoordinateBox([-2.0] * m, [2.0] * m, [resolution] * m)
        ref = self.reference_box.points()
        self.reference_points = ref
        self.mask_outer = (np.linalg.norm(ref, axis=1) <= 2.0).reshape(
            self.reference_box.shape)
        self.mask_inner = (np.linalg.norm(ref, axis=1) <= 1.0).reshape(
            self.reference_box.shape)
        self._validated = False

    def scaled_points(self) -> np.ndarray:
        return self.s * self.reference_points

    def coefficient_matrix(self, points) -> np.ndarray:
        m = self.dimension
        out = np.empty(points.shape[:-1] + (m, m))
        for i in range(m):
            for j in range(i, m):
                val = self.coefficients[i][j](points)
                out[..., i, j] = val
                out[..., j, i] = val
        return out

    def validate(self) -> "EllipticOperatorSpec":
        if self._validated:
            return self
        pts = self.scaled_points()
        mask = self.mask_outer.reshape(-1)
        a = self.coefficient_matrix(pts[mask])
        eig = np.linalg.eigvalsh(a)
        if float(eig[..., 0].min()) < 0.5 - 1e-12:
            raise HypothesisFailed("ellipticity (a >= 1/2)",
                                   f"min eigenvalue {eig[..., 0].min():.4g}")
        sup = float(np.abs(a).max())
        if sup > self.Lambda + 1e-12:
            raise HypothesisFailed("sup bound (|a| <= Lambda)",
                                   f"sup {sup:.4g} > Lambda {self.Lambda:.4g}")
        bound = self.Lambda * self.s ** (-self.alpha)
        m = self.dimension
        worst = 0.0
        for i in range(m):
            for j in range(i, m):
                vals = self.coefficients[i][j](pts[mask])
                worst = max(worst, holder_seminorm(pts[mask], vals, self.alpha))
        if worst > bound + 1e-12:
            raise HypothesisFailed(
                "Hölder bound ([a]_alpha <= Lambda s^-alpha)",
                f"seminorm {worst:.4g} > {bound:.4g}")
        self._validated = True
        return self


class ScalarFieldSamples:
    """Samples of u and its first/second derivatives on the lemma grid."""

    def __init__(self, spec: EllipticOperatorSpec, u, mode: str = "analytic"):
        self.spec = spec
        box = spec.reference_box
        m = spec.dimension
        pts = spec.scaled_points()
        shape = box.shape
        self.values = np.asarray(u(pts), dtype=float).reshape(shape)
        steps = box.steps * spec.s
        if mode == "analytic":
            self.grad = np.stack(
                [np.asarray(u.partial(i)(pts)).reshape(shape) for i in range(m)])
            self.hess = np.empty((m, m) + shape)
            for i in range(m):
                di = u.partial(i)
                for j in range(i, m):
                    val = np.asarray(di.partial(j)(pts)).reshape(shape)
                    self.hess[i, j] = val
                    self.hess[j, i] = val
        else:
            self.grad = fd.grid_gradient(self.values, steps)
            self.hess = fd.grid_hessian(self.values, steps)

    def apply_operator(self) -> np.ndarray:
        pts = self.spec.scaled_points().reshape(
            self.spec.reference_box.shape + (self.spec.dimension,))
        a = self.spec.coefficient_matrix(pts)
        return np.einsum("...ij,ij...->...", a, self.hess)


def verify_scaling_identities(spec: EllipticOperatorSpec, u,
                              mode: str = "analytic") -> dict:
    """Check the dilation identities of the elliptic lemma.

    With tu(z) = u(sz): P~ tu = s^2 (Pu)~, d_i d_j tu = s^2 (d_i d_j u)~,
    d_i tu = s (d_i u)~, and the L^q norm picks up s^{-m/q}.  Also checks
    that the hypothesis bounds transfer to the scaled coefficients.

    In analytic mode the dilated field is built by substituting x -> s x
    into the expression and differentiating THAT symbolically, so the two
    sides of each identity come from independent symbolic routes.  In fd
    mode both sides are grid stencils at mirrored steps.
    """
    spec.validate()
    s, q, m = spec.s, spec.q, spec.dimension
    box = spec.reference_box
    samples = ScalarFieldSamples(spec, u, mode=mode)
    mask = spec.mask_outer
    zpts_grid = spec.reference_points

    if mode == "analytic":
        dilated = u.dilated(s)
        grad_t = np.stack([np.asarray(dilated.partial(i)(zpts_grid)).reshape(box.shape)
                           for i in range(m)])
        hess_t = np.empty((m, m) + box.shape)
        for i in range(m):
            di = dilated.partial(i)
            for j in range(i, m):
                val = np.asarray(di.partial(j)(zpts_grid)).reshape(box.shape)
                hess_t[i, j] = val
                hess_t[j, i] = val
    else:
        grad_t = fd.grid_gradient(samples.values, box.steps)
        hess_t = fd.grid_hessian(samples.values, box.steps)

    dev_grad = float(np.abs(grad_t - s * samples.grad)[:, mask].max())
    dev_hess = float(np.abs(hess_t - s * s * samples.hess)[:, :, mask].max())

    pu = samples.apply_operator()
    a_tilde = spec.coefficient_matrix(spec.scaled_points().reshape(
        box.shape + (m,)))
    p_tilde_u = np.einsum("...ij,ij...->...", a_tilde, hess_t)
    dev_op = float(np.abs(p_tilde_u - s * s * pu)[mask].max())

    # norm scaling on u and Pu over the outer ball
    dev_norm = 0.0
    for field_vals in (samples.values, pu):
        lhs = lp_norm_on(box, q, field_vals, np.ones(box.shape), mask)
        rhs_box = CoordinateBox(box.lower * s, box.upper * s, box.resolution)
        rhs = lp_norm_on(rhs_box, q, field_vals, np.ones(box.shape), mask)
        dev_norm = max(dev_norm, abs(lhs - s ** (-m / q) * rhs)
                       / max(1.0, abs(lhs)))

    # hypothesis transfer on the scaled coefficients over B_2
    zpts = spec.reference_points[mask.reshape(-1)]
    spts = spec.scaled_points()[mask.reshape(-1)]
    transfer = 0.0
    for i in range(m):
        for j in range(i, m):
            vals = spec.coefficients[i][j](spts)
            transfer = max(transfer, holder_seminorm(zpts, vals, spec.alpha))
    transfer_ok = transfer <= spec.Lambda + 1e-10

    tol = 1e-10 if mode == "analytic" else 1e-6
    report = {
        "s": s, "q": q, "mode": mode,
        "dev_operator": dev_op, "dev_hessian": dev_hess,
        "dev_gradient": dev_grad, "dev_norm": float(dev_norm),
        "holder_transfer": transfer, "holder_transfer_ok": bool(transfer_ok),
        "tolerance": tol,
        "passed": bool(max(dev_op, dev_hess, dev_grad, dev_norm) <= tol
                       and transfer_ok),
    }
    return report


def verify_interior_estimate(spec: EllipticOperatorSpec, u,
                             mode: str = "analytic") -> dict:
    """Interior a-priori estimate: norms of u, grad u, second derivatives
    on B_s against ||Pu|| + s^-2 ||u|| on B_2s; reports the empirical ratio.
    """
    spec.validate()
    box = spec.reference_box
    s, q = spec.s, spec.q
    scaled_box = CoordinateBox(box.lower * s, box.upper * s, box.resolution)
    samples = ScalarFieldSamples(spec, u, mode=mode)
    ones = np.ones(box.shape)
    grad_norm = np.sqrt(np.sum(samples.grad ** 2, axis=0))
    hess_norm = np.sqrt(np.sum(samples.hess ** 2, axis=(0, 1)))
    inner = spec.mask_inner
    outer = spec.mask_outer
    lhs = (lp_norm_on(scaled_box, q, samples.values, ones, inner)
           + lp_norm_on(scaled_box, q, grad_norm, ones, inner)
           + lp_norm_on(scaled_box, q, hess_norm, ones, inner))
    pu = samples.apply_operator()
    rhs = (lp_norm_on(scaled_box, q, pu, ones, outer)
           + s ** (-2) * lp_norm_on(scaled_box, q, samples.values, ones, outer))
    ratio = 0.0 if lhs == 0.0 else (np.inf if rhs == 0.0 else lhs / rhs)
    return {"lhs": lhs, "rhs": rhs, "ratio": float(ratio), "s": s, "q": q}


# ---------------------------------------------------------------------------
# working radius arithmetic
# ---------------------------------------------------------------------------

def compute_r_hat(r1M: float, r1N: float, L: float) -> float:
    """(1/16) min(r1M, r1N / max(L, 1), 1) with the inf/inf = 1 convention."""
    for name, v in (("r1M", r1M), ("r1N", r1N)):
        if not (v > 0):
            raise ValueError(f"{name} must be positive (got {v})")
    if L < 0:
        raise ValueError("Lipschitz bound must be nonnegative")
    denom = max(L, 1.0)
    if np.isinf(denom):
        if np.isinf(r1N):
            term = 1.0
        else:
            raise DegenerateRadius(
                "merely continuous maps need an infinite target radius")
    else:
        term = r1N / denom
    return min(r1M, term, 1.0) / 16.0


@dataclass
class HarmonicRadii:
    """Harmonic-radius inputs of a global run, with provenance."""

    r1M: float
    r1N: float
    source: str = "declared"          # declared | estimated
    certificates: tuple = ()          # (r1M, r1N) RadiusCertificates, if resolved


# ---------------------------------------------------------------------------
# local ball estimate
# ---------------------------------------------------------------------------

@dataclass
class BallEstimateInstance:
    """All terms of one local estimate and their empirical ratio."""

    x: np.ndarray
    y: np.ndarray
    r: float
    R: float
    p: float
    terms: dict
    ratio: float
    grid_resolution: tuple
    warnings: list = field(default_factory=list)
    caveats: tuple = (COMPLETENESS_CAVEAT,)

    def as_record(self) -> dict:
        rec = {"x": self.x.tolist(), "y": self.y.tolist(), "r": self.r,
               "R": self.R, "p": self.p, "ratio": self.ratio,
               "resolution": list(self.grid_resolution)}
        rec.update(self.terms)
        return rec


def _ratio(lhs: float, denom: float) -> float:
    if lhs == 0.0:
        return 0.0
    if denom == 0.0:
        return np.inf
    return lhs / denom


def verify_ball_estimate(map_model: MapModel, x, y, r: float, R: float,
                         p: float,
                         source_certificate: RadiusCertificate | None = None,
                         target_certificate: RadiusCertificate | None = None,
                         jet: JetField | None = None) -> BallEstimateInstance:
    """Evaluate the local estimate on B_r(x) -> B_R(y).

    Certificates (solver or declared) must cover 2r at the source and R at
    the target; containment u(B_r(x)) inside B_R(y) is grid checked.  Norms
    are tensor invariants, so they are computed on the source grid in the
    given coordinates; the certificates guarantee the harmonic charts the
    estimate presumes exist.
    """
    if source_certificate is None or target_certificate is None:
        raise CertificateRequired(
            "ball estimate needs source and target radius certificates")
    if not source_certificate.holds or not target_certificate.holds:
        raise CertificateRequired("radius certificates must hold")
    if r > min(source_certificate.r, 1.0) / 2.0 + 1e-12:
        raise PreconditionFailed(
            f"r={r:.4g} exceeds min(certified source radius, 1)/2 "
            f"= {min(source_certificate.r, 1.0) / 2.0:.4g}")
    if not (R < target_certificate.r or np.isinf(target_certificate.r)):
        raise PreconditionFailed(
            f"R={R:.4g} must be below the certified target radius "
            f"{target_certificate.r:.4g}")

    source = map_model.source_chart
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    jet = jet or generalized_hessian(map_model)
    dist = distance_field(source, x)
    ball_half = metric_ball(source, x, r / 2.0, distances=dist)
    ball_r = metric_ball(source, x, r, distances=dist)
    ball_2r = metric_ball(source, x, 2.0 * r, distances=dist)
    warnings = list(ball_2r.warnings)

    evaluator = DistanceEvaluator(map_model.target_chart, y)
    values = map_model.values_on_grid()
    dist_to_y = evaluator(values).reshape(source.box.shape)
    inside = dist_to_y[ball_r.mask] < R
    if not np.all(inside):
        worst = float(dist_to_y[ball_r.mask].max())
        raise PreconditionFailed(
            f"containment u(B_r(x)) in B_R(y) fails: max distance "
            f"{worst:.4g} >= R={R:.4g}")

    vol = source.grid_sqrt_det()
    box = source.box
    lhs = lp_norm_on(box, p, jet.norm_hess(), vol, ball_half.mask)
    t_lap = lp_norm_on(box, p, jet.norm_laplacian(), vol, ball_2r.mask)
    du_2p = lp_norm_on(box, 2 * p, jet.norm_du(), vol, ball_2r.mask)
    inv_R = 0.0 if np.isinf(R) else 1.0 / R
    t_du_sq = inv_R * du_2p ** 2
    t_dist = r ** (-2) * lp_norm_on(box, p, dist_to_y, vol, ball_2r.mask)
    t_du = r ** (-1) * lp_norm_on(box, p, jet.norm_du(), vol, ball_2r.mask)
    terms = {"lhs_hess": lhs, "t_laplacian": t_lap, "t_du_2p_sq": t_du_sq,
             "t_dist": t_dist, "t_du": t_du}
    ratio = _ratio(lhs, t_lap + t_du_sq + t_dist + t_du)
    return BallEstimateInstance(x=x, y=y, r=float(r), R=float(R), p=float(p),
                                terms=terms, ratio=float(ratio),
                                grid_resolution=box.resolution,
                                warnings=warnings)


# ---------------------------------------------------------------------------
# basepoint-ball decomposition and covering
# ---------------------------------------------------------------------------

@dataclass
class OmegaDecomposition:
    """Preimage mask of the quarter-radius target ball around o."""

    mask: np.ndarray             # bool, source grid shape
    dist_to_o: np.ndarray        # dist_N(u(x), o), source grid shape
    r1N: float


def omega_decomposition(map_model: MapModel, o, r1N: float) -> OmegaDecomposition:
    """Mask where dist_N(u(x), o) < r1N / 4; all-true for infinite radius
    (the ball of infinite radius is the whole target).
    """
    source = map_model.source_chart
    evaluator = DistanceEvaluator(map_model.target_chart, o)
    dist = evaluator(map_model.values_on_grid()).reshape(source.box.shape)
    if np.isinf(r1N):
        mask = np.ones(source.box.shape, dtype=bool)
    else:
        mask = dist < r1N / 4.0
    return OmegaDecomposition(mask=mask, dist_to_o=dist, r1N=float(r1N))


@dataclass
class Cover:
    """Greedy separated center set with per-center grid ball indices."""

    chart: MetricChart
    r_hat: float
    separation: float
    centers: np.ndarray           # (C, m)
    center_indices: np.ndarray    # (C,), flat grid indices
    balls_eighth: list            # indices with dist <= r_hat / 8
    balls_full: list              # indices with dist <= r_hat
    balls_double: list            # indices with dist <= 2 r_hat
    count_eighth: np.ndarray      # per grid point
    count_full: np.ndarray
    multiplicity: int

    @property
    def size(self) -> int:
        return len(self.center_indices)

    def verify(self) -> dict:
        """Brute-force cover and multiplicity checks at every grid point."""
        covered = int(self.count_eighth.min())
        return {
            "cover_holds": bool(covered >= 1),
            "min_cover_count": covered,
            "multiplicity": int(self.count_full.max()),
            "centers": self.size,
        }


def build_cover(chart: MetricChart, r_hat: float,
                separation_factor: float = COVER_SEPARATION_FACTOR) -> Cover:
    """Greedy maximal separated subset of the grid with ball bookkeeping.

    Separation is ``separation_factor * r_hat`` (default r_hat/8), so
    maximality makes the eighth-radius balls a cover.  Distances use the
    straight-segment estimator (exact on flat charts, an upper bound in
    general; the same estimator verifies the cover, keeping the check
    self-consistent).
    """
    box = chart.box
    step_len = float(box.steps.max()) * float(np.sqrt(chart.ellipticity_range()[1]))
    if r_hat <= step_len:
        raise ResolutionTooCoarse(
            f"r_hat={r_hat:.4g} is below the grid step "
            f"({step_len:.4g} in metric units)")
    sep = separation_factor * r_hat
    pts = box.points()
    n = pts.shape[0]
    min_dist = np.full(n, np.inf)
    centers, center_indices = [], []
    balls_eighth, balls_full, balls_double = [], [], []
    count_eighth = np.zeros(n, dtype=int)
    count_full = np.zeros(n, dtype=int)
    next_candidate = 0
    while True:
        while next_candidate < n and min_dist[next_candidate] <= sep:
            next_candidate += 1
        if next_candidate >= n:
            break
        c = next_candidate
        row = segment_length(chart, pts[c][None, :], pts)
        centers.append(pts[c])
        center_indices.append(c)
        e = np.flatnonzero(row <= r_hat / 8.0)
        f = np.flatnonzero(row <= r_hat)
        d = np.flatnonzero(row <= 2.0 * r_hat)
        balls_eighth.append(e)
        balls_full.append(f)
        balls_double.append(d)
        count_eighth[e] += 1
        count_full[f] += 1
        np.minimum(min_dist, row, out=min_dist)
    return Cover(chart=chart, r_hat=float(r_hat), separation=float(sep),
                 centers=np.array(centers),
                 center_indices=np.array(center_indices, dtype=int),
                 balls_eighth=balls_eighth, balls_full=balls_full,
                 balls_double=balls_double, count_eighth=count_eighth,
                 count_full=count_full, multiplicity=int(count_full.max()))


# ---------------------------------------------------------------------------
# global estimate
# ---------------------------------------------------------------------------

@dataclass
class CenterReport:
    """Per-center regime checks and local term powers."""

    index: int
    in_omega: bool
    regime_ok: bool
    lip_estimate_ok: bool
    lhs_power: float
    term_powers: dict

    def as_record(self) -> dict:
        return {"index": self.index, "in_omega": self.in_omega,
                "regime_ok": self.regime_ok,
                "lip_estimate_ok": self.lip_estimate_ok}


@dataclass
class GlobalEstimateInstance:
    """Full global-verification record."""

    name: str
    p: float
    r_hat: float
    r: float
    radii: HarmonicRadii
    lipschitz: float
    omega: OmegaDecomposition
    cover: Cover
    terms: dict
    ratio: float
    checks: dict
    center_reports: list
    grid_resolution: tuple
    warnings: list = field(default_factory=list)
    extrapolated: bool = False
    caveats: tuple = (COMPLETENESS_CAVEAT,)

    def as_record(self) -> dict:
        rec = {"name": self.name, "p": self.p, "r_hat": self.r_hat,
               "r": self.r, "r1M": self.radii.r1M, "r1N": self.radii.r1N,
               "lipschitz": self.lipschitz, "ratio": self.ratio,
               "omega_fraction": float(self.omega.mask.mean()),
               "cover_centers": self.cover.size,
               "multiplicity": self.cover.multiplicity,
               "resolution": list(self.grid_resolution),
               "extrapolated": self.extrapolated,
               "caveats": list(self.caveats)}
        rec.update(self.terms)
        rec.update({f"check_{k}": v for k, v in self.checks.items()})
        return rec


def _inv(x: float) -> float:
    return 0.0 if np.isinf(x) else 1.0 / x


def verify_global_estimate(map_model: MapModel, o, p: float,
                           radii: HarmonicRadii,
                           jet: JetField | None = None,
                           cover: Cover | None = None,
                           uniform_radius: float | None = None,
                           omega_slack: float = OMEGA_SLACK,
                           name: str = "global") -> GlobalEstimateInstance:
    """Run the whole global pipeline and report the empirical ratio.

    The two per-center regimes follow the basepoint decomposition: centers
    inside Omega get the basepoint as target center (containment in the
    half-radius ball is verified); centers outside get their own image
    point, and the comparison dist_N(u(x), u(center)) <= dist_N(u(x), o)
    is asserted on the sampled double ball.

    With ``uniform_radius`` set, the Lipschitz hypothesis is replaced by a
    measured uniform-continuity profile (r_uc, R_uc); the run is flagged
    extrapolated.  A passed ``cover`` is reused only when it was built on
    this map's source chart at this r_hat; otherwise a new one is built.
    """
    source = map_model.source_chart
    box = source.box
    L = map_model.lipschitz_bound
    extrapolated = False
    if uniform_radius is not None:
        from .maps import uniform_continuity_profile
        r_uc = float(uniform_radius)
        R_uc = uniform_continuity_profile(map_model, r_uc)
        if not (R_uc < radii.r1N / 16.0):
            raise PreconditionFailed(
                f"uniform-continuity profile R={R_uc:.4g} is not below "
                f"r1N/16={radii.r1N / 16.0:.4g}")
        if not (r_uc < radii.r1M / 16.0):
            raise PreconditionFailed(
                f"uniform-continuity radius r={r_uc:.4g} is not below "
                f"r1M/16={radii.r1M / 16.0:.4g}")
        r_hat = min(r_uc / 2.0, radii.r1M / 16.0, 1.0 / 16.0)
        extrapolated = True
    else:
        r_hat = compute_r_hat(radii.r1M, radii.r1N, L)
    r = 16.0 * r_hat

    jet = jet or generalized_hessian(map_model)
    omega = omega_decomposition(map_model, o, radii.r1N)
    if (cover is None or cover.chart is not source
            or abs(cover.r_hat - r_hat) > 1e-15):
        cover = build_cover(source, r_hat)
    cover_checks = cover.verify()

    values = map_model.values_on_grid()
    vol = source.grid_sqrt_det()
    w = quadrature_weights(box) * vol
    wflat = w.reshape(-1)

    hess = jet.norm_hess().reshape(-1)
    lap = jet.norm_laplacian().reshape(-1)
    du = jet.norm_du().reshape(-1)
    dist_o = omega.dist_to_o.reshape(-1)
    omega_flat = omega.mask.reshape(-1)

    hess_p = np.abs(hess) ** p * wflat
    lap_p = np.abs(lap) ** p * wflat
    du_p = np.abs(du) ** p * wflat
    du_2p = np.abs(du) ** (2 * p) * wflat
    dist_p = np.abs(dist_o) ** p * wflat

    r1N = radii.r1N
    lip_bound = r1N / 8.0
    half_bound = r1N / 2.0

    center_reports = []
    sum_lhs_p = 0.0
    sums = {"t_laplacian": 0.0, "t_du": 0.0, "t_du_2p": 0.0, "t_dist": 0.0}
    dichotomy_ok = True
    for ci in range(cover.size):
        gidx = int(cover.center_indices[ci])
        in_omega = bool(omega_flat[gidx])
        ball2 = cover.balls_double[ci]
        ballf = cover.balls_full[ci]
        balle = cover.balls_eighth[ci]
        # image spread on the double ball, straight-segment estimator
        img_d = segment_length(map_model.target_chart,
                               values[gidx][None, :], values[ball2])
        lip_ok = bool(np.all(img_d < lip_bound)) if np.isfinite(r1N) else True
        if in_omega:
            regime_ok = bool(np.all(dist_o[ball2] < half_bound)) \
                if np.isfinite(r1N) else True
        else:
            regime_ok = bool(np.all(img_d <= dist_o[ball2]
                                    + omega_slack * (1.0 + dist_o[ball2])))
        dichotomy_ok &= regime_ok and lip_ok
        lhs_p = float(hess_p[balle].sum())
        sum_lhs_p += lhs_p
        term_powers = {
            "t_laplacian": float(lap_p[ballf].sum()),
            "t_du": float(du_p[ballf].sum()),
            "t_du_2p": float(du_2p[ballf].sum()),
            "t_dist": float(dist_p[ballf].sum()),
        }
        for k in sums:
            sums[k] += term_powers[k]
        center_reports.append(CenterReport(
            index=gidx, in_omega=in_omega, regime_ok=regime_ok,
            lip_estimate_ok=lip_ok, lhs_power=lhs_p, term_powers=term_powers))

    # summation step: covering from below, multiplicity from above
    total = {"lhs": float(hess_p.sum()), "t_laplacian": float(lap_p.sum()),
             "t_du": float(du_p.sum()), "t_du_2p": float(du_2p.sum()),
             "t_dist": float(dist_p.sum())}
    D = cover.multiplicity
    tol = 1e-9
    summation_lower_ok = sum_lhs_p >= total["lhs"] * (1.0 - tol)
    summation_upper_ok = all(sums[k] <= D * total[k] * (1.0 + tol) + 1e-300
                             for k in sums)

    lhs = total["lhs"] ** (1.0 / p)
    t_lap = total["t_laplacian"] ** (1.0 / p)
    t_du = _inv(r) * total["t_du"] ** (1.0 / p)
    t_du_2p_sq = _inv(r1N) * (total["t_du_2p"] ** (1.0 / (2 * p))) ** 2
    t_dist = r ** (-2) * total["t_dist"] ** (1.0 / p)
    terms = {"lhs_hess": lhs, "t_laplacian": t_lap, "t_du": t_du,
             "t_du_2p_sq": t_du_2p_sq, "t_dist": t_dist}
    ratio = _ratio(lhs, t_lap + t_du + t_du_2p_sq + t_dist)

    checks = dict(cover_checks)
    checks.update({
        "regime_dichotomy": bool(dichotomy_ok),
        "summation_lower": bool(summation_lower_ok),
        "summation_upper": bool(summation_upper_ok),
        "ratio_finite": bool(np.isfinite(ratio)),
    })
    warnings = []
    if radii.source == "declared":
        warnings.append("harmonic radii taken from scenario declaration")
    return GlobalEstimateInstance(
        name=name, p=float(p), r_hat=float(r_hat), r=float(r), radii=radii,
        lipschitz=L, omega=omega, cover=cover, terms=terms,
        ratio=float(ratio), checks=checks, center_reports=center_reports,
        grid_resolution=box.resolution, warnings=warnings,
        extrapolated=extrapolated)


# ---------------------------------------------------------------------------
# Euclidean-target estimate and its curved-target corollary
# ---------------------------------------------------------------------------

def verify_euclidean_corollaries(map_model: MapModel, p: float,
                                 mode: str = "intro",
                                 basepoint=None,
                                 radii: HarmonicRadii | None = None,
                                 diam_samples: int = 1500,
                                 seed: int = 20859) -> dict:
    """Immersion inequalities: second-fundamental-form norm against mean
    curvature plus lower-order data.

    mode "intro" (flat target):  ratio = ||II||_p / (1 + ||H||_p +
    ||dist(u, 0)||_p).  mode "corollaryA": the right side is ||H||_p +
    vol^{1/p} (r^-1 + r1N^-1 + r^-2 diam(u(M))) with
    r = min(r1M, r1N, 1); the diameter is a max over sampled image pairs
    (a lower bound, flagged as such).
    """
    if mode not in ("intro", "corollaryA"):
        raise ValueError(f"unknown mode {mode!r}")
    imm = immersion_check(map_model)
    jet = imm.jet
    source = map_model.source_chart
    box = source.box
    vol = source.grid_sqrt_det()
    norm_ii = lp_norm_on(box, p, jet.norm_hess(), vol)
    norm_h = lp_norm_on(box, p, jet.norm_laplacian(), vol)
    m = source.dimension
    du_sq = jet.norm_du() ** 2
    isometric_defect = float(np.abs(du_sq - m).max())
    volume = float((quadrature_weights(box) * vol).sum())
    du_2p = lp_norm_on(box, 2 * p, jet.norm_du(), vol)
    record = {
        "mode": mode, "p": p,
        "norm_ii": norm_ii, "norm_h": norm_h,
        "isometry_defect": imm.isometry_defect,
        "normality_defect": imm.normality_defect,
        "du_sq_minus_m": isometric_defect,
        "volume": volume,
        "norm_du_2p_sq": du_2p ** 2,
        "norm_du_2p_sq_closed_form": m * volume ** (1.0 / p),
        "caveats": [COMPLETENESS_CAVEAT],
    }
    if mode == "intro":
        if basepoint is None:
            basepoint = np.zeros(map_model.target_dimension)
        evaluator = DistanceEvaluator(map_model.target_chart, basepoint)
        dist = evaluator(map_model.values_on_grid()).reshape(box.shape)
        norm_dist = lp_norm_on(box, p, dist, vol)
        record["norm_dist"] = norm_dist
        record["ratio"] = _ratio(norm_ii, 1.0 + norm_h + norm_dist)
        return record
    if radii is None:
        raise CertificateRequired("corollaryA mode needs harmonic radii")
    r = min(radii.r1M, radii.r1N, 1.0)
    values = map_model.values_on_grid()
    rng = np.random.default_rng(seed)
    count = min(diam_samples, values.shape[0])
    sel = rng.choice(values.shape[0], size=count, replace=False)
    sub = values[sel]
    diam = 0.0
    for i in range(0, count, 256):
        chunk = sub[i:i + 256]
        d = segment_length(map_model.target_chart, chunk[:, None, :],
                           sub[None, :, :])
        diam = max(diam, float(d.max()))
    record["diameter"] = diam
    record["diameter_is_lower_bound"] = True
    record["r"] = r
    rhs = norm_h + volume ** (1.0 / p) * (1.0 / r + _inv(radii.r1N)
                                          + r ** (-2) * diam)
    record["rhs"] = rhs
    record["ratio"] = _ratio(norm_ii, rhs)
    return record

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

import functools
import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import (CertificateRequired, DegenerateRadius, HypothesisFailed,
                     PreconditionFailed, ResolutionTooCoarse, UnsupportedExponent)
from .geodesics import metric_ball, distance_field, offset_slices, segment_length
from .geometry import CoordinateBox, MetricChart
from .harmonic import RadiusCertificate
from .maps import (MapModel, field_jet, immersion_check,
                   uniform_continuity_profile)
from .norms import (PairTable, dist_to_basepoint_field, lp_norm_on,
                    quadrature_weights)

COMPLETENESS_CAVEAT = ("chart model is a bounded box; estimates are verified "
                      "on interior balls only")
COVER_WINDOW_MARGIN = 1.05     # coordinate window slack, see build_cover
OMEGA_SLACK = 1e-9             # relative slack of the far-regime comparison
DIAMETER_SAMPLES = 1500        # image points sampled for diam(u(M))
DIAMETER_SEED = 20859
LEMMA_DIMENSION = 2            # the lemma's balls lie in the plane
LEMMA_ALPHA = 0.5              # Hölder exponent of the coefficient bound


# ---------------------------------------------------------------------------
# scaled elliptic lemma
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _ball_pairs(resolution: int, s: float) -> PairTable:
    """Pair table of the lemma grid points in B_2s (the reference grid on
    [-2, 2]^2 scaled by s), shared by every spec on that grid."""
    ref = CoordinateBox([-2.0] * LEMMA_DIMENSION, [2.0] * LEMMA_DIMENSION,
                        [resolution] * LEMMA_DIMENSION).points()
    return PairTable(s * ref[np.linalg.norm(ref, axis=1) <= 2.0], LEMMA_ALPHA)


class EllipticOperatorSpec:
    """Second-order operator P = a^{ij} d_i d_j on the Euclidean ball B_2s
    of the plane.

    ``coefficients``: symmetric nested sequence of scalar callables.
    Hypotheses checked by :meth:`validate`: (a^{ij}) >= 1/2 as bilinear
    forms on the grid, sup |a^{ij}| <= Lambda, and the Hölder bound
    [a^{ij}]_alpha <= Lambda s^-alpha, alpha = ``LEMMA_ALPHA``.  None of
    them involves the norm exponent, which the verifiers take per call.
    """

    alpha = LEMMA_ALPHA
    dimension = LEMMA_DIMENSION

    def __init__(self, s: float, coefficients, Lambda: float,
                 resolution: int = 33):
        if not (0.0 < s <= 1.0):
            raise ValueError("s must lie in (0, 1]")
        self.s = float(s)
        self.Lambda = float(Lambda)
        self.resolution = int(resolution)
        m = self.dimension
        self.coefficients = [[coefficients[min(i, j)][max(i, j)]
                              for j in range(m)] for i in range(m)]
        # reference grid on [-2, 2]^m; the scaled grid is s * reference,
        # which realizes the dilation operator sample-for-sample
        self.reference_box = CoordinateBox([-2.0] * m, [2.0] * m, [resolution] * m)
        self.reference_points = self.reference_box.points()
        radius = np.linalg.norm(self.reference_points, axis=1).reshape(
            self.reference_box.shape)
        self.mask_outer, self.mask_inner = radius <= 2.0, radius <= 1.0
        self._validated = False
        self._transfer = None
        self._samples: dict = {}

    def scaled_points(self) -> np.ndarray:
        return self.s * self.reference_points

    @functools.cached_property
    def grid_coefficients(self) -> np.ndarray:
        """(a^{ij}) on the scaled grid, shape ``(*grid, m, m)``."""
        m, shape = self.dimension, self.reference_box.shape
        points = self.scaled_points().reshape(shape + (m,))
        out = np.empty(shape + (m, m))
        for i in range(m):
            for j in range(i, m):
                out[..., i, j] = out[..., j, i] = self.coefficients[i][j](points)
        return out

    def field_samples(self, u) -> "ScalarFieldSamples":
        """The samples of ``u`` on this spec's grid, built once per field
        for every exponent."""
        if u not in self._samples:
            self._samples[u] = ScalarFieldSamples(self, u)
        return self._samples[u]

    def validate(self) -> "EllipticOperatorSpec":
        if self._validated:
            return self
        a = self.grid_coefficients[self.mask_outer]
        eig = np.linalg.eigvalsh(a)
        if float(eig[..., 0].min()) < 0.5 - 1e-12:
            raise HypothesisFailed("ellipticity (a >= 1/2)",
                                   f"min eigenvalue {eig[..., 0].min():.4g}")
        sup = float(np.abs(a).max())
        if sup > self.Lambda + 1e-12:
            raise HypothesisFailed("sup bound (|a| <= Lambda)",
                                   f"sup {sup:.4g} > Lambda {self.Lambda:.4g}")
        bound = self.Lambda * self.s ** (-self.alpha)
        worst = self._coefficient_seminorm(self.s)
        if worst > bound + 1e-12:
            raise HypothesisFailed(
                "Hölder bound ([a]_alpha <= Lambda s^-alpha)",
                f"seminorm {worst:.4g} > {bound:.4g}")
        self._validated = True
        return self

    def holder_transfer(self) -> float:
        """max [a~^{ij}]_alpha over B_2 of the dilated coefficients
        a~(z) = a(sz); it does not depend on the field, so it is memoised."""
        if self._transfer is None:
            self._transfer = self._coefficient_seminorm(1.0)
        return self._transfer

    def _coefficient_seminorm(self, scale: float) -> float:
        """max over i <= j of the seminorm of a^{ij} sampled on B_2s,
        taken over the grid scaled by ``scale``.

        A coefficient whose samples are all equal is skipped: on distinct
        grid points each of its quotients is 0/|x-y|^alpha = 0.0, which
        cannot raise ``worst`` from its start at 0.0.
        """
        a = self.grid_coefficients[self.mask_outer]
        m = self.dimension
        varying = [a[:, i, j] for i in range(m) for j in range(i, m)
                   if not np.all(a[:, i, j] == a[0, i, j])]
        worst = 0.0
        if varying:
            pairs = _ball_pairs(self.resolution, scale)
            for value in pairs.seminorms(varying):
                worst = max(worst, float(value))
        return worst


class ScalarFieldSamples:
    """What the two lemma verifiers read of a field u on a spec's grid,
    none of which depends on q: the samples of u and Pu, the pointwise
    |grad u| and |Hess u|, and the largest deviations over B_2 of the
    three dilation identities (see :func:`verify_scaling_identities`).
    The jets they come from are not kept."""

    def __init__(self, spec: EllipticOperatorSpec, u):
        s, box, mask = spec.s, spec.reference_box, spec.mask_outer
        pts = spec.scaled_points()
        self.values = np.asarray(u(pts), dtype=float).reshape(box.shape)
        grad, hess = field_jet(u, self.values, pts, box.steps * s, "analytic")
        self.grad_norm = np.sqrt(np.sum(grad ** 2, axis=0))
        self.hess_norm = np.sqrt(np.sum(hess ** 2, axis=(0, 1)))
        a = spec.grid_coefficients
        self.pu = np.einsum("...ij,ij...->...", a, hess)
        # the dilated field tu(z) = u(sz) on the reference grid
        grad_t, hess_t = field_jet(u.dilated(s), self.values,
                                   spec.reference_points, box.steps, "analytic")
        self.dev_gradient = float(np.abs(grad_t - s * grad)[:, mask].max())
        self.dev_hessian = float(np.abs(hess_t - s * s * hess)[:, :, mask].max())
        p_tilde_u = np.einsum("...ij,ij...->...", a, hess_t)
        self.dev_operator = float(np.abs(p_tilde_u - s * s * self.pu)[mask].max())


def verify_scaling_identities(spec: EllipticOperatorSpec, u, q: float) -> dict:
    """Check the dilation identities of the elliptic lemma.

    With tu(z) = u(sz): P~ tu = s^2 (Pu)~, d_i d_j tu = s^2 (d_i d_j u)~,
    d_i tu = s (d_i u)~, and the L^q norm picks up s^{-m/q}.  Also checks
    that the hypothesis bounds transfer to the scaled coefficients.

    The dilated field is built by substituting x -> s x into the
    expression and differentiating THAT symbolically, so the two sides of
    each identity come from independent symbolic routes.
    """
    if not (1.0 < q < np.inf):
        raise UnsupportedExponent(q)
    spec.validate()
    s, m = spec.s, spec.dimension
    box = spec.reference_box
    samples = spec.field_samples(u)
    mask = spec.mask_outer

    # norm scaling on u and Pu over the outer ball
    dev_norm = 0.0
    for field_vals in (samples.values, samples.pu):
        lhs = lp_norm_on(box, q, field_vals, np.ones(box.shape), mask)
        rhs_box = CoordinateBox(box.lower * s, box.upper * s, box.resolution)
        rhs = lp_norm_on(rhs_box, q, field_vals, np.ones(box.shape), mask)
        dev_norm = max(dev_norm, abs(lhs - s ** (-m / q) * rhs)
                       / max(1.0, abs(lhs)))

    # hypothesis transfer on the scaled coefficients over B_2
    transfer = spec.holder_transfer()
    transfer_ok = transfer <= spec.Lambda + 1e-10

    tol = 1e-10
    devs = {"dev_operator": samples.dev_operator,
            "dev_hessian": samples.dev_hessian,
            "dev_gradient": samples.dev_gradient, "dev_norm": float(dev_norm)}
    return {
        "s": s, "q": q, **devs,
        "holder_transfer": transfer, "holder_transfer_ok": bool(transfer_ok),
        "tolerance": tol,
        "passed": bool(max(devs.values()) <= tol and transfer_ok),
    }


def verify_interior_estimate(spec: EllipticOperatorSpec, u, q: float) -> dict:
    """Interior a-priori estimate: L^q norms of u, grad u, second
    derivatives on B_s against ||Pu|| + s^-2 ||u|| on B_2s; reports the
    empirical ratio.
    """
    if not (1.0 < q < np.inf):
        raise UnsupportedExponent(q)
    spec.validate()
    box = spec.reference_box
    s = spec.s
    scaled_box = CoordinateBox(box.lower * s, box.upper * s, box.resolution)
    samples = spec.field_samples(u)
    ones = np.ones(box.shape)
    inner = spec.mask_inner
    outer = spec.mask_outer
    lhs = (lp_norm_on(scaled_box, q, samples.values, ones, inner)
           + lp_norm_on(scaled_box, q, samples.grad_norm, ones, inner)
           + lp_norm_on(scaled_box, q, samples.hess_norm, ones, inner))
    rhs = (lp_norm_on(scaled_box, q, samples.pu, ones, outer)
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
class Verdict:
    """One verified inequality, as its report states it: the named terms
    of both sides, their ratio, the checks, and what qualifies them.  The
    runner adds what describes the run (scenario, mode, p, resolution,
    certificates, timing)."""

    terms: dict
    ratio: float
    checks: dict
    warnings: list = field(default_factory=list)
    caveats: list = field(default_factory=lambda: [COMPLETENESS_CAVEAT])
    cover_stats: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _ratio(lhs: float, denom: float) -> float:
    if lhs == 0.0:
        return 0.0
    if denom == 0.0:
        return np.inf
    return lhs / denom


def verify_ball_estimate(map_model: MapModel, x, y, r: float, R: float,
                         p: float,
                         source_certificate: RadiusCertificate | None = None,
                         target_certificate: RadiusCertificate | None = None
                         ) -> Verdict:
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
    jet = map_model.jet()
    dist = distance_field(source, x)
    ball_half = metric_ball(source, x, r / 2.0, distances=dist)
    ball_r = metric_ball(source, x, r, distances=dist)
    ball_2r = metric_ball(source, x, 2.0 * r, distances=dist)
    warnings = list(ball_2r.warnings)

    dist_to_y = dist_to_basepoint_field(map_model, y)
    inside = dist_to_y[ball_r.mask] < R
    if not np.all(inside):
        worst = float(dist_to_y[ball_r.mask].max())
        raise PreconditionFailed(
            f"containment u(B_r(x)) in B_R(y) fails: max distance "
            f"{worst:.4g} >= R={R:.4g}")

    vol = source.grid_sqrt_det()
    box = source.box
    lhs = lp_norm_on(box, p, jet.norm_hess, vol, ball_half.mask)
    t_lap = lp_norm_on(box, p, jet.norm_laplacian, vol, ball_2r.mask)
    du_2p = lp_norm_on(box, 2 * p, jet.norm_du, vol, ball_2r.mask)
    inv_R = 0.0 if np.isinf(R) else 1.0 / R
    t_du_sq = inv_R * du_2p ** 2
    t_dist = r ** (-2) * lp_norm_on(box, p, dist_to_y, vol, ball_2r.mask)
    t_du = r ** (-1) * lp_norm_on(box, p, jet.norm_du, vol, ball_2r.mask)
    terms = {"lhs_hess": lhs, "t_laplacian": t_lap, "t_du_2p_sq": t_du_sq,
             "t_dist": t_dist, "t_du": t_du}
    ratio = float(_ratio(lhs, t_lap + t_du_sq + t_dist + t_du))
    return Verdict(terms, ratio, {"ratio_finite": bool(np.isfinite(ratio))},
                   warnings=warnings)


# ---------------------------------------------------------------------------
# basepoint-ball decomposition and covering
# ---------------------------------------------------------------------------

@dataclass
class OmegaDecomposition:
    """Preimage mask of the quarter-radius target ball around o."""

    mask: np.ndarray             # bool, source grid shape
    dist_to_o: np.ndarray        # dist_N(u(x), o), source grid shape


def omega_decomposition(map_model: MapModel, o, r1N: float) -> OmegaDecomposition:
    """Mask where dist_N(u(x), o) < r1N / 4; all-true for infinite radius
    (the ball of infinite radius is the whole target).
    """
    source = map_model.source_chart
    dist = dist_to_basepoint_field(map_model, o)
    if np.isinf(r1N):
        mask = np.ones(source.box.shape, dtype=bool)
    else:
        mask = dist < r1N / 4.0
    return OmegaDecomposition(mask=mask, dist_to_o=dist)


@dataclass
class Cover:
    """Greedy r_hat/8-separated centers and their ring table.

    ``rings[k, c]`` is the int8 ring code of center c and its partner
    ``center_indices[c] + shifts[k]``: 3 within r_hat/8, 2 within r_hat,
    1 within 2 r_hat and 0 farther (or off the grid).  No row is all zero.
    """

    chart: MetricChart
    r_hat: float
    center_indices: np.ndarray    # (C,), flat grid indices
    shifts: np.ndarray            # (K,), flat index shift of each offset
    rings: np.ndarray             # (K, C) int8 ring codes

    def __post_init__(self):
        n = self.chart.box.num_points
        self.count_eighth = np.zeros(n, dtype=np.int64)
        self.count_full = np.zeros(n, dtype=np.int64)
        # within one offset the partners are distinct, so += is exact
        for shift, ring in zip(self.shifts, self.rings):
            rows = np.flatnonzero(ring)
            cols = self.center_indices[rows] + shift
            self.count_eighth[cols] += ring[rows] == 3
            self.count_full[cols] += ring[rows] >= 2
        self.multiplicity = int(self.count_full.max())

    @property
    def size(self) -> int:
        return len(self.center_indices)

    @property
    def separation(self) -> float:
        return self.r_hat / 8.0

    def verify(self) -> dict:
        """Brute-force cover and multiplicity checks at every grid point."""
        covered = int(self.count_eighth.min())
        return {"cover_holds": bool(covered >= 1), "min_cover_count": covered,
                "multiplicity": self.multiplicity, "centers": self.size}


def build_cover(chart: MetricChart, r_hat: float) -> Cover:
    """Greedy maximal r_hat/8-separated subset of the grid and its rings.

    Maximality makes the eighth-radius balls a cover.  Distances use the
    straight-segment estimator from center to point (exact on flat charts,
    an upper bound in general; the same estimator verifies the cover,
    keeping the check self-consistent).  Only grid offsets within the
    coordinate window ``COVER_WINDOW_MARGIN * 2 r_hat / sqrt(lambda_min)``
    are measured, lambda_min the smallest metric eigenvalue on the grid.
    """
    box = chart.box
    lam_min, lam_max = chart.ellipticity_range()
    step_len = float(box.steps.max()) * float(np.sqrt(lam_max))
    if r_hat <= step_len:
        raise ResolutionTooCoarse(
            f"r_hat={r_hat:.4g} is below the grid step "
            f"({step_len:.4g} in metric units)")
    pts = box.points()
    n = box.num_points
    idx = np.arange(n).reshape(box.shape)
    reach = COVER_WINDOW_MARGIN * 2.0 * r_hat / np.sqrt(lam_min)
    # offsets beyond the grid extent pair no points (and would wrap slices)
    span = np.minimum(reach // box.steps, np.array(box.shape) - 1).astype(int)
    offsets = [off for off in itertools.product(*(range(-s, s + 1) for s in span))
               if np.linalg.norm(np.multiply(off, box.steps)) <= reach]
    rings = np.zeros((len(offsets), n), dtype=np.int8)  # [offset, source]
    shifts = []
    for off in offsets:
        a, b = offset_slices(off, box.shape)
        src = idx[a].reshape(-1)
        d = segment_length(chart, pts[src], pts[idx[b].reshape(-1)])
        ring = rings[len(shifts)]
        ring[src] = ((d <= 2.0 * r_hat).astype(np.int8) + (d <= r_hat)
                     + (d <= r_hat / 8.0))
        if ring.any():              # else the next offset reuses the row
            shifts.append(np.dot(off, idx.strides) // idx.itemsize)
    shifts, rings = np.array(shifts, dtype=np.int64), rings[:len(shifts)]

    # each point's zero offset has d = 0, code 3; when no other offset has
    # code 3, no point covers another and the greedy pass picks them all
    near = np.flatnonzero([np.any(ring == 3) for ring in rings])
    if len(near) == 1:
        centers = np.arange(n)
    else:
        eighth = np.ascontiguousarray((rings[near] == 3).T)   # (N, K_8)
        near_shifts = shifts[near]
        covered = np.zeros(n, dtype=bool)
        is_center = np.zeros(n, dtype=bool)
        for c in range(n):
            if not covered[c]:
                is_center[c] = True
                covered[c + near_shifts[eighth[c]]] = True
        centers = np.flatnonzero(is_center)
        rings = rings[:, centers]   # keep the centers' columns
        kept = rings.any(axis=1)
        shifts, rings = shifts[kept], rings[kept]
    return Cover(chart=chart, r_hat=float(r_hat), center_indices=centers,
                 shifts=shifts, rings=rings)


# ---------------------------------------------------------------------------
# global estimate
# ---------------------------------------------------------------------------

def _inv(x: float) -> float:
    return 0.0 if np.isinf(x) else 1.0 / x


def verify_global_estimate(map_model: MapModel, o, p: float,
                           radii: HarmonicRadii,
                           uniform_radius: float | None = None,
                           omega_slack: float = OMEGA_SLACK) -> Verdict:
    """Run the whole global pipeline and report the empirical ratio.

    The two per-center regimes follow the basepoint decomposition: centers
    inside Omega get the basepoint as target center (containment in the
    half-radius ball is verified); centers outside get their own image
    point, and the comparison dist_N(u(x), u(center)) <= dist_N(u(x), o)
    is asserted on the sampled double ball.

    With ``uniform_radius`` set, the Lipschitz hypothesis is replaced by a
    measured uniform-continuity profile (r_uc, R_uc); the run is flagged
    extrapolated.  Nothing here but the sums depends on p: the map keeps its
    jet, its profile per radius, its Omega and its regime-dichotomy
    verdict, the source chart its cover per r_hat, for every exponent and
    every map on it.
    """
    source = map_model.source_chart
    box = source.box
    if uniform_radius is not None:
        r_uc = float(uniform_radius)
        R_uc = map_model.memo(("uc_profile", r_uc), lambda: (
            uniform_continuity_profile(map_model, r_uc)))
        if not (R_uc < radii.r1N / 16.0):
            raise PreconditionFailed(
                f"uniform-continuity profile R={R_uc:.4g} is not below "
                f"r1N/16={radii.r1N / 16.0:.4g}")
        if not (r_uc < radii.r1M / 16.0):
            raise PreconditionFailed(
                f"uniform-continuity radius r={r_uc:.4g} is not below "
                f"r1M/16={radii.r1M / 16.0:.4g}")
        r_hat = min(r_uc / 2.0, radii.r1M / 16.0, 1.0 / 16.0)
    else:
        r_hat = compute_r_hat(radii.r1M, radii.r1N, map_model.lipschitz_bound)
    r = 16.0 * r_hat

    cover = source.memo(("cover", r_hat), lambda: build_cover(source, r_hat))
    jet = map_model.jet()
    r1N = radii.r1N
    at_o = np.asarray(o, dtype=float).tobytes()
    omega = map_model.memo(("omega", at_o, r1N),
                           lambda: omega_decomposition(map_model, o, r1N))
    cover_checks = cover.verify()

    values = map_model.values_on_grid()
    wflat = (quadrature_weights(box) * source.grid_sqrt_det()).reshape(-1)
    du = jet.norm_du.reshape(-1)
    dist_o = omega.dist_to_o.reshape(-1)
    hess_p = np.abs(jet.norm_hess.reshape(-1)) ** p * wflat
    lap_p = np.abs(jet.norm_laplacian.reshape(-1)) ** p * wflat
    du_p = np.abs(du) ** p * wflat
    du_2p = np.abs(du) ** (2 * p) * wflat
    dist_p = np.abs(dist_o) ** p * wflat

    # regime checks on each center's double ball, straight-segment
    # estimator on the target, one call per ring offset.  r1N > 0 is not
    # nan here (compute_r_hat and the uniform-continuity test reject it).
    # At r1N = +inf every center is in Omega and the near and Lipschitz
    # conditions hold trivially, so the far test is never read and the
    # dichotomy holds without a single target distance.  Nothing in it
    # depends on p: the map keeps the verdict.
    def dichotomy() -> bool:
        center_idx = cover.center_indices
        in_omega = omega.mask.reshape(-1)[center_idx]
        ok = True
        pairs = zip(cover.shifts, cover.rings) if np.isfinite(r1N) else ()
        for shift, ring in pairs:
            rows = np.flatnonzero(ring)
            cols = center_idx[rows] + shift
            img_d = segment_length(map_model.target_chart,
                                   values[center_idx[rows]], values[cols])
            d_o = dist_o[cols]
            near = d_o < r1N / 2.0
            far = img_d <= d_o + omega_slack * (1.0 + d_o)
            lip = img_d < r1N / 8.0
            ok &= bool(np.all(np.where(in_omega[rows], near, far))
                       and np.all(lip))
        return ok

    dichotomy_ok = map_model.memo(("dichotomy", r_hat, at_o, r1N, omega_slack),
                                  dichotomy)

    # summation step, sum_c sum_{x in B_c} f(x) = sum_x count(x) f(x):
    # covering from below, multiplicity from above
    total = {"lhs": float(hess_p.sum()), "t_laplacian": float(lap_p.sum()),
             "t_du": float(du_p.sum()), "t_du_2p": float(du_2p.sum()),
             "t_dist": float(dist_p.sum())}
    D = cover.multiplicity
    tol = 1e-9
    summation_lower_ok = (float(cover.count_eighth @ hess_p)
                          >= total["lhs"] * (1.0 - tol))
    summation_upper_ok = all(
        float(cover.count_full @ v) <= D * total[k] * (1.0 + tol) + 1e-300
        for k, v in (("t_laplacian", lap_p), ("t_du", du_p),
                     ("t_du_2p", du_2p), ("t_dist", dist_p)))

    lhs = total["lhs"] ** (1.0 / p)
    t_lap = total["t_laplacian"] ** (1.0 / p)
    t_du = _inv(r) * total["t_du"] ** (1.0 / p)
    t_du_2p_sq = _inv(r1N) * (total["t_du_2p"] ** (1.0 / (2 * p))) ** 2
    t_dist = r ** (-2) * total["t_dist"] ** (1.0 / p)
    terms = {"lhs_hess": lhs, "t_laplacian": t_lap, "t_du": t_du,
             "t_du_2p_sq": t_du_2p_sq, "t_dist": t_dist}
    ratio = float(_ratio(lhs, t_lap + t_du + t_du_2p_sq + t_dist))

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
    return Verdict(terms, ratio, checks, warnings=warnings,
                   cover_stats={"centers": cover.size,
                                "multiplicity": cover.multiplicity,
                                "separation": cover.separation},
                   extra={"extrapolated": uniform_radius is not None})


# ---------------------------------------------------------------------------
# Euclidean-target estimate and its curved-target corollary
# ---------------------------------------------------------------------------

def verify_euclidean_corollaries(map_model: MapModel, p: float,
                                 mode: str = "intro",
                                 basepoint=None,
                                 radii: HarmonicRadii | None = None
                                 ) -> Verdict:
    """Immersion inequalities: second-fundamental-form norm against mean
    curvature plus lower-order data.

    mode "intro" (flat target):  ratio = ||II||_p / (1 + ||H||_p +
    ||dist(u, 0)||_p).  mode "corollaryA": the right side is ||H||_p +
    vol^{1/p} (r^-1 + r1N^-1 + r^-2 diam(u(M))) with
    r = min(r1M, r1N, 1); the diameter is a max over sampled image pairs
    (a lower bound, flagged as such).  The map keeps its
    :func:`immersion_check` and its image diameter for every exponent.
    """
    if mode not in ("intro", "corollaryA"):
        raise ValueError(f"unknown mode {mode!r}")
    imm = map_model.memo("immersion", lambda: immersion_check(map_model))
    jet = map_model.jet()
    source = map_model.source_chart
    box = source.box
    vol = source.grid_sqrt_det()
    norm_ii = lp_norm_on(box, p, jet.norm_hess, vol)
    norm_h = lp_norm_on(box, p, jet.norm_laplacian, vol)
    m = source.dimension
    du_sq = jet.norm_du ** 2
    isometric_defect = float(np.abs(du_sq - m).max())
    volume = float((quadrature_weights(box) * vol).sum())
    du_2p = lp_norm_on(box, 2 * p, jet.norm_du, vol)
    terms = {
        "p": p,
        "norm_ii": norm_ii, "norm_h": norm_h,
        "isometry_defect": imm.isometry_defect,
        "normality_defect": imm.normality_defect,
        "du_sq_minus_m": isometric_defect,
        "volume": volume,
        "norm_du_2p_sq": du_2p ** 2,
        "norm_du_2p_sq_closed_form": m * volume ** (1.0 / p),
    }
    if mode == "intro":
        if basepoint is None:
            basepoint = np.zeros(map_model.target_dimension)
        dist = dist_to_basepoint_field(map_model, basepoint)
        terms["norm_dist"] = lp_norm_on(box, p, dist, vol)
        rhs = 1.0 + norm_h + terms["norm_dist"]
    elif radii is None:
        raise CertificateRequired("corollaryA mode needs harmonic radii")
    else:
        r = min(radii.r1M, radii.r1N, 1.0)
        diam = map_model.memo("image_diameter",
                              lambda: image_diameter(map_model))
        rhs = norm_h + volume ** (1.0 / p) * (1.0 / r + _inv(radii.r1N)
                                              + r ** (-2) * diam)
        terms.update(diameter=diam, diameter_is_lower_bound=True, r=r,
                     rhs=rhs)
    terms["ratio"] = ratio = _ratio(norm_ii, rhs)
    return Verdict(terms, ratio, {"ratio_finite": bool(np.isfinite(ratio))})


def image_diameter(map_model: MapModel) -> float:
    """Lower bound on diam(u(M)): max length over the ordered pairs of
    image points, all of them up to ``DIAMETER_SAMPLES`` points, else a
    seeded sample of that many."""
    values = map_model.values_on_grid()
    if values.shape[0] > DIAMETER_SAMPLES:
        values = values[random.Random(DIAMETER_SEED).sample(
            range(values.shape[0]), DIAMETER_SAMPLES)]
    diam = 0.0
    for i in range(0, values.shape[0], 256):
        d = segment_length(map_model.target_chart, values[i:i + 256, None, :],
                           values[None, :, :])
        diam = max(diam, float(d.max()))
    return diam

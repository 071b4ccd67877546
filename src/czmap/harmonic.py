"""Harmonic coordinate charts on metric balls and harmonic-radius estimates.

A candidate chart solves the Laplace-Beltrami Dirichlet problem

    div_g grad_g phi^k = 0   on B_r(x),    phi = geodesic normal coords on
                                           the boundary layer,

one scalar solve per coordinate, after which the two harmonic-radius
conditions are checked on the pushed-forward inverse metric
g~^{ab} = J g^{ij} J^T (J the Jacobian of phi):

* hr1, the ellipticity sandwich  1/2 <= g~ <= 2  as bilinear forms;
* hr2, the weighted bound  r sup |d g~^{ab}| + r^{1+alpha} [d g~^{ab}]_alpha
  <= 1 per component pair (a, b), summed over the derivative directions
  (the C^{1,alpha} conditions, k = 1, with alpha = HOLDER_ALPHA = 1/2:
  the certified radius is r_{1,1/2}).

The radius estimator bisects on the verdict; certificates under-claim by
construction (ties resolve downward).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NotDiffeomorphic, PreconditionFailed, SolverDiverged
from .geodesics import (MetricBall, distance_field, log_map, metric_ball,
                        offset_slices)
from .geometry import MetricChart
from .norms import PairTable

DIRECT_SOLVE_LIMIT = 20000
ITERATIVE_TOL = 1e-8
ITERATIVE_MAXITER = 10000
JACOBIAN_DET_FLOOR = 1e-6
HOLDER_ALPHA = 0.5             # the certified radius is r_{1,1/2}
# the Dirichlet problem is solved on the padded ball B_{(1+pad) r} so that
# every certified sample of B_r sits compactly inside the solve domain,
# away from the staircase-boundary layer where discrete second derivatives
# degrade
SOLVE_PAD = 0.15


@dataclass
class RadiusCertificate:
    """Outcome of the harmonic-radius conditions at one radius."""

    r: float
    hr1_margin: float
    hr2_value: float
    verdict: str                      # holds | fails | exceeds-grid
    laplace_residual: float = np.nan
    source: str = "solver"            # solver | declared

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def as_record(self) -> dict:
        return {"r": self.r, "alpha": HOLDER_ALPHA, "k": 1,
                "residual": self.laplace_residual,
                "hr1_margin": self.hr1_margin, "hr2_value": self.hr2_value,
                "verdict": self.verdict, "source": self.source}


def declared_certificate(r: float) -> RadiusCertificate:
    """Certificate backed by a scenario declaration instead of a solve."""
    return RadiusCertificate(r=float(r), hr1_margin=np.nan,
                             hr2_value=np.nan, verdict="holds", source="declared")


@dataclass
class HarmonicChartCandidate:
    """Solved harmonic coordinates on one metric ball.

    ``jet_mask`` / ``deriv_mask`` mark the certified samples (grid points
    of the requested ball); ``outer_jet_mask`` extends over the padded
    solve domain and backs the difference stencils at the certified rim.
    """

    chart: MetricChart
    center: np.ndarray
    radius: float
    ball: MetricBall
    fields: np.ndarray                # (m, *grid), nan outside the solve ball
    interior_mask: np.ndarray         # operator rows
    jet_mask: np.ndarray              # certified first-derivative samples
    deriv_mask: np.ndarray            # certified pushed-derivative samples
    outer_jet_mask: np.ndarray        # differentiable region incl. padding
    laplace_residual: float
    jacobian: np.ndarray              # (*grid, a, i) = d_i phi^a
    jacobian_ratio: np.ndarray        # det(J)/sqrt(det g) on jet_mask
    pushed_inverse: np.ndarray        # (*grid, a, b) on outer_jet_mask
    boundary_fallbacks: int = 0

    def image_points(self, mask) -> np.ndarray:
        """phi values over a mask, shape (count, m)."""
        m = self.chart.dimension
        return np.stack([self.fields[a][mask] for a in range(m)], axis=-1)


def _stencil_offsets(m: int):
    return [np.array(o) for o in itertools.product((-1, 0, 1), repeat=m)
            if any(v != 0 for v in o)]


def _erode(mask: np.ndarray, offsets) -> np.ndarray:
    """Points whose whole neighbor stencil stays inside the mask."""
    out = mask.copy()
    for off in offsets:
        shifted = np.zeros_like(mask)
        here, there = offset_slices(off, mask.shape)
        shifted[here] = mask[there]
        out &= shifted
    return out


def _masked_diff1(values: np.ndarray, mask: np.ndarray, axis: int, h: float):
    """Central differences where both axis neighbors are masked in."""
    v = np.moveaxis(values, axis, 0)
    mk = np.moveaxis(mask, axis, 0)
    out = np.full_like(v, np.nan)
    ok = np.zeros_like(mk)
    ok[1:-1] = mk[2:] & mk[:-2]
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out = np.where(ok, out, np.nan)
    return np.moveaxis(out, 0, axis), np.moveaxis(ok, 0, axis)


def _laplace_operator(chart: MetricChart, interior: np.ndarray):
    """Laplace-Beltrami stencil rows over the interior points, in C order.

    Returns ``(cols, coef, pts_idx)``: row r is the interior point
    ``pts_idx[r]``, and ``cols[r, s]`` (flat grid indices) and
    ``coef[r, s]`` are its S stencil columns and coefficients.  Expanded
    divergence form g^{ij} d_i d_j + b^l d_l with b^l = -g^{ij}
    Gamma^l_ij, central stencils.
    """
    box = chart.box
    m = box.dimension
    h = box.steps
    pts_idx = np.flatnonzero(interior.reshape(-1))
    pts = box.points()[pts_idx]
    ginv = chart.grid_inverse().reshape(-1, m, m)[pts_idx]
    gam = chart.christoffel_at(pts)
    b = -np.einsum("...ij,...lij->...l", ginv, gam)

    cols, coefs = [], []
    strides = np.array([int(np.prod(box.shape[k + 1:])) for k in range(m)])

    def add(offset, coeff):
        cols.append(pts_idx + int(np.dot(offset, strides)))
        coefs.append(coeff)

    center_coeff = np.zeros(pts_idx.size)
    for i in range(m):
        w = ginv[:, i, i] / h[i] ** 2
        e = np.zeros(m, dtype=int); e[i] = 1
        add(e, w + b[:, i] / (2 * h[i]))
        add(-e, w - b[:, i] / (2 * h[i]))
        center_coeff -= 2 * w
        for j in range(i + 1, m):
            w2 = 2 * ginv[:, i, j] / (4 * h[i] * h[j])  # g^{ij}+g^{ji}
            ej = np.zeros(m, dtype=int); ej[j] = 1
            add(e + ej, w2)
            add(-(e + ej), w2)
            add(e - ej, -w2)
            add(ej - e, -w2)
    add(np.zeros(m, dtype=int), center_coeff)
    return np.stack(cols, axis=1), np.stack(coefs, axis=1), pts_idx


def _apply(coef: np.ndarray, cols: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Stencil rows applied to ``u``, whose row ``cols[r, s]`` is the value
    at stencil column s of row r."""
    return np.einsum("rs,rs...->r...", coef, u[cols])


def _block_solve(cols: np.ndarray, coef: np.ndarray, first: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve A sol = rhs, A the interior part of the stencil rows.

    ``cols`` numbers the interior rows 0..rows-1 and the boundary points
    after them; ``first`` is each row's first-axis grid index.  Rows with
    equal ``first`` form one contiguous block of the C order, and every
    stencil offset (the cross terms e_i +- e_j too) moves the first index
    by at most one, so A is block tridiagonal.  Block LU (block Thomas):
    one partial-pivoting dense solve per block serves every column of
    ``rhs``.  Raises SolverDiverged when a block is singular.
    """
    rows = first.size
    bounds = np.flatnonzero(np.diff(first, prepend=-1, append=-1))
    m = rhs.shape[1]
    ys, ws = [], []
    y = w = None
    for k in range(bounds.size - 1):
        s, e = bounds[k], bounds[k + 1]
        lo = bounds[max(k - 1, 0)]
        hi = bounds[min(k + 2, bounds.size - 1)]
        # rows s:e of A over the columns of blocks k-1, k and k+1
        band = np.zeros((e - s, hi - lo))
        jc, cf = cols[s:e], coef[s:e]
        inner = jc < rows
        band[np.nonzero(inner)[0], jc[inner] - lo] = cf[inner]
        lower, diag = band[:, :s - lo], band[:, s - lo:e - lo]
        upper = band[:, e - lo:]
        r = rhs[s:e]
        if k:
            diag = diag - lower @ w
            r = r - lower @ y
        try:
            z = np.linalg.solve(diag, np.hstack([r, upper]))
        except np.linalg.LinAlgError as exc:
            raise SolverDiverged([np.inf], (
                f"block LU: diagonal block {k} (interior rows {s}..{e - 1}, "
                f"first-axis grid index {first[s]}) is singular")) from exc
        y, w = z[:, :m], z[:, m:]
        ys.append(y)
        ws.append(w)
    sol = np.empty((rows, m))
    x = None
    for k in range(len(ys) - 1, -1, -1):
        x = ys[k] if x is None else ys[k] - ws[k] @ x
        sol[bounds[k]:bounds[k + 1]] = x
    return sol


def solve_harmonic_chart(chart: MetricChart, x,
                         r: float) -> HarmonicChartCandidate:
    """Solve for centered harmonic coordinates covering B_r(x).

    The Dirichlet problem runs on the padded ball B_{(1+pad) r}(x), pad at
    least SOLVE_PAD, with geodesic normal coordinates at x as boundary data
    (log map expressed in a g-orthonormal frame); the candidate's certified
    samples are the grid points of B_r(x).  Raises PreconditionFailed when
    the padded ball is truncated by the chart box, SolverDiverged when the
    iterative fallback stalls or a block of the direct solve is singular,
    NotDiffeomorphic when the solved Jacobian degenerates.
    """
    x = np.asarray(x, dtype=float)
    box = chart.box
    m = box.dimension
    dist = distance_field(chart, x)
    G = chart.metric(x)
    # the pad must clear the stencil erosion even on coarse grids so the
    # certified masks always cover every grid point of B_r
    lam_max = float(np.linalg.eigvalsh(G)[-1])
    step_len = float(box.steps.max()) * np.sqrt(lam_max)
    pad_eff = max(SOLVE_PAD, 4.0 * step_len / r)
    outer = metric_ball(chart, x, (1.0 + pad_eff) * r, distances=dist)
    ball = metric_ball(chart, x, r, distances=dist)
    if outer.truncated:
        raise PreconditionFailed(
            f"padded ball of radius {(1.0 + pad_eff) * r:.4g} at {x.tolist()} "
            "leaves the chart box; stencils need interior margin")
    offsets = _stencil_offsets(m)
    interior = _erode(outer.mask, offsets)
    boundary = outer.mask & ~interior
    if interior.sum() < 1 or boundary.sum() < 2 * m:
        raise PreconditionFailed(
            f"ball of radius {r:.4g} has too few grid points "
            f"({int(outer.mask.sum())}) for the Dirichlet solve")

    # geodesic normal coordinates on the boundary layer
    bpts = box.points()[np.flatnonzero(boundary.reshape(-1))]
    v, converged = log_map(chart, x, bpts)
    fallbacks = int((~converged).sum())
    if fallbacks:
        # straight-line direction rescaled to the measured distance
        bdist = outer.distances[boundary]
        straight = bpts - x
        slen = np.sqrt(np.einsum("bi,ij,bj->b", straight, G, straight))
        scale = np.where(slen > 0, bdist / np.maximum(slen, 1e-300), 0.0)
        v = np.where(converged[:, None], v, straight * scale[:, None])
    Lfac = np.linalg.cholesky(G)
    phi_boundary = v @ Lfac  # phi = L^T v

    cols, coef, int_idx = _laplace_operator(chart, interior)
    bnd_idx = np.flatnonzero(boundary.reshape(-1))
    rows = int_idx.size
    # every stencil column of an interior row lies in the solve ball:
    # renumber the columns, interior rows first, boundary points after
    order = np.empty(box.num_points, dtype=np.intp)
    order[int_idx] = np.arange(rows)
    order[bnd_idx] = rows + np.arange(bnd_idx.size)
    cols = order[cols]
    rhs = -_apply(coef, cols, np.vstack([np.zeros((rows, m)), phi_boundary]))

    if rows <= DIRECT_SOLVE_LIMIT:
        first = int_idx // int(np.prod(box.shape[1:]))
        sol = _block_solve(cols, coef, first, rhs)
    else:
        from scipy.sparse.linalg import LinearOperator, lgmres
        pad = np.zeros((bnd_idx.size, 1))
        A = LinearOperator((rows, rows), dtype=float, matvec=lambda v: (
            _apply(coef, cols, np.vstack([v.reshape(rows, 1), pad]))))
        sol = np.empty((rows, m))
        for k in range(m):
            sk, info = lgmres(A, rhs[:, k], rtol=ITERATIVE_TOL,
                              maxiter=ITERATIVE_MAXITER)
            if info != 0:
                raise SolverDiverged([np.linalg.norm(A @ sk - rhs[:, k])])
            sol[:, k] = sk

    fields = np.full((m,) + box.shape, np.nan)
    flat = fields.reshape(m, -1)
    flat[:, int_idx] = sol.T
    flat[:, bnd_idx] = phi_boundary.T

    residual_vec = _apply(coef, cols, np.vstack([sol, phi_boundary]))
    scale = max(1.0, float(np.abs(sol).max()) if sol.size else 1.0)
    residual = float(np.abs(residual_vec).max()) / scale if sol.size else 0.0

    # center exactly: harmonicity is translation invariant
    for a in range(m):
        fields[a] -= float(box.interpolate(fields[a], x))

    # Jacobian and pushed inverse metric over the padded solve domain;
    # certified masks restrict to the requested ball, whose rim stencils
    # then only read padded samples clear of the staircase boundary layer
    outer_jet = outer.mask.copy()
    jac = np.full(box.shape + (m, m), np.nan)
    for a in range(m):
        for i in range(m):
            d, ok = _masked_diff1(fields[a], outer.mask, i, box.steps[i])
            jac[..., a, i] = d
            outer_jet &= ok
    jet_mask = outer_jet & ball.mask
    detj = np.linalg.det(np.where(np.isfinite(jac), jac, 0.0))
    sqrtg = chart.grid_sqrt_det()
    ratio = np.where(jet_mask, detj / sqrtg, np.nan)
    if jet_mask.any():
        min_abs = float(np.nanmin(np.abs(ratio)))
        if min_abs < JACOBIAN_DET_FLOOR:
            raise NotDiffeomorphic(
                f"harmonic candidate at {x.tolist()}, r={r:.4g}: "
                f"min |det J|/sqrt(det g) = {min_abs:.3e}")
    ginv = chart.grid_inverse()
    pushed = np.einsum("...ai,...ij,...bj->...ab", jac, ginv, jac)
    pushed = np.where(outer_jet[..., None, None], pushed, np.nan)

    deriv_mask = _erode(outer_jet, offsets) & ball.mask

    return HarmonicChartCandidate(
        chart=chart, center=x, radius=float(r), ball=ball, fields=fields,
        interior_mask=interior, jet_mask=jet_mask, deriv_mask=deriv_mask,
        outer_jet_mask=outer_jet, laplace_residual=residual, jacobian=jac,
        jacobian_ratio=ratio, pushed_inverse=pushed,
        boundary_fallbacks=fallbacks)


def _pushed_derivatives(candidate: HarmonicChartCandidate):
    """d g~^{ab} / d z^c on the derivative submask, via the chain rule."""
    chart = candidate.chart
    box = chart.box
    m = box.dimension
    pushed = candidate.pushed_inverse
    dx = np.full(box.shape + (m, m, m), np.nan)   # (..., a, b, l) = d_x^l
    ok_all = candidate.deriv_mask.copy()
    for a in range(m):
        for b in range(m):
            for l in range(m):
                d, ok = _masked_diff1(pushed[..., a, b],
                                      candidate.outer_jet_mask,
                                      l, box.steps[l])
                dx[..., a, b, l] = d
                ok_all &= ok
    jac = candidate.jacobian
    with np.errstate(all="ignore"):
        jinv = np.linalg.inv(np.where(np.isfinite(jac), jac,
                                      np.eye(m)))   # dx/dz = J^{-1}
    dz = np.einsum("...abl,...lc->...abc", np.where(np.isfinite(dx), dx, 0.0), jinv)
    dz = np.where(ok_all[..., None, None, None], dz, np.nan)
    return dz, ok_all


def check_hr_conditions(candidate: HarmonicChartCandidate) -> RadiusCertificate:
    """Evaluate the two harmonic-radius conditions on a candidate."""
    m = candidate.chart.dimension
    r = candidate.radius
    mask = candidate.jet_mask
    if mask.sum() < 3:
        return RadiusCertificate(r=r, hr1_margin=np.nan,
                                 hr2_value=np.nan, verdict="exceeds-grid",
                                 laplace_residual=candidate.laplace_residual)
    pushed = candidate.pushed_inverse[mask]        # (count, m, m)
    eig = np.linalg.eigvalsh(pushed)
    hr1_margin = float(np.minimum(2.0 - eig[..., -1], eig[..., 0] - 0.5).min())

    dz, dmask = _pushed_derivatives(candidate)
    if dmask.sum() < 3:
        return RadiusCertificate(r=r, hr1_margin=hr1_margin,
                                 hr2_value=np.nan, verdict="exceeds-grid",
                                 laplace_residual=candidate.laplace_residual)
    samples = np.stack([dz[..., a, b, c][dmask] for a in range(m)
                        for b in range(a, m) for c in range(m)])
    seminorms = PairTable(candidate.image_points(dmask),
                          HOLDER_ALPHA).seminorms(samples)
    hr2 = 0.0
    for k in range(0, len(samples), m):       # the m samples of one a <= b
        total = 0.0
        for c in range(k, k + m):
            total += r * float(np.abs(samples[c]).max())
            total += r ** (1 + HOLDER_ALPHA) * float(seminorms[c])
        hr2 = max(hr2, total)
    verdict = "holds" if (hr1_margin >= 0.0 and hr2 <= 1.0) else "fails"
    return RadiusCertificate(r=r, hr1_margin=hr1_margin,
                             hr2_value=float(hr2), verdict=verdict,
                             laplace_residual=candidate.laplace_residual)


@dataclass
class RadiusEstimate:
    """Largest verified radius, possibly only a lower bound sentinel.

    ``undetermined`` marks runs where every tested radius exceeded the
    grid's reach, so nothing could be verified either way.
    """

    value: float
    at_least: bool = False
    undetermined: bool = False
    certificates: list = field(default_factory=list)

    def __str__(self):
        if self.undetermined:
            return "undetermined (grid too coarse)"
        return f">= {self.value:g}" if self.at_least else f"{self.value:g}"


def default_r_max(chart: MetricChart, x) -> float:
    """Upper end of the radius bisection at ``x``: 0.7 of the box margin in
    metric units, leaving reach for the padded solve domain."""
    x = np.asarray(x, dtype=float)
    margin = float(min(np.min(x - chart.box.lower),
                       np.min(chart.box.upper - x)))
    lam_min, _ = chart.ellipticity_range()
    return 0.7 * margin * float(np.sqrt(lam_min))


def estimate_harmonic_radius(chart: MetricChart, x, r_max: float = 1.0,
                             bisection_steps: int = 12) -> RadiusEstimate:
    """Bisection on the harmonic-radius verdict over (0, r_max].

    Returns the sentinel estimate ">= r_max" when the conditions hold at
    r_max itself.  Ties resolve downward so certificates under-claim.
    """
    tested = []

    def verdict_at(r: float) -> RadiusCertificate:
        try:
            cand = solve_harmonic_chart(chart, x, r)
            cert = check_hr_conditions(cand)
        except PreconditionFailed:
            cert = RadiusCertificate(r=r, hr1_margin=np.nan, hr2_value=np.nan,
                                     verdict="exceeds-grid")
        except NotDiffeomorphic:
            cert = RadiusCertificate(r=r, hr1_margin=np.nan, hr2_value=np.nan,
                                     verdict="fails")
        tested.append(cert)
        return cert

    top = verdict_at(r_max)
    if top.holds:
        return RadiusEstimate(value=r_max, at_least=True, certificates=tested)
    lo, hi = 0.0, r_max
    # the grid step in metric units at x, as hi and lo are metric radii
    min_gap = float(chart.box.steps.min()
                    * np.sqrt(np.linalg.eigvalsh(chart.metric(x))[0]))
    for _ in range(bisection_steps):
        if hi - lo < min_gap:
            break
        mid = 0.5 * (lo + hi)
        if verdict_at(mid).holds:
            lo = mid
        else:
            hi = mid
    undetermined = not any(c.verdict in ("holds", "fails") for c in tested)
    return RadiusEstimate(value=lo, at_least=False, undetermined=undetermined,
                          certificates=tested)


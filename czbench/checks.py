"""Checks of czmap's outputs against values computed here, apart from czmap.

Each `check_*` function returns a list of problems; an empty list means
the output is correct.  The expected values are closed forms or direct
numpy recomputations on the same grids; none of them calls czmap.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

SQRT2 = math.sqrt(2.0)
# exact identities hold to a few ulps; 1e-12 leaves room for summation order
IDENTITY_RTOL = 1e-12


def read_jsonl(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _close(value, expected, rtol=IDENTITY_RTOL) -> bool:
    return abs(value - expected) <= rtol * max(abs(expected), 1e-300)


def _record_problems(records, expected_keys, key) -> list:
    problems = []
    keys = sorted(key(r) for r in records)
    if keys != sorted(expected_keys):
        problems.append(f"records {keys}, expected {sorted(expected_keys)}")
    for r in records:
        if r.get("error") is not None or r.get("passed") is not True:
            problems.append(f"record {key(r)} failed: {r.get('error')}")
    return problems


# ---------------------------------------------------------------------------
# global-curved: the unit-sphere patch of the sphere-global fixture
# ---------------------------------------------------------------------------

SPHERE_THETA = (1.2908, 1.8508)
SPHERE_PHI_WIDTH = 0.56
SPHERE_R = 0.3          # r = min(r1M = 0.3, r1N / max(L, 1) = inf, 1)


def sphere_global_expected() -> dict:
    """Closed forms for the unit sphere |II| = sqrt 2, |H| = 2, |dpsi|^2 = 2,
    |psi| = 1, r1N = inf:  t_laplacian / lhs_hess = sqrt 2, and
    ratio = sqrt 2 / (2 + sqrt 2 / r + r^-2) for every p and grid."""
    r = SPHERE_R
    area = SPHERE_PHI_WIDTH * (math.cos(SPHERE_THETA[0])
                               - math.cos(SPHERE_THETA[1]))
    return {"ratio": SQRT2 / (2.0 + SQRT2 / r + r ** -2), "area": area}


def check_global_curved(records: list) -> list:
    exp = sphere_global_expected()
    levels = ("33x33", "65x65")
    ps = (1.5, 2.0, 4.0)
    problems = _record_problems(
        records, [(res, p) for res in levels for p in ps],
        lambda r: (r["resolution"], r["p"]))
    if problems:
        return problems
    err = {}
    for r in records:
        t, p, tag = r["terms"], r["p"], f"{r['resolution']} p={r['p']}"
        if not _close(t["t_laplacian"] / t["lhs_hess"], SQRT2):
            problems.append(f"{tag}: t_laplacian/lhs_hess "
                            f"{t['t_laplacian'] / t['lhs_hess']!r} != sqrt 2")
        if not _close(r["ratio"], exp["ratio"]):
            problems.append(f"{tag}: ratio {r['ratio']!r} != {exp['ratio']!r}")
        if t["t_du_2p_sq"] != 0.0:
            problems.append(f"{tag}: t_du_2p_sq {t['t_du_2p_sq']!r} != 0")
        exact = SQRT2 * exp["area"] ** (1.0 / p)
        err[r["resolution"], p] = abs(t["lhs_hess"] / exact - 1.0)
    for p in ps:
        coarse, fine = err[levels[0], p], err[levels[1], p]
        # trapezoid quadrature on a smooth integrand: error ~ h^2
        if not (coarse < 1e-4 and 3.5 <= coarse / max(fine, 1e-300) <= 4.5):
            problems.append(f"p={p}: lhs_hess errors {coarse:.3g} (33^2), "
                            f"{fine:.3g} (65^2) do not fall about 4x")
    return problems


# ---------------------------------------------------------------------------
# search-flat: the saddle family z = eps (x1^2 - x2^2) over [-0.26, 0.26]^2
# ---------------------------------------------------------------------------

SADDLE_EXTENT = 0.26
SADDLE_RESOLUTION = 29
SADDLE_P = 2.0
SADDLE_EPS_UPPER = 0.5


def saddle_ratio(eps: float) -> float:
    """Global ratio of the saddle graph, on the program's trapezoid grid.

    Flat source and target, r = 1, r1N = inf: |Hess| = 2 sqrt2 eps,
    Delta = 0, |dpsi|^2 = 2 + 4 eps^2 |x|^2, dist(psi, 0) = |psi|.
    """
    n, p = SADDLE_RESOLUTION, SADDLE_P
    axis = np.linspace(-SADDLE_EXTENT, SADDLE_EXTENT, n)
    h = 2.0 * SADDLE_EXTENT / (n - 1)
    line = np.full(n, h)
    line[[0, -1]] = 0.5 * h
    w = np.outer(line, line)
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    rho2 = x1 ** 2 + x2 ** 2
    lhs = np.sum((2.0 * SQRT2 * eps) ** p * w) ** (1.0 / p)
    t_du = np.sum((2.0 + 4.0 * eps ** 2 * rho2) ** (p / 2.0) * w) ** (1.0 / p)
    psi = np.sqrt(rho2 + (eps * (x1 ** 2 - x2 ** 2)) ** 2)
    t_dist = np.sum(psi ** p * w) ** (1.0 / p)
    return float(lhs / (t_du + t_dist))


def check_search_flat(records: list, evaluations: int) -> list:
    """`evaluations`: trace length of the same search on an increasing
    stand-in ratio; the saddle ratio increases with eps, so they agree."""
    problems = _record_problems(records, ["search"], lambda r: r["mode"])
    if problems:
        return problems
    r = records[0]
    best_eps, best = r["terms"]["best_eps"], r["terms"]["best_value"]
    if best_eps != SADDLE_EPS_UPPER:
        problems.append(f"best_eps {best_eps!r} is not the upper bound "
                        f"{SADDLE_EPS_UPPER}")
    if not _close(best, saddle_ratio(SADDLE_EPS_UPPER)):
        problems.append(f"best_value {best!r} != "
                        f"{saddle_ratio(SADDLE_EPS_UPPER)!r}")
    if r["cover_stats"]["evaluations"] != evaluations:
        problems.append(f"{r['cover_stats']['evaluations']} evaluations, "
                        f"expected {evaluations}")
    for entry in r["trace"]:
        eps, value = entry["params"][0], entry["value"]
        expected = saddle_ratio(eps)
        if value is None or not _close(value, expected):
            problems.append(f"trace value at eps={eps!r}: {value!r} "
                            f"!= {expected!r}")
    return problems


# ---------------------------------------------------------------------------
# lemma: the scaled interior-estimate battery
# ---------------------------------------------------------------------------

LEMMA_RESOLUTION = 33
LEMMA_SCALES = (0.25, 0.5, 1.0)
LEMMA_Q = (1.5, 2.0, 4.0)
LEMMA_DEV_MAX = 1e-10


def _lemma_pairs(x1, x2):
    """(a11, a22) of the two operators and (u, grad u, Hess u) of the
    three fields, in closed form; a12 = 0 for both operators."""
    one, zero = np.ones_like(x1), np.zeros_like(x1)
    operators = ((one, one), (1.0 + 0.1 * np.sin(x1), one))
    s2x, c2x = np.sin(2.0 * x1), np.cos(2.0 * x1)
    fields = ((x1 ** 2, (2.0 * x1, zero), (2.0 * one, zero, zero)),
              (x1 * x2, (x2, x1), (zero, one, zero)),
              (s2x * x2, (2.0 * c2x * x2, s2x), (-4.0 * s2x * x2, 2.0 * c2x,
                                                  zero)))
    return operators, fields


def lemma_c_emp(q: float, s: float) -> float:
    """Largest interior-estimate ratio over the 6 (operator, field) pairs:
    (|u| + |grad u| + |Hess u|)_{L^q(B_s)} / (|Pu|_{L^q(B_2s)}
    + s^-2 |u|_{L^q(B_2s)}) on the scaled 33^2 grid of [-2s, 2s]^2."""
    n = LEMMA_RESOLUTION
    axis = np.linspace(-2.0, 2.0, n)
    z1, z2 = np.meshgrid(axis, axis, indexing="ij")
    radius = np.sqrt(z1 ** 2 + z2 ** 2)
    inner, outer = radius <= 1.0, radius <= 2.0
    h = 4.0 * s / (n - 1)
    line = np.full(n, h)
    line[[0, -1]] = 0.5 * h
    w = np.outer(line, line)

    def norm(f, mask):
        return np.sum(np.where(mask, np.abs(f) ** q * w, 0.0)) ** (1.0 / q)

    operators, fields = _lemma_pairs(s * z1, s * z2)
    ratios = []
    for a11, a22 in operators:
        for u, (g1, g2), (h11, h12, h22) in fields:
            lhs = (norm(u, inner) + norm(np.sqrt(g1 ** 2 + g2 ** 2), inner)
                   + norm(np.sqrt(h11 ** 2 + 2.0 * h12 ** 2 + h22 ** 2),
                          inner))
            rhs = norm(a11 * h11 + a22 * h22, outer) + s ** -2 * norm(u, outer)
            ratios.append(lhs / rhs)
    return float(max(ratios))


def check_lemma(records: list) -> list:
    problems = _record_problems(
        records, [(q, f"s={s:g}") for q in LEMMA_Q for s in LEMMA_SCALES],
        lambda r: (r["p"], r["resolution"]))
    if problems:
        return problems
    for r in records:
        tag = f"q={r['p']} {r['resolution']}"
        for key, value in sorted(r["terms"].items()):
            if key.startswith("dev_") and not value <= LEMMA_DEV_MAX:
                problems.append(f"{tag}: {key} = {value!r} > {LEMMA_DEV_MAX}")
        s = float(r["resolution"].partition("=")[2])
        expected = lemma_c_emp(r["p"], s)
        if not _close(r["terms"]["c_emp"], expected):
            problems.append(f"{tag}: c_emp {r['terms']['c_emp']!r} != "
                            f"{expected!r}")
    return problems


# ---------------------------------------------------------------------------
# radius-curved: harmonic radii at mirrored base points
# ---------------------------------------------------------------------------

_ESTIMATE = re.compile(r"^(\S+) at \[(.*)\]: r_1,1/2 (.*) "
                       r"\(r_max (\S+), (\d+) solves\)$")
_CERT = re.compile(r"^\s+r=(\S+) verdict=(\S+) hr1_margin=(\S+) "
                   r"hr2_value=(\S+) residual=(\S+)$")
RESIDUAL_MAX = 1e-8


def parse_radius_output(text: str) -> dict:
    """(manifold, base point) -> {"estimate", "certificates": [...]}."""
    out, current = {}, None
    for line in text.splitlines():
        m = _ESTIMATE.match(line)
        if m:
            point = tuple(float(v) for v in m.group(2).split(","))
            current = {"estimate": m.group(3), "solves": int(m.group(5)),
                       "certificates": []}
            out[m.group(1), point] = current
            continue
        m = _CERT.match(line)
        if m and current is not None:
            current["certificates"].append(dict(zip(
                ("r", "verdict", "hr1_margin", "hr2_value", "residual"),
                m.groups())))
    return out


def check_radius(text: str, pairs: list) -> list:
    """`pairs`: (manifold, point, mirrored point) for every base point pair."""
    problems = []
    found = parse_radius_output(text)
    expected = {(name, tuple(p)) for name, a, b in pairs for p in (a, b)}
    if set(found) != expected:
        return [f"estimates for {sorted(found)}, expected {sorted(expected)}"]
    for key, est in sorted(found.items()):
        certs = est["certificates"]
        if not certs or len(certs) != est["solves"]:
            problems.append(f"{key}: {len(certs)} certificates for "
                            f"{est['solves']} solves")
        for c in certs:
            ok = (c["verdict"] == "holds" and float(c["hr1_margin"]) >= 0.0
                  and float(c["hr2_value"]) <= 1.0
                  and float(c["residual"]) <= RESIDUAL_MAX)
            if not ok:
                problems.append(f"{key}: certificate {c} does not hold")
    for name, a, b in pairs:
        ea, eb = found[name, tuple(a)], found[name, tuple(b)]
        sig_a = (ea["estimate"], [c["hr2_value"] for c in ea["certificates"]])
        sig_b = (eb["estimate"], [c["hr2_value"] for c in eb["certificates"]])
        if sig_a != sig_b:
            problems.append(f"{name}: mirrored points {a} and {b} give "
                            f"{sig_a} and {sig_b}")
    return problems

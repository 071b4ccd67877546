"""Finite-difference stencils on uniform grids and at free points.

Interior stencils are second-order central differences.  Edge stencils are
one order higher (third order) so that boundary rows never dominate the
grid-wide error and convergence studies see the clean O(h^2) interior rate.
"""

from __future__ import annotations

import numpy as np


def diff1(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """First derivative of grid samples along ``axis`` with step ``h``.

    Central differences inside, one-sided stencils on the two edge slabs.
    Needs at least 3 samples along the axis.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    if n < 3:
        raise ValueError(f"need >= 3 samples along axis {axis}, got {n}")
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    if n >= 4:
        # third-order one-sided edges
        out[0] = (-11.0 * v[0] + 18.0 * v[1] - 9.0 * v[2] + 2.0 * v[3]) / (6.0 * h)
        out[-1] = (11.0 * v[-1] - 18.0 * v[-2] + 9.0 * v[-3] - 2.0 * v[-4]) / (6.0 * h)
    else:
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def diff2(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second derivative of grid samples along ``axis`` with step ``h``."""
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    if n < 3:
        raise ValueError(f"need >= 3 samples along axis {axis}, got {n}")
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    h2 = h * h
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    if n >= 5:
        # third-order one-sided edges
        out[0] = (
            35.0 * v[0] - 104.0 * v[1] + 114.0 * v[2] - 56.0 * v[3] + 11.0 * v[4]
        ) / (12.0 * h2)
        out[-1] = (
            35.0 * v[-1] - 104.0 * v[-2] + 114.0 * v[-3] - 56.0 * v[-4] + 11.0 * v[-5]
        ) / (12.0 * h2)
    elif n == 4:
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    else:
        out[0] = (v[0] - 2.0 * v[1] + v[2]) / h2
        out[-1] = (v[-1] - 2.0 * v[-2] + v[-3]) / h2
    return np.moveaxis(out, 0, axis)


def diff_mixed(values: np.ndarray, axis_i: int, axis_j: int,
               h_i: float, h_j: float) -> np.ndarray:
    """Mixed second derivative along two distinct axes."""
    if axis_i == axis_j:
        return diff2(values, axis_i, h_i)
    return diff1(diff1(values, axis_i, h_i), axis_j, h_j)


def grid_gradient(values: np.ndarray, steps) -> np.ndarray:
    """All first derivatives; result shape ``(m,) + values.shape``."""
    return np.stack([diff1(values, k, steps[k]) for k in range(len(steps))])


def grid_hessian(values: np.ndarray, steps) -> np.ndarray:
    """All second derivatives; result shape ``(m, m) + values.shape``."""
    m = len(steps)
    out = np.empty((m, m) + values.shape, dtype=float)
    for i in range(m):
        out[i, i] = diff2(values, i, steps[i])
        for j in range(i + 1, m):
            out[i, j] = diff_mixed(values, i, j, steps[i], steps[j])
            out[j, i] = out[i, j]
    return out


def _stencil_shift(x: np.ndarray, axis: int, h: float, lower, upper):
    """Shift amount keeping a 2h-wide stencil inside [lower, upper]."""
    lo = x[..., axis] - h
    hi = x[..., axis] + h
    shift = np.zeros_like(lo)
    shift = np.where(lo < lower[axis], lower[axis] - lo, shift)
    shift = np.where(hi > upper[axis], upper[axis] - hi, shift)
    return shift


def point_diff1(f, x: np.ndarray, axis: int, h: float, lower, upper) -> np.ndarray:
    """First derivative of a point-evaluable scalar function at ``x``.

    Central difference with step ``h``; near the box faces the three-point
    stencil slides inward (stays second order).  The box must be at least
    ``2h`` wide along the axis, as it is when ``h`` is its grid step.
    """
    x = np.asarray(x, dtype=float)
    shift = _stencil_shift(x, axis, h, lower, upper)
    e = np.zeros(x.shape[-1])
    e[axis] = 1.0
    xc = x + shift[..., None] * e
    fm = f(xc - h * e)
    f0 = f(xc)
    fp = f(xc + h * e)
    # quadratic fit through the (possibly off-center) stencil, derivative at x
    t = -shift / h  # position of x in stencil units, in [-1, 1]
    d_center = (fp - fm) / (2.0 * h)
    d_curv = (fp - 2.0 * f0 + fm) / (h * h)
    return d_center + t * h * d_curv

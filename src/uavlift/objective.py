"""The placement objective: total lifetime scaled by the system constant.

With the station at (X, Y) and altitude z, each user contributes
E_i / ((X - x_i)^2 + (Y - y_i)^2 + z^2) in J/m^2; dividing a term by K
gives that user's lifetime in seconds. The gradient and Hessian are
analytic. The paper proves the whole sum concave over the deployment box
whenever z exceeds sqrt(3) times the maximum 2D distance in the area
(`concavity_certificate`); `box_curvature_bounds` proves it lower down by
bounding each user's curvature within its own farthest box corner, and
that one bound decides concavity for the solver and for `nsd_scan`.

Every kernel takes the altitude through `scenario.check_altitude`; within
the input domain declared in `scenario` no term, power or sum overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .rng import SplitMix64
from .scenario import AreaBounds, UserArrays, UserDevice, check_altitude, user_arrays


def _offsets(users: Sequence[UserDevice] | UserArrays, z_min: float, px, py):
    """The point kernel: per-user offsets (dx, dy), squared distances d2 and
    energies at the point (`px`, `py`)."""
    check_altitude(z_min, "z_min")
    xs, ys, es = user_arrays(users)
    dx = px - xs
    dy = py - ys
    return dx, dy, dx**2 + dy**2 + z_min**2, es


def value(
    users: Sequence[UserDevice] | UserArrays, z_min: float, point: tuple[float, float]
) -> float:
    """Sum of E_i / ((X-x_i)^2 + (Y-y_i)^2 + z_min^2) in J/m^2."""
    _dx, _dy, d2, es = _offsets(users, z_min, *point)
    return float((es / d2).sum())


def gradient(
    users: Sequence[UserDevice] | UserArrays, z_min: float, point: tuple[float, float]
) -> tuple[float, float]:
    """Analytic gradient in J/m^3: each user contributes -2*E*offset/denominator^2."""
    dx, dy, d2, es = _offsets(users, z_min, *point)
    w = es / d2**2
    return (float((-2.0 * dx * w).sum()), float((-2.0 * dy * w).sum()))


def hessian(
    users: Sequence[UserDevice] | UserArrays, z_min: float, point: tuple[float, float]
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Analytic 2x2 Hessian in J/m^4, symmetric by construction.

    Per user, with a = (X-x)^2, b = (Y-y)^2, D = a + b + z^2:
        d2/dX2  = (6a - 2b - 2z^2) / D^3
        d2/dY2  = (6b - 2a - 2z^2) / D^3
        d2/dXdY = 8*(X-x)*(Y-y) / D^3
    """
    dx, dy, d2, es = _offsets(users, z_min, *point)
    d3 = d2**3
    c = 2.0 * z_min**2
    fxx = float(np.sum(es * (6.0 * dx**2 - 2.0 * dy**2 - c) / d3))
    fyy = float(np.sum(es * (6.0 * dy**2 - 2.0 * dx**2 - c) / d3))
    fxy = float(np.sum(es * 8.0 * dx * dy / d3))
    return ((fxx, fxy), (fxy, fyy))


@dataclass(frozen=True)
class ConcavityCertificate:
    """Sufficient condition for concavity over the whole box.

    d_max is the box diagonal, the largest 2D distance any placement can
    have from any user in the area; the objective is concave everywhere on
    the box when z_min > sqrt(3) * d_max.
    """

    z_min: float
    d_max: float
    threshold: float
    holds: bool


def concavity_certificate(bounds: AreaBounds) -> ConcavityCertificate:
    d_max = math.hypot(bounds.x_max - bounds.x_min, bounds.y_max - bounds.y_min)
    threshold = math.sqrt(3.0) * d_max
    z = bounds.z_min
    return ConcavityCertificate(
        z_min=z,
        d_max=d_max,
        threshold=threshold,
        holds=z > threshold,
    )


def curvature_bounds(
    users: Sequence[UserDevice] | UserArrays,
    z_min: float,
    reach: float | np.ndarray = math.inf,
    near: float | np.ndarray = 0.0,
) -> tuple[float, float | np.ndarray]:
    """(lo, hi) with lo*I <= Hessian <= hi*I at altitude z_min wherever
    user i lies between 2D distances `near[..., i]` and `reach[..., i]`
    (scalars broadcast), one hi per row of a 2D range: -lo is the ascent's
    L, and hi the solver's modulus -mu, `nsd_scan`'s proof and the grid
    oracle's cap on a tile.

    Per user at 2D distance r, with D = r^2 + z^2, the Hessian eigenvalues
    are -2E/D^2 and E*(6r^2 - 2z^2)/D^3. Both are -2E/z^4 at r = 0; the
    first rises towards 0, the second to its peak E/(2z^4) at r = z, so
    over [near, reach] it peaks at r = clamp(z, near, reach). Weyl's
    inequality sums the users. With s = z^2/D = 1/(1 + (r/z)^2) the second
    is (E/z^4) * s^2 * (6 - 8s), which stays finite however far r is from
    z.
    """
    es = user_arrays(users).es
    z4 = check_altitude(z_min, "z_min") ** 4
    lo = -2.0 * (float(es.sum()) / z4)
    s = 1.0 / (1.0 + (np.maximum(near, np.minimum(reach, z_min)) / z_min) ** 2)
    hi = np.sum(es / z4 * (s * s * (6.0 - 8.0 * s)), axis=-1)
    return lo, hi if np.ndim(hi) else float(hi)


def farthest(px, py, x0, x1, y0, y1) -> np.ndarray:
    """2D distance from each point (px, py) to the farthest point, a
    corner, of the rectangle [x0, x1] x [y0, y1]."""
    dx, dy = np.maximum(px - x0, x1 - px), np.maximum(py - y0, y1 - py)
    return np.sqrt(dx * dx + dy * dy)  # np.hypot is several times slower


def nearest(px, py, x0, x1, y0, y1) -> np.ndarray:
    """2D distance from each point (px, py) to the nearest point of the
    rectangle [x0, x1] x [y0, y1]: 0 within it."""
    dx = np.maximum(np.maximum(x0 - px, px - x1), 0.0)
    dy = np.maximum(np.maximum(y0 - py, py - y1), 0.0)
    return np.sqrt(dx * dx + dy * dy)


def box_curvature_bounds(
    users: Sequence[UserDevice] | UserArrays, z_min: float, b: AreaBounds
) -> tuple[float, float]:
    """`curvature_bounds` at altitude z_min over the box `b`: each user's
    reach is its farthest box corner, so hi bounds every Hessian on the box."""
    xs, ys, _ = user_arrays(users)
    return curvature_bounds(users, z_min, farthest(xs, ys, b.x_min, b.x_max, b.y_min, b.y_max))


class NsdScan(NamedTuple):
    """What `nsd_scan` settled. `outcome` is "proven" (hi < 0: the Hessian
    is negative definite on the whole box), "refuted" (the Hessian at
    `witness` has the positive eigenvalue `eigenvalue`) or "undecided"
    (hi >= 0 and no sample is a witness)."""

    outcome: str
    hi: float
    witness: tuple[float, float] | None = None
    eigenvalue: float | None = None


def nsd_scan(
    users: Sequence[UserDevice] | UserArrays,
    z_min: float,
    bounds: AreaBounds,
    samples: int = 1000,
    seed: int = 0,
) -> NsdScan:
    """Prove the Hessian negative definite over the box, or find a point
    where it is not.

    The proof is `box_curvature_bounds`: hi < 0 bounds every Hessian on
    the box. Failing that, seeded random points in the box are checked in
    order with `hessian`, and the first whose largest eigenvalue is
    positive is the witness. No number of samples proves anything, so a
    search without a witness is undecided."""
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    check_altitude(z_min, "z_min")
    _, hi = box_curvature_bounds(users, z_min, bounds)
    if hi < 0:
        return NsdScan("proven", hi)
    pts = SplitMix64(seed).uniforms(
        (samples, 2),
        np.array([bounds.x_min, bounds.y_min]),
        np.array([bounds.x_max, bounds.y_max]),
    )
    for point in pts.tolist():
        (fxx, fxy), (_, fyy) = hessian(users, z_min, point)
        # The larger eigenvalue of the symmetric 2x2 matrix, in closed form.
        eigenvalue = 0.5 * (fxx + fyy) + math.sqrt((0.5 * (fxx - fyy)) ** 2 + fxy**2)
        if eigenvalue > 0:
            return NsdScan("refuted", hi, tuple(point), eigenvalue)
    return NsdScan("undecided", hi)

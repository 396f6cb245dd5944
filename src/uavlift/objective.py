"""The placement objective: total lifetime scaled by the system constant.

With the station at (X, Y) and altitude z, each user contributes
E_i / ((X - x_i)^2 + (Y - y_i)^2 + z^2) in J/m^2; dividing a term by K
gives that user's lifetime in seconds. The gradient and Hessian are
analytic, and the whole sum is concave over the deployment box whenever
z exceeds sqrt(3) times the maximum 2D distance in the area; `nsd_scan`
proves it lower down by bounding each user's curvature within its own
farthest box corner.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .rng import SplitMix64
from .scenario import AreaBounds, UserArrays, UserDevice, user_arrays


def _check_altitude(z_min: float) -> None:
    if not z_min > 0:
        raise ValidationError(f"z_min must be positive, got {z_min}")


def _offsets(users: Sequence[UserDevice] | UserArrays, z_min: float, px, py):
    """The point kernel: per-user offsets (dx, dy), squared distances d2 and
    energies at the point (`px`, `py`)."""
    _check_altitude(z_min)
    xs, ys, es = user_arrays(users)
    dx = px - xs
    dy = py - ys
    return dx, dy, dx**2 + dy**2 + z_min**2, es


def value(
    users: Sequence[UserDevice] | UserArrays, z_min: float, point: tuple[float, float]
) -> float:
    """Sum of E_i / ((X-x_i)^2 + (Y-y_i)^2 + z_min^2) in J/m^2."""
    _dx, _dy, d2, es = _offsets(users, z_min, *point)
    return float(np.sum(es / d2))


def gradient(
    users: Sequence[UserDevice] | UserArrays, z_min: float, point: tuple[float, float]
) -> tuple[float, float]:
    """Analytic gradient in J/m^3: each user contributes -2*E*offset/denominator^2."""
    dx, dy, d2, es = _offsets(users, z_min, *point)
    w = es / d2**2
    return (float(np.sum(-2.0 * dx * w)), float(np.sum(-2.0 * dy * w)))


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
    """(lo, hi) with lo*I <= Hessian <= hi*I at altitude z_min within 2D
    distance `reach` of every user, or of user i between `near[..., i]` and
    `reach[..., i]` when `reach` is an array, one hi per row of a 2D one:
    -lo is the ascent's L, -hi its modulus of strong concavity, and hi
    `nsd_scan`'s proof and the grid oracle's cap on a tile.

    Per user at 2D distance r, with D = r^2 + z^2, the Hessian eigenvalues
    are -2E/D^2 and E*(6r^2 - 2z^2)/D^3. Both are -2E/z^4 at r = 0; the
    first rises towards 0, the second to its peak E/(2z^4) at r = z, so
    over [near, reach] it peaks at r = clamp(z, near, reach). Weyl's
    inequality sums the users. A power of z that overflows counts as
    infinite. Per-user ranges are summed in the scaled form
    (E/z^4) * (6*rho - 2) / (1 + rho)^3, rho = (r/z)^2; a scalar reach
    takes it only where the plain expression of the reach < z eigenvalue
    overflows, as for a total energy near the largest double.
    """
    es = user_arrays(users).es
    total = float(es.sum())
    z4 = math.inf
    with contextlib.suppress(OverflowError):
        z4 = z_min**4
    if not z4 > 0:
        return -math.inf, math.inf
    lo = -2.0 * (total / z4)
    if np.ndim(reach):
        rho = (np.maximum(near, np.minimum(reach, z_min)) / z_min) ** 2
        hi = np.sum(es / z4 * (6.0 * rho - 2.0) / (1.0 + rho) ** 3, axis=-1)
        return lo, hi if np.ndim(hi) else float(hi)
    if not reach < z_min:
        return lo, total / (2.0 * z4)
    with contextlib.suppress(OverflowError):
        r2, z2 = reach**2, z_min**2
        hi = -(total * (2.0 * z2 - 6.0 * r2) / (r2 + z2) ** 3)
        if math.isfinite(hi):
            return lo, hi
    rho = (reach / z_min) ** 2
    return lo, total / z4 * (6.0 * rho - 2.0) / (1.0 + rho) ** 3


def farthest_corner(xs: np.ndarray, ys: np.ndarray, bounds: AreaBounds) -> np.ndarray:
    """2D distance from each user (xs, ys) to the farthest corner of the box."""
    return np.hypot(
        np.maximum(xs - bounds.x_min, bounds.x_max - xs),
        np.maximum(ys - bounds.y_min, bounds.y_max - ys),
    )


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

    The proof is `curvature_bounds` with each user's reach its farthest box
    corner: hi < 0 bounds every Hessian on the box. Failing that, seeded
    random points in the box are checked in order with `hessian`, and the
    first whose largest eigenvalue is positive is the witness. No number of
    samples proves anything, so a search without a witness is undecided."""
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    _check_altitude(z_min)
    xs, ys, _ = user_arrays(users)
    _, hi = curvature_bounds(users, z_min, farthest_corner(xs, ys, bounds))
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

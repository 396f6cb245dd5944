"""The placement objective: total lifetime scaled by the system constant.

With the station at (X, Y) and altitude z, each user contributes
E_i / ((X - x_i)^2 + (Y - y_i)^2 + z^2) in J/m^2; dividing a term by K
gives that user's lifetime in seconds. The gradient and Hessian are
analytic, and the whole sum is concave over the deployment box whenever
z exceeds sqrt(3) times the maximum 2D distance in the area.
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

# Scale-free NSD tolerance: an eigenvalue counts as positive only beyond
# 1e-12 times the trace magnitude, so scaling all energies cannot flip it.
NSD_EIGENVALUE_RTOL = 1e-12

# Most point x user elements in one block of the Hessian kernel. Its five
# buffers hold max(SCAN_BLOCK_ELEMENTS, users) doubles each: 128 KB, and a
# scan's peak about 0.8 MB, up to 2**14 users; beyond that a block is one
# point and the buffers grow with the user count (2 MB at 40 000 users).
SCAN_BLOCK_ELEMENTS = 2**14


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


def _hessian_sums(users: Sequence[UserDevice] | UserArrays, z_min: float, px, py):
    """Hessian entries (fxx, fyy, fxy) at each of the points (`px[i]`,
    `py[i]`), summed over the users; the one Hessian kernel behind
    `hessian` (one point) and `nsd_scan` (all its samples).

    Per user, with a = (X-x)^2, b = (Y-y)^2, D = a + b + z^2:
        d2/dX2  = (6a - 2b - 2z^2) / D^3
        d2/dY2  = (6b - 2a - 2z^2) / D^3
        d2/dXdY = 8*(X-x)*(Y-y) / D^3

    The points go through in blocks of rows x users, at most
    SCAN_BLOCK_ELEMENTS per block unless one row alone is larger, and every
    block is computed in place in the same five buffers. a and b are
    squared once and shared by D and both diagonal entries. The operations
    and their order are those of the plain formulas, D^3 included (a power,
    not two products), and each row is summed whole, so the sums have the
    same bits whatever the block size.
    """
    _check_altitude(z_min)
    xs, ys, es = user_arrays(users)
    count = len(px)
    rows = min(count, max(1, SCAN_BLOCK_ELEMENTS // max(1, len(xs))))
    buffers = np.empty((5, rows, len(xs)))
    sums = np.empty((3, count))
    z2 = z_min**2
    c = 2.0 * z2
    es8 = es * 8.0
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        dx, dy, a, b, d3 = buffers[:, : stop - start]  # the last block may be short
        fxx, fyy, fxy = sums[:, start:stop]
        np.subtract(px[start:stop, None], xs, out=dx)
        np.subtract(py[start:stop, None], ys, out=dy)
        np.square(dx, out=a)
        np.square(dy, out=b)
        np.add(a, b, out=d3)
        d3 += z2
        np.power(d3, 3, out=d3)
        # 8*(X-x)*(Y-y)/D^3, then dx and dy are free for the diagonal.
        dx *= es8
        dx *= dy
        dx /= d3
        np.sum(dx, axis=-1, out=fxy)
        for lead, other, out in ((a, b, fxx), (b, a, fyy)):
            np.multiply(lead, 6.0, out=dx)
            np.multiply(other, 2.0, out=dy)
            dx -= dy
            dx -= c
            dx *= es
            dx /= d3
            np.sum(dx, axis=-1, out=out)
    return sums


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
    """Analytic 2x2 Hessian in J/m^4, symmetric by construction."""
    fxx, fyy, fxy = _hessian_sums(users, z_min, *np.array([point]).T)[:, 0].tolist()
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
    users: Sequence[UserDevice] | UserArrays, z_min: float, reach: float = math.inf
) -> tuple[float, float]:
    """(lo, hi) with lo*I <= Hessian <= hi*I at altitude z_min within 2D
    distance `reach` of every user: -lo is the ascent's L, -hi its modulus
    of strong concavity, and hi the grid oracle's cap.

    Per user at 2D distance r, with D = r^2 + z^2, the Hessian eigenvalues
    are -2E/D^2 and E*(6r^2 - 2z^2)/D^3. Both are -2E/z^4 at r = 0; the
    first rises towards 0, the second to its peak E/(2z^4) at r = z. Weyl's
    inequality sums the users. A power of z that overflows counts as
    infinite. Where the plain expression of the reach < z eigenvalue
    overflows, as for a total energy near the largest double, it is taken
    in the scaled form (E/z^4) * (6*rho - 2) / (1 + rho)^3, rho = (r/z)^2.
    """
    total = float(user_arrays(users).es.sum())
    z4 = math.inf
    with contextlib.suppress(OverflowError):
        z4 = z_min**4
    if not z4 > 0:
        return -math.inf, math.inf
    lo = -2.0 * (total / z4)
    if not reach < z_min:
        return lo, total / (2.0 * z4)
    with contextlib.suppress(OverflowError):
        r2, z2 = reach**2, z_min**2
        hi = -(total * (2.0 * z2 - 6.0 * r2) / (r2 + z2) ** 3)
        if math.isfinite(hi):
            return lo, hi
    rho = (reach / z_min) ** 2
    return lo, total / z4 * (6.0 * rho - 2.0) / (1.0 + rho) ** 3


class NsdScan(NamedTuple):
    all_nsd: bool
    worst_eigenvalue: float
    witness: tuple[float, float]


def nsd_scan(
    users: Sequence[UserDevice] | UserArrays,
    z_min: float,
    bounds: AreaBounds,
    samples: int = 1000,
    seed: int = 0,
) -> NsdScan:
    """Sample the Hessian at seeded-random points in the box and report
    whether it was negative semidefinite everywhere (within the scale-free
    tolerance), plus the largest eigenvalue seen and where it occurred.

    All samples go through the Hessian kernel in one call, which works in
    cache-sized blocks (SCAN_BLOCK_ELEMENTS) and gives each sample the bits
    `hessian` gives at that point."""
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    pts = SplitMix64(seed).uniforms(
        (samples, 2),
        np.array([bounds.x_min, bounds.y_min]),
        np.array([bounds.x_max, bounds.y_max]),
    )
    fxx, fyy, fxy = _hessian_sums(users, z_min, pts[:, 0], pts[:, 1])
    # Largest eigenvalue of each 2x2 symmetric matrix, in closed form.
    lam_max = 0.5 * (fxx + fyy) + np.sqrt((0.5 * (fxx - fyy)) ** 2 + fxy**2)
    scale = np.abs(fxx + fyy)
    nsd = lam_max <= NSD_EIGENVALUE_RTOL * scale
    i_worst = int(np.argmax(lam_max - NSD_EIGENVALUE_RTOL * scale))
    return NsdScan(
        all_nsd=bool(np.all(nsd)),
        worst_eigenvalue=float(lam_max[i_worst]),
        witness=(float(pts[i_worst, 0]), float(pts[i_worst, 1])),
    )

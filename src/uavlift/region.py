"""The feasible placement set: per-user range limits reduced to 2D disks.

Serving user i at all requires the station within distance
sqrt(p_max/K) (power limit) and sqrt(E_i/(tau_th*K)) (energy limit).
At the fixed operating altitude z these 3D range balls become 2D disks
of radius sqrt(d_limit^2 - z^2) around each user, and the feasible set is
the intersection of all disks with the x/y box.

That intersection is a convex region bounded by circular arcs and box
edges, so emptiness and Euclidean projection are exact 2D geometry: the
region's vertices, found once by one pass over the candidate crossings,
and closed-form single-set projections. This replaces Dykstra's alternating
projections (Boyle & Dykstra, 1986). Where no candidate is feasible,
`minmax` gives min over p of the largest violation g(p) exactly, and that
decides: up to EMPTINESS_TOL the region is thin, and the solve's point is
its one vertex; beyond it the region is empty.

A region keeps each concept once, as arrays: the users' range limits as
`RangeLimits` (one power range, one energy range per user) and the disks as
centre and radius arrays (`DiskTable`), made once when the region is made and
handed to `check_empty`. One membership test, `_within`, measures how
far points miss the box and the disks; `contains`, `project` and
`check_empty` all ask it. `project` takes one point: the point itself if it
is inside, otherwise the nearest feasible closed-form candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .channel import SPEED_OF_LIGHT, system_constant
from .errors import EmptyRegionError, ValidationError
from .scenario import AreaBounds, Scenario

if TYPE_CHECKING:  # importing numpy.typing costs about 1 ms
    from numpy.typing import ArrayLike

MEMBERSHIP_TOL = 1e-9   # meters, boundary slack for `contains`
EMPTINESS_TOL = 1e-6    # meters, decision threshold of `check_empty`
# Candidate points are computed in floating point, so a vertex that lies
# exactly on a boundary can land a few ulps outside it. Membership tests on
# computed candidates allow this much, relative to the largest coordinate or
# radius in the instance.
_ROUNDING = 1e-12
# Points x disks that `_within` measures in one NumPy pass. The few points of
# a projection meet every disk at once; the O(m^2) candidates of
# `check_empty` meet a few disks at a time, and rejects drop out in between.
_BLOCK_ELEMENTS = 2**12


class RangeLimits(NamedTuple):
    """Largest station distances: `d_power` under the power budget, the same
    for every user, and `d_energy` under each user's energy. The smaller of
    the two, `d_limit`, is what constrains the placement."""

    d_power: float
    d_energy: np.ndarray

    @property
    def d_limit(self) -> np.ndarray:
        return np.minimum(self.d_power, self.d_energy)


class DiskTable(NamedTuple):
    """Disk centres and radii as arrays, and the membership slack in meters
    for candidate points computed from them."""

    cx: np.ndarray
    cy: np.ndarray
    r: np.ndarray
    rounding: float


class EmptinessCheck(NamedTuple):
    empty: bool
    witness: tuple[float, float] | None  # a feasible point when non-empty
    shortfall: float                     # max violation of the witness: min g when the pass found none
    cause: str | None                    # human-readable reason when empty
    vertices: np.ndarray                 # (K, 2) feasible candidate points, else the witness; none when empty


@dataclass(frozen=True, eq=False)
class FeasibleRegion:
    """Disks-and-box description of the feasible placements at z_min.

    `table` holds the disks as arrays; a region empty by range has none.
    `vertices` holds the feasible candidate points `check_empty` found: every
    vertex of the region, plus any box corner or disk centre inside it; a
    region thinner than EMPTINESS_TOL has only its point of least violation.
    `limits` holds the range limits the disks came from, when `build` made
    the region. Regions hold arrays, so `==` is identity.
    """

    table: DiskTable = field(repr=False)
    box: AreaBounds
    empty: bool
    empty_reason: str | None = None
    limits: RangeLimits | None = field(default=None, repr=False)
    vertices: np.ndarray = field(default_factory=lambda: np.empty((0, 2)), repr=False)

    @classmethod
    def from_disks(cls, disks: ArrayLike, box: AreaBounds) -> "FeasibleRegion":
        """Build a region from (x, y, radius) rows or an (m, 3) array, running
        the emptiness check.

        A disk of radius 0 is the single point at its centre.
        """
        table = _disk_arrays(disks, box)
        check = check_empty(table, box)
        return cls(table, box, check.empty, check.cause, vertices=check.vertices)


def max_range_power(p_max: float, k: float) -> float:
    """Largest distance at which the rate is sustainable within the power budget."""
    if not p_max > 0:
        raise ValidationError(f"p_max must be positive, got {p_max}")
    return _valid_range(math.sqrt(p_max / k), k)


def max_range_energy(energy: ArrayLike, tau_th: float, k: float) -> np.ndarray:
    """Largest distance at which a device can transmit for at least tau_th
    seconds; for an array of energies, one distance per device."""
    if not np.all(energy > 0):
        raise ValidationError(f"energy must be positive, got {np.min(energy)}")
    if not tau_th > 0:
        raise ValidationError(f"tau_th must be positive, got {tau_th}")
    with np.errstate(over="ignore", divide="ignore"):  # a tiny K: refused, not warned about
        return _valid_range(np.sqrt(energy / (tau_th * k)), k)


def _valid_range(d, k: float):
    """`d`, unless a range underflowed to 0 or overflowed, as under a subnormal K."""
    if not np.all((0 < d) & (d < math.inf)):
        raise ValidationError(f"range limits must be positive and finite; system constant K = {k:g} W/m^2")
    return d


def build(scenario: Scenario, c: float = SPEED_OF_LIGHT) -> FeasibleRegion:
    """Compute per-user range limits, reduce them to disks at altitude z_min,
    intersect with the box and decide emptiness.

    Emptiness is a result, not an error; `empty_reason` names the user and
    the binding constraint so an infeasible setup is actionable. A range
    that does not exceed the altitude (d_limit <= z_min) is reported as such
    a range cause, including d_limit == z_min, where the disk would shrink to
    the single point under the user.
    """
    k = system_constant(scenario.rf, len(scenario.users), c)
    z = scenario.bounds.z_min
    xs, ys, es = scenario.users.arrays
    limits = RangeLimits(
        max_range_power(scenario.rf.p_max, k), max_range_energy(es, scenario.rf.tau_th, k)
    )
    d_limit = limits.d_limit
    failing = np.flatnonzero(d_limit <= z)
    if len(failing):
        worst = int(failing[np.argmin(d_limit[failing])])
        scope = (
            "all users"
            if len(failing) == len(d_limit)
            else f"{len(failing)} of {len(d_limit)} users (worst: user {worst})"
        )
        binding = "power" if limits.d_power <= limits.d_energy[worst] else "energy"
        reason = (
            f"{binding} constraint unsatisfiable at altitude {z:g} m: "
            f"d_limit = {d_limit[worst]:.2f} m <= z_min = {z:g} m for {scope}"
        )
        table = _disk_arrays((), scenario.bounds)
        return FeasibleRegion(table, scenario.bounds, True, reason, limits)

    # float_power squares with libm pow, as Python's ** does, where ** on an
    # array multiplies; the two disagree in the last bit for about 1 in 1 000.
    radii = np.sqrt(np.float_power(d_limit, 2) - z**2)
    table = _disk_arrays(np.column_stack((xs, ys, radii)), scenario.bounds)
    check = check_empty(table, scenario.bounds)
    return FeasibleRegion(
        table, scenario.bounds, check.empty, check.cause, limits, vertices=check.vertices
    )


def contains(
    region: FeasibleRegion, point: tuple[float, float], tol: float = MEMBERSHIP_TOL
) -> bool:
    """Closed-set membership with `tol` meters of boundary slack."""
    if region.empty:
        raise EmptyRegionError(region.empty_reason or "region is empty")
    return len(_within(np.array([point], dtype=float), region.table, region.box, tol)[0]) > 0


def project(region: FeasibleRegion, point: tuple[float, float]) -> tuple[float, float]:
    """Euclidean projection onto the region, exact up to rounding.

    A point already in the region comes back unchanged. Otherwise the nearest
    point has either one active set, and then it is that set's own
    projection, or it lies where two boundaries cross, which makes it a
    stored vertex. So it is the nearest of the feasible ones among the box
    clamp, the radial pull-backs onto the disks the point violates and the
    vertices. A disk that holds the point would pull it nowhere, so the
    point itself stands in for those disks: it failed the exact test, but
    like every computed candidate it is tested with the rounding slack.
    """
    if region.empty:
        raise EmptyRegionError(region.empty_reason or "region is empty")
    q = np.array([point], dtype=float)
    table, box = region.table, region.box
    if len(_within(q, table, box, 0.0)[0]):
        return (float(q[0, 0]), float(q[0, 1]))

    qx, qy = q[0]
    dist = np.hypot(qx - table.cx, qy - table.cy)
    out = dist > table.r
    cx, cy, pull = table.cx[out], table.cy[out], table.r[out] / dist[out]
    clamp = [[min(max(qx, box.x_min), box.x_max), min(max(qy, box.y_min), box.y_max)]]
    pulled = np.column_stack((cx + (qx - cx) * pull, cy + (qy - cy) * pull))
    candidates = np.vstack((clamp, q, pulled) if not out.all() else (clamp, pulled))
    feasible, _ = _within(candidates, table, box, table.rounding)
    candidates = np.vstack((candidates[feasible], region.vertices))
    k = np.argmin(np.hypot(candidates[:, 0] - qx, candidates[:, 1] - qy))
    return (float(candidates[k, 0]), float(candidates[k, 1]))


def check_empty(disks: DiskTable | ArrayLike, box: AreaBounds) -> EmptinessCheck:
    """Decide whether the disks/box intersection is empty.

    Let g(p) be the largest amount by which p violates the box or a disk.
    The region counts as non-empty iff min g <= EMPTINESS_TOL, a fixed
    1e-6 m. A region with a point has a vertex or is one whole disk, so one
    of the candidate points (`_candidates`) lies in every set, up to
    rounding: the survivors of one pass are the `vertices`, and the one of
    least violation is the witness. If none survives, the min-max solve
    `minmax.least_violation` gives min g, exact up to rounding, and a point
    attaining it: the witness and only vertex of a region thinner than
    EMPTINESS_TOL. A larger min g is the `shortfall` of an empty region.

    `disks` is a region's `DiskTable`, or (x, y, radius) rows or an (m, 3)
    array as `FeasibleRegion.from_disks` takes them.
    """
    table = disks if isinstance(disks, DiskTable) else _disk_arrays(disks, box)

    pts = _candidates(table, box)
    kept, viol = _within(pts, table, box, table.rounding)
    if len(kept):
        pts = pts[kept]
        k = int(np.argmin(viol))
        witness = (float(pts[k, 0]), float(pts[k, 1]))
        return EmptinessCheck(False, witness, float(viol[k]), None, pts)

    from .minmax import least_violation  # seldom needed; the package import skips it

    point, shortfall = least_violation(table, box)
    if shortfall <= EMPTINESS_TOL:
        return EmptinessCheck(False, point, shortfall, None, np.array([point]))
    cause = f"disk intersection is empty: best placement still misses some disk by {shortfall:.6g} m"
    return EmptinessCheck(True, None, shortfall, cause, np.empty((0, 2)))


def _disk_arrays(disks: ArrayLike, box: AreaBounds) -> DiskTable:
    table = np.array(disks, dtype=float).reshape(-1, 3)
    bounds = [1.0, box.x_min, box.x_max, box.y_min, box.y_max]
    rounding = _ROUNDING * float(np.max(np.abs(np.concatenate((bounds, table.ravel())))))
    return DiskTable(table[:, 0], table[:, 1], table[:, 2], rounding)


def _within(
    pts: np.ndarray, table: DiskTable, box: AreaBounds, limit: float
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the rows of `pts` that violate the box and every disk by at
    most `limit` meters, and their largest violations.

    Filters by the box first, then by the disks a block at a time, dropping
    the rows that fail after each block. A block spans as many disks as fit
    in `_BLOCK_ELEMENTS` for the rows still in play, so memory stays bounded
    however many points and disks there are.
    """
    x, y = pts[:, 0], pts[:, 1]
    viol = np.maximum(
        np.maximum(box.x_min - x, x - box.x_max), np.maximum(box.y_min - y, y - box.y_max)
    )
    kept = np.flatnonzero(viol <= limit)
    viol = viol[kept]
    start = 0
    while len(kept) and start < len(table.r):
        block = slice(start, start + max(1, _BLOCK_ELEMENTS // len(kept)))
        gap = np.hypot(pts[kept, :1] - table.cx[block], pts[kept, 1:] - table.cy[block])
        viol = np.maximum(viol, np.max(gap - table.r[block], axis=1))
        inside = viol <= limit
        kept, viol = kept[inside], viol[inside]
        start = block.stop
    return kept, viol


def _candidates(table: DiskTable, box: AreaBounds) -> np.ndarray:
    """Every point that can be a vertex of the region, as an (K, 2) array
    with K = O(m^2) for m disks.

    These are the box corners, all circle-circle and circle-edge crossings,
    and the disk centres, which cover a region that is one whole disk and so
    has no vertex. A pair that does not cross yields its point of closest
    approach instead; membership filtering drops it unless it is feasible.
    """
    cx, cy, r = table.cx, table.cy, table.r
    x0, x1, y0, y1 = box.x_min, box.x_max, box.y_min, box.y_max
    parts = [np.array([[x0, y0], [x0, y1], [x1, y0], [x1, y1]]), np.column_stack((cx, cy))]

    i, j = np.triu_indices(len(r), 1)
    dx, dy = cx[j] - cx[i], cy[j] - cy[i]
    d = np.hypot(dx, dy)
    apart = d > 0  # concentric circles do not cross
    i, j, dx, dy, d = i[apart], j[apart], dx[apart], dy[apart], d[apart]
    along = (d * d + (r[i] - r[j]) * (r[i] + r[j])) / (2.0 * d)  # centre i to the chord
    half = np.sqrt(np.maximum((r[i] - along) * (r[i] + along), 0.0))  # half the chord
    ux, uy = dx / d, dy / d
    mx, my = cx[i] + along * ux, cy[i] + along * uy
    parts += [
        np.column_stack((mx - half * uy, my + half * ux)),
        np.column_stack((mx + half * uy, my - half * ux)),
    ]

    for edge in (x0, x1):
        s = np.sqrt(np.maximum(r * r - (edge - cx) ** 2, 0.0))
        at = np.full_like(cy, edge)
        parts += [np.column_stack((at, cy + s)), np.column_stack((at, cy - s))]
    for edge in (y0, y1):
        s = np.sqrt(np.maximum(r * r - (edge - cy) ** 2, 0.0))
        at = np.full_like(cx, edge)
        parts += [np.column_stack((cx + s, at)), np.column_stack((cx - s, at))]
    return np.vstack(parts)

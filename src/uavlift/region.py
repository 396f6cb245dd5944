"""The feasible placement set: per-user range limits reduced to 2D disks.

Serving user i at all requires the station within distance
sqrt(p_max/K) (power limit) and sqrt(E_i/(tau_th*K)) (energy limit).
At the fixed operating altitude z these 3D range balls become 2D disks
of radius sqrt(d_limit^2 - z^2) around each user, and the feasible set is
the intersection of all disks with the x/y box.

That intersection is a convex region bounded by circular arcs and box
edges, so emptiness and Euclidean projection are exact 2D geometry: the
region's vertices, found once by the pass that decides emptiness, and
closed-form single-set projections. This replaces Dykstra's alternating
projections (Boyle & Dykstra, 1986).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .channel import SPEED_OF_LIGHT, SystemConstant, system_constant
from .errors import EmptyRegionError, ValidationError
from .scenario import AreaBounds, Scenario

MEMBERSHIP_TOL = 1e-9   # meters, boundary slack for `contains`
EMPTINESS_TOL = 1e-6    # meters, decision threshold of `check_empty`
# Candidate points are computed in floating point, so a vertex that lies
# exactly on a boundary can land a few ulps outside it. Membership tests on
# computed candidates allow this much, relative to the largest coordinate or
# radius in the instance.
_ROUNDING = 1e-12


class Disk(NamedTuple):
    x: float
    y: float
    radius: float


@dataclass(frozen=True)
class UserRangeLimit:
    """Range limits for one user: the power-limited and energy-limited maximum
    station distances, and their minimum which is what actually constrains
    the placement."""

    user_index: int
    d_power: float
    d_energy: float
    d_limit: float

    def __post_init__(self):
        if not (self.d_power > 0 and self.d_energy > 0):
            raise ValidationError("range limits must be positive")
        if self.d_limit != min(self.d_power, self.d_energy):
            raise ValidationError("d_limit must be min(d_power, d_energy)")

    @property
    def binding(self) -> str:
        return "power" if self.d_power <= self.d_energy else "energy"


class EmptinessCheck(NamedTuple):
    empty: bool
    witness: tuple[float, float] | None  # a feasible point when non-empty
    shortfall: float                     # max violation of the witness, or min-max when empty
    cause: str | None                    # human-readable reason when empty
    vertices: np.ndarray                 # (K, 2) feasible candidate points; none when empty


@dataclass(frozen=True)
class FeasibleRegion:
    """Disks-and-box description of the feasible placements at one altitude.

    `vertices` holds the feasible candidate points `check_empty` found: every
    vertex of the region, plus any box corner or disk centre inside it.
    """

    altitude: float
    disks: tuple[Disk, ...]
    box: AreaBounds
    empty: bool
    empty_reason: str | None = None
    limits: tuple[UserRangeLimit, ...] = ()
    vertices: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2)), compare=False, repr=False
    )

    @classmethod
    def from_disks(
        cls, disks: Sequence[Disk], box: AreaBounds, altitude: float | None = None
    ) -> "FeasibleRegion":
        """Build a region directly from disks, running the emptiness check.

        A disk of radius 0 is the single point at its centre.
        """
        disks = tuple(Disk(*d) for d in disks)
        check = check_empty(disks, box)
        return cls(
            altitude=box.z_min if altitude is None else altitude,
            disks=disks,
            box=box,
            empty=check.empty,
            empty_reason=check.cause,
            vertices=check.vertices,
        )


def max_range_power(p_max: float, k: SystemConstant) -> float:
    """Largest distance at which the rate is sustainable within the power budget."""
    if not p_max > 0:
        raise ValidationError(f"p_max must be positive, got {p_max}")
    return math.sqrt(p_max / k.k)


def max_range_energy(energy: float, tau_th: float, k: SystemConstant) -> float:
    """Largest distance at which a device can transmit for at least tau_th seconds."""
    if not energy > 0:
        raise ValidationError(f"energy must be positive, got {energy}")
    if not tau_th > 0:
        raise ValidationError(f"tau_th must be positive, got {tau_th}")
    return math.sqrt(energy / (tau_th * k.k))


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
    d_power = max_range_power(scenario.rf.p_max, k)
    limits = []
    for i, u in enumerate(scenario.users):
        d_energy = max_range_energy(u.energy, scenario.rf.tau_th, k)
        limits.append(
            UserRangeLimit(
                user_index=i,
                d_power=d_power,
                d_energy=d_energy,
                d_limit=min(d_power, d_energy),
            )
        )
    limits = tuple(limits)

    failing = [lim for lim in limits if lim.d_limit <= z]
    if failing:
        worst = min(failing, key=lambda lim: lim.d_limit)
        scope = (
            "all users"
            if len(failing) == len(limits)
            else f"{len(failing)} of {len(limits)} users (worst: user {worst.user_index})"
        )
        reason = (
            f"{worst.binding} constraint unsatisfiable at altitude {z:g} m: "
            f"d_limit = {worst.d_limit:.2f} m <= z_min = {z:g} m for {scope}"
        )
        return FeasibleRegion(
            altitude=z, disks=(), box=scenario.bounds, empty=True,
            empty_reason=reason, limits=limits,
        )

    disks = tuple(
        Disk(u.x, u.y, math.sqrt(lim.d_limit**2 - z**2))
        for u, lim in zip(scenario.users, limits)
    )
    check = check_empty(disks, scenario.bounds)
    return FeasibleRegion(
        altitude=z, disks=disks, box=scenario.bounds, empty=check.empty,
        empty_reason=check.cause, limits=limits, vertices=check.vertices,
    )


def contains(
    region: FeasibleRegion, point: tuple[float, float], tol: float = MEMBERSHIP_TOL
) -> bool:
    """Closed-set membership with `tol` meters of boundary slack."""
    if region.empty:
        raise EmptyRegionError(region.empty_reason or "region is empty")
    x, y = point
    box = region.box
    if x < box.x_min - tol or x > box.x_max + tol:
        return False
    if y < box.y_min - tol or y > box.y_max + tol:
        return False
    for d in region.disks:
        if math.hypot(x - d.x, y - d.y) > d.radius + tol:
            return False
    return True


def project(region: FeasibleRegion, point: tuple[float, float]) -> tuple[float, float]:
    """Euclidean projection onto the region, exact up to rounding.

    Points already in the region come back unchanged. Otherwise the nearest
    point has either one active set, and then it is that set's own
    projection, or it lies where two boundaries cross, which makes it a
    stored vertex. So it is the nearest of the feasible ones among the box
    clamp, each disk's radial pull-back and the vertices.
    """
    out = project_many(region, np.asarray([point], dtype=float))
    return (float(out[0, 0]), float(out[0, 1]))


def project_many(region: FeasibleRegion, points: np.ndarray) -> np.ndarray:
    """Vectorized `project` for an (N, 2) array of query points."""
    if region.empty:
        raise EmptyRegionError(region.empty_reason or "region is empty")
    pts = np.array(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError(f"points must have shape (N, 2), got {pts.shape}")

    box = region.box
    cx, cy, r, rounding = _disk_arrays(region.disks, box)
    outside = np.ones(len(pts), dtype=bool)
    outside[_within(pts, cx, cy, r, box, 0.0)[0]] = False
    for k in np.flatnonzero(outside):
        qx, qy = pts[k]
        dist = np.hypot(qx - cx, qy - cy)
        pull = np.divide(r, dist, out=np.ones_like(dist), where=dist > r)
        single = np.vstack((
            [[min(max(qx, box.x_min), box.x_max), min(max(qy, box.y_min), box.y_max)]],
            np.column_stack((cx + (qx - cx) * pull, cy + (qy - cy) * pull)),
        ))
        feasible, _ = _within(single, cx, cy, r, box, rounding)
        candidates = np.vstack((single[feasible], region.vertices))
        pts[k] = candidates[np.argmin(np.hypot(candidates[:, 0] - qx, candidates[:, 1] - qy))]
    return pts


def check_empty(
    disks: Sequence[Disk], box: AreaBounds, tol: float = EMPTINESS_TOL
) -> EmptinessCheck:
    """Decide whether the disks/box intersection is empty.

    Let g(p) be the largest amount by which p violates the box or a disk.
    The region counts as non-empty iff min g <= tol, that is iff the sets
    padded by tol share a point. A non-empty intersection of these sets has
    a vertex or is one whole disk, so that holds iff one of the padded sets'
    candidate points (`_candidates`) lies in all of them: the test is exact
    up to rounding. The unpadded sets are tried first, so that `vertices`
    are those of the region itself unless it is thinner than tol.

    Non-empty verdicts carry the surviving candidate with the least
    violation as witness. Empty verdicts report min g as `shortfall`,
    found by bisecting the padding with the same candidate test.
    """
    cx, cy, r, rounding = _disk_arrays(disks, box)

    def survivors(pad: float) -> tuple[np.ndarray, np.ndarray]:
        pts = _candidates(cx, cy, r, box, pad)
        kept, viol = _within(pts, cx, cy, r, box, pad + rounding)
        return pts[kept], viol

    for pad in (0.0, tol):
        pts, viol = survivors(pad)
        if len(pts):
            k = int(np.argmin(viol))
            witness = (float(pts[k, 0]), float(pts[k, 1]))
            return EmptinessCheck(False, witness, float(viol[k]), None, pts)

    # min g lies in (lo, hi]; hi is always a violation some point attains.
    centre = np.array([[0.5 * (box.x_min + box.x_max), 0.5 * (box.y_min + box.y_max)]])
    lo, hi = tol, float(_within(centre, cx, cy, r, box, math.inf)[1][0])
    while hi - lo > 4.0 * rounding:
        mid = 0.5 * (lo + hi)
        _, viol = survivors(mid)
        if len(viol):
            hi = min(hi, float(np.min(viol)))
        else:
            lo = mid
    cause = f"disk intersection is empty: best placement still misses some disk by {hi:.6g} m"
    return EmptinessCheck(True, None, hi, cause, np.empty((0, 2)))


def _disk_arrays(disks: Sequence[Disk], box: AreaBounds):
    """Disk centres and radii as arrays, and the membership slack in meters
    for candidate points computed from them."""
    table = np.array(disks, dtype=float).reshape(-1, 3)
    bounds = [1.0, box.x_min, box.x_max, box.y_min, box.y_max]
    rounding = _ROUNDING * float(np.max(np.abs(np.concatenate((bounds, table.ravel())))))
    return table[:, 0], table[:, 1], table[:, 2], rounding


def _within(
    pts: np.ndarray, cx: np.ndarray, cy: np.ndarray, r: np.ndarray, box: AreaBounds, limit: float
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the rows of `pts` that violate the box and every disk by at
    most `limit` meters, and their largest violations.

    Filters by the box first, then disk by disk, so memory stays at the size
    of `pts` however many disks there are.
    """
    x, y = pts[:, 0], pts[:, 1]
    viol = np.maximum(
        np.maximum(box.x_min - x, x - box.x_max), np.maximum(box.y_min - y, y - box.y_max)
    )
    kept = np.flatnonzero(viol <= limit)
    viol = viol[kept]
    for j in range(len(r)):
        if not len(kept):
            break
        viol = np.maximum(viol, np.hypot(pts[kept, 0] - cx[j], pts[kept, 1] - cy[j]) - r[j])
        inside = viol <= limit
        kept, viol = kept[inside], viol[inside]
    return kept, viol


def _candidates(
    cx: np.ndarray, cy: np.ndarray, r: np.ndarray, box: AreaBounds, pad: float
) -> np.ndarray:
    """Every point that can be a vertex of the region with each set padded by
    `pad`, as an (K, 2) array with K = O(m^2) for m disks.

    These are the box corners, all circle-circle and circle-edge crossings,
    and the disk centres, which cover a region that is one whole disk and so
    has no vertex. A pair that does not cross yields its point of closest
    approach instead; membership filtering drops it unless it is feasible.
    """
    x0, x1 = box.x_min - pad, box.x_max + pad
    y0, y1 = box.y_min - pad, box.y_max + pad
    rp = r + pad
    parts = [np.array([[x0, y0], [x0, y1], [x1, y0], [x1, y1]]), np.column_stack((cx, cy))]

    i, j = np.triu_indices(len(r), 1)
    dx, dy = cx[j] - cx[i], cy[j] - cy[i]
    d = np.hypot(dx, dy)
    apart = d > 0  # concentric circles do not cross
    i, j, dx, dy, d = i[apart], j[apart], dx[apart], dy[apart], d[apart]
    along = (d * d + (rp[i] - rp[j]) * (rp[i] + rp[j])) / (2.0 * d)  # centre i to the chord
    half = np.sqrt(np.maximum((rp[i] - along) * (rp[i] + along), 0.0))  # half the chord
    ux, uy = dx / d, dy / d
    mx, my = cx[i] + along * ux, cy[i] + along * uy
    parts += [
        np.column_stack((mx - half * uy, my + half * ux)),
        np.column_stack((mx + half * uy, my - half * ux)),
    ]

    for edge in (x0, x1):
        s = np.sqrt(np.maximum(rp * rp - (edge - cx) ** 2, 0.0))
        at = np.full_like(cy, edge)
        parts += [np.column_stack((at, cy + s)), np.column_stack((at, cy - s))]
    for edge in (y0, y1):
        s = np.sqrt(np.maximum(rp * rp - (edge - cy) ** 2, 0.0))
        at = np.full_like(cx, edge)
        parts += [np.column_stack((cx + s, at)), np.column_stack((cx - s, at))]
    return np.vstack(parts)

"""The feasible placement set: per-user range limits reduced to 2D disks.

Serving user i at all requires the station within distance
sqrt(p_max/K) (power limit) and sqrt(E_i/(tau_th*K)) (energy limit).
At the fixed operating altitude z these 3D range balls become 2D disks
of radius sqrt(d_limit^2 - z^2) around each user, and the feasible set is
the intersection of all disks with the x/y box: a convex region bounded by
circular arcs and box edges.

Both questions asked of it are LP-type problems in two variables
(Matousek, Sharir & Welzl, 1996; Amenta, 1994), solved exactly by one pivot
loop that adds the most violated edge or disk to a basis of at most three.
`check_empty` minimizes g, the largest violation: the region is non-empty
iff min g is at most the table's `rounding`, and the minimizer, its deepest
point, is the witness. `project` finds the nearest point, a tight point of
at most two constraints. A pivot makes two NumPy passes, its few candidate
points' gaps to the disks of its group and the chosen point's gaps to every
disk, except a projection's first, whose one candidate needs no test; the
rest is arithmetic on Python floats. Within the input domain declared in
`scenario`, centres lie within 2^24 m, `cut_radii` cuts each radius to
at most twice the distance from its centre to the farthest box corner, and
`project` takes points within REACH, so no term, not even `_tight_points`'
sixth powers of lengths below 2^37 m, overflows.

A region keeps each concept once, as arrays: the users' range limits as
`RangeLimits` and the disks as centre and radius arrays (`DiskTable`), made
once with the region; `feasible_set` gives "box" mode a region with none.
`within`, the one membership test, measures how far points miss the box and
the disks; `contains` and the grid oracle ask it.

Every test of a computed point, each pivot's, the emptiness verdict's and
membership's, allows the same `rounding`, 1e-12 of the instance's size, as
a point computed on a boundary lands a few ulps from it: exactly tangent
disks meet, and a region that no point meets to within that is empty.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .channel import SPEED_OF_LIGHT, system_constant
from .errors import EmptyRegionError, NumericalError, ValidationError
from .objective import farthest
from .scenario import COORD_LIMIT, AreaBounds, Scenario

if TYPE_CHECKING:  # importing numpy.typing costs about 1 ms
    from numpy.typing import ArrayLike

MODES = ("box", "region")  # the feasible sets a solve or a grid search runs over
MEMBERSHIP_TOL = 1e-9   # meters, least boundary slack for `contains`
# Meters, the largest coordinate `project` takes: a start lies within
# COORD_LIMIT = 2^24 m, and a trial of the ascent within 2^10 box diagonals
# (below 2^35.5 m) of a point of the box.
REACH = 2.0**36
# Points are computed in floating point, so one that lies exactly on a
# boundary can land a few ulps outside it. Membership tests on computed
# points allow this much, relative to the largest coordinate or radius in
# the instance.
_ROUNDING = 1e-12
# Points x disks that `within` measures in one NumPy pass: one point meets
# every disk at once, the nodes of a grid a few disks at a time, and rejects
# drop out in between.
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
    for points computed from them."""

    cx: np.ndarray
    cy: np.ndarray
    r: np.ndarray
    rounding: float


class EmptinessCheck(NamedTuple):
    empty: bool
    witness: tuple[float, float] | None  # the deepest point when non-empty
    shortfall: float                     # min g: negative when the region has an interior
    cause: str | None                    # human-readable reason when empty


@dataclass(frozen=True, eq=False)
class FeasibleRegion:
    """Disks-and-box description of the feasible placements at z_min.

    `table` holds the disks as arrays; a region empty by range has none. A
    region that is not empty has a point in every set, up to the table's
    `rounding`. `limits` holds the range limits the disks came from, when
    `build` made the region. Regions hold arrays, so `==` is identity.
    """

    table: DiskTable = field(repr=False)
    box: AreaBounds
    empty: bool
    empty_reason: str | None = None
    limits: RangeLimits | None = field(default=None, repr=False)

    @classmethod
    def from_disks(cls, disks: ArrayLike, box: AreaBounds) -> "FeasibleRegion":
        """Build a region from (x, y, radius) rows or an (m, 3) array, running
        the emptiness check.

        A disk of radius 0 is the single point at its centre.
        """
        return _decided(_disk_arrays(disks, box), box)


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


def check_mode(mode: str) -> str:
    """`mode`, if it names a feasible set: one of MODES."""
    if mode not in MODES:
        raise ValidationError(f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")
    return mode


def feasible_set(scenario: Scenario, mode: str, c: float = SPEED_OF_LIGHT) -> FeasibleRegion:
    """The region of `mode`: `build`'s for "region", the bare box for "box"."""
    if check_mode(mode) == "region":
        return build(scenario, c)
    return FeasibleRegion.from_disks((), scenario.bounds)


def disk_radius(d_limit: np.ndarray, z: float) -> np.ndarray:
    """Radii at altitude z of range balls of radii d_limit, 0 where d_limit <= z,
    squared by libm pow as Python's ** does, not as ** on arrays."""
    return np.sqrt(np.maximum(np.float_power(d_limit, 2) - z**2, 0.0))


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
    box = scenario.bounds
    z = box.z_min
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
        return FeasibleRegion(_disk_arrays((), box), box, True, reason, limits)
    return _decided(_disk_table(xs, ys, disk_radius(d_limit, z), box), box, limits)


def _decided(table: DiskTable, box: AreaBounds, limits: RangeLimits | None = None) -> FeasibleRegion:
    """The region of `table` and `box`, with `check_empty`'s verdict."""
    check = check_empty(table, box)
    return FeasibleRegion(table, box, check.empty, check.cause, limits)


def contains(
    region: FeasibleRegion, point: tuple[float, float], tol: float = MEMBERSHIP_TOL
) -> bool:
    """Closed-set membership with the boundary slack of `membership_slack`."""
    return len(within(region, np.array([point], dtype=float), tol)[0]) > 0


def membership_slack(region: FeasibleRegion, tol: float = MEMBERSHIP_TOL) -> float:
    """How far a point may miss the box or a disk and still count as in the
    region: `tol` meters, or the table's `rounding` where that is more, as
    a computed boundary point can miss by that much."""
    return max(tol, region.table.rounding)


def project(region: FeasibleRegion, point: tuple[float, float]) -> tuple[float, float]:
    """Euclidean projection onto the region, exact up to rounding.

    A q with a coordinate that is not finite or lies beyond REACH is a
    ValidationError. A point q in the region comes back unchanged; a bare
    box clamps q. Else the solve pivots from q with no constraint tight,
    and `_nearest_of` solves each group.
    """
    if region.empty:
        raise EmptyRegionError(region.empty_reason or "region is empty")
    if not (abs(point[0]) <= REACH and abs(point[1]) <= REACH):
        raise ValidationError(
            f"cannot project the point {tuple(point)}: each coordinate must be finite and within {REACH:g} m"
        )
    table, box = region.table, region.box
    if not len(table.r):
        return (min(max(point[0], box.x_min), box.x_max), min(max(point[1], box.y_min), box.y_max))
    qx, qy = float(point[0]), float(point[1])
    top, j = _most_violated(qx, qy, table, box)
    if top <= 0.0:  # inside
        return (qx, qy)
    return _pivot("projection", lambda group, basis, p: _nearest_of(group, qx, qy, table, box),
                  (), (qx, qy), 0.0, top, j, table, box)[0]


def check_empty(disks: DiskTable | ArrayLike, box: AreaBounds) -> EmptinessCheck:
    """Decide whether the disks/box intersection is empty.

    Let g(p) be the largest amount by which p violates the box or a disk.
    The region is non-empty iff min g is at most the table's `rounding`, the
    allowance of every pivot and membership test: exactly tangent disks
    meet, and a region that every point misses by more is empty.
    `least_violation` gives min g, exact up to rounding, and a point
    attaining it: the witness of a non-empty region, its deepest point. min g
    is the `shortfall`, negative when the region has an interior, and the
    cause of an empty region names it. A table with no disks is the box,
    whose centre is its deepest point.

    `disks` is a region's `DiskTable`, or (x, y, radius) rows or an (m, 3)
    array as `FeasibleRegion.from_disks` takes them.
    """
    table = disks if isinstance(disks, DiskTable) else _disk_arrays(disks, box)
    if not len(table.r):
        point = (0.5 * (box.x_min + box.x_max), 0.5 * (box.y_min + box.y_max))
        return EmptinessCheck(False, point, -0.5 * min(box.x_max - box.x_min, box.y_max - box.y_min), None)
    point, shortfall = least_violation(table, box)
    if shortfall <= table.rounding:
        return EmptinessCheck(False, point, shortfall, None)
    cause = f"disk intersection is empty: best placement still misses some disk by {shortfall:.6g} m"
    return EmptinessCheck(True, None, shortfall, cause)


def least_violation(table: DiskTable, box: AreaBounds) -> tuple[tuple[float, float], float]:
    """The point p that minimizes g, and g(p), for a table with at least one
    disk: an LP-type problem of combinatorial dimension 3, solved by
    pivoting from the centre of the disk farthest from the box centre, with
    `_least_violation_of` for each group. The value rises with every pivot.
    """
    mid_x, mid_y = 0.5 * (box.x_min + box.x_max), 0.5 * (box.y_min + box.y_max)
    i = int(np.argmax(_gaps(mid_x, mid_y, table.cx, table.cy, table.r)))
    p = (table.cx.item(i), table.cy.item(i))
    return _pivot("emptiness shortfall",
                  lambda group, basis, p: _least_violation_of(group, basis, p, table, box),
                  (4 + i,), p, -table.r.item(i), *_most_violated(*p, table, box), table, box)


def _pivot(what, solve, basis, p, value, top, j, table, box) -> tuple[tuple[float, float], float]:
    """The pivot loop of both solves. From `p`, the optimum of the
    constraints `basis`, with `value` there, pivot on j, the constraint most
    violated at p, by `top`, until none is violated by more than the value,
    up to rounding, and return p and its largest violation.

    Constraints 0-3 are the edges x_min, x_max, y_min and y_max, and 4 + i
    is disk i; j is the first of those tied for the largest violation
    (`_most_violated`). `solve(group, basis, p)` gives the optimum of
    `group`, the basis plus j, as (its basis, point, value, top, j). A pivot
    costs two NumPy passes, the candidate points' gaps to the group's disks
    (`_group_rows`) and the chosen point's gaps to every disk, so it is
    linear in m once; a projection's first pivot, on j alone, skips the
    first (`_nearest_of`). The rest is arithmetic on Python floats. A solve
    that has not stopped after 10*(m + 4) pivots raises NumericalError.
    """
    pivots = 10 * (len(table.r) + 4)
    for _ in range(pivots):
        if top <= value + table.rounding:
            return p, top
        basis, p, value, top, j = solve(basis + (j,), basis, p)
    raise NumericalError(
        f"{what} of {len(table.r)} disks in the box [{box.x_min:g}, {box.x_max:g}] x "
        f"[{box.y_min:g}, {box.y_max:g}] did not settle within {pivots} pivots"
    )


def _nearest_of(
    group, qx, qy, table, box
) -> tuple[tuple[int, ...], tuple[float, float], float, float, int]:
    """The point of the constraints `group` nearest to q = (qx, qy), where
    the last, j, is violated at the optimum of the others; value 0.

    Then j is tight at the optimum, and at most one other constraint b is,
    so the optimum is the nearest of the tight points of {j} and of each
    {b, j} that meet the whole group, up to rounding: any other such point
    is feasible too, so no nearer. Candidates a, b are compared by
    |a - q|^2 - |b - q|^2 = <a - b, (a - c) + (b - c) - 2(q - c)>, c the box
    centre, which takes a - b before the long q - c can swamp it.

    A group of j alone, the first pivot of a projection, has one candidate,
    q's clamp onto edge j or its radial pull onto disk j, which lies on j
    to a few ulps of the instance's size, far within `table.rounding`; it
    is the optimum with no test, and the pivot costs the one NumPy pass of
    `_most_violated`. Larger groups score their candidates on the group's
    disks in a second pass (`_group_rows`): the closest approach of a pair
    that does not cross misses its own disk, and that test drops it.
    """
    *others, j = group
    if not others:
        (p,) = _boundary_points(group, qx, qy, table, box)
        return group, p, 0.0, *_most_violated(*p, table, box)
    points, subsets = [], []
    for subset in [(j,)] + [(b, j) for b in others]:
        found = _boundary_points(subset, qx, qy, table, box)
        points += found
        subsets += [subset] * len(found)
    rows = _group_rows(points, group, [_disk(table, c - 4) for c in group if c >= 4], box)
    feasible = [i for i, row in enumerate(rows) if max(row) <= table.rounding]
    if not feasible:
        raise NumericalError(f"projection of ({qx:g}, {qy:g}) found no point meeting constraints {group}")
    cx, cy = 0.5 * (box.x_min + box.x_max), 0.5 * (box.y_min + box.y_max)
    ux, uy = 2.0 * (qx - cx), 2.0 * (qy - cy)
    k = feasible[0]
    for i in feasible[1:]:  # the first of the nearest
        (ax, ay), (bx, by) = points[i], points[k]
        if (ax - bx) * (ax - cx + (bx - cx) - ux) + (ay - by) * (ay - cy + (by - cy) - uy) < 0.0:
            k = i
    return subsets[k], points[k], 0.0, *_most_violated(*points[k], table, box)


def _boundary_points(subset, qx, qy, table, box) -> list[tuple[float, float]]:
    """The points where the one or two constraints of `subset` are tight and
    that can be their nearest point to q: an edge's clamp of q; the radial
    pull of q onto a disk that q violates (one that holds q pulls it
    nowhere); the corner of two edges; the crossings of a circle and an
    edge or of two circles, or their point of closest approach if they do
    not cross. Disk pairs are taken in index order, with the arithmetic of
    the list of every crossing that these solves replaced, bit for bit.
    """
    edges = (box.x_min, box.x_max, box.y_min, box.y_max)
    lines = sorted(c for c in subset if c < 4)
    disks = sorted(c - 4 for c in subset if c >= 4)
    if not disks:
        if len(lines) == 1:
            return [(edges[lines[0]], qy)] if lines[0] < 2 else [(qx, edges[lines[0]])]
        return [(edges[lines[0]], edges[lines[1]])] if lines[0] < 2 <= lines[1] else []
    x0, y0, r0 = _disk(table, disks[0])
    if len(subset) == 1:
        dist = float(np.hypot(qx - x0, qy - y0))
        if not dist > r0:
            return []
        pull = r0 / dist
        return [(x0 + (qx - x0) * pull, y0 + (qy - y0) * pull)]
    if lines:  # on the edge x = e, or y = e with the axes swapped
        e, vertical = edges[lines[0]], lines[0] < 2
        a, b = (x0, y0) if vertical else (y0, x0)
        s = math.sqrt(max(r0 * r0 - (e - a) * (e - a), 0.0))
        return [(e, b + s), (e, b - s)] if vertical else [(b + s, e), (b - s, e)]
    x1, y1, r1 = _disk(table, disks[1])
    dx, dy = x1 - x0, y1 - y0
    d = float(np.hypot(dx, dy))
    if d == 0:  # concentric circles do not cross
        return []
    along = (d * d + (r0 - r1) * (r0 + r1)) / (2.0 * d)  # centre i to the chord
    half = math.sqrt(max((r0 - along) * (r0 + along), 0.0))  # half the chord
    ux, uy = dx / d, dy / d
    mx, my = x0 + along * ux, y0 + along * uy
    return [(mx - half * uy, my + half * ux), (mx + half * uy, my - half * ux)]


def _least_violation_of(
    group: tuple[int, ...], basis: tuple[int, ...], p: tuple[float, float], table: DiskTable, box: AreaBounds
) -> tuple[tuple[int, ...], tuple[float, float], float, float, int]:
    """The optimum of g over the at most four constraints `group`, as
    `_pivot` takes it.

    The optimum is the tight point of a subset of one to three constraints,
    so it is the best of all subsets' tight points (`_tight_points`), each
    scored by its actual violations; a tight point that is not its subset's
    optimum only scores worse. `p`, the optimum of `basis`, competes too. On
    a tie the point with the smaller violation of all constraints wins, so a
    subproblem with a segment of optima, where two opposite edges are
    tight, moves towards the region.
    """
    group_disks = {c: _disk(table, c - 4) for c in group if c >= 4}
    points, subsets = [p], [basis]
    for size in (1, 2, 3):
        for subset in itertools.combinations(group, size):
            found = _tight_points(subset, group_disks, box)
            points += found
            subsets += [subset] * len(found)
    rows = _group_rows(points, group, list(group_disks.values()), box)
    g = [max(row) for row in rows]
    least = min(g) + table.rounding
    tied = [i for i, v in enumerate(g) if v <= least]
    full = {i: _most_violated(*points[i], table, box) for i in tied}
    k = min(tied, key=lambda i: full[i][0])
    tight = {c for c, v in zip(group, rows[k]) if v >= g[k] - table.rounding}
    new_basis = tuple(sorted(tight | set(subsets[k])))
    if len(new_basis) > 3:
        new_basis = subsets[k]
    return new_basis, points[k], g[k], *full[k]


def _tight_points(subset: tuple[int, ...], group_disks: dict[int, tuple[float, float, float]],
                  box: AreaBounds) -> list[tuple[float, float]]:
    """The points where the constraints of `subset` are violated by one
    common amount s and that can be the subset's optimum: for one disk its
    centre; for two disks the point on the segment between the centres; for
    a disk and an edge the point on the perpendicular from the centre to the
    edge; for three constraints the solutions of their equations in
    (x, y, s). A lone edge, two edges and other degenerate subsets, such as
    parallel rows or concentric disks, give none. `group_disks` maps each
    disk constraint to its centre and radius.
    """
    # Edge k is violated by ax*x + ay*y - b.
    edges = ((-1.0, 0.0, -box.x_min), (1.0, 0.0, box.x_max),
             (0.0, -1.0, -box.y_min), (0.0, 1.0, box.y_max))
    lines = [edges[c] for c in subset if c < 4]
    disks = [group_disks[c] for c in subset if c >= 4]
    if len(subset) == 1:
        return [disks[0][:2]] if disks else []
    if len(subset) == 2:
        if len(disks) == 2:
            (x0, y0, r0), (x1, y1, r1) = disks
            d = math.hypot(x1 - x0, y1 - y0)
            if d == 0.0:
                return []
            t = 0.5 * (d + r0 - r1) / d
            return [(x0 + t * (x1 - x0), y0 + t * (y1 - y0))]
        if len(disks) == 1:
            (x0, y0, r0), (ax, ay, b) = disks[0], lines[0]
            t = 0.5 * (ax * x0 + ay * y0 - b + r0)  # moved this far against the edge's normal
            return [(x0 - t * ax, y0 - t * ay)]
        return []

    # Three constraints: two linear equations in q = (x, y) - origin and s,
    # and a third that is linear (three edges) or the smallest disk's
    # |q|^2 = (r0 + s)^2, centred on the origin. Subtracting that from another
    # disk's equation leaves a linear one, so every other disk gives a row;
    # the small disk keeps the squares, and their cancellation, small.
    disks.sort(key=lambda disk: disk[2])
    ox, oy, r0 = disks[0] if disks else (0.0, 0.0, 0.0)
    rows = [(ax, ay, -1.0, b - ax * ox - ay * oy) for ax, ay, b in lines]
    for xk, yk, rk in disks[1:]:
        dx, dy = xk - ox, yk - oy
        d = math.hypot(dx, dy)
        rows.append((-dx, -dy, r0 - rk, 0.5 * ((rk - d) * (rk + d) - r0 * r0)))
    (a0, a1, a2, b0), (c0, c1, c2, b1) = rows[:2]
    # The solutions of the first two rows are z + lam*u, u = row0 x row1,
    # where z is the one nearest the origin; |u|^2 is their Gram determinant.
    u = (a1 * c2 - a2 * c1, a2 * c0 - a0 * c2, a0 * c1 - a1 * c0)
    g00, g01, g11 = a0 * a0 + a1 * a1 + a2 * a2, a0 * c0 + a1 * c1 + a2 * c2, c0 * c0 + c1 * c1 + c2 * c2
    det = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
    if not det > 1e-24 * g00 * g11:  # parallel rows
        return []
    w0, w1 = (g11 * b0 - g01 * b1) / det, (g00 * b1 - g01 * b0) / det
    z = (w0 * a0 + w1 * c0, w0 * a1 + w1 * c1, w0 * a2 + w1 * c2)
    if not disks:
        e0, e1, e2, b2 = rows[2]
        den = e0 * u[0] + e1 * u[1] + e2 * u[2]
        lams = [(b2 - e0 * z[0] - e1 * z[1] - e2 * z[2]) / den] if den else []
    else:
        # a*lam^2 + 2*h*lam + c = 0
        rs = r0 + z[2]
        a = u[0] * u[0] + u[1] * u[1] - u[2] * u[2]
        h = z[0] * u[0] + z[1] * u[1] - rs * u[2]
        c = z[0] * z[0] + z[1] * z[1] - rs * rs
        if a == 0.0:
            lams = [-0.5 * c / h] if h else []
        else:
            # a slightly negative discriminant is rounding at a double root
            t = -(h + math.copysign(math.sqrt(max(h * h - a * c, 0.0)), h))
            lams = [t / a, c / t] if t else [0.0]
    points = [(ox + z[0] + lam * u[0], oy + z[1] + lam * u[1]) for lam in lams]
    return [q for q in points if math.isfinite(q[0]) and math.isfinite(q[1])]


def _disk_arrays(disks: ArrayLike, box: AreaBounds) -> DiskTable:
    """The (x, y, radius) rows as a table, as `_disk_table` makes it."""
    return _disk_table(*np.array(disks, dtype=float).reshape(-1, 3).T, box)


def cut_radii(cx: np.ndarray, cy: np.ndarray, r: np.ndarray, box: AreaBounds) -> np.ndarray:
    """The radii `r` of disks centred at (cx, cy), each cut to at most twice
    the distance from its centre to the farthest box corner: the disk still
    holds the whole box, so the region is the same set."""
    return np.minimum(r, 2.0 * farthest(cx, cy, box.x_min, box.x_max, box.y_min, box.y_max))


def _disk_table(cx: np.ndarray, cy: np.ndarray, r: np.ndarray, box: AreaBounds) -> DiskTable:
    """The disks of centres (cx, cy) and radii `r` as a table. A centre
    beyond COORD_LIMIT is a ValidationError. The radii are cut by
    `cut_radii`, so no radius far beyond the box inflates `rounding` or the
    terms of the solves."""
    if not (np.all(np.abs(cx) <= COORD_LIMIT) and np.all(np.abs(cy) <= COORD_LIMIT)):
        raise ValidationError(f"disk centres must lie within {COORD_LIMIT:g} m of the origin")
    r = cut_radii(cx, cy, r, box)
    bounds = [box.x_min, box.x_max, box.y_min, box.y_max]
    rounding = _ROUNDING * float(np.max(np.abs(np.concatenate((bounds, cx, cy, r)))))
    return DiskTable(cx, cy, r, rounding)


def within(
    region: FeasibleRegion, pts: np.ndarray, tol: float = MEMBERSHIP_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the rows of `pts` that violate the box and every disk by at
    most `membership_slack(region, tol)`, and their largest violations.

    Filters by the box first, then by the disks a block at a time, dropping
    the rows that fail after each block. A block spans as many disks as fit
    in `_BLOCK_ELEMENTS` for the rows still in play, so memory stays bounded
    however many points and disks there are.
    """
    if region.empty:
        raise EmptyRegionError(region.empty_reason or "region is empty")
    table, box, limit = region.table, region.box, membership_slack(region, tol)
    x, y = pts[:, 0], pts[:, 1]
    viol = np.maximum(
        np.maximum(box.x_min - x, x - box.x_max), np.maximum(box.y_min - y, y - box.y_max)
    )
    kept = np.flatnonzero(viol <= limit)
    viol = viol[kept]
    start = 0
    while len(kept) and start < len(table.r):
        block = slice(start, start + max(1, _BLOCK_ELEMENTS // len(kept)))
        gap = _gaps(pts[kept, :1], pts[kept, 1:], table.cx[block], table.cy[block], table.r[block])
        viol = np.maximum(viol, np.max(gap, axis=1))
        inside = viol <= limit
        kept, viol = kept[inside], viol[inside]
        start = block.stop
    return kept, viol


def _gaps(x, y, cx, cy, r) -> np.ndarray:
    """np.hypot(x - cx, y - cy) - r, broadcast: how far points lie outside
    disks, the one gap expression of the pivots and `within`."""
    return np.hypot(x - cx, y - cy) - r


def _edge_violations(x: float, y: float, box: AreaBounds) -> list[float]:
    return [box.x_min - x, x - box.x_max, box.y_min - y, y - box.y_max]


def _disk(table: DiskTable, i: int) -> tuple[float, float, float]:
    return table.cx.item(i), table.cy.item(i), table.r.item(i)


def _group_rows(points, group, disks, box: AreaBounds) -> list[list[float]]:
    """How far each of `points` violates the constraints `group`, in its
    order; `disks` holds the (x, y, r) rows of the group's disks, in the
    group's order. One NumPy pass."""
    xy = np.array(points, dtype=float).reshape(-1, 2)
    cx, cy, r = np.array(disks, dtype=float).reshape(-1, 3).T
    rows = []
    for (x, y), gap in zip(points, _gaps(xy[:, :1], xy[:, 1:], cx, cy, r).tolist()):
        edges, gap = _edge_violations(x, y, box), iter(gap)
        rows.append([edges[c] if c < 4 else next(gap) for c in group])
    return rows


def _most_violated(x: float, y: float, table: DiskTable, box: AreaBounds) -> tuple[float, int]:
    """The largest violation at (x, y) of an edge or a disk, from one NumPy
    pass over the disks, and the first constraint violated by that much:
    the edges 0-3, then 4 + i for disk i, as np.argmax over them."""
    gaps = _gaps(x, y, table.cx, table.cy, table.r)
    i = int(gaps.argmax())
    edges = _edge_violations(x, y, box)
    top = max(edges)
    return (gaps.item(i), 4 + i) if gaps.item(i) > top else (top, edges.index(top))

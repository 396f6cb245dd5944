"""The candidate pass and projection that `region.py` once used, kept as the
tests' reference for the pivoting solves: every box corner, disk centre,
circle-circle and circle-edge crossing, O(m^2) points for m disks, filtered
by membership, and the projection that takes the nearest feasible one of
them, the box clamp and the pull-backs onto the disks a point violates."""

from __future__ import annotations

import numpy as np

from uavlift.region import DiskTable, FeasibleRegion, within
from uavlift.scenario import AreaBounds


def within_sets(
    pts: np.ndarray, table: DiskTable, box: AreaBounds, limit: float
) -> tuple[np.ndarray, np.ndarray]:
    """`region.within` on the sets `table` and `box` alone, with no slack:
    the rows of `pts` that violate none by more than `limit`, and their
    largest violations."""
    return within(FeasibleRegion(table, box, False), pts, limit)


def candidates(table: DiskTable, box: AreaBounds) -> np.ndarray:
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


def vertices(table: DiskTable, box: AreaBounds) -> tuple[np.ndarray, np.ndarray]:
    """The candidate points that lie in every set, up to rounding, and their
    largest violations: every vertex of the region, plus any box corner or
    disk centre inside it."""
    pts = candidates(table, box)
    kept, viol = within_sets(pts, table, box, table.rounding)
    return pts[kept], viol


def project(region: FeasibleRegion, point: tuple[float, float], verts: np.ndarray) -> tuple[float, float]:
    """The projection onto a region with a feasible point, given its
    `vertices`: the point itself if it is inside, otherwise the nearest of
    the feasible ones among the box clamp, the radial pull-backs onto the
    disks the point violates, and the vertices. A disk that holds the point
    would pull it nowhere, so the point itself stands in for those disks."""
    q = np.array([point], dtype=float)
    table, box = region.table, region.box
    if len(within_sets(q, table, box, 0.0)[0]):
        return (float(q[0, 0]), float(q[0, 1]))

    qx, qy = q[0]
    dist = np.hypot(qx - table.cx, qy - table.cy)
    out = dist > table.r
    cx, cy, pull = table.cx[out], table.cy[out], table.r[out] / dist[out]
    clamp = [[min(max(qx, box.x_min), box.x_max), min(max(qy, box.y_min), box.y_max)]]
    pulled = np.column_stack((cx + (qx - cx) * pull, cy + (qy - cy) * pull))
    cands = np.vstack((clamp, q, pulled) if not out.all() else (clamp, pulled))
    feasible, _ = within_sets(cands, table, box, table.rounding)
    cands = np.vstack((cands[feasible], verts))
    k = np.argmin(np.hypot(cands[:, 0] - qx, cands[:, 1] - qy))
    return (float(cands[k, 0]), float(cands[k, 1]))

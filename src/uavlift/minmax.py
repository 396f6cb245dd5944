"""The least largest violation of a box and disks: the exact shortfall of an
empty region, and the point of one thinner than the emptiness tolerance.

Let g(p) be the largest amount by which p violates an edge of the box or
one of the disks. Minimizing g is an LP-type problem of combinatorial
dimension 3 (Matousek, Sharir & Welzl, 1996), solved here by pivoting on
the most violated constraint, with closed-form optima of at most three
constraints. `region.check_empty` imports this module only for a region
none of whose candidate points is feasible.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import NumericalError
from .region import DiskTable
from .scenario import AreaBounds


def least_violation(table: DiskTable, box: AreaBounds) -> tuple[tuple[float, float], float]:
    """The point p that minimizes g, and g(p), for a table with at least one
    disk.

    The optimum is fixed by at most three constraints, tight there: a basis.
    Constraints 0-3 are the edges x_min, x_max, y_min and y_max, and
    constraint 4 + i is disk i. The solve keeps a basis and its optimum p,
    and pivots on the constraint most violated at p:
    `_least_violation_of` solves the basis plus that constraint exactly, and
    the constraints tight at the new optimum become the basis. The value of
    the basis rises with every pivot, and the solve stops when no constraint
    is violated by more than it, up to rounding. Each pivot makes one
    vectorized pass over all disks; a solve that has not stopped after
    10*(m + 4) pivots raises NumericalError.
    """
    cx, cy, r = table.cx, table.cy, table.r
    mid_x, mid_y = 0.5 * (box.x_min + box.x_max), 0.5 * (box.y_min + box.y_max)
    i = int(np.argmax(np.hypot(mid_x - cx, mid_y - cy) - r))
    basis, p, value = (4 + i,), (float(cx[i]), float(cy[i])), -float(r[i])
    viol = _violations(np.array([p[0]]), np.array([p[1]]), table, box)[0]
    pivots = 10 * (len(r) + 4)
    for _ in range(pivots):
        j = int(np.argmax(viol))
        if viol[j] <= value + table.rounding:
            return p, float(viol[j])
        basis, p, value, viol = _least_violation_of(basis + (j,), basis, p, table, box)
    raise NumericalError(
        f"emptiness shortfall of {len(r)} disks in the box [{box.x_min:g}, {box.x_max:g}] x "
        f"[{box.y_min:g}, {box.y_max:g}] did not settle within {pivots} pivots"
    )


def _least_violation_of(
    group: tuple[int, ...],
    basis: tuple[int, ...],
    p: tuple[float, float],
    table: DiskTable,
    box: AreaBounds,
) -> tuple[tuple[int, ...], tuple[float, float], float, np.ndarray]:
    """The optimum of g over the at most four constraints `group`, as (the
    constraints tight there, the point, the value there, and the point's
    violations of every constraint).

    The optimum is the tight point of a subset of one to three constraints,
    so it is the best of all subsets' tight points (`_tight_points`), each
    scored by its actual violations; a tight point that is not its subset's
    optimum only scores worse. `p`, the optimum of `basis`, competes too. On
    a tie the point with the smaller violation of all constraints wins, so a
    subproblem with a segment of optima, where two opposite edges are
    tight, moves towards the region.
    """
    points, subsets = [p], [basis]
    for size in (1, 2, 3):
        for subset in itertools.combinations(group, size):
            found = _tight_points(subset, table, box)
            points += found
            subsets += [subset] * len(found)
    xy = np.array(points)
    disks = [c - 4 for c in group if c >= 4]
    columns = [c if c < 4 else 4 + disks.index(c - 4) for c in group]
    viol = _violations(xy[:, 0], xy[:, 1], table, box, disks)[:, columns]
    g = np.max(viol, axis=1)
    tied = np.flatnonzero(g <= np.min(g) + table.rounding)
    full = _violations(xy[tied, 0], xy[tied, 1], table, box)
    best = int(np.argmin(np.max(full, axis=1)))
    k = int(tied[best])
    tight = {c for c, v in zip(group, viol[k]) if v >= g[k] - table.rounding}
    new_basis = tuple(sorted(tight | set(subsets[k])))
    if len(new_basis) > 3:
        new_basis = subsets[k]
    return new_basis, (float(xy[k, 0]), float(xy[k, 1])), float(g[k]), full[best]


def _tight_points(
    subset: tuple[int, ...], table: DiskTable, box: AreaBounds
) -> list[tuple[float, float]]:
    """The points where the constraints of `subset` are violated by one
    common amount s and that can be the subset's optimum: for one disk its
    centre; for two disks the point on the segment between the centres; for
    a disk and an edge the point on the perpendicular from the centre to the
    edge; for three constraints the solutions of their equations in
    (x, y, s). A lone edge, two edges and other degenerate subsets, such as
    parallel rows or concentric disks, give none.
    """
    # Edge k is violated by ax*x + ay*y - b.
    edges = ((-1.0, 0.0, -box.x_min), (1.0, 0.0, box.x_max),
             (0.0, -1.0, -box.y_min), (0.0, 1.0, box.y_max))
    lines = [edges[c] for c in subset if c < 4]
    disks = [(float(table.cx[c - 4]), float(table.cy[c - 4]), float(table.r[c - 4]))
             for c in subset if c >= 4]
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


def _violations(
    x: np.ndarray, y: np.ndarray, table: DiskTable, box: AreaBounds,
    disks: list[int] | slice = slice(None),
) -> np.ndarray:
    """How far each point (x, y) violates the edges x_min, x_max, y_min and
    y_max and the disks `disks`, one row per point, with `_within`'s
    arithmetic."""
    x, y = x[:, None], y[:, None]
    gap = np.hypot(x - table.cx[disks], y - table.cy[disks]) - table.r[disks]
    return np.hstack((box.x_min - x, x - box.x_max, box.y_min - y, y - box.y_max, gap))

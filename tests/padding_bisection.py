"""The padding arithmetic that `check_empty` once used, kept as the tests'
reference for the exact min-max solve: the padding bisection of the
shortfall of an empty region, and the two-pass verdict, unpadded and then
padded by EMPTINESS_TOL."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from candidate_pass import candidates, within_sets

from uavlift.region import EMPTINESS_TOL, DiskTable
from uavlift.scenario import AreaBounds


def padded(table: DiskTable, box: AreaBounds, pad: float) -> tuple[DiskTable, AreaBounds]:
    """Every disk's radius and every box edge moved out by `pad`, with the
    arithmetic the candidate pass once applied to its `pad` argument, so its
    candidate points keep their bits."""
    box = dataclasses.replace(
        box, x_min=box.x_min - pad, x_max=box.x_max + pad,
        y_min=box.y_min - pad, y_max=box.y_max + pad,
    )
    return table._replace(r=table.r + pad), box


def padded_violations(table: DiskTable, box: AreaBounds, pad: float) -> tuple[np.ndarray, np.ndarray]:
    """The candidate points of the sets padded by `pad` that lie in all of
    them, up to rounding, and their largest violations of the unpadded sets."""
    pts = candidates(*padded(table, box, pad))
    kept, viol = within_sets(pts, table, box, pad + table.rounding)
    return pts[kept], viol


def two_pass_check(table: DiskTable, box: AreaBounds) -> tuple[bool, float]:
    """The emptiness verdict `check_empty` gave with two candidate passes, and
    the pad of the pass that decided it: the region is non-empty iff a
    candidate of the unpadded sets, or else of the sets padded by
    EMPTINESS_TOL, lies in all of them."""
    for pad in (0.0, EMPTINESS_TOL):
        if len(padded_violations(table, box, pad)[0]):
            return False, pad
    return True, EMPTINESS_TOL


def bisected_shortfall(table: DiskTable, box: AreaBounds) -> float:
    """An upper bound on min g, the least largest violation of the box and
    the disks, within 4*`table.rounding` of it, for a region whose sets
    padded by EMPTINESS_TOL share no point.

    Bisects the padding: the sets padded by `pad` share a point iff one of
    their candidate points lies in all of them. Each surviving candidate's
    violation is a value of g some point attains, so it caps min g from above.
    """
    centre = np.array([[0.5 * (box.x_min + box.x_max), 0.5 * (box.y_min + box.y_max)]])
    lo, hi = EMPTINESS_TOL, float(within_sets(centre, table, box, math.inf)[1][0])
    while hi - lo > 4.0 * table.rounding:
        mid = 0.5 * (lo + hi)
        _, viol = padded_violations(table, box, mid)
        if len(viol):
            hi = min(hi, float(np.min(viol)))
        else:
            lo = mid
    return hi

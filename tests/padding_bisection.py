"""The padding arithmetic that `check_empty` once used, kept as the tests'
reference for the exact min-max solve: the padding bisection of the
shortfall of an empty region, and the verdict of one candidate pass over
the unpadded sets."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from candidate_pass import candidates, within_sets

from uavlift.region import DiskTable
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


def candidate_check(table: DiskTable, box: AreaBounds) -> bool:
    """Whether the region is empty by one candidate pass: it is non-empty iff
    a candidate point of the sets lies in all of them, up to rounding."""
    return not len(padded_violations(table, box, 0.0)[0])


def bisected_shortfall(table: DiskTable, box: AreaBounds) -> float:
    """An upper bound on min g, the least largest violation of the box and
    the disks, within 4*`table.rounding` of it, for an empty region, whose
    sets share no point up to rounding.

    Bisects the padding: the sets padded by `pad` share a point iff one of
    their candidate points lies in all of them. Each surviving candidate's
    violation is a value of g some point attains, so it caps min g from above.
    """
    centre = np.array([[0.5 * (box.x_min + box.x_max), 0.5 * (box.y_min + box.y_max)]])
    lo, hi = 0.0, float(within_sets(centre, table, box, math.inf)[1][0])
    while hi - lo > 4.0 * table.rounding:
        mid = 0.5 * (lo + hi)
        _, viol = padded_violations(table, box, mid)
        if len(viol):
            hi = min(hi, float(np.min(viol)))
        else:
            lo = mid
    return hi

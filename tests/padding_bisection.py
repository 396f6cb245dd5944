"""The padding bisection that `check_empty` once used for the shortfall of an
empty region, kept as the tests' reference for the exact min-max solve."""

from __future__ import annotations

import math

import numpy as np

from uavlift.region import EMPTINESS_TOL, DiskTable, _candidates, _within
from uavlift.scenario import AreaBounds


def bisected_shortfall(table: DiskTable, box: AreaBounds) -> float:
    """An upper bound on min g, the least largest violation of the box and
    the disks, within 4*`table.rounding` of it, for a region whose sets
    padded by EMPTINESS_TOL share no point.

    Bisects the padding: the sets padded by `pad` share a point iff one of
    their candidate points lies in all of them. Each surviving candidate's
    violation is a value of g some point attains, so it caps min g from above.
    """

    def violations(pad: float) -> np.ndarray:
        pts = _candidates(table, box, pad)
        return _within(pts, table, box, pad + table.rounding)[1]

    centre = np.array([[0.5 * (box.x_min + box.x_max), 0.5 * (box.y_min + box.y_max)]])
    lo, hi = EMPTINESS_TOL, float(_within(centre, table, box, math.inf)[1][0])
    while hi - lo > 4.0 * table.rounding:
        mid = 0.5 * (lo + hi)
        viol = violations(mid)
        if len(viol):
            hi = min(hi, float(np.min(viol)))
        else:
            lo = mid
    return hi

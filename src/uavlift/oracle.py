"""Independent verification: exhaustive grid search and finite differences.

These are the reference answers the optimizer and the analytic derivatives
are tested against. The grid kernel here shares no code with the solver's
point kernel in `objective`; the surface export evaluates its grids with
the same grid kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import region as region_mod
from .channel import SPEED_OF_LIGHT
from .errors import EmptyRegionError, ValidationError
from .objective import user_arrays, value
from .scenario import AreaBounds, Scenario, UserDevice


# Largest node x user (or node x disk) block computed at once, so the
# temporaries stay at a few MB whatever the grid size and the user count.
CHUNK_ELEMENTS = 2**16


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over the x/y box, inclusive of all four edges."""

    spacing: float
    bounds: AreaBounds

    def __post_init__(self):
        if not self.spacing > 0:
            raise ValidationError(f"grid spacing must be positive, got {self.spacing}")

    def axis(self, lo: float, hi: float) -> np.ndarray:
        n = int(math.floor((hi - lo) / self.spacing + 1e-9))
        values = lo + self.spacing * np.arange(n + 1)
        if values[-1] < hi - 1e-9 * max(1.0, abs(hi)):
            values = np.append(values, hi)
        return values

    def xs(self) -> np.ndarray:
        return self.axis(self.bounds.x_min, self.bounds.x_max)

    def ys(self) -> np.ndarray:
        return self.axis(self.bounds.y_min, self.bounds.y_max)


class GridSearchResult(NamedTuple):
    point: tuple[float, float]
    value: float
    evaluated: int


def _blocks(n: int, width: int):
    """Slices covering range(n), each CHUNK_ELEMENTS // width long (at least 1)."""
    step = max(1, CHUNK_ELEMENTS // max(width, 1))
    return (slice(a, min(a + step, n)) for a in range(0, n, step))


def grid_values(
    xs: np.ndarray, ys: np.ndarray, es: np.ndarray, z: float, px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """The grid kernel: sum_i es[i] / ((px - xs[i])^2 + (py - ys[i])^2 + z^2)
    at every node (px[k], py[k]), one block of nodes and users at a time."""
    totals = np.zeros(len(px))
    z2 = z * z
    for u in _blocks(len(xs), 1):
        for k in _blocks(len(px), u.stop - u.start):
            qx, qy = px[k, None], py[k, None]
            totals[k] += np.sum(es[u] / ((qx - xs[u]) ** 2 + (qy - ys[u]) ** 2 + z2), axis=1)
    return totals


def grid_search(
    scenario: Scenario,
    grid: GridSpec,
    mode: str = "box",
    c: float = SPEED_OF_LIGHT,
) -> GridSearchResult:
    """Exhaustively evaluate the objective at feasible grid nodes.

    Region mode evaluates only the nodes inside every range disk. Nodes are
    visited x-major, a block at a time, and only a strictly larger value
    replaces the best so far, so ties break toward the smallest x, then the
    smallest y.
    """
    if mode not in ("box", "region"):
        raise ValidationError(f"mode must be 'box' or 'region', got {mode!r}")
    cx = cy = r2 = np.empty(0)
    if mode == "region":
        feas = region_mod.build(scenario, c)
        if feas.empty:
            raise EmptyRegionError(feas.empty_reason or "feasible region is empty")
        table = feas.table
        cx, cy, r2 = table.cx, table.cy, (table.r + region_mod.MEMBERSHIP_TOL) ** 2

    xs_u, ys_u, es = user_arrays(scenario.users)
    grid_xs = grid.xs()
    grid_ys = grid.ys()
    n_y = len(grid_ys)

    best_point = None
    best_value = -math.inf
    evaluated = 0
    for block in _blocks(len(grid_xs) * n_y, max(len(xs_u), len(cx))):
        node = np.arange(block.start, block.stop)
        px, py = grid_xs[node // n_y], grid_ys[node % n_y]
        if len(cx):
            inside = np.all((px[:, None] - cx) ** 2 + (py[:, None] - cy) ** 2 <= r2, axis=1)
            px, py = px[inside], py[inside]
            if not len(px):
                continue
        totals = grid_values(xs_u, ys_u, es, scenario.bounds.z_min, px, py)
        evaluated += len(px)
        j = int(np.argmax(totals))  # first occurrence: the earliest node in the block
        if totals[j] > best_value:
            best_value = float(totals[j])
            best_point = (float(px[j]), float(py[j]))
    if best_point is None:
        raise ValidationError("no grid node is feasible; refine the spacing")
    return GridSearchResult(best_point, best_value, evaluated)


def fd_gradient(
    users: Sequence[UserDevice],
    z_min: float,
    point: tuple[float, float],
    h: float = 1e-4,
) -> tuple[float, float]:
    """Central-difference gradient (F(p+h) - F(p-h)) / 2h, one axis at a time."""
    if not h > 0:
        raise ValidationError(f"step h must be positive, got {h}")
    x, y = point
    gx = (value(users, z_min, (x + h, y)) - value(users, z_min, (x - h, y))) / (2.0 * h)
    gy = (value(users, z_min, (x, y + h)) - value(users, z_min, (x, y - h))) / (2.0 * h)
    return (gx, gy)


def fd_hessian(
    users: Sequence[UserDevice],
    z_min: float,
    point: tuple[float, float],
    h: float = 1e-2,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Second-order central-difference Hessian; the mixed entry is computed
    once from the four-corner stencil, so the result is symmetric by
    construction."""
    if not h > 0:
        raise ValidationError(f"step h must be positive, got {h}")
    x, y = point

    def f(px, py):
        return value(users, z_min, (px, py))

    f0 = f(x, y)
    fxx = (f(x + h, y) - 2.0 * f0 + f(x - h, y)) / h**2
    fyy = (f(x, y + h) - 2.0 * f0 + f(x, y - h)) / h**2
    fxy = (f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h) + f(x - h, y - h)) / (4.0 * h**2)
    return ((fxx, fxy), (fxy, fyy))

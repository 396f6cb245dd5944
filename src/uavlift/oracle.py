"""Independent verification: an exact branch-and-bound search of the grid.

`grid_search` returns the best grid node, exactly the one a scan of every
node would return, but evaluates only the tiles of nodes where that node can
be. It is the reference answer the optimizer is tested against. The grid
kernels here share no code with the solver's point kernel in `objective`.

`grid_values` is the one kernel that evaluates grid nodes: `grid_search`'s
fine pass and the surface export both name their nodes by flat x-major
index. A squared offset (gx - x)^2 or (gy - y)^2 depends on one axis only,
so the kernel tabulates each axis once per band of rows or columns instead
of once per node, and still gives every node the bits of the flat formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import region as region_mod
from .channel import SPEED_OF_LIGHT
from .errors import ValidationError
from .objective import curvature_bounds, user_arrays
from .scenario import AreaBounds, Scenario


# Most node x user elements in one block of the grid kernels, unless one
# node's users alone are more: every node sums all its users at once.
CHUNK_ELEMENTS = 2**16

# Most nodes a grid may have. The benchmark's 1 m grids have 63 001; a
# spacing that asks for more is an input error, not a memory error.
MAX_NODES = 2**24

# Nodes per tile side in `grid_search`'s coarse pass.
TILE = 16

# A tile is pruned only when its bound is below the best centre value by
# this relative margin, far above the kernels' rounding error.
_PRUNE_SLACK = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over the x/y box, inclusive of all four edges."""

    spacing: float
    bounds: AreaBounds

    def __post_init__(self):
        if not self.spacing > 0:
            raise ValidationError(f"grid spacing must be positive, got {self.spacing}")
        b = self.bounds
        nodes = ((b.x_max - b.x_min) / self.spacing + 1) * ((b.y_max - b.y_min) / self.spacing + 1)
        if nodes > MAX_NODES:
            raise ValidationError(
                f"grid spacing {self.spacing:g} m gives about {nodes:.3g} nodes, "
                f"more than the {MAX_NODES} allowed; use a coarser spacing"
            )

    def axis(self, lo: float, hi: float) -> np.ndarray:
        n = int(math.floor((hi - lo) / self.spacing + 1e-9))
        values = lo + self.spacing * np.arange(n + 1)
        values[-1] = min(values[-1], hi)  # a span just short of n spacings puts it past hi
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
    evaluated: int  # nodes where the objective was computed: tile centres plus fine nodes


@np.errstate(over="ignore", divide="ignore")  # an infinite total is refused at the end
def grid_values(
    xs: np.ndarray,
    ys: np.ndarray,
    es: np.ndarray,
    z: float,
    gxs: np.ndarray,
    gys: np.ndarray,
    nodes: np.ndarray,
) -> np.ndarray:
    """The grid kernel: sum_i es[i] / ((gx - xs[i])^2 + (gy - ys[i])^2 + z^2)
    at each of `nodes`, ascending flat x-major indices into the grid
    gxs x gys (node ix * len(gys) + iy is (gxs[ix], gys[iy])).

    A squared offset depends on one grid axis only, so it is tabulated once
    per band of grid rows, (gx - xs)^2, and per band of grid columns,
    (gy - ys)^2, each band max(1, CHUNK_ELEMENTS // users) long. The nodes
    of one row within a column band gather their column offsets, add the
    row's (addition commutes), then z^2, divide the energies and take one
    sum over all the users: the flat formula's association and reduction,
    so at any user count every value has the bits of
    np.sum(es / ((gx - xs)**2 + (gy - ys)**2 + z*z)).

    At an altitude so small that E/d^2 overflows at some node, as on a node
    at a user at z = 1e-160 m, there is no answer to give: that is a
    ValidationError naming z, not an infinite value."""
    nodes = np.asarray(nodes, dtype=np.intp)
    if np.any(nodes[1:] <= nodes[:-1]):
        raise ValidationError("grid nodes must be ascending flat indices")
    totals = np.zeros(len(nodes))
    n_x, n_y = len(gxs), len(gys)
    z2 = z * z
    band = max(1, CHUNK_ELEMENTS // max(len(xs), 1))
    out = np.empty((band, len(xs)))
    for x0 in range(0, n_x, band):
        row_starts = np.arange(x0, min(x0 + band, n_x)) * n_y  # flat index of (row, 0)
        a, b = np.searchsorted(nodes, (row_starts[0], row_starts[-1] + n_y))
        if a == b:
            continue
        in_band = nodes[a:b]
        dx2 = (gxs[x0 : x0 + len(row_starts), None] - xs) ** 2
        for y0 in range(0, n_y, band):
            y1 = min(y0 + band, n_y)
            lo = np.searchsorted(in_band, row_starts + y0)
            hi = np.searchsorted(in_band, row_starts + y1)
            if not np.any(hi > lo):
                continue
            dy2 = (gys[y0:y1, None] - ys) ** 2
            for r, (p, q) in enumerate(zip(lo.tolist(), hi.tolist())):
                if p == q:
                    continue
                cols = in_band[p:q] - (row_starts[r] + y0)
                # "clip" fills `out` in place (every index is in range); "raise" buffers
                d = np.take(dy2, cols, axis=0, out=out[: q - p], mode="clip")
                d += dx2[r]
                d += z2
                np.divide(es, d, out=d)
                totals[a + p : a + q] = np.sum(d, axis=1)
    if not np.all(np.isfinite(totals)):
        raise ValidationError(
            f"the objective overflows at z = {z:g} m: a grid node is too close to a user; "
            "use a higher altitude"
        )
    return totals


def _grid_slopes(
    xs: np.ndarray, ys: np.ndarray, es: np.ndarray, z: float, px: np.ndarray, py: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Value and gradient norm of the objective at every node, blocked like
    `grid_values`: each user adds E/D to the value and -2E(p - u)/D^2 to the
    gradient, with D = |p - u|^2 + z^2."""
    values, gx, gy = np.empty(len(px)), np.empty(len(px)), np.empty(len(px))
    z2 = z * z
    rows = max(1, CHUNK_ELEMENTS // max(len(xs), 1))
    for start in range(0, len(px), rows):
        k = slice(start, start + rows)
        dx, dy = px[k, None] - xs, py[k, None] - ys
        inv = 1.0 / (dx * dx + dy * dy + z2)
        w = es * inv
        values[k] = np.sum(w, axis=1)
        w *= inv
        gx[k] = -2.0 * np.sum(w * dx, axis=1)
        gy[k] = -2.0 * np.sum(w * dy, axis=1)
    return values, np.hypot(gx, gy)


def _tiles(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre node index of each TILE-node run of the axis, and the largest
    distance from that centre to a node of its run (a short last run too)."""
    starts = np.arange(0, len(axis), TILE)
    stops = np.minimum(starts + TILE, len(axis)) - 1
    centres = (starts + stops + 1) // 2
    reach = np.maximum(axis[centres] - axis[starts], axis[stops] - axis[centres])
    return centres, reach


def grid_search(
    scenario: Scenario,
    grid: GridSpec,
    mode: str = "box",
    c: float = SPEED_OF_LIGHT,
) -> GridSearchResult:
    """The best feasible grid node, found by a two-level Lipschitz search.

    The coarse pass evaluates the value f(c) and the gradient at the centre
    node c of every TILE x TILE tile. Every node p of a tile then has
    f(p) <= f(c) + |grad f(c)| rho + L rho^2 / 2, where rho is the largest
    distance from c to the tile's nodes and L, `objective.curvature_bounds`'
    hi, caps the largest Hessian eigenvalue. Tiles whose bound falls below
    the best feasible centre value by a relative `_PRUNE_SLACK` cannot hold
    the best node; the fine pass evaluates the rest with `grid_values`.

    Only nodes of the mode's `region.feasible_set` count, for the lower bound
    as for the answer; `region.within` tests them as `region.contains` does,
    with the region's slack. The fine nodes are taken in x-major order and the
    first maximum wins, so the node and value are those of a scan of every
    node: ties break toward the smallest x, then the smallest y.
    """
    feas = region_mod.feasible_set(scenario, mode, c)
    xs_u, ys_u, es = user_arrays(scenario.users)
    z = scenario.bounds.z_min
    grid_xs = grid.xs()
    grid_ys = grid.ys()
    n_y = len(grid_ys)

    # Coarse pass: one bound per tile, from its centre node. The cap is
    # infinite when z^4 underflows; then no tile is bounded and none is pruned.
    tx, reach_x = _tiles(grid_xs)
    ty, reach_y = _tiles(grid_ys)
    _, curvature_cap = curvature_bounds(scenario.users, z)
    if math.isfinite(curvature_cap):
        px, py = np.repeat(grid_xs[tx], len(ty)), np.tile(grid_ys[ty], len(tx))
        inside, _ = region_mod.within(feas, np.column_stack((px, py)))  # raises if feas is empty
        centre_values, slopes = _grid_slopes(xs_u, ys_u, es, z, px, py)
        rho = np.hypot(reach_x[:, None], reach_y).ravel()
        bounds = centre_values + slopes * rho + curvature_cap * rho**2 / 2.0
        floor = np.max(centre_values[inside], initial=-math.inf)
        keep = ~(bounds < floor * (1.0 - _PRUNE_SLACK))
        centres = len(px)
    else:
        keep, centres = np.ones(len(tx) * len(ty), dtype=bool), 0

    # Fine pass: the feasible nodes of the surviving tiles, in x-major order.
    tile_x, tile_y = np.arange(len(grid_xs)) // TILE, np.arange(n_y) // TILE
    nodes = np.flatnonzero(keep.reshape(len(tx), len(ty))[tile_x[:, None], tile_y])
    fine = np.column_stack((grid_xs[nodes // n_y], grid_ys[nodes % n_y]))
    inside, _ = region_mod.within(feas, fine)
    nodes, fine = nodes[inside], fine[inside]
    if not len(nodes):
        thin = f"the region is thinner than the emptiness tolerance (slack {feas.slack:.3g} m)"
        raise ValidationError(f"no grid node is feasible; {thin if feas.slack else 'refine the spacing'}")
    totals = grid_values(xs_u, ys_u, es, z, grid_xs, grid_ys, nodes)
    j = int(np.argmax(totals))  # the first maximum: ties break toward the smallest x, then y
    return GridSearchResult((float(fine[j, 0]), float(fine[j, 1])), float(totals[j]), centres + len(fine))

"""Independent verification: an exact branch-and-bound search of the grid.

`grid_search` returns the best grid node, exactly the one a scan of every
node would return, but evaluates only where that node can be: a quadtree
over rectangles of nodes drops each one whose curvature bound falls below
the best node found so far. It is the reference answer the optimizer is
tested against. The grid kernels here share no code with the solver's
point kernel in `objective`.

There is one kernel for each input a caller has. `grid_values` evaluates
a whole grid, as the surface export does: a squared offset (gx - x)^2 or
(gy - y)^2 depends on one axis only, so it tabulates each axis once per
band of rows or columns instead of once per node, and fills contiguous
blocks, with no row of users broadcast over a block, which NumPy runs as
one short loop per node. `node_values` evaluates the few scattered nodes
of `grid_search`, its tile centres and its leaves' nodes, by the flat
formula, and gives each its slope, the gradient's norm, as well; a leaf
takes the value alone. Both give every node the flat formula's bits, so a
leaf node's value is the surface's there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import region as region_mod
from .channel import SPEED_OF_LIGHT
from .errors import ValidationError
from .objective import box_curvature_bounds, curvature_bounds, farthest, nearest, user_arrays
from .scenario import AreaBounds, Scenario


# Most node x user elements in one block of the grid kernels, unless one
# node's users alone are more: every node sums all its users at once.
# `node_values` and the bound kernels, which keep several temporaries of a
# block live, take a quarter of it: on a 2-vCPU Xeon VM, 2**14 elements ran
# 1.5 times faster than 2**16 or 2**12.
CHUNK_ELEMENTS = 2**16

# Most nodes a grid may have. The benchmark's 1 m grids have 63 001; a
# spacing that asks for more is an input error, not a memory error.
MAX_NODES = 2**24

# Most nodes a side of a quadtree leaf, whose nodes `grid_search` evaluates.
LEAF = 4

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
    evaluated: int  # nodes where the objective was computed: tile centres plus feasible leaf nodes


def grid_values(
    xs: np.ndarray, ys: np.ndarray, es: np.ndarray, z: float, gxs: np.ndarray, gys: np.ndarray
) -> np.ndarray:
    """The objective sum_i es[i] / ((gx - xs[i])^2 + (gy - ys[i])^2 + z^2) at
    every node of the grid gxs x gys: result[ix, iy] is at (gxs[ix], gys[iy]).

    A squared offset depends on one grid axis only, so it is tabulated once
    per band of grid rows, (gx - xs)^2, and per band of grid columns,
    (gy - ys)^2, each band max(1, CHUNK_ELEMENTS // users) long. Each row of
    a row band copies its row offsets into a block, adds the column band's
    offsets (addition commutes), then z^2, divides a block of the energies,
    tiled once a call, and sums over all the users straight into the
    result. Every operand is contiguous, so NumPy runs no short loop per
    node, and each step is the flat formula's elementwise IEEE operation on
    the same two numbers, in its association and reduction: at any user
    count every value has the bits of
    np.sum(es / ((gx - xs)**2 + (gy - ys)**2 + z*z))."""
    n_x, n_y = len(gxs), len(gys)
    totals = np.empty((n_x, n_y))
    z2 = z * z
    band = max(1, CHUNK_ELEMENTS // max(len(xs), 1))
    energies = np.tile(es, (min(band, n_y), 1))
    out = np.empty_like(energies)
    for x0 in range(0, n_x, band):
        dx2 = (gxs[x0 : x0 + band, None] - xs) ** 2
        for y0 in range(0, n_y, band):
            y1 = min(y0 + band, n_y)
            dy2 = (gys[y0:y1, None] - ys) ** 2
            d = out[: y1 - y0]
            for r, row in enumerate(dx2, start=x0):
                d[...] = row
                d += dy2
                d += z2
                np.divide(energies[: y1 - y0], d, out=d)
                np.sum(d, axis=1, out=totals[r, y0:y1])
    return totals


def node_values(
    xs: np.ndarray, ys: np.ndarray, es: np.ndarray, z: float, px: np.ndarray, py: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Value and gradient norm of the objective at each node (px[k], py[k]),
    a block of CHUNK_ELEMENTS / 4 node x user elements at a time: the kernel
    of `grid_search`'s tile centres and leaves, a few scattered nodes a grid
    row, where a tabulated band would go mostly unused.

    Each user adds w = E/D to the value, with D = |p - u|^2 + z^2, and
    -2 w (p - u) / D to the gradient. The values are the flat formula
    np.sum(es / ((px - xs)**2 + (py - ys)**2 + z*z), axis=1), with
    `grid_values`' bits at the same nodes."""
    values, gx, gy = np.empty(len(px)), np.empty(len(px)), np.empty(len(px))
    z2 = z * z
    rows = max(1, CHUNK_ELEMENTS // 4 // max(len(xs), 1))
    for start in range(0, len(px), rows):
        k = slice(start, start + rows)
        dx, dy = px[k, None] - xs, py[k, None] - ys
        d = dx * dx
        d += dy * dy
        d += z2
        w = es / d
        np.sum(w, axis=1, out=values[k])
        w /= d
        gx[k] = np.einsum("ij,ij->i", w, dx)
        gy[k] = np.einsum("ij,ij->i", w, dy)
    return values, 2.0 * np.hypot(gx, gy)


def _blocked(table, rects: tuple, columns: int) -> np.ndarray:
    """`table(x0, x1, y0, y1)` for the non-empty set of rectangles `rects`,
    passed as column arrays a block of at most CHUNK_ELEMENTS / 4 rectangle
    x column elements at a time."""
    rows = max(1, CHUNK_ELEMENTS // 4 // max(columns, 1))
    return np.concatenate([table(*(a[k : k + rows, None] for a in rects))
                           for k in range(0, len(rects[0]), rows)])


def _tile_bounds(users, z, hi, rect, values, slopes, reach, cut) -> tuple[np.ndarray, np.ndarray]:
    """For each tile [x0, x1] x [y0, y1] of `rect`, the largest f(c) +
    |grad f(c)| t + hi t^2 / 2 over 0 <= t <= reach from its centre node c,
    and the cap hi it took. That is t = reach, unless hi < 0 puts the peak
    |grad f(c)| / -hi nearer. `hi` is each tile's parent's cap; where it is
    positive and leaves the bound at or above `cut`, the tile takes its own
    from each user's nearest and farthest distance to it."""
    def taylor(k):
        # the peak's quotient is taken only where it is nearer, so it stays finite
        t = np.array(reach[k])
        np.divide(slopes[k], -hi[k], out=t, where=slopes[k] < -hi[k] * reach[k])
        return values[k] + slopes[k] * t + hi[k] * t * t / 2.0

    bounds = taylor(slice(None))
    own = (hi > 0) & (bounds >= cut)
    if own.any():
        xs, ys, _ = users
        hi = hi.copy()
        hi[own] = _blocked(
            lambda *r: curvature_bounds(users, z, farthest(xs, ys, *r), nearest(xs, ys, *r))[1],
            tuple(a[own] for a in rect), len(xs))
        bounds[own] = taylor(own)
    return bounds, hi


def _split(tiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The quarters of each tile (rows of inclusive node index ranges i0, i1,
    j0, j1), halving each axis of more than LEAF nodes at its centre node,
    and the row of each quarter's tile."""
    i0, i1, j0, j1 = tiles.T
    mi = np.where(i1 - i0 < LEAF, i0, (i0 + i1 + 1) // 2)
    mj = np.where(j1 - j0 < LEAF, j0, (j0 + j1 + 1) // 2)
    kids = np.array([(i0, mi - 1, j0, mj - 1), (i0, mi - 1, mj, j1),
                     (mi, i1, j0, mj - 1), (mi, i1, mj, j1)]).transpose(0, 2, 1).reshape(-1, 4)
    real = (kids[:, 0] <= kids[:, 1]) & (kids[:, 2] <= kids[:, 3])
    return kids[real], np.tile(np.arange(len(tiles)), 4)[real]


def _candidate_nodes(feas, users, bounds: AreaBounds, gxs, gys) -> tuple[np.ndarray, int]:
    """The ascending flat indices of the nodes that can hold the best
    feasible node, and the number of tile centres evaluated to find them."""
    xs, ys, es = users
    z = bounds.z_min
    _, cap = box_curvature_bounds(users, z, bounds)

    def best_feasible(px, py, values):
        return np.max(values[region_mod.within(feas, np.column_stack((px, py)))[0]], initial=-math.inf)

    table = feas.table
    radius = (table.r + region_mod.membership_slack(feas)) * (1.0 + _PRUNE_SLACK)
    # The first two levels, one tile and four, reach so far that their bounds
    # seldom drop a tile. The search starts from the sixteen tiles of the
    # third, which saves their fixed cost (most of a small grid's search);
    # the root's centre node, near the peak of a concave objective, still
    # seeds the incumbent.
    tiles = _split(_split(np.array([[0, len(gxs) - 1, 0, len(gys) - 1]]))[0])[0]
    caps = np.full(len(tiles), cap)
    px, py = gxs[len(gxs) // 2 : len(gxs) // 2 + 1], gys[len(gys) // 2 : len(gys) // 2 + 1]
    floor = best_feasible(px, py, node_values(xs, ys, es, z, px, py)[0])
    centres, leaves, leaf_bounds = 1, [], []
    while len(tiles):
        if len(table.r):  # drop the tiles whose nearest point to a disk's centre misses that disk
            rect = (gxs[tiles[:, 0]], gxs[tiles[:, 1]], gys[tiles[:, 2]], gys[tiles[:, 3]])
            hits = _blocked(lambda *r: np.all(nearest(table.cx, table.cy, *r) <= radius, axis=1),
                            rect, len(table.r))
            tiles, caps = tiles[hits], caps[hits]
        i0, i1, j0, j1 = tiles.T
        rect = (gxs[i0], gxs[i1], gys[j0], gys[j1])
        px, py = gxs[(i0 + i1 + 1) // 2], gys[(j0 + j1 + 1) // 2]
        values, slopes = node_values(xs, ys, es, z, px, py)
        centres += len(px)
        floor = max(floor, best_feasible(px, py, values))
        cut = floor * (1.0 - _PRUNE_SLACK)
        tile_bounds, caps = _tile_bounds(users, z, caps, rect, values, slopes, farthest(px, py, *rect), cut)
        keep = tile_bounds >= cut
        leaf = keep & (i1 - i0 < LEAF) & (j1 - j0 < LEAF)
        leaves.append(tiles[leaf])
        leaf_bounds.append(tile_bounds[leaf])
        tiles, parent = _split(tiles[keep & ~leaf])
        caps = caps[keep & ~leaf][parent]
    leaves = np.concatenate(leaves)[np.concatenate(leaf_bounds) >= cut]  # the last, highest cut
    i0, i1, j0, j1 = (a[:, None, None] for a in leaves.T)
    ix, iy = i0 + np.arange(LEAF)[:, None], j0 + np.arange(LEAF)
    return np.sort((ix * len(gys) + iy)[(ix <= i1) & (iy <= j1)]), centres


def grid_search(
    scenario: Scenario,
    grid: GridSpec,
    mode: str = "box",
    c: float = SPEED_OF_LIGHT,
) -> GridSearchResult:
    """The best feasible grid node, found by a quadtree branch and bound.

    The search splits the grid level by level into tiles, rectangles of
    nodes, from the grid cut in sixteen, with the grid's centre node as the
    first incumbent. At each tile's centre node c it evaluates f(c) and
    the gradient; every node p of the tile then has f(p) <= f(c) +
    |grad f(c)| t + hi t^2 / 2 with t = |p - c| at most rho, the tile's
    reach from c, and the tile's bound is the largest such value over
    t <= rho. hi caps the
    Hessian's largest eigenvalue: `objective.curvature_bounds` with each
    user's reach its farthest box corner, or where that is positive the
    tile's own cap over each user's distances to it. A tile whose bound
    falls below the best feasible centre value by a relative
    `_PRUNE_SLACK` cannot hold the best node and is dropped, as in region
    mode is a tile whose nearest point to some disk's centre lies outside
    that disk by more than `region.membership_slack`.
    The rest split in four down to leaves of at most LEAF x LEAF nodes,
    whose feasible nodes `node_values` evaluates, the kernel that gave the
    centres their values and slopes.

    Only nodes of the mode's `region.feasible_set` count, for the lower bound
    as for the answer; `region.within` tests them as `region.contains` does,
    with the region's slack. The leaf nodes are taken in x-major order and
    the first maximum wins, so the node and value are those of a scan of
    every node: ties break toward the smallest x, then the smallest y.
    """
    feas = region_mod.feasible_set(scenario, mode, c)
    users = user_arrays(scenario.users)
    grid_xs, grid_ys = grid.xs(), grid.ys()
    n_y = len(grid_ys)
    nodes, centres = _candidate_nodes(feas, users, scenario.bounds, grid_xs, grid_ys)
    fine = np.column_stack((grid_xs[nodes // n_y], grid_ys[nodes % n_y]))
    fine = fine[region_mod.within(feas, fine)[0]]
    if not len(fine):
        thin = f"the region is thinner than the emptiness tolerance (slack {feas.slack:.3g} m)"
        raise ValidationError(f"no grid node is feasible; {thin if feas.slack else 'refine the spacing'}")
    z = scenario.bounds.z_min
    totals = node_values(*users, z, fine[:, 0], fine[:, 1])[0]
    j = int(np.argmax(totals))  # the first maximum: ties break toward the smallest x, then y
    return GridSearchResult((float(fine[j, 0]), float(fine[j, 1])), float(totals[j]), centres + len(fine))

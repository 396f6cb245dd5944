"""Objective surface export: CSV grids and a dependency-free SVG heatmap."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .objective import user_arrays
from .oracle import GridSpec, grid_values
from .scenario import UserDevice

# Low / mid / high stops of a perceptually ordered colormap.
_STOPS = ((68, 1, 84), (33, 145, 140), (253, 231, 37))

# Side of the square heatmap in SVG pixels, between the axis margins.
PLOT_PX = 560


def surface_grid(
    users: Sequence[UserDevice], z: float, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objective values over the grid; result[ix, iy] pairs with (xs[ix], ys[iy])."""
    xs_u, ys_u, es = user_arrays(users)
    gxs = grid.xs()
    gys = grid.ys()
    return gxs, gys, grid_values(xs_u, ys_u, es, z, gxs, gys)


def _checked_values(xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`values` as floats, refused unless it holds one value per node of the
    grid xs x ys: the writers would otherwise drop the nodes that do not pair."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(xs), len(ys)):
        raise ValidationError(
            f"surface values have shape {values.shape}, not ({len(xs)}, {len(ys)}) for the grid"
        )
    return values


def write_surface_csv(path: str | Path, xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> None:
    """One `x,y,value` line per node, x-major, every number as its
    round-tripping repr. The grid rows' lines differ only in x and the
    values, so one %-template of a row, a NUL, the y and a %r on each line,
    is built once. Each row's text is the template with its x's repr for the
    NUL and its values' reprs for the %r, written at once; a float's repr
    holds neither a NUL nor a %. ValidationError unless `values` has one
    value per node, shape (len(xs), len(ys))."""
    values = _checked_values(xs, ys, values)
    template = "".join([f"\0,{y!r},%r\n" for y in np.asarray(ys, dtype=float).tolist()])
    with open(path, "w") as f:
        f.write("x,y,value\n")
        for x, row in zip(np.asarray(xs, dtype=float).tolist(), values):
            f.write(template.replace("\0", repr(x)) % tuple(row.tolist()))


# Two-digit lower-case hex of each 8-bit channel value.
_HEX = [f"{i:02x}" for i in range(256)]


def _colors(t: np.ndarray) -> list[str]:
    """Linear interpolation through the colormap stops, one "#rrggbb" per t
    in [0, 1]: the lower segment up to t = 0.5 inclusive, and each channel
    rounded half to even, as `round` does."""
    upper = t > 0.5
    stops = np.array(_STOPS, dtype=float)
    lo, hi = stops[upper.astype(int)], stops[upper.astype(int) + 1]
    u = np.where(upper, (t - 0.5) * 2.0, t * 2.0)[:, None]
    rgb = np.rint(lo + (hi - lo) * u).astype(int).tolist()
    return [f"#{_HEX[r]}{_HEX[g]}{_HEX[b]}" for r, g, b in rgb]


def write_surface_svg(path: str | Path, xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> None:
    """Hand-emitted heatmap: one rect per grid cell, axes labeled in meters,
    linear color scale annotated with the value range. The cells are
    written a grid row at a time. ValidationError unless `values` has shape
    (len(xs), len(ys))."""
    values = _checked_values(xs, ys, values)
    margin_left, margin_bottom, margin_top, margin_right = 70, 45, 30, 20
    width = margin_left + PLOT_PX + margin_right
    height = margin_top + PLOT_PX + margin_bottom
    x_lo, x_hi = float(xs[0]), float(xs[-1])
    y_lo, y_hi = float(ys[0]), float(ys[-1])
    v_lo, v_hi = float(np.min(values)), float(np.max(values))
    v_span = v_hi - v_lo

    def px(x):  # meters -> svg x
        return margin_left + (x - x_lo) / max(x_hi - x_lo, 1e-300) * PLOT_PX

    def py(y):  # meters -> svg y, flipped so +y points up
        return margin_top + (y_hi - y) / max(y_hi - y_lo, 1e-300) * PLOT_PX

    cell_w = PLOT_PX / len(xs)
    cell_h = PLOT_PX / len(ys)
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # Axes with five ticks each, labeled in meters.
    axis_y = margin_top + PLOT_PX
    tail = [
        f'<line x1="{margin_left}" y1="{axis_y}" x2="{margin_left + PLOT_PX}" y2="{axis_y}" stroke="black"/>',
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" y2="{axis_y}" stroke="black"/>',
    ]
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        tail.append(
            f'<text x="{px(fx):.1f}" y="{axis_y + 16}" font-size="11" text-anchor="middle">{fx:g}</text>'
        )
        tail.append(
            f'<text x="{margin_left - 6}" y="{py(fy) + 4:.1f}" font-size="11" text-anchor="end">{fy:g}</text>'
        )
    tail.append(
        f'<text x="{margin_left + PLOT_PX / 2:.0f}" y="{height - 8}" font-size="12" '
        f'text-anchor="middle">x (m)</text>'
    )
    tail.append(
        f'<text x="14" y="{margin_top + PLOT_PX / 2:.0f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {margin_top + PLOT_PX / 2:.0f})">y (m)</text>'
    )
    tail.append(
        f'<text x="{margin_left}" y="{margin_top - 10}" font-size="11">'
        f"value range: {v_lo:.4g} to {v_hi:.4g} J/m^2</text>"
    )
    tail.append("</svg>")
    # Cell corners are formatted once per axis; row iy is drawn flipped, +y up.
    cxs = [f"{margin_left + ix * cell_w:.2f}" for ix in range(len(xs))]
    cys = [f"{margin_top + (len(ys) - 1 - iy) * cell_h:.2f}" for iy in range(len(ys))]
    size = f'width="{cell_w + 0.5:.2f}" height="{cell_h + 0.5:.2f}"'
    with open(path, "w") as f:
        f.write("".join([f"{part}\n" for part in head]))
        # One grid row of cells at a time, so memory stays one row deep.
        for cx, row in zip(cxs, values):
            t = (row - v_lo) / v_span if v_span > 0 else np.full(len(row), 0.5)
            f.write("".join([
                f'<rect x="{cx}" y="{cy}" {size} fill="{color}"/>\n'
                for cy, color in zip(cys, _colors(t))
            ]))
        f.write("".join([f"{part}\n" for part in tail]))

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from uavlift.errors import ValidationError
from uavlift.objective import hessian, value
from uavlift.oracle import GridSpec
from uavlift.scenario import AreaBounds, UserDevice, generate_uniform
from uavlift.surface import _STOPS, _colors, surface_grid, write_surface_csv, write_surface_svg

BOUNDS = AreaBounds(0, 250, 0, 250, 650, 650)


@pytest.fixture(scope="module")
def scenario():
    return generate_uniform(40, BOUNDS, 4500, 18000, seed=21)


def test_grid_matches_pointwise_objective(scenario):
    grid = GridSpec(50.0, BOUNDS)
    xs, ys, values = surface_grid(scenario.users, 650.0, grid)
    assert values.shape == (len(xs), len(ys))
    for ix in (0, 2, len(xs) - 1):
        for iy in (1, len(ys) - 1):
            expected = value(scenario.users, 650.0, (float(xs[ix]), float(ys[iy])))
            assert values[ix, iy] == pytest.approx(expected, rel=1e-12)


def test_csv_format_and_full_precision(scenario, tmp_path):
    grid = GridSpec(50.0, BOUNDS)
    xs, ys, values = surface_grid(scenario.users, 650.0, grid)
    path = tmp_path / "surface.csv"
    write_surface_csv(path, xs, ys, values)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + len(xs) * len(ys)
    first = lines[1].split(",")
    assert float(first[0]) == xs[0] and float(first[1]) == ys[0]
    assert float(first[2]) == values[0, 0]  # repr round-trips exactly


def test_svg_structure(scenario, tmp_path):
    grid = GridSpec(50.0, BOUNDS)
    xs, ys, values = surface_grid(scenario.users, 650.0, grid)
    path = tmp_path / "surface.svg"
    write_surface_svg(path, xs, ys, values)
    text = path.read_text()
    assert text.startswith("<svg")
    # one cell per node plus the background rect
    assert text.count("<rect") == len(xs) * len(ys) + 1
    assert "x (m)" in text and "y (m)" in text
    assert "value range" in text


def test_high_altitude_surface_is_concave_at_every_node(scenario):
    grid = GridSpec(25.0, BOUNDS)
    xs, ys, _ = surface_grid(scenario.users, 650.0, grid)
    for x in xs:
        for y in ys:
            (fxx, fxy), (_, fyy) = hessian(scenario.users, 650.0, (float(x), float(y)))
            lam_max = 0.5 * (fxx + fyy) + np.sqrt((0.5 * (fxx - fyy)) ** 2 + fxy**2)
            assert lam_max <= 1e-12 * abs(fxx + fyy)


def test_low_altitude_surface_is_multimodal(scenario):
    # At 30 m the surface follows individual users; some node must have a
    # positive-curvature direction.
    grid = GridSpec(10.0, BOUNDS)
    xs, ys, _ = surface_grid(scenario.users, 30.0, grid)
    found_positive = False
    for x in xs[::2]:
        for y in ys[::2]:
            (fxx, fxy), (_, fyy) = hessian(scenario.users, 30.0, (float(x), float(y)))
            lam_max = 0.5 * (fxx + fyy) + np.sqrt((0.5 * (fxx - fyy)) ** 2 + fxy**2)
            if lam_max > 0:
                found_positive = True
                break
        if found_positive:
            break
    assert found_positive


def test_surface_grid_memory_stays_within_the_kernel_tables():
    # 63 001 nodes x 12 000 users: a full node x user array would take 6 GB,
    # axis tables over every row or column 24 MB each.
    users = generate_uniform(12000, BOUNDS, 4500, 18000, seed=3).users
    grid = GridSpec(1.0, BOUNDS)
    tracemalloc.start()
    try:
        xs, ys, _ = surface_grid(users, 650.0, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(xs) * len(ys) == 63001
    assert peak < 8e6


# The writers as they were before each axis was formatted once: the new ones
# must write the same bytes.
def reference_csv(path, xs, ys, values):
    lines = ["x,y,value"]
    for ix, x in enumerate(xs):
        for iy, y in enumerate(ys):
            lines.append(f"{float(x)!r},{float(y)!r},{float(values[ix, iy])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def reference_color(t: float) -> str:
    """The colormap one cell at a time, as the writer computed it before it
    took a row at once."""
    if t <= 0.5:
        lo, hi, u = _STOPS[0], _STOPS[1], t * 2.0
    else:
        lo, hi, u = _STOPS[1], _STOPS[2], (t - 0.5) * 2.0
    r, g, b = (round(a + (b_ - a) * u) for a, b_ in zip(lo, hi))
    return f"#{r:02x}{g:02x}{b:02x}"


def reference_svg(path, xs, ys, values, plot_px=560):
    margin_left, margin_bottom, margin_top, margin_right = 70, 45, 30, 20
    width = margin_left + plot_px + margin_right
    height = margin_top + plot_px + margin_bottom
    x_lo, x_hi = float(xs[0]), float(xs[-1])
    y_lo, y_hi = float(ys[0]), float(ys[-1])
    v_lo, v_hi = float(np.min(values)), float(np.max(values))
    v_span = v_hi - v_lo

    def px(x):
        return margin_left + (x - x_lo) / max(x_hi - x_lo, 1e-300) * plot_px

    def py(y):
        return margin_top + (y_hi - y) / max(y_hi - y_lo, 1e-300) * plot_px

    cell_w = plot_px / len(xs)
    cell_h = plot_px / len(ys)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for ix, x in enumerate(xs):
        for iy, y in enumerate(ys):
            t = (values[ix, iy] - v_lo) / v_span if v_span > 0 else 0.5
            cx = margin_left + ix * cell_w
            cy = margin_top + (len(ys) - 1 - iy) * cell_h
            parts.append(
                f'<rect x="{cx:.2f}" y="{cy:.2f}" width="{cell_w + 0.5:.2f}" '
                f'height="{cell_h + 0.5:.2f}" fill="{reference_color(float(t))}"/>'
            )
    axis_y = margin_top + plot_px
    parts.append(
        f'<line x1="{margin_left}" y1="{axis_y}" x2="{margin_left + plot_px}" y2="{axis_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" y2="{axis_y}" stroke="black"/>'
    )
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        parts.append(
            f'<text x="{px(fx):.1f}" y="{axis_y + 16}" font-size="11" text-anchor="middle">{fx:g}</text>'
        )
        parts.append(
            f'<text x="{margin_left - 6}" y="{py(fy) + 4:.1f}" font-size="11" text-anchor="end">{fy:g}</text>'
        )
    parts.append(
        f'<text x="{margin_left + plot_px / 2:.0f}" y="{height - 8}" font-size="12" '
        f'text-anchor="middle">x (m)</text>'
    )
    parts.append(
        f'<text x="14" y="{margin_top + plot_px / 2:.0f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {margin_top + plot_px / 2:.0f})">y (m)</text>'
    )
    parts.append(
        f'<text x="{margin_left}" y="{margin_top - 10}" font-size="11">'
        f"value range: {v_lo:.4g} to {v_hi:.4g} J/m^2</text>"
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


CENTRE_USER = (UserDevice(125.0, 125.0, 9000.0),)


@pytest.mark.parametrize(
    "grid, z, centre_only",
    [
        (GridSpec(5.0, BOUNDS), 650.0, False),  # 51 x 51
        (GridSpec(5.0, BOUNDS), 30.0, False),
        (GridSpec(1.0, BOUNDS), 650.0, False),  # 251 x 251
        (GridSpec(3.0, AreaBounds(0, 250, 0, 170, 130, 130)), 130.0, False),  # 1 m last gaps
        (GridSpec(250.0, BOUNDS), 650.0, True),  # 2 x 2 corners, all one value
        (GridSpec(400.0, BOUNDS), 30.0, True),
    ],
)
def test_writers_match_the_reference_bytes(scenario, tmp_path, grid, z, centre_only):
    users = CENTRE_USER if centre_only else scenario.users
    xs, ys, values = surface_grid(users, z, grid)
    if centre_only:
        assert values.shape == (2, 2) and np.ptp(values) == 0.0
    for suffix, write, reference in (
        ("csv", write_surface_csv, reference_csv),
        ("svg", write_surface_svg, reference_svg),
    ):
        write(tmp_path / f"new.{suffix}", xs, ys, values)
        reference(tmp_path / f"ref.{suffix}", xs, ys, values)
        assert (tmp_path / f"new.{suffix}").read_bytes() == (tmp_path / f"ref.{suffix}").read_bytes()


# sha256 of the CSV bytes `surface` writes for these layouts at 650 m: the
# kernel's values and the writer's text, pinned bit for bit.
@pytest.mark.parametrize(
    "count, seed, spacing, size, digest",
    [
        (200, 9, 1.0, 1835604, "95773e84233290561be9e421d43d2d25ad445514a4a963716782f3cc28349193"),
        (12000, 3, 5.0, 76750, "896a3c5b6be22d70c04e2271d0772bf0c15231f36eaf3fe8f9520b04110f8278"),
    ],
)
def test_surface_csv_keeps_its_bytes(tmp_path, count, seed, spacing, size, digest):
    users = generate_uniform(count, BOUNDS, 4500, 18000, seed=seed).users
    write_surface_csv(tmp_path / "s.csv", *surface_grid(users, 650.0, GridSpec(spacing, BOUNDS)))
    data = (tmp_path / "s.csv").read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_svg_writer_holds_one_row_at_a_time(tmp_path):
    # All 63 001 cells of a 251 x 251 grid as strings take about 17 MB; one
    # row of them takes well under 0.1 MB.
    xs = ys = np.linspace(0.0, 250.0, 251)
    values = np.random.default_rng(7).random((251, 251))
    tracemalloc.start()
    try:
        write_surface_svg(tmp_path / "new.svg", xs, ys, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    reference_svg(tmp_path / "ref.svg", xs, ys, values)
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()
    assert peak < 2e6


def test_row_colors_match_the_per_cell_formula():
    # Every t = k/1024 and a fine sweep. t = 1/4 puts red at 68 - 35/2 = 50.5
    # and t = 3/4 blue at 140 - 103/2 = 88.5: ties that round to even.
    t = np.concatenate((np.arange(1025) / 1024, np.linspace(0.0, 1.0, 10007)))
    assert _colors(t) == [reference_color(float(v)) for v in t]
    assert _colors(np.array([0.25, 0.5, 0.75])) == ["#324970", "#21918c", "#8fbc58"]


@pytest.mark.parametrize(
    "values",
    [
        np.full((3, 4), 7.5),  # flat: every cell takes t = 0.5
        np.array([[0.0, 1.0, 2.0], [0.5, 1.5, 0.25], [1.0, 1.0, 0.0]]),  # t = 0, 1/2, 1, 1/4, 3/4, 1/8
    ],
)
def test_svg_matches_the_per_cell_formula_at_the_middle_stop(tmp_path, values):
    xs, ys = np.arange(float(values.shape[0])), np.arange(float(values.shape[1]))
    write_surface_svg(tmp_path / "new.svg", xs, ys, values)
    reference_svg(tmp_path / "ref.svg", xs, ys, values)
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()
    assert ('fill="#21918c"' in (tmp_path / "new.svg").read_text())


@pytest.mark.parametrize("write", [write_surface_csv, write_surface_svg])
@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 3), (6,), (3, 2, 1)])
def test_writers_refuse_values_that_do_not_fill_the_grid(tmp_path, write, shape):
    # unchecked, the writers' zip stops at the shorter of the 3 x 2 grid and
    # the values, and writes a smaller file without a word
    with pytest.raises(ValidationError, match=r"shape .* not \(3, 2\)"):
        write(tmp_path / "s.out", np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0]), np.ones(shape))

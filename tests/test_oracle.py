import json
import math
import warnings

import numpy as np
import pytest
from finite_differences import fd_gradient, fd_hessian
from region_layouts import binding_scenario

from uavlift import oracle
from uavlift.channel import SPEED_OF_LIGHT
from uavlift.cli import main
from uavlift.errors import EmptyRegionError, ValidationError
from uavlift.objective import concavity_certificate, gradient, hessian, user_arrays, value
from uavlift.oracle import GridSpec, grid_search
from uavlift.region import MEMBERSHIP_TOL, build, contains, membership_slack, within
from uavlift.rng import SplitMix64
from uavlift.scenario import ALTITUDE_LIMITS, AreaBounds, RfParams, Scenario, UserDevice, generate_uniform, save
from uavlift.surface import surface_grid

RF = RfParams(rate=4e6, bandwidth=50e6, noise=1e-14, frequency=4e9, p_max=0.5, tau_th=900)


class TestGridSpec:
    def test_axis_is_inclusive(self):
        spec = GridSpec(1.0, AreaBounds(0, 250, 0, 250, 650, 650))
        assert len(spec.xs()) == 251
        assert spec.xs()[0] == 0.0 and spec.xs()[-1] == 250.0

    def test_axis_appends_far_edge_when_not_a_multiple(self):
        spec = GridSpec(3.0, AreaBounds(0, 10, 0, 10, 1, 1))
        assert list(spec.xs()) == [0.0, 3.0, 6.0, 9.0, 10.0]

    def test_axis_clamps_a_last_node_past_the_far_edge(self):
        # (250 - 0) / spacing is 100 - 5e-10, which rounds up to 100 nodes
        # past the first; the last would land 1.25e-9 m past the edge, where
        # grid_search's box test drops its row and column and surface keeps them.
        bounds = AreaBounds(0, 250, 0, 250, 650, 650)
        spec = GridSpec(250 / (100 - 5e-10), bounds)
        assert len(spec.xs()) == 101 and spec.xs()[-1] == spec.ys()[-1] == 250.0
        s = Scenario(users=(UserDevice(250, 250, 9000.0),), rf=RF, bounds=bounds)
        assert grid_search(s, spec).point == (250.0, 250.0)

    def test_spacing_must_be_positive(self):
        with pytest.raises(ValidationError):
            GridSpec(0.0, AreaBounds(0, 10, 0, 10, 1, 1))

    def test_node_count_is_capped(self):
        bounds = AreaBounds(0, 250, 0, 250, 650, 650)
        assert 4001**2 <= oracle.MAX_NODES < 4201**2
        GridSpec(250 / 4000, bounds)
        for spacing in (250 / 4200, 1e-4, 5e-324):
            with pytest.raises(ValidationError, match="nodes"):
                GridSpec(spacing, bounds)


class TestGridSearch:
    def test_single_user_found_exactly(self):
        bounds = AreaBounds(0, 100, 0, 100, 650, 650)
        s = Scenario(users=(UserDevice(50, 50, 9000.0),), rf=RF, bounds=bounds)
        result = grid_search(s, GridSpec(1.0, bounds))
        assert result.point == (50.0, 50.0)
        assert (result.point, result.value) == exhaustive_search(s, GridSpec(1.0, bounds))
        assert result.evaluated < 101 * 101

    def test_tie_breaks_toward_smallest_x(self):
        # At a low altitude two identical users produce two bitwise-equal
        # grid maxima at (1, 1) and (3, 1); the scan must report (1, 1).
        bounds = AreaBounds(0, 4, 0, 2, 0.5, 0.5)
        s = Scenario(
            users=(UserDevice(1, 1, 100.0), UserDevice(3, 1, 100.0)), rf=RF, bounds=bounds
        )
        result = grid_search(s, GridSpec(1.0, bounds))
        assert result.point == (1.0, 1.0)

    def test_region_mode_restricts_nodes(self):
        from uavlift.region import build

        bounds = AreaBounds(0, 50, 0, 50, 130, 130)
        s = generate_uniform(30, bounds, 4500, 18000, seed=5)
        assert not build(s).empty
        box_result = grid_search(s, GridSpec(1.0, bounds), mode="box")
        region_result = grid_search(s, GridSpec(1.0, bounds), mode="region")
        assert region_result.evaluated <= box_result.evaluated
        assert region_result.value <= box_result.value + 1e-12

    def test_region_mode_on_empty_region_raises(self):
        bounds = AreaBounds(0, 250, 0, 250, 650, 650)
        s = generate_uniform(200, bounds, 4500, 18000, seed=9)
        with pytest.raises(EmptyRegionError):
            grid_search(s, GridSpec(5.0, bounds), mode="region", c=3e8)

    def test_refining_the_grid_never_loses_ground(self):
        bounds = AreaBounds(0, 50, 0, 50, 130, 130)
        s = generate_uniform(20, bounds, 4500, 18000, seed=8)
        coarse = grid_search(s, GridSpec(2.0, bounds))
        fine = grid_search(s, GridSpec(1.0, bounds))
        assert fine.value >= coarse.value - 1e-12
        # and the gain is bounded by the sampled gradient scale times spacing
        norms = [
            math.hypot(*gradient(s.users, 130.0, (x, y)))
            for x in range(0, 51, 5)
            for y in range(0, 51, 5)
        ]
        assert fine.value - coarse.value <= 2.0 * max(norms) * 2.0


def cutting_disks_scenario(seed: int) -> Scenario:
    """Six devices at unit system constant whose disks at the concave altitude
    130 m all pass 5 m beyond the anchor (35, 35) of a 50 m box, so the
    disks cut every box corner and clip the box-mode optimum."""
    gen = SplitMix64(seed)
    users = []
    for _ in range(6):
        x, y = gen.uniform(0.0, 50.0), gen.uniform(0.0, 50.0)
        radius = math.hypot(x - 35.0, y - 35.0) + 5.0
        users.append(UserDevice(x, y, radius * radius + 130.0**2))
    rf = RfParams(rate=1.0, bandwidth=6.0, noise=1.0,
                  frequency=SPEED_OF_LIGHT / (4.0 * math.pi), p_max=1e6, tau_th=1.0)
    return Scenario(users=tuple(users), rf=rf, bounds=AreaBounds(0, 50, 0, 50, 130, 130))


@pytest.mark.parametrize("seed", [3, 5])
def test_region_mode_solve_matches_oracle_when_disks_cut_the_box(tmp_path, capsys, seed):
    scenario = cutting_disks_scenario(seed)
    bounds = scenario.bounds
    assert concavity_certificate(bounds).holds
    path, report_path = tmp_path / "cut.json", tmp_path / "report.json"
    save(scenario, path)
    rc = main(["solve", str(path), "--mode", "region", "--init", "0,0", "--eps", "1e-7",
               "--max-iters", "5000", "--report", str(report_path)])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(report_path.read_text())
    x, y = report["placement"][:2]

    feas = build(scenario)
    slack = feas.table.r - np.hypot(x - feas.table.cx, y - feas.table.cy)
    assert min(slack) <= 1e-6  # a disk is active at the solver's answer

    spacing = 0.5
    best = grid_search(scenario, GridSpec(spacing, bounds), mode="region")
    # Lipschitz bound of sum E/(d^2 + z^2): its gradient norm is at most
    # sum(E) * 3*sqrt(3) / (8 z^3).
    z = bounds.z_min
    lipschitz = sum(u.energy for u in scenario.users) * 3.0 * math.sqrt(3.0) / (8.0 * z**3)
    assert report["objective"] >= best.value * (1.0 - 1e-9)
    assert report["objective"] - best.value <= math.sqrt(2.0) * spacing * lipschitz
    assert math.hypot(x - best.point[0], y - best.point[1]) <= math.sqrt(2.0) * spacing


# 6 users on 21 x 21 nodes: at 4 elements a block is one node's row of all
# the users, at 25 four columns of them.
@pytest.mark.parametrize("chunk", [4, 25])
def test_grid_kernel_blocks_do_not_change_answers(monkeypatch, chunk):
    scenario, z = cutting_disks_scenario(3), 130.0
    grid = GridSpec(2.5, scenario.bounds)
    before = {mode: grid_search(scenario, grid, mode=mode) for mode in ("box", "region")}
    monkeypatch.setattr(oracle, "CHUNK_ELEMENTS", chunk)
    xs, ys, values = surface_grid(scenario.users, z, grid)
    nodes = [(float(x), float(y)) for x in xs for y in ys]
    assert values.ravel() == pytest.approx([value(scenario.users, z, p) for p in nodes], rel=1e-12)
    for mode, expected in before.items():
        # every node and tile sums all its users at once, so no bound moves either
        assert grid_search(scenario, grid, mode=mode) == expected
        assert (expected.point, expected.value) == exhaustive_search(scenario, grid, mode)
        assert expected.evaluated < len(nodes)
    feas = build(scenario)
    assert 0 < sum(contains(feas, p) for p in nodes) < len(nodes)  # the disks cut the grid


def gap_node_scenario(gap: float) -> Scenario:
    """Two unit-K users whose 10 m disks at z = 10 m are `gap` m apart, with
    the gap's midpoint on the 1 m grid node (50, 50)."""
    users = (UserDevice(40.0 - 0.5 * gap, 50.0, 200.0), UserDevice(60.0 + 0.5 * gap, 50.0, 200.0))
    rf = RfParams(rate=1.0, bandwidth=2.0, noise=1.0,
                  frequency=SPEED_OF_LIGHT / (4.0 * math.pi), p_max=1e6, tau_th=1.0)
    return Scenario(users=users, rf=rf, bounds=AreaBounds(0, 100, 0, 100, 10, 10))


@pytest.mark.parametrize("layout", ["binding", "tangent", "thin"])
def test_grid_nodes_are_feasible_as_contains_says(layout):
    # tangent disks meet at the node (50, 50) alone; 5e-7 m apart they share
    # no point, so the region is empty and every test names its shortfall
    gaps = {"tangent": 0.0, "thin": 5e-7}
    scenario = gap_node_scenario(gaps[layout]) if layout in gaps else binding_scenario(20)
    grid = GridSpec(1.0, scenario.bounds)
    feas = build(scenario)
    nodes = [(float(x), float(y)) for x in grid.xs() for y in grid.ys()]
    if layout == "thin":
        assert feas.empty
        for ask in (lambda: contains(feas, (50.0, 50.0)), lambda: within(feas, np.array(nodes)),
                    lambda: grid_search(scenario, grid, mode="region")):
            with pytest.raises(EmptyRegionError, match=r"misses some disk by 2\.5e-07 m$"):
                ask()
        return
    accepted = [p for p in nodes if contains(feas, p)]
    assert accepted == [(50.0, 50.0)] if layout == "tangent" else len(accepted) > 0
    # the oracle's membership test, over all nodes at once, is contains'
    assert [nodes[k] for k in within(feas, np.array(nodes))[0]] == accepted
    result = grid_search(scenario, grid, mode="region")
    assert result.point in accepted
    assert (result.point, result.value) == exhaustive_search(scenario, grid, "region")
    assert result.evaluated < len(nodes)


def flat_values(xs, ys, es, z: float, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """The objective at every node (px[k], py[k]) by the flat formula, a block
    of nodes at a time: the reference `oracle.grid_values` and
    `oracle.node_values` must match bit for bit."""
    values = np.empty(len(px))
    step = max(1, 2**16 // len(xs))
    for k in range(0, len(px), step):
        qx, qy = px[k : k + step, None], py[k : k + step, None]
        values[k : k + step] = np.sum(es / ((qx - xs) ** 2 + (qy - ys) ** 2 + z * z), axis=1)
    return values


def exhaustive_search(scenario: Scenario, grid: GridSpec, mode: str = "box", c=SPEED_OF_LIGHT):
    """The scan `grid_search` must reproduce: `flat_values` at every node,
    then the first x-major maximum among the nodes inside every range disk."""
    px, py = (a.ravel() for a in np.meshgrid(grid.xs(), grid.ys(), indexing="ij"))
    values = flat_values(*user_arrays(scenario.users), scenario.bounds.z_min, px, py)
    if mode == "region":
        feas = build(scenario, c)
        table = feas.table
        r2 = (table.r + membership_slack(feas)) ** 2
        inside = np.all((px[:, None] - table.cx) ** 2 + (py[:, None] - table.cy) ** 2 <= r2, axis=1)
        values = np.where(inside, values, -np.inf)
    j = int(np.argmax(values))
    return (float(px[j]), float(py[j])), float(values[j])


# (users, box sides, spacing). A band of `grid_values` is 65 536 // users
# grid rows or columns: 327 at n = 200, so 400 x 20 and 20 x 400 cross one
# band in x and in y; 32 at n = 2000 and 5 at n = 12 000. A block of
# `node_values` is a quarter of that many nodes. Spacings 3 and 7 leave a
# short last gap.
KERNEL_GRIDS = [
    (1, 250.0, 170.0, 3.0),
    (2, 250.0, 170.0, 3.0),
    (200, 400.0, 20.0, 1.0),
    (200, 20.0, 400.0, 1.0),
    (200, 250.0, 170.0, 3.0),
    (2000, 250.0, 170.0, 3.0),
    (12000, 250.0, 170.0, 7.0),
]


class TestGridValues:
    """`grid_values` over a whole grid, and `node_values` at any set of its
    nodes, give the flat formula's bits."""

    @pytest.mark.parametrize("select", ["all", "rows", "runs", "scattered", "single", "none"])
    @pytest.mark.parametrize("z", [10.0, 650.0])
    @pytest.mark.parametrize("n, x_side, y_side, spacing", KERNEL_GRIDS)
    def test_matches_the_flat_formula(self, n, x_side, y_side, spacing, z, select):
        # "all" is the whole grid, which `grid_values` evaluates; the other
        # selections go to `node_values`. "rows" lacks only the last node of
        # the middle row; "runs" takes one or two runs of 1-4 nodes a row, as
        # the quadtree's leaves do.
        grid = GridSpec(spacing, AreaBounds(0, x_side, 0, y_side, z, z))
        xs, ys, es = user_arrays(generate_uniform(n, grid.bounds, 4500, 18000, seed=n).users)
        gxs, gys = grid.xs(), grid.ys()
        n_y = len(gys)
        total = len(gxs) * n_y
        gen, leaf_gen = SplitMix64(total), SplitMix64(total + 1)

        def runs():
            for ix in range(len(gxs)):
                for _ in range(1 + (leaf_gen.uniform(0.0, 1.0) < 0.5)):
                    length = 1 + int(leaf_gen.uniform(0.0, 4.0))
                    start = ix * n_y + int(leaf_gen.uniform(0.0, n_y - length + 1))
                    yield from range(start, start + length)

        nodes = {
            "all": np.arange(total),
            "scattered": np.flatnonzero([gen.uniform(0.0, 1.0) < 0.3 for _ in range(total)]),
            "single": np.array([int(gen.uniform(0.0, total))]),
            "none": np.arange(0),
            "rows": np.delete(np.arange(total), (len(gxs) // 2 + 1) * n_y - 1),
            "runs": np.unique(np.fromiter(runs(), dtype=np.intp)),
        }[select]
        px, py = np.repeat(gxs, len(gys))[nodes], np.tile(gys, len(gxs))[nodes]
        if select == "all":
            values = oracle.grid_values(xs, ys, es, z, gxs, gys)
            assert values.shape == (len(gxs), n_y)
            values = values.ravel()
        else:
            values = oracle.node_values(xs, ys, es, z, px, py)[0]
            assert values.shape == nodes.shape
        assert np.array_equal(values, flat_values(xs, ys, es, z, px, py))

    def test_matches_the_flat_formula_above_one_block_of_users(self):
        # 70 000 users, more than CHUNK_ELEMENTS: a band or block is one row,
        # column or node, and each node still sums all its users in one reduction
        bounds = AreaBounds(0, 250, 0, 250, 650, 650)
        xs, ys, es = user_arrays(generate_uniform(70000, bounds, 4500, 18000, seed=3).users)
        assert len(xs) > oracle.CHUNK_ELEMENTS
        grid = GridSpec(25.0, bounds)
        gxs, gys = grid.xs(), grid.ys()
        px, py = np.repeat(gxs, len(gys)), np.tile(gys, len(gxs))
        expected = flat_values(xs, ys, es, 650.0, px, py)
        assert np.array_equal(oracle.grid_values(xs, ys, es, 650.0, gxs, gys).ravel(), expected)
        assert np.array_equal(oracle.node_values(xs, ys, es, 650.0, px, py)[0], expected)

    @pytest.mark.parametrize("below", [1e-160, 1e-170])  # z^2 subnormal, z^2 == 0
    def test_an_overflowing_node_is_an_input_error_naming_z(self, below):
        # A user on node (1, 2): E / z^2 overflowed at these altitudes, which
        # lie below the input domain and are refused, for a box and for a
        # surface's override alike. At the domain's lowest altitude, 2^-10 m,
        # E / z^2 is 4500 * 2^20, and no kernel warns.
        z = ALTITUDE_LIMITS[0]
        xs, ys, es = np.array([1.0]), np.array([2.0]), np.array([4500.0])
        axis = np.arange(4.0)
        nodes = np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 3.0])
        bounds = AreaBounds(0, 3, 0, 3, z, z)
        scenario = Scenario(users=(UserDevice(1.0, 2.0, 4500.0),), rf=RF, bounds=bounds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = oracle.grid_values(xs, ys, es, z, axis, axis)
            values = oracle.node_values(xs, ys, es, z, *nodes)[0]
            result = grid_search(scenario, GridSpec(1.0, scenario.bounds))
        assert grid[1, 2] == values[1] == result.value == 4500.0 * 2**20
        assert result.point == (1.0, 2.0)
        assert np.array_equal(values, flat_values(xs, ys, es, z, *nodes))
        for lower in (below, math.nextafter(z, 0.0)):
            with pytest.raises(ValidationError, match=r"^bounds\.z_min must lie in "):
                AreaBounds(0, 3, 0, 3, lower, lower)
            with pytest.raises(ValidationError, match=r"^z must lie in "):
                surface_grid(scenario.users, lower, GridSpec(1.0, scenario.bounds))

    # 200 users at z = 30 m, whose block is 81 nodes, on 26 x 18 nodes; the
    # 20 binding users at z = 10 m, whose block is 819 nodes, on 41 x 41
    @pytest.mark.parametrize("layout", ["uniform", "binding"])
    def test_slopes_are_the_gradient_norm(self, layout):
        if layout == "binding":
            scenario, spacing = binding_scenario(20), 2.5
        else:
            bounds = AreaBounds(0, 250, 0, 170, 30, 30)
            scenario, spacing = generate_uniform(200, bounds, 4500, 18000, seed=9), 10.0
        z = scenario.bounds.z_min
        grid = GridSpec(spacing, scenario.bounds)
        px, py = (a.ravel() for a in np.meshgrid(grid.xs(), grid.ys(), indexing="ij"))
        users = user_arrays(scenario.users)
        assert len(px) > oracle.CHUNK_ELEMENTS // 4 // len(users.xs)
        _, slopes = oracle.node_values(*users, z, px, py)
        expected = [math.hypot(*gradient(users, z, p)) for p in zip(px.tolist(), py.tolist())]
        assert slopes.tolist() == pytest.approx(expected, rel=1e-12)


def anchored_scenario(n: int, seed: int, side: float, z: float) -> Scenario:
    """n devices in a side x side box at unit system constant whose disks at
    altitude z all pass 0.15 side beyond the anchor (0.6 side, 0.6 side)."""
    gen = SplitMix64(seed)
    users = []
    for _ in range(n):
        x, y = gen.uniform(0.0, side), gen.uniform(0.0, side)
        radius = math.hypot(x - 0.6 * side, y - 0.6 * side) + 0.15 * side
        users.append(UserDevice(x, y, radius * radius + z * z))
    rf = RfParams(rate=1.0, bandwidth=float(n), noise=1.0,
                  frequency=SPEED_OF_LIGHT / (4.0 * math.pi), p_max=1e6, tau_th=1.0)
    return Scenario(users=tuple(users), rf=rf, bounds=AreaBounds(0, side, 0, side, z, z))


def assert_exhaustive(scenario: Scenario, grid: GridSpec, mode: str) -> None:
    result = grid_search(scenario, grid, mode=mode)
    assert (result.point, result.value) == exhaustive_search(scenario, grid, mode)


# The box side per spacing gives 37 to 101 nodes an axis, five or six levels
# of the quadtree; spacings 3 and 7 leave a short last gap.
SIDES = {1.0: 100.0, 2.5: 160.0, 3.0: 200.0, 7.0: 250.0}


class TestGridSearchIsExhaustive:
    """`grid_search` returns the node and value bits of a scan of every node."""

    @pytest.mark.parametrize("z", [650.0, 130.0, 30.0, 10.0])
    @pytest.mark.parametrize("spacing", sorted(SIDES))
    def test_random_layouts(self, spacing, z):
        side = SIDES[spacing]
        grid = GridSpec(spacing, AreaBounds(0, side, 0, side, z, z))
        for n in (1, 2, 5, 20, 200):
            for seed in (1, 2):
                box = generate_uniform(n, grid.bounds, 4500, 18000, seed=seed)
                assert_exhaustive(box, grid, "box")
                assert_exhaustive(anchored_scenario(n, seed, side, z), grid, "region")
        assert_exhaustive(generate_uniform(2000, grid.bounds, 4500, 18000, seed=1), grid, "box")
        assert_exhaustive(anchored_scenario(2000, 1, side, z), grid, "region")

    @pytest.mark.parametrize("m", [5, 20, 50])
    def test_binding_layout(self, m):
        scenario = binding_scenario(m)
        for spacing in SIDES:
            grid = GridSpec(spacing, scenario.bounds)
            for mode in ("box", "region"):
                assert_exhaustive(scenario, grid, mode)

    @pytest.mark.parametrize(
        "users", [((1, 1), (3, 1)), ((15, 8), (16, 8)), ((15, 8), (17, 8)), ((3, 20), (15, 3))]
    )
    def test_two_user_ties(self, users):
        # Equal users give bitwise-equal maxima at their own nodes. The
        # quadtree's leaves on this 41 x 21 grid span x nodes 0-1, 2-4, ...,
        # 15-16, 17-19: the first pair and (15, 17) lie in neighbouring
        # leaves, (15, 16) in one; in the last, the x-major first node lies in
        # the later half of the grid along y.
        bounds = AreaBounds(0, 40, 0, 20, 0.5, 0.5)
        scenario = Scenario(users=tuple(UserDevice(x, y, 100.0) for x, y in users), rf=RF, bounds=bounds)
        result = grid_search(scenario, GridSpec(1.0, bounds))
        assert result.point == (float(users[0][0]), float(users[0][1]))
        assert_exhaustive(scenario, GridSpec(1.0, bounds), "box")

    @pytest.mark.parametrize("z", [0.5, 10.0, 30.0, 130.0, 650.0])
    def test_four_user_symmetric_layout(self, z):
        # Users at the corners of a square centred on (31.5, 31.5): every
        # maximum, at a user or at the centre, falls between nodes 15|16,
        # 31|32 or 47|48 on both axes, the edges of the sixteen tiles the
        # quadtree starts from.
        corners = [(15.5, 15.5), (47.5, 15.5), (15.5, 47.5), (47.5, 47.5)]
        users = tuple(UserDevice(x, y, 30.0**2 + z * z) for x, y in corners)
        rf = RfParams(rate=1.0, bandwidth=4.0, noise=1.0,
                      frequency=SPEED_OF_LIGHT / (4.0 * math.pi), p_max=1e6, tau_th=1.0)
        scenario = Scenario(users=users, rf=rf, bounds=AreaBounds(0, 63, 0, 63, z, z))
        for mode in ("box", "region"):
            assert_exhaustive(scenario, GridSpec(1.0, scenario.bounds), mode)

    def test_sharp_peak_needs_the_curvature_term(self):
        # At z = 0.5 the best node (0, 0) is a corner of its starting tile,
        # [0, 9] x [0, 4] centred at (5, 2), where value and slope are small;
        # the centre (25, 7) of another tile lies next to a user nearly as
        # strong. Only the curvature term keeps the first tile.
        bounds = AreaBounds(0, 40, 0, 20, 0.5, 0.5)
        users = (UserDevice(0, 0, 100.0), UserDevice(24, 8, 90.0))
        scenario = Scenario(users=users, rf=RF, bounds=bounds)
        assert grid_search(scenario, GridSpec(1.0, bounds)).point == (0.0, 0.0)
        assert_exhaustive(scenario, GridSpec(1.0, bounds), "box")

    def test_boundary_maximum_needs_the_full_gradient_term(self):
        # The objective rises almost linearly along d (25.6 degrees) towards
        # a strong user H, and the disk of a user W 20 m behind cuts it off on
        # a line across d through the node m, so the best feasible node lies
        # on the region's edge, where the gradient is far from zero. m is node
        # 256 on both axes, the last node of the quadtree's tile of nodes
        # 252-256, whose centre node 254 lies 0.28 m behind it along d. There
        # f(c) + |grad f(c)| t bounds the tile at 450.60 J/m^2 above m's
        # 450.44, while half the gradient term gives 449.18, below the
        # neighbouring centre value 450.00 that the search already holds.
        s, z = 0.1, 40.0
        d = (math.cos(math.radians(25.6)), math.sin(math.radians(25.6)))
        m = (24.8 + 8 * s, 24.8 + 8 * s)
        h = (m[0] + 25.0 * d[0], m[1] + 25.0 * d[1])
        w = (m[0] - 20.0 * d[0], m[1] - 20.0 * d[1])
        reach = math.hypot(m[0] - w[0], m[1] - w[1]) + 1e-4
        users = (UserDevice(*h, 1e6), UserDevice(*w, reach * reach + z * z))
        rf = RfParams(rate=1.0, bandwidth=2.0, noise=1.0,
                      frequency=SPEED_OF_LIGHT / (4.0 * math.pi), p_max=1e6, tau_th=1.0)
        scenario = Scenario(users=users, rf=rf, bounds=AreaBounds(0, 60, 0, 60, z, z))
        grid = GridSpec(s, scenario.bounds)
        assert grid_search(scenario, grid, mode="region").point == m
        assert_exhaustive(scenario, grid, "region")

    def test_a_node_within_the_rounding_of_a_large_instance_is_feasible(self):
        # On a box 1e5 m across the region's rounding is 1e-7 m, a hundred
        # times MEMBERSHIP_TOL. The strong user A sits on the node (5e4, 5e4),
        # which misses the disk of the user W, 3e4 m to its left, by 3e-8 m:
        # inside the rounding, so the node is feasible and the best.
        z = 100.0
        rf = RfParams(rate=1.0, bandwidth=2.0, noise=1.0,
                      frequency=SPEED_OF_LIGHT / (4.0 * math.pi), p_max=1e12, tau_th=1.0)
        bounds = AreaBounds(0, 1e5, 0, 1e5, z, z)
        node = (5e4, 5e4)

        def scenario(wx):
            users = (UserDevice(*node, 6e4**2 + z * z), UserDevice(wx, node[1], 3e4**2 + z * z))
            return Scenario(users=users, rf=rf, bounds=bounds)

        wx = node[0] - float(build(scenario(0.0)).table.r[1]) - 3e-8
        feas = build(scenario(wx))
        miss = node[0] - wx - feas.table.r[1]
        assert MEMBERSHIP_TOL < miss < feas.table.rounding == 1e-7
        grid = GridSpec(2500.0, bounds)
        assert grid_search(scenario(wx), grid, mode="region").point == node
        assert_exhaustive(scenario(wx), grid, "region")

    def test_paper_box_evaluates_under_a_tenth_of_the_nodes(self):
        bounds = AreaBounds(0, 250, 0, 250, 650, 650)
        grid = GridSpec(1.0, bounds)
        result = grid_search(generate_uniform(2000, bounds, 4500, 18000, seed=101), grid)
        assert len(grid.xs()) * len(grid.ys()) == 63001
        assert result.evaluated < 0.1 * 63001

    def test_far_tiles_are_bounded_at_a_vanishing_altitude(self):
        # At the input domain's lowest altitude, 2^-10 m, a user 100 m from a
        # tile is 1e5 z away, and the tile is still bounded; 1e-60 m, where a
        # curvature term once had to stay finite, lies below the domain.
        with pytest.raises(ValidationError, match=r"^bounds\.z_min must lie in "):
            AreaBounds(0, 250, 0, 250, 1e-60, 1e-60)
        z = ALTITUDE_LIMITS[0]
        bounds = AreaBounds(0, 250, 0, 250, z, z)
        grid = GridSpec(5.0, bounds)
        scenario = generate_uniform(20, bounds, 4500, 18000, seed=3)
        result = grid_search(scenario, grid)
        assert (result.point, result.value) == exhaustive_search(scenario, grid)
        assert result.evaluated < len(grid.xs()) * len(grid.ys())


# (layout, z, spacing, mode): (point, float.hex(value), evaluated). "seed 9" is
# `generate --count 200 --seed 9` at altitude z; "binding" is binding_scenario(20).
GRID_SEARCH_PINS = {
    ("seed 9", 2.0, 1.0, "box"): ((119.0, 167.0), "0x1.c55062d12e673p+12", 4697),
    ("seed 9", 2.0, 0.5, "box"): ((118.5, 167.0), "0x1.ce44e07089b84p+12", 3813),
    ("seed 9", 30.0, 1.0, "box"): ((105.0, 143.0), "0x1.b7381ff7049a6p+8", 561),
    ("seed 9", 30.0, 0.5, "box"): ((104.5, 143.0), "0x1.b73a38755edb8p+8", 581),
    ("seed 9", 650.0, 1.0, "box"): ((130.0, 127.0), "0x1.4d0afd6eb35fep+2", 189),
    ("seed 9", 650.0, 0.5, "box"): ((130.0, 126.5), "0x1.4d0b06fd3b55dp+2", 177),
    ("binding", 10.0, 1.0, "region"): ((52.0, 73.0), "0x1.12ab0d12bcf82p+6", 91),
    ("binding", 10.0, 0.5, "region"): ((53.0, 73.5), "0x1.13224bfbac091p+6", 122),
}


@pytest.mark.parametrize("layout, z, spacing, mode", list(GRID_SEARCH_PINS))
def test_grid_search_keeps_its_answers(layout, z, spacing, mode):
    # the node, the bits of its value and the count of nodes evaluated
    if layout == "binding":
        scenario = binding_scenario(20)
    else:
        scenario = generate_uniform(200, AreaBounds(0, 250, 0, 250, z, z), 4500, 18000, seed=9)
    result = grid_search(scenario, GridSpec(spacing, scenario.bounds), mode=mode)
    got = (result.point, result.value.hex(), result.evaluated)
    assert got == GRID_SEARCH_PINS[layout, z, spacing, mode]


@pytest.mark.parametrize("mode", ["box", "region"])
def test_every_tile_bound_holds_the_tiles_best_node(monkeypatch, mode):
    """Each bound the search takes is at least the exact maximum over the
    tile's feasible nodes, within the relative margin it prunes with: with a
    negative cap (the concave box at 650 m) and a positive one (all lower)."""
    bounded = []

    def recording(users, z, hi, rect, *rest):
        bounds, caps = real(users, z, hi, rect, *rest)
        bounded.append((rect, bounds, caps))
        return bounds, caps

    real = oracle._tile_bounds
    monkeypatch.setattr(oracle, "_tile_bounds", recording)
    signs, side = set(), 60.0
    for z in (ALTITUDE_LIMITS[0], 2.0, 10.0, 30.0, 130.0, 650.0):
        grid = GridSpec(1.0, AreaBounds(0, side, 0, side, z, z))
        gxs, gys = grid.xs(), grid.ys()
        px, py = (a.ravel() for a in np.meshgrid(gxs, gys, indexing="ij"))
        for n, seed in ((3, 1), (20, 2), (60, 3)):
            if mode == "box":
                scenario = generate_uniform(n, grid.bounds, 4500, 18000, seed=seed)
                feasible = np.ones(len(px), dtype=bool)
            else:
                scenario = anchored_scenario(n, seed, side, z)
                feasible = np.zeros(len(px), dtype=bool)
                feasible[within(build(scenario), np.column_stack((px, py)))[0]] = True
            values = flat_values(*user_arrays(scenario.users), z, px, py)
            values = np.where(feasible, values, -np.inf).reshape(len(gxs), len(gys))
            bounded.clear()
            assert grid_search(scenario, grid, mode).value == values.max()
            for (x0, x1, y0, y1), bounds, caps in bounded:
                for k in range(len(bounds)):
                    ix = slice(np.searchsorted(gxs, x0[k]), np.searchsorted(gxs, x1[k], "right"))
                    iy = slice(np.searchsorted(gys, y0[k]), np.searchsorted(gys, y1[k], "right"))
                    best = values[ix, iy].max()
                    assert not bounds[k] < best * (1.0 - oracle._PRUNE_SLACK), (z, n, k)
                signs.update(np.sign(caps).tolist())
    assert {-1.0, 1.0} <= signs


class TestFiniteDifferences:
    def test_symmetric_instance_gives_zero_gradient(self):
        users = [UserDevice(-4, 0, 5.0), UserDevice(4, 0, 5.0)]
        fd = fd_gradient(users, 10.0, (0.0, 0.0))
        assert fd == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_oversized_step_degrades(self):
        users = [UserDevice(10, 25, 5.0), UserDevice(60, 40, 2.0)]
        z, point = 20.0, (30.0, 30.0)
        exact = gradient(users, z, point)
        good = fd_gradient(users, z, point, h=1e-4)
        bad = fd_gradient(users, z, point, h=50.0)
        err_good = math.hypot(good[0] - exact[0], good[1] - exact[1])
        err_bad = math.hypot(bad[0] - exact[0], bad[1] - exact[1])
        assert err_bad > 100 * err_good

    def test_hessian_cross_term_symmetric(self):
        users = [UserDevice(3, 7, 2.0)]
        fd = fd_hessian(users, 5.0, (1.0, 2.0), h=1e-2)
        assert fd[0][1] == fd[1][0]

    def test_hessian_single_user_closed_form(self):
        fd = fd_hessian([UserDevice(0, 0, 1.0)], 1.0, (0.0, 0.0), h=1e-4)
        assert fd[0][0] == pytest.approx(-2.0, rel=1e-4)
        assert fd[1][1] == pytest.approx(-2.0, rel=1e-4)

    def test_matches_analytic_hessian(self):
        users = [UserDevice(10, 25, 5.0), UserDevice(60, 40, 2.0), UserDevice(35, 5, 8.0)]
        z, point = 15.0, (28.0, 22.0)
        analytic = np.array(hessian(users, z, point))
        fd = np.array(fd_hessian(users, z, point, h=1e-3 * z))
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(analytic) < 1e-4

    def test_step_must_be_positive(self):
        with pytest.raises(ValidationError):
            fd_gradient([UserDevice(0, 0, 1.0)], 1.0, (0.0, 0.0), h=0.0)

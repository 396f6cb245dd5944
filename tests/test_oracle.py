import json
import math

import numpy as np
import pytest

from uavlift.channel import SPEED_OF_LIGHT
from uavlift.cli import main
from uavlift.errors import EmptyRegionError, ValidationError
from uavlift.objective import concavity_certificate, gradient, hessian
from uavlift.oracle import GridSpec, fd_gradient, fd_hessian, grid_search
from uavlift.region import build
from uavlift.rng import SplitMix64
from uavlift.scenario import AreaBounds, RfParams, Scenario, UserDevice, generate_uniform, save

RF = RfParams(rate=4e6, bandwidth=50e6, noise=1e-14, frequency=4e9, p_max=0.5, tau_th=900)


class TestGridSpec:
    def test_axis_is_inclusive(self):
        spec = GridSpec(1.0, AreaBounds(0, 250, 0, 250, 650, 650))
        assert len(spec.xs()) == 251
        assert spec.xs()[0] == 0.0 and spec.xs()[-1] == 250.0

    def test_axis_appends_far_edge_when_not_a_multiple(self):
        spec = GridSpec(3.0, AreaBounds(0, 10, 0, 10, 1, 1))
        assert list(spec.xs()) == [0.0, 3.0, 6.0, 9.0, 10.0]

    def test_spacing_must_be_positive(self):
        with pytest.raises(ValidationError):
            GridSpec(0.0, AreaBounds(0, 10, 0, 10, 1, 1))


class TestGridSearch:
    def test_single_user_found_exactly(self):
        bounds = AreaBounds(0, 100, 0, 100, 650, 650)
        s = Scenario(users=(UserDevice(50, 50, 9000.0),), rf=RF, bounds=bounds)
        result = grid_search(s, GridSpec(1.0, bounds))
        assert result.point == (50.0, 50.0)
        assert result.evaluated == 101 * 101

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
    slack = [d.radius - math.hypot(x - d.x, y - d.y) for d in feas.disks]
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

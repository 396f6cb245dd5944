import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uavlift
from uavlift.channel import SPEED_OF_LIGHT, system_constant
from uavlift.errors import EmptyRegionError
from uavlift.region import (
    Disk,
    FeasibleRegion,
    build,
    check_empty,
    contains,
    max_range_energy,
    max_range_power,
    project,
    project_many,
)
from uavlift.rng import SplitMix64
from uavlift.scenario import DEFAULT_RF, AreaBounds, RfParams, Scenario, UserDevice

# The geometry divides by distances that can be zero (concentric disks, a
# query at a disk centre); it must guard them rather than warn.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def unit_rf(p_max=1.0, tau_th=1.0, users=1) -> RfParams:
    """Radio parameters whose system constant is 1 W/m^2 for `users`
    devices (rate exponent 1, unit noise, frequency c/(4*pi)), so range
    limits reduce to plain square roots."""
    return RfParams(
        rate=1.0, bandwidth=float(users), noise=1.0,
        frequency=SPEED_OF_LIGHT / (4.0 * math.pi), p_max=p_max, tau_th=tau_th,
    )


def unit_scenario(users, bounds, p_max=1.0, tau_th=1.0) -> Scenario:
    rf = unit_rf(p_max, tau_th, users=len(users))
    return Scenario(users=tuple(users), rf=rf, bounds=bounds)


class TestRangeLimits:
    def test_unit_values(self):
        k = system_constant(unit_rf(users=1), 1)
        assert max_range_power(1.0, k) == pytest.approx(1.0, rel=1e-12)
        assert max_range_energy(1.0, 1.0, k) == pytest.approx(1.0, rel=1e-12)

    def test_reference_power_range(self):
        k = system_constant(DEFAULT_RF, 200, c=3e8)
        assert max_range_power(0.5, k) == pytest.approx(164.85, abs=0.01)

    def test_reference_energy_ranges(self):
        k = system_constant(DEFAULT_RF, 200, c=3e8)
        low = max_range_energy(4500.0, 900.0, k)
        high = max_range_energy(18000.0, 900.0, k)
        assert low == pytest.approx(521.31, abs=0.01)
        assert high == pytest.approx(2.0 * low, rel=1e-12)  # 4x energy doubles range

    def test_quadrupling_power_doubles_range(self):
        k = system_constant(DEFAULT_RF, 200)
        assert max_range_power(2.0, k) == pytest.approx(2.0 * max_range_power(0.5, k), rel=1e-12)


class TestBuild:
    def test_reference_setup_is_empty_with_power_cause(self):
        from uavlift.scenario import generate_uniform

        bounds = AreaBounds(0, 250, 0, 250, 650, 650)
        scenario = generate_uniform(200, bounds, 4500, 18000, seed=9)
        feas = build(scenario, c=3e8)
        assert feas.empty
        assert "power" in feas.empty_reason
        assert "650" in feas.empty_reason
        assert "164.8" in feas.empty_reason  # sqrt(p_max/K) = 164.85 m
        assert "all users" in feas.empty_reason

    def test_single_user_disk_is_pythagoras(self):
        # d_limit = sqrt(p_max) = 2 at unit system constant; altitude 1
        bounds = AreaBounds(-10, 10, -10, 10, 1, 1)
        scenario = unit_scenario([UserDevice(0, 0, 100.0)], bounds, p_max=4.0)
        feas = build(scenario)
        assert not feas.empty
        (disk,) = feas.disks
        assert (disk.x, disk.y) == (0.0, 0.0)
        assert disk.radius == pytest.approx(math.sqrt(3.0), rel=1e-9)
        lim = feas.limits[0]
        assert lim.d_limit == pytest.approx(2.0, rel=1e-9)
        assert lim.binding == "power"

    def test_two_far_users_make_disjoint_disks(self):
        # energies give d_limit = sqrt(17), so radius 4 at altitude 1;
        # centers 10 m apart cannot share a point
        bounds = AreaBounds(-20, 30, -20, 20, 1, 1)
        scenario = unit_scenario(
            [UserDevice(0, 0, 17.0), UserDevice(10, 0, 17.0)], bounds, p_max=100.0
        )
        feas = build(scenario)
        assert feas.empty
        assert "disk intersection" in feas.empty_reason
        assert all(d.radius == pytest.approx(4.0, rel=1e-9) for d in feas.disks)

    def test_energy_binding_named(self):
        bounds = AreaBounds(-10, 10, -10, 10, 3, 3)
        # d_energy = sqrt(4) = 2 < z = 3; p_max leaves d_power = 10
        scenario = unit_scenario([UserDevice(0, 0, 4.0)], bounds, p_max=100.0)
        feas = build(scenario)
        assert feas.empty
        assert "energy" in feas.empty_reason

    def test_range_equal_to_altitude_is_a_range_cause(self):
        # d_energy = sqrt(9) = 3 = z: the disk would be a single point, but
        # build reports the range as unsatisfiable instead
        bounds = AreaBounds(-10, 10, -10, 10, 3, 3)
        feas = build(unit_scenario([UserDevice(0, 0, 9.0)], bounds, p_max=100.0))
        assert feas.empty
        assert feas.disks == ()
        assert "energy constraint unsatisfiable" in feas.empty_reason

    def test_disks_shrink_and_region_empties_as_altitude_grows(self):
        radii = []
        for z in (1.0, 2.0, 3.0, 4.0):
            bounds = AreaBounds(-10, 10, -10, 10, z, z)
            scenario = unit_scenario([UserDevice(0, 0, 25.0)], bounds, p_max=1e6)
            feas = build(scenario)
            assert not feas.empty
            radii.append(feas.disks[0].radius)
        assert radii == sorted(radii, reverse=True)
        for z in (5.0, 6.0):  # d_limit = 5 <= z: unsatisfiable
            bounds = AreaBounds(-10, 10, -10, 10, z, z)
            feas = build(unit_scenario([UserDevice(0, 0, 25.0)], bounds, p_max=1e6))
            assert feas.empty


class TestContains:
    BOX = AreaBounds(-10, 10, -10, 10, 1, 1)

    def region(self):
        return FeasibleRegion.from_disks([Disk(0, 0, 2)], self.BOX)

    def test_center_inside(self):
        assert contains(self.region(), (0.0, 0.0))

    def test_boundary_is_closed(self):
        assert contains(self.region(), (2.0, 0.0))

    def test_just_outside_disk(self):
        assert not contains(self.region(), (2.0 + 1e-6, 0.0))

    def test_outside_box(self):
        region = FeasibleRegion.from_disks([Disk(9, 0, 5)], self.BOX)
        assert not contains(region, (10.5, 0.0))

    def test_empty_region_raises(self):
        region = FeasibleRegion.from_disks([Disk(0, 0, 1), Disk(5, 0, 1)], self.BOX)
        assert region.empty
        with pytest.raises(EmptyRegionError):
            contains(region, (0.0, 0.0))


class TestProject:
    BOX = AreaBounds(-10, 10, -10, 10, 1, 1)

    def test_member_point_returned_unchanged(self):
        region = FeasibleRegion.from_disks([Disk(0, 0, 2)], self.BOX)
        assert project(region, (0.5, -0.25)) == (0.5, -0.25)

    def test_single_disk_radial_pullback(self):
        region = FeasibleRegion.from_disks([Disk(0, 0, 2)], self.BOX)
        out = project(region, (5.0, 0.0))
        assert out[0] == pytest.approx(2.0, abs=1e-9)
        assert out[1] == pytest.approx(0.0, abs=1e-9)

    def test_lens_projection_hits_circle_intersection(self):
        # Two overlapping unit disks; from high above, the nearest feasible
        # point is the upper intersection of the circles at (0.5, sqrt(3)/2).
        region = FeasibleRegion.from_disks([Disk(0, 0, 1), Disk(1, 0, 1)], self.BOX)
        out = project(region, (0.5, 5.0))
        assert out[0] == pytest.approx(0.5, abs=1e-6)
        assert out[1] == pytest.approx(math.sqrt(0.75), abs=1e-6)

    def test_lens_projection_beats_dense_boundary_sampling(self):
        region = FeasibleRegion.from_disks([Disk(0, 0, 1), Disk(1, 0, 1)], self.BOX)
        q = np.array([0.5, 5.0])
        proj = np.array(project(region, tuple(q)))
        best = math.inf
        for cx, cy, r in ((0, 0, 1), (1, 0, 1)):
            theta = np.linspace(0.0, 2.0 * math.pi, 20001)
            pts = np.column_stack((cx + r * np.cos(theta), cy + r * np.sin(theta)))
            feasible = np.ones(len(pts), dtype=bool)
            for ox, oy, orad in ((0, 0, 1), (1, 0, 1)):
                feasible &= np.hypot(pts[:, 0] - ox, pts[:, 1] - oy) <= orad + 1e-9
            if feasible.any():
                best = min(best, float(np.min(np.hypot(*(pts[feasible] - q).T))))
        assert np.hypot(*(proj - q)) <= best + 1e-6

    def test_empty_region_raises(self):
        region = FeasibleRegion.from_disks([Disk(0, 0, 1), Disk(5, 0, 1)], self.BOX)
        with pytest.raises(EmptyRegionError):
            project(region, (0.0, 0.0))

    def test_zero_radius_disk_is_the_single_point_at_its_centre(self):
        for disks in ([Disk(3, -2, 0)], [Disk(3, -2, 0), Disk(3, -2, 0), Disk(0, 0, 5)]):
            check = check_empty(disks, self.BOX)
            assert not check.empty
            assert check.witness == (3.0, -2.0)
            region = FeasibleRegion.from_disks(disks, self.BOX)
            for q in ((7.0, 5.0), (-20.0, 30.0), (3.0, -2.5), (3.0, -2.0)):
                assert project(region, q) == (3.0, -2.0)

    def test_projection_is_optimal_on_binding_disks(self):
        # Fifty disks that all cut the box and meet at shallow angles, queried
        # from the box corner farthest from the anchor they share.
        region = build(binding_scenario(50))
        q = (0.0, 0.0)
        p = project(region, q)
        assert contains(region, p)
        # Optimality: q - p lies in the normal cone of the region at p, i.e.
        # it is a non-negative combination of the active constraints' normals.
        normals = []
        for d in region.disks:
            dist = math.hypot(p[0] - d.x, p[1] - d.y)
            if dist >= d.radius * (1.0 - 1e-9):
                normals.append(((p[0] - d.x) / dist, (p[1] - d.y) / dist))
        box = region.box
        for coord, lo, hi, unit in ((p[0], box.x_min, box.x_max, (1.0, 0.0)),
                                    (p[1], box.y_min, box.y_max, (0.0, 1.0))):
            if coord <= lo + 1e-9:
                normals.append((-unit[0], -unit[1]))
            if coord >= hi - 1e-9:
                normals.append(unit)
        assert normals
        assert in_normal_cone(np.subtract(q, p), np.array(normals), rtol=1e-9)


def binding_scenario(m: int) -> Scenario:
    """m devices whose disks at altitude 10 all pass 15 m beyond the anchor
    (60, 60) in a 100 m box, at unit system constant."""
    gen = SplitMix64(1)
    users = []
    for _ in range(m):
        x, y = gen.uniform(0.0, 100.0), gen.uniform(0.0, 100.0)
        radius = math.hypot(x - 60.0, y - 60.0) + 15.0
        users.append(UserDevice(x, y, radius * radius + 100.0))
    return unit_scenario(users, AreaBounds(0, 100, 0, 100, 10, 10), p_max=1e6)


def in_normal_cone(v: np.ndarray, normals: np.ndarray, rtol: float) -> bool:
    """Whether v is a non-negative combination of the rows of `normals`, up to
    a residual of rtol*|v|. In 2D one or two generators always suffice."""
    scale = float(np.hypot(*v))
    for n in normals:
        lam = float(n @ v)
        if lam >= 0 and np.hypot(*(v - lam * n)) <= rtol * scale:
            return True
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            basis = np.column_stack((normals[i], normals[j]))
            if abs(np.linalg.det(basis)) < 1e-12:
                continue
            lam = np.linalg.solve(basis, v)
            if np.all(lam >= -rtol * scale):
                return True
    return False


def random_region(seed: int, n_disks: int = 5) -> FeasibleRegion:
    """Disks drawn so that a random anchor point is inside all of them,
    guaranteeing a non-empty intersection with the box."""
    gen = SplitMix64(seed)
    box = AreaBounds(0, 10, 0, 10, 1, 1)
    ax, ay = gen.uniform(3, 7), gen.uniform(3, 7)
    disks = []
    for _ in range(n_disks):
        cx, cy = gen.uniform(0, 10), gen.uniform(0, 10)
        disks.append(Disk(cx, cy, math.hypot(cx - ax, cy - ay) + gen.uniform(0.5, 3.0)))
    region = FeasibleRegion.from_disks(disks, box)
    assert not region.empty
    return region


class TestProjectionProperties:
    def test_idempotent(self):
        gen = SplitMix64(100)
        for seed in range(12):
            region = random_region(seed)
            pts = np.array([[gen.uniform(-15, 25), gen.uniform(-15, 25)] for _ in range(25)])
            once = project_many(region, pts)
            twice = project_many(region, once)
            assert float(np.max(np.hypot(*(twice - once).T))) <= 1e-8

    def test_non_expansive(self):
        gen = SplitMix64(200)
        for seed in range(8):
            region = random_region(seed)
            a = np.array([[gen.uniform(-15, 25), gen.uniform(-15, 25)] for _ in range(50)])
            b = np.array([[gen.uniform(-15, 25), gen.uniform(-15, 25)] for _ in range(50)])
            pa = project_many(region, a)
            pb = project_many(region, b)
            dist_in = np.hypot(*(a - b).T)
            dist_out = np.hypot(*(pa - pb).T)
            assert np.all(dist_out <= dist_in + 2e-8)

    def test_projection_lands_in_region(self):
        gen = SplitMix64(300)
        for seed in range(8):
            region = random_region(seed)
            pts = np.array([[gen.uniform(-15, 25), gen.uniform(-15, 25)] for _ in range(30)])
            for p in project_many(region, pts):
                assert contains(region, (float(p[0]), float(p[1])))

    def test_minimality_against_feasible_grid(self):
        # No feasible grid point may be meaningfully closer to the query
        # than the returned projection.
        gen = SplitMix64(400)
        xs = np.linspace(0, 10, 201)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        gx, gy = gx.ravel(), gy.ravel()
        for seed in range(6):
            region = random_region(seed)
            feasible = np.ones(len(gx), dtype=bool)
            for d in region.disks:
                feasible &= np.hypot(gx - d.x, gy - d.y) <= d.radius + 1e-9
            fx, fy = gx[feasible], gy[feasible]
            for _ in range(5):
                q = (gen.uniform(-15, 25), gen.uniform(-15, 25))
                proj = project(region, q)
                proj_dist = math.hypot(proj[0] - q[0], proj[1] - q[1])
                grid_dist = float(np.min(np.hypot(fx - q[0], fy - q[1])))
                assert grid_dist >= proj_dist - 1e-6


class TestCheckEmpty:
    BOX = AreaBounds(-10, 10, -10, 10, 1, 1)

    def test_concentric_disks(self):
        check = check_empty([Disk(5, 5, 0.8), Disk(5, 5, 2.0)], self.BOX)
        assert not check.empty
        wx, wy = check.witness
        assert math.hypot(wx - 5, wy - 5) <= 0.8 + 1e-6  # inside the smaller disk

    def test_disjoint_disks(self):
        check = check_empty([Disk(0, 0, 4), Disk(10, 0, 4)], self.BOX)
        assert check.empty
        assert check.witness is None
        # best achievable max-shortfall is half the gap between the circles
        assert check.shortfall == pytest.approx(1.0, abs=1e-6)

    def test_tangent_disks_meet_at_the_tangency_point(self):
        check = check_empty([Disk(0, 0, 1), Disk(3, 0, 2)], self.BOX)
        assert not check.empty
        wx, wy = check.witness
        assert math.hypot(wx - 1.0, wy) <= 1e-2

    def test_disk_outside_box_is_certified_fast(self):
        check = check_empty([Disk(100, 100, 1)], self.BOX)
        assert check.empty

    def test_no_disks_means_the_box_itself(self):
        check = check_empty([], self.BOX)
        assert not check.empty

    def test_pairwise_overlap_without_common_point(self):
        # Equilateral triangle with side 2 and radii 1.05: every pair of
        # disks overlaps, but the circumradius 2/sqrt(3) exceeds 1.05, so
        # the triple intersection is empty with a known shortfall.
        pts = [(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))]
        check = check_empty([Disk(x, y, 1.05) for x, y in pts], self.BOX)
        assert check.empty
        assert check.shortfall == pytest.approx(2.0 / math.sqrt(3.0) - 1.05, abs=1e-9)

    def test_barely_common_point_found_at_the_circumcenter(self):
        pts = [(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))]
        check = check_empty([Disk(x, y, 1.16) for x, y in pts], self.BOX)
        assert not check.empty
        wx, wy = check.witness
        assert math.hypot(wx - 1.0, wy - 1.0 / math.sqrt(3.0)) < 0.2


def test_import_pulls_in_no_scipy():
    src = str(Path(uavlift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, uavlift; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.strip()
    assert loaded == "[]"


class TestBoxOnlyRegion:
    def test_projection_is_coordinate_clamping(self):
        box = AreaBounds(0, 10, 0, 10, 1, 1)
        region = FeasibleRegion.from_disks([], box)
        assert not region.empty
        assert project(region, (12.0, -3.0)) == (10.0, 0.0)
        assert project(region, (4.0, 5.0)) == (4.0, 5.0)

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from candidate_pass import project as reference_project
from candidate_pass import vertices, within_sets
from padding_bisection import bisected_shortfall, two_pass_check
from region_layouts import binding_scenario, project_each, random_region, unit_rf, unit_scenario

import uavlift
from uavlift import region as region_mod
from uavlift.channel import SPEED_OF_LIGHT, system_constant
from uavlift.errors import EmptyRegionError, ValidationError
from uavlift.oracle import GridSpec, grid_search
from uavlift.region import (
    REACH,
    FeasibleRegion,
    build,
    check_empty,
    contains,
    max_range_energy,
    max_range_power,
    project,
)
from uavlift.rng import SplitMix64
from uavlift.scenario import COORD_LIMIT, DEFAULT_RF, MIN_SIDE, AreaBounds, Scenario, UserDevice, generate_uniform
from uavlift.solver import SolverConfig, solve

# The geometry divides by distances that can be zero (concentric disks, a
# query at a disk centre); it must guard them rather than warn.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")
# `random_region` layouts of 12 disks in the far-point and scaling sweeps
SWEEP_SEEDS = 120


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

    def test_energy_ranges_of_an_array_are_the_scalar_ranges(self):
        k = system_constant(DEFAULT_RF, 200, c=3e8)
        gen = SplitMix64(6)
        es = np.array([gen.uniform(4500.0, 18000.0) for _ in range(500)])
        want = [math.sqrt(e / (900.0 * k)) for e in es.tolist()]
        assert max_range_energy(es, 900.0, k).tolist() == want
        assert [max_range_energy(e, 900.0, k) for e in es.tolist()] == want

    def test_non_positive_energy_in_an_array_is_named(self):
        k = system_constant(DEFAULT_RF, 200)
        with pytest.raises(ValidationError, match="energy must be positive, got -1.0"):
            max_range_energy(np.array([4500.0, -1.0, 0.0]), 900.0, k)

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
        ((x, y, radius),) = disk_rows(feas)
        assert (x, y) == (0.0, 0.0)
        assert radius == pytest.approx(math.sqrt(3.0), rel=1e-9)
        (d_limit,) = feas.limits.d_limit
        assert d_limit == pytest.approx(2.0, rel=1e-9)
        assert feas.limits.d_power <= feas.limits.d_energy[0]  # the power limit binds

    def test_limits_and_radii_have_the_bits_of_the_scalar_formulas(self):
        # Energies whose radius sqrt(d^2 - z^2) rounds differently when d^2 is
        # d*d rather than pow(d, 2), the per-user formula's square.
        z, tau = 3.0, 2.0
        gen = SplitMix64(12)
        energies = []
        while len(energies) < 12:
            e = gen.uniform(100.0, 1000.0)
            d = math.sqrt(e / tau)
            if math.sqrt(d**2 - z**2) != math.sqrt(d * d - z**2):
                energies.append(e)
        users = [UserDevice(0.5 * i - 3.0, 0.25 * i, e) for i, e in enumerate(energies)]
        feas = build(unit_scenario(users, AreaBounds(-5, 5, -5, 5, z, z), p_max=1e6, tau_th=tau))
        assert not feas.empty
        d_energy = [math.sqrt(e / tau) for e in energies]
        assert feas.limits.d_power == 1e3
        assert feas.limits.d_energy.tolist() == d_energy
        assert feas.limits.d_limit.tolist() == d_energy
        radii = [math.sqrt(d**2 - z**2) for d in d_energy]
        assert region_mod.disk_radius(feas.limits.d_limit, z).tolist() == radii
        # the table cuts a radius beyond twice the distance to the farthest box corner
        far = [math.sqrt(max(u.x + 5, 5 - u.x) ** 2 + max(u.y + 5, 5 - u.y) ** 2) for u in users]
        assert feas.table.r.tolist() == [min(r, 2.0 * f) for r, f in zip(radii, far)]
        assert 0 < sum(r > 2.0 * f for r, f in zip(radii, far)) < len(radii)

    def test_a_range_far_beyond_the_box_leaves_the_region_the_box(self):
        # p_max = 1e200 W and tau_th = 1e-100 s give 1e57 m disks: cut to
        # twice the distance to the farthest box corner, they still hold the
        # box, and membership allows 1e-12 of the instance's size, not of
        # 1e57 m, so a solve from (1e5, 1e5) lands in the box where box mode
        # does.
        rf = dataclasses.replace(DEFAULT_RF, p_max=1e200, tau_th=1e-100)
        scenario = generate_uniform(5, AreaBounds(0, 250, 0, 250, 650, 650), 4500, 18000, seed=1, rf=rf)
        feas = build(scenario)
        assert feas.limits.d_limit.min() > 1e56
        assert np.all(feas.table.r <= 2 * math.hypot(250, 250))
        assert feas.table.rounding < 1e-9
        assert not contains(feas, (1e5, 1e5)) and contains(feas, (0.0, 250.0))
        region, box = (solve(scenario, SolverConfig(mode=mode, init=(1e5, 1e5))) for mode in ("region", "box"))
        assert region.converged and feas.box.contains_xy(*region.placement[:2])
        assert math.dist(region.placement[:2], box.placement[:2]) < 0.01

    def test_range_underflow_is_input_error(self):
        # p_max/K is subnormal and its square root is not, but 5e-324/4 is 0
        bounds = AreaBounds(-10, 10, -10, 10, 1, 1)
        scenario = unit_scenario([UserDevice(0, 0, 100.0)], bounds, p_max=5e-324)
        assert build(scenario).limits.d_power > 0
        rf = unit_rf(p_max=5e-324, users=1)
        scenario = Scenario(users=(UserDevice(0, 0, 100.0),), rf=rf, bounds=bounds)
        with pytest.raises(ValidationError, match="range limits must be positive"):
            build(scenario, c=SPEED_OF_LIGHT / 2.0)

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
        assert all(r == pytest.approx(4.0, rel=1e-9) for _, _, r in disk_rows(feas))

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
        assert disk_rows(feas) == []
        assert "energy constraint unsatisfiable" in feas.empty_reason

    def test_disks_shrink_and_region_empties_as_altitude_grows(self):
        radii = []
        for z in (1.0, 2.0, 3.0, 4.0):
            bounds = AreaBounds(-10, 10, -10, 10, z, z)
            scenario = unit_scenario([UserDevice(0, 0, 25.0)], bounds, p_max=1e6)
            feas = build(scenario)
            assert not feas.empty
            radii.append(disk_rows(feas)[0][2])
        assert radii == sorted(radii, reverse=True)
        for z in (5.0, 6.0):  # d_limit = 5 <= z: unsatisfiable
            bounds = AreaBounds(-10, 10, -10, 10, z, z)
            feas = build(unit_scenario([UserDevice(0, 0, 25.0)], bounds, p_max=1e6))
            assert feas.empty


class TestContains:
    BOX = AreaBounds(-10, 10, -10, 10, 1, 1)

    def region(self):
        return FeasibleRegion.from_disks([(0, 0, 2)], self.BOX)

    def test_center_inside(self):
        assert contains(self.region(), (0.0, 0.0))

    def test_boundary_is_closed(self):
        assert contains(self.region(), (2.0, 0.0))

    def test_just_outside_disk(self):
        assert not contains(self.region(), (2.0 + 1e-6, 0.0))

    def test_outside_box(self):
        region = FeasibleRegion.from_disks([(9, 0, 5)], self.BOX)
        assert not contains(region, (10.5, 0.0))

    def test_empty_region_raises(self):
        region = FeasibleRegion.from_disks([(0, 0, 1), (5, 0, 1)], self.BOX)
        assert region.empty
        with pytest.raises(EmptyRegionError):
            contains(region, (0.0, 0.0))


class TestProject:
    BOX = AreaBounds(-10, 10, -10, 10, 1, 1)

    def test_member_point_returned_unchanged(self):
        region = FeasibleRegion.from_disks([(0, 0, 2)], self.BOX)
        assert project(region, (0.5, -0.25)) == (0.5, -0.25)

    def test_single_disk_radial_pullback(self):
        region = FeasibleRegion.from_disks([(0, 0, 2)], self.BOX)
        out = project(region, (5.0, 0.0))
        assert out[0] == pytest.approx(2.0, abs=1e-9)
        assert out[1] == pytest.approx(0.0, abs=1e-9)

    def test_lens_projection_hits_circle_intersection(self):
        # Two overlapping unit disks; from high above, the nearest feasible
        # point is the upper intersection of the circles at (0.5, sqrt(3)/2).
        region = FeasibleRegion.from_disks([(0, 0, 1), (1, 0, 1)], self.BOX)
        out = project(region, (0.5, 5.0))
        assert out[0] == pytest.approx(0.5, abs=1e-6)
        assert out[1] == pytest.approx(math.sqrt(0.75), abs=1e-6)

    def test_lens_projection_beats_dense_boundary_sampling(self):
        region = FeasibleRegion.from_disks([(0, 0, 1), (1, 0, 1)], self.BOX)
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
        region = FeasibleRegion.from_disks([(0, 0, 1), (5, 0, 1)], self.BOX)
        with pytest.raises(EmptyRegionError):
            project(region, (0.0, 0.0))

    @pytest.mark.parametrize("disks", [[], [(0, 0, 2)]], ids=["box", "disk"])
    @pytest.mark.parametrize("q", [(math.inf, 0.0), (-math.inf, math.inf), (0.0, math.nan),
                                   (math.nextafter(REACH, math.inf), 0.0), (0.0, -math.nextafter(REACH, math.inf))])
    def test_non_finite_point_is_an_input_error(self, disks, q):
        # so is a point one double beyond REACH, where every start and trial lies
        region = FeasibleRegion.from_disks(disks, self.BOX)
        with pytest.raises(ValidationError, match="^cannot project the point .* within 6.87195e[+]10 m$"):
            project(region, q)
        edge = tuple(math.copysign(REACH, c) if math.isfinite(c) and c else 0.0 for c in q)
        assert contains(region, project(region, edge))

    def test_point_whose_distances_overflow_is_infinitely_far_out(self):
        # (1.7e308, 1.7e308) lies farther than the largest double from every
        # centre: it is outside, without an overflow warning, and beyond
        # REACH, so an input error. The point at REACH on the same line
        # projects into the region, where the point 1e9 m out does.
        box = AreaBounds(0, 10, 0, 10, 30, 30)
        region = FeasibleRegion.from_disks([(3, 3, 8), (7, 4, 8), (5, 8, 8)], box)
        far = (1.7e308, 1.7e308)
        assert not contains(region, far)
        with pytest.raises(ValidationError, match="^cannot project the point"):
            project(region, far)
        edge = project(region, (REACH, REACH))
        assert contains(region, edge)
        assert edge == pytest.approx(project(region, (1e9, 1e9)), abs=1e-6)

    @pytest.mark.parametrize("sx, sy", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_point_too_far_for_hypot_projects_as_one_far_out_on_its_ray(self, sx, sy):
        # Projections of points receding from the box centre (5, 5) along a
        # ray converge; 1e9 m out, this one is within 1e-7 m of the limit.
        # A point too far for hypot lies beyond REACH: an input error; the
        # point at REACH projects as the one 1e9 m out.
        box = AreaBounds(0, 10, 0, 10, 30, 30)
        region = FeasibleRegion.from_disks([(3, 3, 8), (7, 4, 8), (5, 8, 8)], box)
        with pytest.raises(ValidationError, match="^cannot project the point"):
            project(region, (sx * 1.7e308, sy * 1.7e308))
        far = project(region, (sx * REACH, sy * REACH))
        assert far == pytest.approx(project(region, (5 + sx * 1e9, 5 + sy * 1e9)), abs=1e-6)
        assert contains(region, far)

    def test_region_near_the_double_range_keeps_its_projections(self):
        # A box near the double range lies outside the input domain. At the
        # domain's edge a member comes back unchanged, and points near the
        # disk take its radial pull, q's nearest point of the disk.
        with pytest.raises(ValidationError, match=r"^bounds\.x_max must lie in "):
            AreaBounds(0, 1.7e308, -1e308, 1e308, 1, 1)
        box = AreaBounds(0, COORD_LIMIT, -COORD_LIMIT, COORD_LIMIT, 1, 1)
        cx, r = 0.9 * COORD_LIMIT, 0.05 * COORD_LIMIT
        region = FeasibleRegion.from_disks([(cx, 0, r)], box)
        assert project(region, (cx, 0.0)) == (cx, 0.0)
        for q in ((0.85 * COORD_LIMIT, 0.01 * COORD_LIMIT), (COORD_LIMIT, 0.03 * COORD_LIMIT),
                  (0.91 * COORD_LIMIT, -0.06 * COORD_LIMIT)):
            assert not contains(region, q)
            d = math.hypot(q[0] - cx, q[1])
            pull = (cx + (q[0] - cx) * r / d, q[1] * r / d)
            assert math.dist(project(region, q), pull) <= region.table.rounding, q

    @pytest.mark.parametrize("q, near, side", [
        ((-REACH, -REACH), (-1e9, -1e9), 0.0),
        ((REACH, -REACH), (1e9, -1e9), 10.0),
    ])
    def test_far_point_projects_on_its_own_side(self, q, near, side):
        # At REACH, 6.9e10 m out, the nearest candidate is the one on q's
        # side of the box; 1e300 m out, q is an input error.
        box = AreaBounds(0, 10, 0, 10, 30, 30)
        region = FeasibleRegion.from_disks([(3, 3, 8), (7, 4, 8), (5, 8, 8)], box)
        with pytest.raises(ValidationError, match="^cannot project the point"):
            project(region, (math.copysign(1e300, q[0]), math.copysign(1e300, q[1])))
        assert project(region, q) == project(region, near)
        assert project(region, q) == pytest.approx((side, 1.755), abs=1e-3)

    @pytest.mark.parametrize("x", [1e9, 1e17, 1e300, 1.7e308])
    def test_far_point_facing_a_box_edge_takes_its_nearest_point_on_the_edge(self, x):
        # The region meets the edge x = 10 in the segment from the crossing
        # (10, 9 - sqrt(11)) up to the corner (10, 10). From (x, 5) every point
        # of it is equally far up to rounding, yet the crossing is nearer than
        # the corner by 24.5 / (2x) m, which only a comparison of the two
        # candidates' difference resolves. A point beyond REACH is an input
        # error, and the point at REACH takes the crossing.
        region = FeasibleRegion.from_disks([(5, 9, 6)], AreaBounds(0, 10, 0, 10, 1, 1))
        if x > REACH:
            with pytest.raises(ValidationError, match="^cannot project the point"):
                project(region, (x, 5.0))
            x = REACH
        assert project(region, (x, 5.0)) == pytest.approx((10.0, 9.0 - math.sqrt(11.0)), abs=1e-12)

    def test_region_spanning_the_double_range_projects_far_points_onto_its_rim(self):
        # A region spanning the input domain, 2^25 m across, with a disk near
        # its edge: points at REACH and the origin land on the disk's rim, up
        # to the table's rounding.
        box = AreaBounds(-COORD_LIMIT, COORD_LIMIT, -COORD_LIMIT, COORD_LIMIT, 1, 1)
        cx, r = 0.9 * COORD_LIMIT, 0.06 * COORD_LIMIT
        region = FeasibleRegion.from_disks([(cx, 0, r)], box)
        for q in ((-REACH, REACH), (-REACH, -REACH), (REACH, -REACH), (0.0, 0.0)):
            x, y = project(region, q)
            assert abs(math.hypot(x - cx, y) - r) <= region.table.rounding, q
            assert box.contains_xy(x, y), q

    def test_zero_radius_disk_is_the_single_point_at_its_centre(self):
        for disks in ([(3, -2, 0)], [(3, -2, 0), (3, -2, 0), (0, 0, 5)]):
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
        for x, y, radius in disk_rows(region):
            dist = math.hypot(p[0] - x, p[1] - y)
            if dist >= radius * (1.0 - 1e-9):
                normals.append(((p[0] - x) / dist, (p[1] - y) / dist))
        box = region.box
        for coord, lo, hi, unit in ((p[0], box.x_min, box.x_max, (1.0, 0.0)),
                                    (p[1], box.y_min, box.y_max, (0.0, 1.0))):
            if coord <= lo + 1e-9:
                normals.append((-unit[0], -unit[1]))
            if coord >= hi - 1e-9:
                normals.append(unit)
        assert normals
        assert in_normal_cone(np.subtract(q, p), np.array(normals), rtol=1e-9)


@pytest.mark.parametrize("m, digest", [
    (5, "23fe6075157eca0bab8c6e6b3594a0ee2c6aaa1817de64c03ff1b1eb76bf03b9"),
    (20, "b95c064ce0715b3767a5067d4e6754c3fb1ee6fc9fad61b4284e993e277698d2"),
    (50, "006344dc2004f252c5a2449a2f0374e549d0bbe240807a33616f87ac989349a1"),
])
def test_binding_layout_keeps_its_bits(m, digest):
    # sha256 of the xs, ys and es bytes the layout had when the region and
    # solver tests each built their own copy of it
    s = binding_scenario(m)
    assert hashlib.sha256(b"".join(a.tobytes() for a in s.users.arrays)).hexdigest() == digest
    assert s.rf == unit_rf(p_max=1e6, users=m)
    assert s.bounds == AreaBounds(0, 100, 0, 100, 10, 10)


def disk_rows(region: FeasibleRegion) -> list[tuple[float, float, float]]:
    """The region's disks as (x, y, radius) rows of Python floats."""
    table = region.table
    return list(zip(table.cx.tolist(), table.cy.tolist(), table.r.tolist()))


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


class TestProjectionProperties:
    def test_idempotent(self):
        gen = SplitMix64(100)
        for seed in range(12):
            region = random_region(seed)
            pts = np.array([[gen.uniform(-15, 25), gen.uniform(-15, 25)] for _ in range(25)])
            once = project_each(region, pts)
            twice = project_each(region, once)
            assert float(np.max(np.hypot(*(twice - once).T))) <= 1e-8

    def test_non_expansive(self):
        gen = SplitMix64(200)
        for seed in range(8):
            region = random_region(seed)
            a = np.array([[gen.uniform(-15, 25), gen.uniform(-15, 25)] for _ in range(50)])
            b = np.array([[gen.uniform(-15, 25), gen.uniform(-15, 25)] for _ in range(50)])
            pa = project_each(region, a)
            pb = project_each(region, b)
            dist_in = np.hypot(*(a - b).T)
            dist_out = np.hypot(*(pa - pb).T)
            assert np.all(dist_out <= dist_in + 2e-8)

    def test_projection_lands_in_region(self):
        gen = SplitMix64(300)
        for seed in range(8):
            region = random_region(seed)
            pts = np.array([[gen.uniform(-15, 25), gen.uniform(-15, 25)] for _ in range(30)])
            for p in project_each(region, pts):
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
            for x, y, radius in disk_rows(region):
                feasible &= np.hypot(gx - x, gy - y) <= radius + 1e-9
            fx, fy = gx[feasible], gy[feasible]
            for _ in range(5):
                q = (gen.uniform(-15, 25), gen.uniform(-15, 25))
                proj = project(region, q)
                proj_dist = math.hypot(proj[0] - q[0], proj[1] - q[1])
                grid_dist = float(np.min(np.hypot(fx - q[0], fy - q[1])))
                assert grid_dist >= proj_dist - 1e-6


# Axis directions are exact: a ray a rounding error off an axis, far out,
# lies to one side, and its projection slides along the box edge it faces,
# away from where the point 1e9 m out projects.
RAYS = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (-1, -1), (1, -1),
        (2, 1), (-1, 3), (3, -2), (-2, -5)]
# Exponents k of `random_region` layouts scaled by 2^k. Their 10 m box lies
# in the input domain from k = -13 (1.2 mm) to k = 20 (1.0e7 m); beyond,
# the scaled box is an input error, and the tests run at the nearer end.
SCALE_EXPONENTS = [-500, -300, -100, 60, 200, 400, 600, 800, 1000]
DOMAIN_SCALES = (-13, 20)


def at_domain_edge(k: int) -> int:
    """`k` if a box scaled by 2^k lies in the input domain, else the nearest
    exponent that does, once a box at `k` is shown to be refused."""
    edge = min(max(k, DOMAIN_SCALES[0]), DOMAIN_SCALES[1])
    if edge != k:
        with pytest.raises(ValidationError, match=r"^bounds(\.x_max must lie in| require x_max - x_min)"):
            AreaBounds(0, 10 * 2.0**k, 0, 10 * 2.0**k, 1, 1)
    return edge


def far_radii(ux: float, uy: float) -> tuple[float, ...]:
    """Distances along the ray (ux, uy) from (5, 5): 1e3 and 1e6 m, and those
    of a start at the input domain's COORD_LIMIT and of a point near REACH."""
    m = max(abs(ux), abs(uy))
    return (1e3, 1e6, (COORD_LIMIT - 5) / m, (REACH - 10) / m)


def test_far_points_project_as_the_limit_along_their_ray():
    # Projections of points receding from the box centre (5, 5) along a ray
    # converge; 1e9 m out a point is within 1e-7 m of the limit. Every point
    # from 1e3 m out must lie in the region, and from a start at 2^24 m to a
    # trial near REACH it must project
    # there within 1e-6 of the box's 10 m, without an error; one double beyond
    # REACH is an input error.
    for seed in range(SWEEP_SEEDS):
        region = random_region(seed, 12)
        for a, b in RAYS:
            ux, uy = a / math.hypot(a, b), b / math.hypot(a, b)
            limit = project(region, (5 + 1e9 * ux, 5 + 1e9 * uy))
            for radius in far_radii(ux, uy):
                p = project(region, (5 + radius * ux, 5 + radius * uy))
                assert contains(region, p), (seed, a, b, radius)
                if radius > 1e6:
                    assert math.hypot(p[0] - limit[0], p[1] - limit[1]) <= 1e-5, (seed, a, b, radius)
    with pytest.raises(ValidationError, match="^cannot project the point"):
        project(region, (math.nextafter(REACH, math.inf), 5.0))


@pytest.mark.parametrize("k", SCALE_EXPONENTS)
def test_instance_scaled_by_a_power_of_two_scales_its_answers(k):
    # The layouts of the sweep above with coordinates and radii times 2^k,
    # or at the input domain's edge where 2^k lies beyond it: the region is
    # non-empty, and the witness and every projection are the unscaled ones
    # times 2^k, to 1e-9 of the box size. Membership is judged by distance
    # with the table's rounding as slack, which scales with the instance.
    f = 2.0 ** at_domain_edge(k)
    gen = SplitMix64(31)
    for seed in range(SWEEP_SEEDS // 4):
        unscaled = random_region(seed, 12)
        rows = np.column_stack(unscaled.table[:3]) * f
        box = AreaBounds(0, 10 * f, 0, 10 * f, 1, 1)
        check, want = check_empty(rows, box), check_empty(unscaled.table, unscaled.box)
        assert not check.empty, seed
        assert math.dist(check.witness, (want.witness[0] * f, want.witness[1] * f)) <= 1e-8 * f, seed
        region = FeasibleRegion.from_disks(rows, box)
        for _ in range(10):
            q = (gen.uniform(-15, 25), gen.uniform(-15, 25))
            p, p0 = project(region, (q[0] * f, q[1] * f)), project(unscaled, q)
            assert math.dist(p, (p0[0] * f, p0[1] * f)) <= 1e-8 * f, (seed, q)
            assert len(region_mod.within(region, np.array([p]), region.table.rounding)[0]) == 1, (seed, q)


def scaled_region(seed: int, f: float) -> FeasibleRegion:
    """`random_region(seed, 12)` with coordinates and radii times f."""
    unscaled = random_region(seed, 12)
    return FeasibleRegion.from_disks(np.column_stack(unscaled.table[:3]) * f, AreaBounds(0, 10 * f, 0, 10 * f, 1, 1))


@pytest.mark.parametrize("k", [-100, -300, -600])
def test_far_points_of_a_small_instance_project_as_the_limit_along_their_ray(k):
    # An instance scaled by 2^k lies beyond the input domain; its smallest,
    # 1.2 mm across, seen from REACH, is 2^49 of its sizes out. Each far point
    # must project where the unscaled instance's point 1e9 m out on its ray
    # does, times the scale, on the region up to the table's rounding.
    f = 2.0 ** at_domain_edge(k)
    for seed in range(SWEEP_SEEDS // 4):
        unscaled, region = random_region(seed, 12), scaled_region(seed, f)
        for a, b in RAYS:
            ux, uy = a / math.hypot(a, b), b / math.hypot(a, b)
            lx, ly = project(unscaled, (5 + 1e9 * ux, 5 + 1e9 * uy))
            for radius in far_radii(ux, uy)[2:]:
                p = project(region, (5 * f + radius * ux, 5 * f + radius * uy))
                assert math.dist(p, (lx * f, ly * f)) <= 1e-5 * f, (seed, a, b, radius)
                assert contains(region, p, tol=0.0), (seed, a, b, radius)


def test_far_points_of_a_subnormal_instance_project_onto_its_boundary():
    # A box of about 1e-309 m lies beyond the input domain. Disks and box of
    # its smallest size, 2^-10 m: the largest violation at the answer for a
    # point near REACH, 2^46 of the sizes out, is within the table's rounding
    # of 0, so the answer lies on the region's boundary.
    with pytest.raises(ValidationError, match=r"^bounds require x_max - x_min >= "):
        AreaBounds(0, 1e-309, 0, 1e-309, 1, 1)
    s = MIN_SIDE
    box = AreaBounds(0, s, 0, s, 1, 1)

    def largest_violation(region, p):
        x, y = p
        table = region.table
        edges = (box.x_min - x, x - box.x_max, box.y_min - y, y - box.y_max)
        return float(max(*edges, *(np.hypot(x - table.cx, y - table.cy) - table.r)))

    region = FeasibleRegion.from_disks([(0.5 * s, 0.5 * s, 0.4 * s), (0.7 * s, 0.5 * s, 0.3 * s)], box)
    rounding = region.table.rounding
    near = project(region, (1.0, 3.0))
    for q in ((2.0**34, 3 * 2.0**34), (1e3, 3e3)):
        p = project(region, q)
        assert abs(largest_violation(region, p)) <= rounding, q
        assert math.dist(p, near) <= rounding, q
    # a disk that holds the box: from far out on the right, the answer is the
    # point of the edge x = s level with q
    region = FeasibleRegion.from_disks([(0.5 * s, 0.5 * s, s)], box)
    for qy in (0.2 * s, 0.0, s):
        assert project(region, (REACH, qy)) == (s, qy)


def test_one_constraint_candidates_lie_on_their_constraint(monkeypatch):
    # The first pivot of a projection takes the one candidate of the most
    # violated constraint j, q's clamp onto an edge or its pull onto a disk,
    # without testing it against j: on the far-point and scaled sweeps each
    # such candidate lies on j up to the table's rounding.
    checked, real = [], region_mod._boundary_points

    def checking(subset, qx, qy, table, box):
        found = real(subset, qx, qy, table, box)
        if len(subset) == 1:
            (c,) = subset
            for x, y in found:
                miss = region_mod._edge_violations(x, y, box)[c] if c < 4 else \
                    float(region_mod._gaps(x, y, *region_mod._disk(table, c - 4)))
                assert abs(miss) <= table.rounding, (subset, qx, qy, miss, table.rounding)
                checked.append(c)
        return found

    monkeypatch.setattr(region_mod, "_boundary_points", checking)
    # a disk of radius 6 at the box centre cuts only the corners, so a point
    # far out on an axis violates the edge it faces most
    cut_corners = FeasibleRegion.from_disks([(5, 5, 6)], AreaBounds(0, 10, 0, 10, 1, 1))
    for region in [random_region(seed, 12) for seed in range(SWEEP_SEEDS)] + [cut_corners]:
        for a, b in RAYS:
            ux, uy = a / math.hypot(a, b), b / math.hypot(a, b)
            for radius in far_radii(ux, uy):
                project(region, (5 + radius * ux, 5 + radius * uy))
    gen = SplitMix64(31)
    for k in (DOMAIN_SCALES[0], -5, 5, DOMAIN_SCALES[1]):
        f = 2.0**k
        for seed in range(SWEEP_SEEDS // 4):
            region = scaled_region(seed, f)
            for _ in range(10):
                project(region, (gen.uniform(-15, 25) * f, gen.uniform(-15, 25) * f))
    assert len(checked) > 10_000 and min(checked) < 4 <= max(checked)  # edges and disks


def loop_contains(region: FeasibleRegion, p, tol: float) -> bool:
    """Membership from the region's disks one disk at a time, with `tol`
    raised to the table's rounding as `contains` raises it."""
    x, y = p
    tol = max(tol, region.table.rounding)
    box = region.box
    if not (box.x_min - tol <= x <= box.x_max + tol and box.y_min - tol <= y <= box.y_max + tol):
        return False
    return all(math.hypot(x - cx, y - cy) <= r + tol for cx, cy, r in disk_rows(region))


@pytest.mark.parametrize("block", [3, 40])
def test_membership_blocks_do_not_change_answers(monkeypatch, block):
    regions = [build(binding_scenario(50))]
    regions += [random_region(seed) for seed in range(8)]
    regions.append(FeasibleRegion.from_disks([], AreaBounds(0, 10, 0, 10, 1, 1)))
    triangle = [(x, y, 1.05) for x, y in ((0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0)))]
    layouts = [(r.table, r.box) for r in regions] + [(triangle, TestCheckEmpty.BOX)]
    gen = SplitMix64(500)
    points = []
    for region in regions:
        box = region.box
        w, h = box.x_max - box.x_min, box.y_max - box.y_min
        points.append([
            (gen.uniform(box.x_min - w / 2, box.x_max + w / 2),
             gen.uniform(box.y_min - h / 2, box.y_max + h / 2))
            for _ in range(200)
        ])

    def answers():
        checks = [check_empty(disks, box) for disks, box in layouts]
        projections = [[project(r, p) for p in pts] for r, pts in zip(regions, points)]
        return checks, projections

    want_checks, want_projections = answers()
    monkeypatch.setattr(region_mod, "_BLOCK_ELEMENTS", block)
    got_checks, got_projections = answers()

    for want, got in zip(want_checks, got_checks):
        assert got == want
    assert got_projections == want_projections
    for region, pts, projected in zip(regions, points, got_projections):
        for tol in (0.0, 1e-9):
            for p in pts + projected:
                assert contains(region, p, tol=tol) == loop_contains(region, p, tol)


class TestCheckEmpty:
    BOX = AreaBounds(-10, 10, -10, 10, 1, 1)

    def test_concentric_disks(self):
        check = check_empty([(5, 5, 0.8), (5, 5, 2.0)], self.BOX)
        assert not check.empty
        wx, wy = check.witness
        assert math.hypot(wx - 5, wy - 5) <= 0.8 + 1e-6  # inside the smaller disk

    def checked(self, disks) -> region_mod.EmptinessCheck:
        """`check_empty`'s answer, after checking that g measured by the
        membership test at the min-max solve's argmin is its shortfall."""
        table = region_mod._disk_arrays(disks, self.BOX)
        check = check_empty(table, self.BOX)
        point, g = region_mod.least_violation(table, self.BOX)
        assert g == check.shortfall
        measured = within_sets(np.array([point]), table, self.BOX, math.inf)[1]
        assert measured[0] == pytest.approx(check.shortfall, abs=table.rounding)
        return check

    def test_disjoint_disks(self):
        check = self.checked([(0, 0, 4), (10, 0, 4)])
        assert check.empty
        assert check.witness is None
        # best achievable max-shortfall is half the gap between the circles
        assert check.shortfall == 1.0

    def test_tangent_disks_meet_at_the_tangency_point(self):
        check = check_empty([(0, 0, 1), (3, 0, 2)], self.BOX)
        assert not check.empty
        wx, wy = check.witness
        assert math.hypot(wx - 1.0, wy) <= 1e-2

    def test_disk_outside_box_is_certified_fast(self):
        check = self.checked([(100, 100, 1)])
        assert check.empty
        # the corner case: on the diagonal x = y = 10 + s, where the x_max and
        # y_max edges and the disk are all missed by s = sqrt(2)*(90 - s) - 1
        want = (90.0 * math.sqrt(2.0) - 1.0) / (1.0 + math.sqrt(2.0))
        assert check.shortfall == pytest.approx(want, abs=1e-12)

    def test_disk_left_of_the_box_misses_by_half_the_gap(self):
        # the edge case: halfway along the perpendicular from the centre to x_min
        cx, r = -30.0, 5.0
        check = self.checked([(cx, 3.0, r)])
        assert check.empty
        assert check.shortfall == pytest.approx((self.BOX.x_min - cx - r) / 2.0, abs=1e-12)

    def test_rows_and_an_array_give_the_same_region(self):
        rows = [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (0.5, 3.0, 2.5)]
        want = FeasibleRegion.from_disks(rows, self.BOX)
        got = FeasibleRegion.from_disks(np.array(rows), self.BOX)
        assert (got.empty, got.empty_reason, got.slack) == (want.empty, want.empty_reason, want.slack)
        assert (want.empty, want.empty_reason, want.slack) == (False, None, 0.0)
        assert disk_rows(got) == disk_rows(want) == rows
        assert check_empty(want.table, self.BOX) == check_empty(rows, self.BOX)

    def test_no_disks_means_the_box_itself(self):
        check = check_empty([], self.BOX)
        assert not check.empty

    def test_pairwise_overlap_without_common_point(self):
        # Equilateral triangle with side 2 and radii 1.05: every pair of
        # disks overlaps, but the circumradius 2/sqrt(3) exceeds 1.05, so
        # the triple intersection is empty with a known shortfall.
        pts = [(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))]
        check = self.checked([(x, y, 1.05) for x, y in pts])
        assert check.empty
        assert check.shortfall == pytest.approx(2.0 / math.sqrt(3.0) - 1.05, abs=1e-12)

    def test_barely_common_point_found_at_the_circumcenter(self):
        pts = [(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))]
        check = check_empty([(x, y, 1.16) for x, y in pts], self.BOX)
        assert not check.empty
        wx, wy = check.witness
        assert math.hypot(wx - 1.0, wy - 1.0 / math.sqrt(3.0)) < 0.2


def random_disks(seed: int) -> tuple[list[tuple[float, float, float]], AreaBounds]:
    """Up to 30 disks around a box of random shape: disks inside it, cutting
    it, far outside it, huge ones whose edge passes near it, and disks with
    integer radii on one horizontal line, so concentric, collinear and
    zero-radius sets occur."""
    gen = SplitMix64(seed)
    w, h = gen.uniform(1.0, 50.0), gen.uniform(1.0, 50.0)
    box = AreaBounds(0, w, 0, h, 1, 1)
    disks = []
    for _ in range(1 + int(gen.uniform(0, 30))):
        kind = gen.uniform(0, 5)
        if kind < 1:
            disks.append((gen.uniform(0, w), gen.uniform(0, h), gen.uniform(0.0, 0.4) * min(w, h)))
        elif kind < 2:
            disks.append((gen.uniform(-w, 2 * w), gen.uniform(-h, 2 * h), gen.uniform(0, w)))
        elif kind < 3:
            disks.append((gen.uniform(-5 * w, 5 * w), gen.uniform(-5 * h, 5 * h), gen.uniform(0, 5 * w)))
        elif kind < 4:
            angle, d = gen.uniform(0, 2 * math.pi), gen.uniform(100, 1000)
            cx, cy = w / 2 + d * math.cos(angle), h / 2 + d * math.sin(angle)
            disks.append((cx, cy, d - gen.uniform(-30, 60)))
        else:
            disks.append((round(gen.uniform(0, w)), h / 2, round(gen.uniform(0, 5))))
    return disks, box


def test_exact_shortfall_against_the_padding_bisection():
    # The bisection's value is a violation some point attains and lies within
    # 4*rounding above min g, so the exact value may not exceed it, up to the
    # rounding of the two computed points, nor fall more than 4*rounding short.
    empty = 0
    seed = 0
    while empty < 1000:
        disks, box = random_disks(seed)
        seed += 1
        table = region_mod._disk_arrays(disks, box)
        check = check_empty(table, box)
        if not check.empty:
            continue
        empty += 1
        want = bisected_shortfall(table, box)
        assert want - 4.0 * table.rounding <= check.shortfall <= want + table.rounding, seed - 1
        point, _ = region_mod.least_violation(table, box)
        measured = within_sets(np.array([point]), table, box, math.inf)[1][0]
        assert measured == check.shortfall


def test_region_thinner_than_the_tolerance_keeps_its_point_of_least_violation():
    # Two unit disks 5e-7 m apart share no point, but the midpoint of the gap
    # misses each by 2.5e-7 m, less than EMPTINESS_TOL: a non-empty region
    # whose deepest point is that midpoint, and whose sets `contains` and
    # `project` widen by that much.
    box = TestCheckEmpty.BOX
    region = FeasibleRegion.from_disks([(0, 0, 1), (2 + 5e-7, 0, 1)], box)
    check = check_empty(region.table, box)
    assert not region.empty and not check.empty
    assert check.shortfall == pytest.approx(2.5e-7, abs=region.table.rounding)
    assert check.witness == pytest.approx((1.00000025, 0.0), abs=region.table.rounding)
    assert region.slack == check.shortfall
    assert contains(region, check.witness, tol=0.0)
    assert contains(region, project(region, (5.0, 5.0)))
    gen = SplitMix64(3)
    pts = np.array([(gen.uniform(-15, 15), gen.uniform(-15, 15)) for _ in range(200)])
    projected = project_each(region, pts)
    assert all(contains(region, (float(x), float(y))) for x, y in projected)
    _, viol = region_mod.within(region, projected, math.inf)
    assert len(viol) == len(pts) and np.all(viol <= check.shortfall)


def test_region_thinner_than_the_tolerance_projects_at_the_edge_of_the_input_domain():
    # The same gap in a box whose edge is the domain's, 2^24 m: `project`
    # widens the box by the slack, past the domain, and still projects
    edge = COORD_LIMIT
    box = AreaBounds(edge - 8, edge, -4, 4, 1, 1)
    region = FeasibleRegion.from_disks([(edge - 3, 0, 1), (edge - 1 + 5e-7, 0, 1)], box)
    assert not region.empty and region.slack > 0
    for q in ((edge - 20, 3.0), (edge + 5, 0.0), (edge - 2, -4.0)):
        assert contains(region, project(region, q)), q


def anchored_disks(seed: int) -> tuple[list[tuple[float, float, float]], AreaBounds]:
    """Up to 12 disks around an anchor point in a 10 m box, each passing the
    anchor by a margin drawn from [0, 20] m (the anchor is inside all of
    them), [-2e-6, 2e-6] m (regions about as thin as EMPTINESS_TOL) or
    [-1, 5] m, by seed. In the thin family every second anchor lies within
    2e-6 m of the x_min edge, so the box can be what makes a region thin."""
    gen = SplitMix64(seed)
    box = AreaBounds(0, 10, 0, 10, 1, 1)
    low, high = ((0.0, 20.0), (-2e-6, 2e-6), (-1.0, 5.0))[seed % 3]
    ax, ay = gen.uniform(0, 10), gen.uniform(0, 10)
    if seed % 6 == 1:
        ax = gen.uniform(-2e-6, 2e-6)
    disks = []
    for _ in range(1 + int(gen.uniform(0, 12))):
        cx, cy = gen.uniform(-10, 20), gen.uniform(-10, 20)
        disks.append((cx, cy, max(0.0, math.hypot(cx - ax, cy - ay) + gen.uniform(low, high))))
    return disks, box


def test_one_candidate_pass_keeps_the_two_pass_verdicts():
    # The min-max solve alone gives the verdicts of the two candidate passes,
    # unpadded and then padded by EMPTINESS_TOL. Its witness lies in every set
    # widened by the region's slack, up to rounding, and g measured there by
    # the membership test is the shortfall. On the thin regions, those that
    # only the padded pass found non-empty, every projection is in the region.
    thin = 0
    gen = SplitMix64(13)
    for seed in range(1200):
        disks, box = anchored_disks(seed)
        table = region_mod._disk_arrays(disks, box)
        check = check_empty(table, box)
        empty, pad = two_pass_check(table, box)
        assert check.empty == empty, seed
        if check.empty:
            continue
        slack = max(check.shortfall, 0.0)
        _, measured = within_sets(np.array([check.witness]), table, box, slack + table.rounding)
        assert measured.tolist() == [check.shortfall], seed
        if pad:
            thin += 1
            region = FeasibleRegion.from_disks(disks, box)
            for _ in range(20):
                p = project(region, (gen.uniform(-10, 20), gen.uniform(-10, 20)))
                assert contains(region, p), seed
    assert thin >= 20


@pytest.mark.parametrize("family", ["random", "binding"])
def test_projection_keeps_the_bits_of_the_candidate_pass(family):
    # The pivoting solve returns the very point the old projection picked
    # from the box clamp, the pull-backs and every feasible crossing.
    gen = SplitMix64(17)
    if family == "random":
        cases = [(random_region(seed, 5 + seed % 20), 20, 15.0) for seed in range(300)]
    else:
        cases = [(build(binding_scenario(m)), 200, 150.0) for m in (50, 200, 1000)]
    for region, queries, spread in cases:
        box = region.box
        verts, _ = vertices(region.table, box)
        for _ in range(queries):
            q = (gen.uniform(box.x_min - spread, box.x_max + spread),
                 gen.uniform(box.y_min - spread, box.y_max + spread))
            assert project(region, q) == reference_project(region, q, verts), q


@pytest.mark.parametrize("family, digest", [
    ("random", "9a494588bf3f09b42257b94690670e91f2e2bcb5987236d8d2ab4153f15fb9ec"),
    ("binding", "ba8acff548001890722b72d20abeebaa6265949a313966e47511a0061bf26c02"),
])
def test_emptiness_witness_keeps_its_bits(family, digest):
    # sha256 over float.hex of each region's witness and shortfall: the
    # pivots' choices decide the witness's bits, which the shortfall tests
    # above leave free
    if family == "random":
        regions = [random_region(seed, 5 + seed % 20) for seed in range(300)]
    else:
        regions = [build(binding_scenario(m)) for m in (50, 200, 1000)]
    h = hashlib.sha256()
    for region in regions:
        check = check_empty(region.table, region.box)
        h.update(" ".join([*(v.hex() for v in check.witness), check.shortfall.hex()]).encode() + b"\n")
    assert h.hexdigest() == digest


def hex_digest(rows) -> str:
    """sha256 over float.hex of each row of floats, one line a row."""
    h = hashlib.sha256()
    for row in rows:
        h.update(" ".join(float(v).hex() for v in row).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("m, digest", [
    (5, "c5ecfcd94e46e84b9efac2fa352b63e733196ad883e7fba980013172f5109e64"),
    (20, "5e375a10f0bb936d1481c87f726a0231a7ad0353a57bb7c365e169d004cc4f6a"),
    (50, "0815bd27c62ca74a3d8d31a49db38f5b61fd54d7b1dd184dbcc18e4b7bf990ec"),
])
def test_region_solves_keep_the_bits_of_their_projections(monkeypatch, m, digest):
    # Every point the region solves from the centroid and from (0, 0) project,
    # and every answer: the pivots' choices decide these bits.
    calls = []

    def recording(region, q):
        p = project(region, q)
        calls.append((*q, *p))
        return p

    monkeypatch.setattr(region_mod, "project", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # binding layouts: no certificate
        for init in ("centroid", (0.0, 0.0)):
            solve(binding_scenario(m), SolverConfig(mode="region", init=init))
    assert hex_digest(calls) == digest


def test_large_binding_regions_keep_the_bits_of_their_projections():
    # 300 points over [-300, 400]^2 on each of the m = 200 and 1 000 layouts
    gen = SplitMix64(37)
    rows = []
    for m in (200, 1000):
        region = build(binding_scenario(m))
        for _ in range(300):
            q = (gen.uniform(-300.0, 400.0), gen.uniform(-300.0, 400.0))
            rows.append((*q, *project(region, q)))
    assert hex_digest(rows) == "df773d2040970e21e5d9e70dd7141857cf6c2914c241d0758f91bc530dd92743"


@pytest.mark.parametrize("disks, q, witness, shortfall", [
    # x_min and the disk are both violated by exactly 10.0 at q
    ([(50, 50, 50)], (-10.0, 50.0), (50.0, 50.0), -50.0),
    # the disks are violated by the same amount at q and at the box centre
    ([(0, 50, 60), (100, 50, 60)], (50.0, -10.0), (50.0, 50.0), -10.0),
    # the same for two disks outside the box, whose region is empty
    ([(-10, 50, 5), (110, 50, 5)], None, (50.0, 50.0), 55.0),
    # a disk that holds the box from outside: at the box centre x_min ties
    # with x_max and y_min with y_max, and the pivot order decides the bits
    ([(-40, 90, 160)], None, (50.0, 50.000000000000014), -49.999999999999986),
])
def test_tied_violations_pick_the_first_constraint(disks, q, witness, shortfall):
    # Edges 0-3 come before the disks, and disks go by index: the most
    # violated constraint is the first of those tied for the largest violation.
    box = AreaBounds(0, 100, 0, 100, 1, 1)
    table = region_mod._disk_arrays(disks, box)
    point, g = region_mod.least_violation(table, box)
    assert [v.hex() for v in (*point, g)] == [v.hex() for v in (*witness, shortfall)]
    if q is not None:
        region = FeasibleRegion.from_disks(disks, box)
        verts, _ = vertices(region.table, box)
        got, want = project(region, q), reference_project(region, q, verts)
        assert [c.hex() for c in got] == [c.hex() for c in want]


def test_projection_past_a_box_corner_keeps_the_bits_of_the_candidate_pass():
    # One or three disks that hold the whole box: past a corner the nearest
    # feasible point is that corner, where two edges are tight and no disk is.
    box = AreaBounds(0, 100, 0, 100, 1, 1)
    queries = [(150.0, 150.0), (-20.0, -30.0), (130.0, -5.0), (-1.0, 120.0)]
    for disks in ([(50, 50, 200)], [(50, 50, 200), (0, 50, 180), (60, -40, 250)]):
        region = FeasibleRegion.from_disks(disks, box)
        verts, _ = vertices(region.table, box)
        for q in queries:
            got, want = project(region, q), reference_project(region, q, verts)
            assert [c.hex() for c in got] == [c.hex() for c in want], (disks, q)
            assert got == (min(max(q[0], 0.0), 100.0), min(max(q[1], 0.0), 100.0)), (disks, q)


def test_import_pulls_in_no_scipy():
    src = str(Path(uavlift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    loaded = subprocess.run(
        [sys.executable, "-c",
         # the CLI imports every module of the package
         "import sys, uavlift.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
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

    def test_projection_keeps_the_bits_of_the_candidate_pass(self):
        # Points inside and outside the box, past each corner and on each
        # edge, including the corners themselves.
        box = AreaBounds(-3, 10, 2, 7, 1, 1)
        region = FeasibleRegion.from_disks([], box)
        verts, _ = vertices(region.table, box)
        gen = SplitMix64(23)
        points = []
        for _ in range(200):
            u, v = gen.uniform(0, 1), gen.uniform(0, 1)
            x, y = box.x_min + u * (box.x_max - box.x_min), box.y_min + v * (box.y_max - box.y_min)
            d, e = gen.uniform(0, 30), gen.uniform(0, 30)
            points += [(x, y), (gen.uniform(-40, 40), gen.uniform(-40, 40))]
            points += [(box.x_min - d, box.y_min - e), (box.x_min - d, box.y_max + e),
                       (box.x_max + d, box.y_min - e), (box.x_max + d, box.y_max + e)]
            points += [(box.x_min, y), (box.x_max, y), (x, box.y_min), (x, box.y_max)]
        points += [(cx, cy) for cx in (box.x_min, box.x_max) for cy in (box.y_min, box.y_max)]
        for q in points:
            got, want = project(region, q), reference_project(region, q, verts)
            assert [float(c).hex() for c in got] == [float(c).hex() for c in want], q


def test_grid_on_a_region_thinner_than_the_tolerance_says_so():
    # Two unit-K users whose 10 m disks at z = 10 m are 5e-7 m apart: the
    # sets widened by the region's slack meet in a sliver nanometres wide,
    # which no node of a 1 m or 0.5 m grid hits, so the oracle names the thin
    # region instead of asking for a finer spacing.
    bounds = AreaBounds(0, 100, 0, 100, 10, 10)
    users = [UserDevice(40.0, 50.0, 200.0), UserDevice(60.0 + 5e-7, 50.0, 200.0)]
    scenario = unit_scenario(users, bounds, p_max=1e6)
    region = build(scenario)
    assert not region.empty and region.slack == pytest.approx(2.5e-7, rel=1e-6)
    message = rf"thinner than the emptiness tolerance \(slack {region.slack:.3g} m\)"
    for spacing in (1.0, 0.5):
        with pytest.raises(ValidationError, match=message):
            grid_search(scenario, GridSpec(spacing, bounds), mode="region")
    # a region with an interior between the nodes still asks for a finer grid
    small = unit_scenario([UserDevice(50.5, 50.5, 0.3**2 + 100.0)], bounds, p_max=1e6)
    assert build(small).slack == 0.0
    with pytest.raises(ValidationError, match="refine the spacing"):
        grid_search(small, GridSpec(1.0, bounds), mode="region")

"""Metamorphic invariants: transformations of an instance whose answers
are known from the original's, compared bit for bit.

- Swapping x and y swaps every placement and trajectory point and keeps
  every value: the objective adds dx^2 and dy^2, which commute, and the
  box and disks are the mirror images of the original's.
- Scaling every energy by a power of two scales the objective, its
  gradient and the curvature bound L by it and the step 1/L by its
  inverse, so box-mode steps, and so placements, keep their bits.
- Scaling every length by 2^k, and energies and p_max by 4^k, scales each
  range, disk radius and the disk table's rounding by 2^k exactly.
- K sees the frequency and c only as frequency/c: a frequency times 2^k
  gives K times 4^k exactly, and c/2 gives the K of twice the frequency.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from region_layouts import binding_scenario

from uavlift import cases, channel
from uavlift.channel import system_constant
from uavlift.oracle import GridSpec, grid_search
from uavlift.region import build
from uavlift.scenario import DEFAULT_RF, AreaBounds, Scenario, UserArrays
from uavlift.solver import SolverConfig, solve
from uavlift.surface import surface_grid


def swapped(s: Scenario) -> Scenario:
    xs, ys, es = s.users.arrays
    b = s.bounds
    return Scenario(UserArrays(ys, xs, es), s.rf, AreaBounds(b.y_min, b.y_max, b.x_min, b.x_max, b.z_min, b.z_max))


def at_altitude(s: Scenario, z: float) -> Scenario:
    return dataclasses.replace(s, bounds=dataclasses.replace(s.bounds, z_min=z, z_max=z))


def energized(s: Scenario, factor: float) -> Scenario:
    xs, ys, es = s.users.arrays
    return dataclasses.replace(s, users=UserArrays(xs, ys, es * factor))


def lengthened(s: Scenario, k: int) -> Scenario:
    """Every length times 2^k, every energy and p_max times 4^k: K and every
    objective term E/(d^2 + z^2) keep their values."""
    f = 2.0**k
    xs, ys, es = s.users.arrays
    bounds = AreaBounds(*(f * v for v in dataclasses.astuple(s.bounds)))
    rf = dataclasses.replace(s.rf, p_max=s.rf.p_max * f * f)
    return Scenario(UserArrays(xs * f, ys * f, es * (f * f)), rf, bounds)


def quiet_solve(s: Scenario, config: SolverConfig):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # z = 2 m and binding: no certificate
        return solve(s, config)


def flipped(point):
    return (point[1], point[0], *point[2:])


BOX_SOLVES = {"u200-z650": cases.uniform, "u200-z2": lambda: at_altitude(cases.uniform(), 2.0)}
REGION_SOLVES = {"b20": lambda: binding_scenario(20), "b50": lambda: binding_scenario(50)}


class TestSwapXY:
    @pytest.mark.parametrize("name", BOX_SOLVES)
    def test_box_solve(self, name):
        s = BOX_SOLVES[name]()
        a = quiet_solve(s, SolverConfig(mode="box"))
        b = quiet_solve(swapped(s), SolverConfig(mode="box"))
        assert b.placement == flipped(a.placement)
        assert b.trajectory == tuple(map(flipped, a.trajectory))
        assert (b.objective, b.iterations, b.converged) == (a.objective, a.iterations, a.converged)

    @pytest.mark.parametrize("init", ["centroid", (3.0, 7.0)])
    @pytest.mark.parametrize("name", REGION_SOLVES)
    def test_region_solve(self, name, init):
        s = REGION_SOLVES[name]()
        a = quiet_solve(s, SolverConfig(mode="region", init=init))
        b = quiet_solve(swapped(s), SolverConfig(mode="region", init=init if init == "centroid" else init[::-1]))
        assert b.placement == flipped(a.placement)
        assert b.trajectory == tuple(map(flipped, a.trajectory))
        assert (b.objective, b.iterations, b.converged) == (a.objective, a.iterations, a.converged)

    def test_grid_search(self):
        # ties break toward the smallest x: the swap maps the best node to
        # the best node only where it is unique
        s = cases.uniform()
        grid = GridSpec(1.0, s.bounds)
        values = surface_grid(s.users, s.bounds.z_min, grid)[2]
        assert np.count_nonzero(values == values.max()) == 1
        a = grid_search(s, grid)
        b = grid_search(swapped(s), grid)
        assert (b.point, b.value) == (a.point[::-1], a.value)


class TestEnergyScaling:
    @pytest.mark.parametrize("name", [*BOX_SOLVES, "nonuniform"])
    def test_box_solve(self, name):
        s = {**BOX_SOLVES, "nonuniform": cases.nonuniform}[name]()
        a = quiet_solve(s, SolverConfig(mode="box"))
        b = quiet_solve(energized(s, 2.0**20), SolverConfig(mode="box"))
        assert b.placement == a.placement
        assert b.objective == 2.0**20 * a.objective
        assert (b.iterations, b.converged) == (a.iterations, a.converged)


# Solves under length scaling are left out: the stop test's `--eps` is a
# length in metres, so b50 at k = -6 stops after one iteration.
@pytest.mark.parametrize("k", [-6, 6, 12])
@pytest.mark.parametrize("m", [5, 20, 50])
def test_build_scales_with_length(m, k):
    s = binding_scenario(m)
    a, b = build(s), build(lengthened(s, k))
    assert not a.empty
    f = 2.0**k
    for name in ("r", "cx", "cy"):
        assert getattr(b.table, name).tolist() == (f * getattr(a.table, name)).tolist()
    assert b.table.rounding == f * a.table.rounding
    assert b.limits.d_limit.tolist() == (f * a.limits.d_limit).tolist()


class TestSystemConstant:
    @pytest.mark.parametrize("k", [-4, -1, 1, 4])
    @pytest.mark.parametrize("users", [1, 200, 12000])
    @pytest.mark.parametrize("rf", [DEFAULT_RF, cases.RF], ids=["default", "cases"])
    def test_frequency_times_two_to_the_k(self, rf, users, k):
        scaled = dataclasses.replace(rf, frequency=rf.frequency * 2.0**k)
        assert system_constant(scaled, users) == 4.0**k * system_constant(rf, users)

    @pytest.mark.parametrize("users", [1, 200, 12000])
    def test_half_the_speed_of_light_is_twice_the_frequency(self, users, monkeypatch):
        doubled = dataclasses.replace(DEFAULT_RF, frequency=2.0 * DEFAULT_RF.frequency)
        want = system_constant(doubled, users)
        monkeypatch.setattr(channel, "SPEED_OF_LIGHT", channel.SPEED_OF_LIGHT / 2.0)
        assert system_constant(DEFAULT_RF, users) == want

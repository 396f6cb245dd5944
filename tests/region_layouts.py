"""Scenarios and regions the region, solver and acceptance tests share."""

from __future__ import annotations

import math

import numpy as np

from uavlift.channel import SPEED_OF_LIGHT
from uavlift.region import FeasibleRegion, project
from uavlift.rng import SplitMix64
from uavlift.scenario import AreaBounds, RfParams, Scenario, UserDevice


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


def binding_scenario(m: int) -> Scenario:
    """m devices at unit system constant whose disks at altitude 10 m all
    pass 15 m beyond the anchor (60, 60) of a 100 m box: the benchmark's
    binding layout, where the disks cut the box and no certificate holds."""
    gen = SplitMix64(1)
    users = []
    for _ in range(m):
        x, y = gen.uniform(0.0, 100.0), gen.uniform(0.0, 100.0)
        radius = math.hypot(x - 60.0, y - 60.0) + 15.0
        users.append(UserDevice(x, y, radius * radius + 100.0))
    return unit_scenario(users, AreaBounds(0, 100, 0, 100, 10, 10), p_max=1e6)


def random_region(seed: int, n_disks: int = 5) -> FeasibleRegion:
    """Disks drawn so that a random anchor point is inside all of them,
    guaranteeing a non-empty intersection with the box."""
    gen = SplitMix64(seed)
    box = AreaBounds(0, 10, 0, 10, 1, 1)
    ax, ay = gen.uniform(3, 7), gen.uniform(3, 7)
    disks = []
    for _ in range(n_disks):
        cx, cy = gen.uniform(0, 10), gen.uniform(0, 10)
        disks.append((cx, cy, math.hypot(cx - ax, cy - ay) + gen.uniform(0.5, 3.0)))
    region = FeasibleRegion.from_disks(disks, box)
    assert not region.empty
    return region


def project_each(region: FeasibleRegion, pts: np.ndarray) -> np.ndarray:
    return np.array([project(region, (float(x), float(y))) for x, y in pts])

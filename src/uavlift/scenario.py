"""Problem instances: ground devices, radio parameters, deployment bounds.

A :class:`Scenario` is immutable after construction and safe to share
across threads. Generators are deterministic under an explicit seed (see
:mod:`uavlift.rng`), and the file format is plain JSON with full
double-precision decimals, so ``load(save(s)) == s`` holds exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import ParseError, ValidationError
from .rng import SplitMix64


def _finite(value, where: str, key: str) -> float:
    """`value` as a float, or a ValidationError naming `where.key` if it is
    not finite."""
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the double range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{where}.{key} must be finite, got {value!r}")
    return number


@dataclass(frozen=True)
class UserDevice:
    """One ground device: planar position in meters, residual battery energy in joules."""

    x: float
    y: float
    energy: float

    def __post_init__(self):
        object.__setattr__(self, "x", _finite(self.x, "user", "x"))
        object.__setattr__(self, "y", _finite(self.y, "user", "y"))
        object.__setattr__(self, "energy", _finite(self.energy, "user", "energy"))
        if not self.energy > 0:
            raise ValidationError(f"user energy must be positive, got {self.energy}")


@dataclass(frozen=True)
class RfParams:
    """Radio parameters shared by all devices.

    rate: per-device uplink data rate in bits/s.
    bandwidth: total system bandwidth in Hz; each of n devices gets bandwidth/n.
    noise: receiver noise power in watts.
    frequency: carrier frequency in Hz.
    p_max: maximum device transmit power in watts.
    tau_th: minimum acceptable transmission duration per device in seconds.
    """

    rate: float
    bandwidth: float
    noise: float
    frequency: float
    p_max: float
    tau_th: float

    def __post_init__(self):
        for name in ("rate", "bandwidth", "noise", "frequency", "p_max", "tau_th"):
            value = _finite(getattr(self, name), "rf", name)
            object.__setattr__(self, name, value)
            if not value > 0:
                raise ValidationError(f"rf.{name} must be positive, got {value}")


@dataclass(frozen=True)
class AreaBounds:
    """Axis-aligned deployment box: users live in the x/y rectangle, the
    aerial station may be placed anywhere in the full 3D box."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max"):
            object.__setattr__(self, name, _finite(getattr(self, name), "bounds", name))
        if not self.x_min < self.x_max:
            raise ValidationError(f"bounds require x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if not self.y_min < self.y_max:
            raise ValidationError(f"bounds require y_min < y_max, got [{self.y_min}, {self.y_max}]")
        if not 0 < self.z_min <= self.z_max:
            raise ValidationError(
                f"bounds require 0 < z_min <= z_max, got [{self.z_min}, {self.z_max}]"
            )

    def contains_xy(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


@dataclass(frozen=True)
class Scenario:
    """A complete problem instance. `seed` records generator provenance when
    the instance came from one of the generators below."""

    users: tuple[UserDevice, ...]
    rf: RfParams
    bounds: AreaBounds
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        if not self.users:
            raise ValidationError("scenario requires at least one user")
        for i, u in enumerate(self.users):
            if not self.bounds.contains_xy(u.x, u.y):
                raise ValidationError(
                    f"user {i} at ({u.x}, {u.y}) lies outside the area rectangle"
                )


@dataclass(frozen=True)
class ClusterSpec:
    """One Gaussian cluster for the non-uniform generator."""

    x: float
    y: float
    std: float
    count: int
    energy_low: float
    energy_high: float

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError(f"cluster count must be >= 1, got {self.count}")
        if self.std < 0:
            raise ValidationError(f"cluster std must be >= 0, got {self.std}")
        _check_energy_interval(self.energy_low, self.energy_high)


# Defaults matching the bundled reproduction cases: 4 Mbps per device over
# 50 MHz total, 1e-14 W noise, 4 GHz carrier, 0.5 W device power budget,
# 900 s minimum service time, energies drawn from [4500, 18000] J.
DEFAULT_RF = RfParams(
    rate=4e6, bandwidth=50e6, noise=1e-14, frequency=4e9, p_max=0.5, tau_th=900.0
)
DEFAULT_ENERGY_LOW = 4500.0
DEFAULT_ENERGY_HIGH = 18000.0


def _check_energy_interval(low: float, high: float) -> None:
    if not low > 0:
        raise ValidationError(f"energy_low must be positive, got {low}")
    if not low <= high:
        raise ValidationError(f"energy interval is empty: [{low}, {high}]")


def generate_uniform(
    count: int,
    bounds: AreaBounds,
    energy_low: float,
    energy_high: float,
    seed: int,
    rf: RfParams = DEFAULT_RF,
) -> Scenario:
    """Users i.i.d. uniform over the rectangle, energies i.i.d. uniform over
    [energy_low, energy_high]. Identical seed gives a bit-identical scenario.

    Draw order per user is x, y, energy; changing it would change the stream.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    _check_energy_interval(energy_low, energy_high)
    gen = SplitMix64(seed)
    users = []
    for _ in range(count):
        x = gen.uniform(bounds.x_min, bounds.x_max)
        y = gen.uniform(bounds.y_min, bounds.y_max)
        energy = gen.uniform(energy_low, energy_high)
        users.append(UserDevice(x, y, energy))
    return Scenario(users=tuple(users), rf=rf, bounds=bounds, seed=seed)


def generate_clustered(
    clusters: Sequence[ClusterSpec],
    bounds: AreaBounds,
    seed: int,
    rf: RfParams = DEFAULT_RF,
) -> Scenario:
    """Non-uniform instance: Gaussian draws around each cluster center,
    rejection-sampled into the rectangle. Users appear cluster by cluster in
    the order given, so a slice of the user list recovers each cluster.
    """
    clusters = tuple(clusters)
    if not clusters:
        raise ValidationError("at least one cluster is required")
    for i, c in enumerate(clusters):
        if not bounds.contains_xy(c.x, c.y):
            raise ValidationError(
                f"cluster {i} center ({c.x}, {c.y}) lies outside the area rectangle"
            )
    gen = SplitMix64(seed)
    users = []
    for c in clusters:
        for _ in range(c.count):
            for _attempt in range(1_000_000):
                x = gen.normal(c.x, c.std)
                y = gen.normal(c.y, c.std)
                if bounds.contains_xy(x, y):
                    break
            else:
                raise ValidationError(
                    f"rejection sampling for cluster at ({c.x}, {c.y}) did not "
                    f"land inside the area; std {c.std} is too large for the bounds"
                )
            energy = gen.uniform(c.energy_low, c.energy_high)
            users.append(UserDevice(x, y, energy))
    return Scenario(users=tuple(users), rf=rf, bounds=bounds, seed=seed)


# ---------------------------------------------------------------------------
# File format: a single JSON document with users[{x,y,energy}], rf{...},
# bounds{...} and the generator seed. json round-trips doubles exactly
# (repr emits the shortest decimal that parses back to the same bits).
# ---------------------------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "seed": scenario.seed,
        "users": [{"x": u.x, "y": u.y, "energy": u.energy} for u in scenario.users],
        "rf": {
            "rate": scenario.rf.rate,
            "bandwidth": scenario.rf.bandwidth,
            "noise": scenario.rf.noise,
            "frequency": scenario.rf.frequency,
            "p_max": scenario.rf.p_max,
            "tau_th": scenario.rf.tau_th,
        },
        "bounds": {
            "x_min": scenario.bounds.x_min,
            "x_max": scenario.bounds.x_max,
            "y_min": scenario.bounds.y_min,
            "y_max": scenario.bounds.y_max,
            "z_min": scenario.bounds.z_min,
            "z_max": scenario.bounds.z_max,
        },
    }


def _require(mapping, key: str, where: str):
    if not isinstance(mapping, dict):
        raise ParseError(f"expected an object at '{where}'")
    if key not in mapping:
        path = f"{where}.{key}" if where else key
        raise ParseError(f"missing field '{path}'")
    return mapping[key]


def _number(mapping, key: str, where: str) -> float:
    value = _require(mapping, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        path = f"{where}.{key}" if where else key
        raise ParseError(f"field '{path}' must be a number, got {value!r}")
    return _finite(value, where, key)


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
        raise ParseError(f"field 'seed' must be a non-negative integer or null, got {seed!r}")
    raw_users = _require(doc, "users", "")
    if not isinstance(raw_users, list):
        raise ParseError("field 'users' must be an array")
    users = []
    for i, raw in enumerate(raw_users):
        where = f"users[{i}]"
        users.append(
            UserDevice(
                x=_number(raw, "x", where),
                y=_number(raw, "y", where),
                energy=_number(raw, "energy", where),
            )
        )
    raw_rf = _require(doc, "rf", "")
    rf = RfParams(
        rate=_number(raw_rf, "rate", "rf"),
        bandwidth=_number(raw_rf, "bandwidth", "rf"),
        noise=_number(raw_rf, "noise", "rf"),
        frequency=_number(raw_rf, "frequency", "rf"),
        p_max=_number(raw_rf, "p_max", "rf"),
        tau_th=_number(raw_rf, "tau_th", "rf"),
    )
    raw_bounds = _require(doc, "bounds", "")
    bounds = AreaBounds(
        x_min=_number(raw_bounds, "x_min", "bounds"),
        x_max=_number(raw_bounds, "x_max", "bounds"),
        y_min=_number(raw_bounds, "y_min", "bounds"),
        y_max=_number(raw_bounds, "y_max", "bounds"),
        z_min=_number(raw_bounds, "z_min", "bounds"),
        z_max=_number(raw_bounds, "z_max", "bounds"),
    )
    return Scenario(users=tuple(users), rf=rf, bounds=bounds, seed=seed)


def save(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def load(path: str | Path) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)

"""Problem instances: ground devices, radio parameters, deployment bounds.

A :class:`Scenario` keeps its users as columns: three contiguous float64
arrays (x, y, energy), validated in one vectorized pass when the scenario
is built and read-only from then on, so a scenario is safe to share across
threads. ``scenario.users`` is a read-only sequence of :class:`UserDevice`
over those arrays, and ``scenario.users.arrays`` hands the arrays to the
kernels without a copy. Generators are deterministic under an explicit
seed (see :mod:`uavlift.rng`). The file format is plain JSON with full
double-precision decimals, so ``load(save(s)) == s`` holds exactly, and it
keeps the users as columns too: one array each of x, y and energy, so a
load parses numbers and builds no per-user objects. ``load`` also reads
the older row layout, one ``{"x", "y", "energy"}`` object per user.

The input domain is declared here once, as module constants, and every
instance is checked against it when it is built:

- every box edge lies within COORD_LIMIT = 2^24 m of 0 (about 1.7e7 m, more
  than the Earth's diameter), so every user does too; a solve's explicit
  start is held to the same limit;
- the box is at least MIN_SIDE = 2^-10 m wide and high;
- z_min and z_max lie in ALTITUDE_LIMITS = [2^-10, 2^24] m;
- the users' total energy T lies in ENERGY_LIMITS = [2^-900, 2^900] J.

The paper's cases (a 250 m box at 650 m, 4500-18000 J a user) lie deep
inside. Within the domain no kernel overflows, whatever the number of
users: two points of the box are at most 2^25 m apart on each axis, so a
squared distance d2 = dx^2 + dy^2 + z^2 lies in [2^-20, 2^52), d2^3 below
2^156, and z^4 in [2^-40, 2^96]. Per user, E/d2 <= E 2^20, the gradient's
2E r/d2^2 <= 0.65 E/z^3 <= E 2^30, every Hessian entry and curvature bound
is at most 6E/d2^2 <= E 2^43, and an intermediate E (6 dx^2) at most E 2^53,
so no sum over the users exceeds T 2^53. The largest product the program
forms is a curvature bound times a squared length within the box, at most
T 2^43 2^51 = T 2^94 <= 2^994, below the double range's 2^1024; the
smallest quotient that must stay finite, the ascent's step 1/L = z^4/(2T),
is at most 2^96/2^-899 = 2^995. A squared distance of a grid or solver
point never falls below z^2 >= 2^-20, so no division is by zero.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ParseError, ValidationError
from .rng import SplitMix64, check_seed

COORD_LIMIT = 2.0**24                     # m, the largest |box edge| and |start|
MIN_SIDE = 2.0**-10                       # m, the least box width and height
ALTITUDE_LIMITS = (2.0**-10, 2.0**24)     # m, z_min and z_max
ENERGY_LIMITS = (2.0**-900, 2.0**900)     # J, the users' total energy


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


def _check_in(name: str, value: float, low: float, high: float, unit: str) -> float:
    """`value`, unless it lies outside [low, high]: a ValidationError naming
    `name` and the domain's limits."""
    if not low <= value <= high:
        raise ValidationError(f"{name} must lie in [{low!r}, {high!r}] {unit}, got {value!r}")
    return value


def check_coordinate(value: float, name: str) -> float:
    """`value`, if it lies within COORD_LIMIT of 0; else a ValidationError naming `name`."""
    return _check_in(name, value, -COORD_LIMIT, COORD_LIMIT, "m")


def check_altitude(z: float, name: str = "z") -> float:
    """`z`, if it lies in ALTITUDE_LIMITS; else a ValidationError naming `name`.
    The one altitude rule of boxes, objective kernels and surfaces."""
    return _check_in(name, z, *ALTITUDE_LIMITS, "m")


@dataclass(frozen=True)
class UserDevice:
    """One ground device: planar position in meters, residual battery energy in joules."""

    x: float
    y: float
    energy: float

    def __post_init__(self):
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _finite(getattr(self, f.name), "user", f.name))
        if not self.energy > 0:
            raise ValidationError(f"user energy must be positive, got {self.energy}")


_USER_KEYS = tuple(f.name for f in dataclasses.fields(UserDevice))


class UserArrays(NamedTuple):
    """User positions and energies as flat float arrays, one entry per user."""

    xs: np.ndarray
    ys: np.ndarray
    es: np.ndarray


def _device(x: float, y: float, energy: float) -> UserDevice:
    """A UserDevice over values a scenario has already validated."""
    device = object.__new__(UserDevice)
    device.__dict__.update(x=x, y=y, energy=energy)
    return device


class UserView(Sequence):
    """A scenario's users as a read-only sequence of :class:`UserDevice`
    over its arrays. Indexing builds one device, slicing gives a view of
    the slice, and equality compares the arrays bit for bit."""

    __slots__ = ("_arrays",)

    def __init__(self, arrays: UserArrays):
        self._arrays = arrays

    @property
    def arrays(self) -> UserArrays:
        return self._arrays

    def __len__(self) -> int:
        return len(self._arrays.xs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return UserView(UserArrays(*(a[index] for a in self._arrays)))
        return _device(*(float(a[index]) for a in self._arrays))

    def __iter__(self):
        return map(_device, *(a.tolist() for a in self._arrays))

    def __eq__(self, other):
        if not isinstance(other, UserView):
            return NotImplemented
        return all(a.tobytes() == b.tobytes() for a, b in zip(self._arrays, other._arrays))

    def __hash__(self):
        return hash(tuple(a.tobytes() for a in self._arrays))

    def __repr__(self):
        return f"UserView({len(self)} users)"


def user_arrays(users: Sequence[UserDevice] | UserArrays) -> UserArrays:
    """Positions and energies as flat arrays (xs, ys, es). A `UserArrays`
    comes back unchanged and a scenario's users give their arrays without a
    copy; a plain sequence of devices is built into new arrays."""
    if isinstance(users, UserArrays):
        return users
    if isinstance(users, UserView):
        return users.arrays
    return UserArrays(*(np.array([getattr(u, key) for u in users], dtype=float) for key in _USER_KEYS))


def _check_energy(i: int, energy: float) -> None:
    if not energy > 0:
        raise ValidationError(f"users[{i}].energy must be positive, got {energy}")


def _check_user_values(arrays: UserArrays) -> None:
    """Every value finite and every energy positive; otherwise the error for
    the first bad user, checking x, y, then energy."""
    xs, ys, es = arrays
    bad = ~(np.isfinite(xs) & np.isfinite(ys) & np.isfinite(es) & (es > 0))
    if bad.any():
        i = int(np.argmax(bad))
        where = f"users[{i}]"
        values = [_finite(float(a[i]), where, key) for a, key in zip(arrays, _USER_KEYS)]
        _check_energy(i, values[2])


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
        for f in dataclasses.fields(self):
            value = _finite(getattr(self, f.name), "rf", f.name)
            object.__setattr__(self, f.name, value)
            if not value > 0:
                raise ValidationError(f"rf.{f.name} must be positive, got {value}")


@dataclass(frozen=True)
class AreaBounds:
    """Axis-aligned deployment box: users live in the x/y rectangle and the
    aerial station is placed in it at the fixed altitude z_min. z_max is
    validated and saved with the scenario but used by nothing. Every edge,
    side and altitude must lie in the input domain (see the module
    docstring)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = _finite(getattr(self, f.name), "bounds", f.name)
            if f.name.startswith("z"):
                check_altitude(value, f"bounds.{f.name}")
            else:
                check_coordinate(value, f"bounds.{f.name}")
            object.__setattr__(self, f.name, value)
        for axis in "xy":
            low, high = getattr(self, f"{axis}_min"), getattr(self, f"{axis}_max")
            if not high - low >= MIN_SIDE:
                raise ValidationError(
                    f"bounds require {axis}_max - {axis}_min >= {MIN_SIDE!r} m, got [{low}, {high}]"
                )
        if not self.z_min <= self.z_max:
            raise ValidationError(f"bounds require z_min <= z_max, got [{self.z_min}, {self.z_max}]")

    def contains_xy(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


@dataclass(frozen=True)
class Scenario:
    """A complete problem instance. `users` may be given as a sequence of
    :class:`UserDevice` or as :class:`UserArrays`; the scenario copies them
    into its own read-only arrays and keeps a :class:`UserView`. Each
    energy must be finite and positive, and their sum in ENERGY_LIMITS. `seed`
    records generator provenance when the instance came from one of the
    generators below."""

    users: UserView
    rf: RfParams
    bounds: AreaBounds
    seed: int | None = None

    def __post_init__(self):
        users = self.users
        if not isinstance(users, (UserArrays, UserView)):
            users = tuple(users)
        arrays = UserArrays(*(np.array(a, dtype=np.float64) for a in user_arrays(users)))
        if not all(a.ndim == 1 and len(a) == len(arrays.xs) for a in arrays):
            raise ValidationError("user arrays must be one-dimensional and of equal length")
        if not len(arrays.xs):
            raise ValidationError("scenario requires at least one user")
        for a in arrays:
            a.flags.writeable = False
        _check_user_values(arrays)
        with np.errstate(over="ignore"):  # finite energies can sum to inf, refused below
            total = float(arrays.es.sum())
        _check_in("the users' total energy", total, *ENERGY_LIMITS, "J")
        b = self.bounds
        xs, ys, _ = arrays
        outside = ~((b.x_min <= xs) & (xs <= b.x_max) & (b.y_min <= ys) & (ys <= b.y_max))
        if outside.any():
            i = int(np.argmax(outside))
            raise ValidationError(
                f"user {i} at ({float(xs[i])}, {float(ys[i])}) lies outside the area rectangle"
            )
        object.__setattr__(self, "users", UserView(arrays))


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
        for f in dataclasses.fields(self):
            if f.type == "float":  # a string: annotations are postponed here
                object.__setattr__(self, f.name, _finite(getattr(self, f.name), "cluster", f.name))
        if self.count < 1:
            raise ValidationError(f"cluster count must be >= 1, got {self.count}")
        if not self.std >= 0:
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
    All 3 * count draws are made at once, interleaved in that order.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    _check_energy_interval(energy_low, energy_high)
    low = np.array([bounds.x_min, bounds.y_min, energy_low], dtype=float)
    high = np.array([bounds.x_max, bounds.y_max, energy_high], dtype=float)
    draws = SplitMix64(seed).uniforms((count, 3), low, high)
    return Scenario(users=UserArrays(*draws.T), rf=rf, bounds=bounds, seed=seed)


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
    xs, ys, es = [], [], []
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
            xs.append(x)
            ys.append(y)
            es.append(gen.uniform(c.energy_low, c.energy_high))
    users = UserArrays(*(np.array(col, dtype=float) for col in (xs, ys, es)))
    return Scenario(users=users, rf=rf, bounds=bounds, seed=seed)


# ---------------------------------------------------------------------------
# File format: a single JSON document with the generator seed, the users,
# rf{...} and bounds{...}. `save` writes the users as columns,
# users{x: [...], y: [...], energy: [...]}, each column one line of decimals;
# `load` also reads the row layout users[{x, y, energy}, ...] of hand-written
# files and earlier versions, and both layouts go through the same checks.
# json round-trips doubles exactly (repr emits the shortest decimal that
# parses back to the same bits).
# ---------------------------------------------------------------------------


def _document(scenario: Scenario, users) -> dict:
    return {
        "seed": scenario.seed,
        "users": users,
        "rf": dataclasses.asdict(scenario.rf),
        "bounds": dataclasses.asdict(scenario.bounds),
    }


def scenario_to_dict(scenario: Scenario) -> dict:
    """The document `save` writes: the users as x, y and energy lists."""
    return _document(
        scenario, dict(zip(_USER_KEYS, (a.tolist() for a in scenario.users.arrays)))
    )


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


def _raw_columns(raw_users: dict) -> list[list]:
    """The x, y and energy arrays of the column layout, as parsed."""
    columns = [_require(raw_users, key, "users") for key in _USER_KEYS]
    for key, col in zip(_USER_KEYS, columns):
        if not isinstance(col, list):
            raise ParseError(f"field 'users.{key}' must be an array")
    if len(set(map(len, columns))) > 1:
        lengths = ", ".join(f"{key} {len(col)}" for key, col in zip(_USER_KEYS, columns))
        raise ParseError(f"user columns must have equal length, got {lengths}")
    return columns


def _user_columns(raw_users) -> UserArrays:
    """The users' x, y and energy columns, from either file layout, with
    every value finite and every energy positive. A column file gives its
    arrays as they are; a row file's are pulled by one list comprehension
    each. Both then take one type check and one vectorized value check. When
    a row is not an object or lacks a key, or a value is not an int or float
    (or is an int beyond the double range), the per-user loop below raises
    the error of the first bad user, so the two layouts name a bad value
    alike: users[i].key."""
    if isinstance(raw_users, dict):
        columns = _raw_columns(raw_users)
        rows = None
    elif isinstance(raw_users, list):
        rows = raw_users
        try:
            columns = [[raw[key] for raw in rows] for key in _USER_KEYS]
        except (TypeError, KeyError):
            columns = None
    else:
        raise ParseError("field 'users' must be an array or an object")
    if columns is not None and all(set(map(type, col)) <= {int, float} for col in columns):
        try:
            arrays = UserArrays(*(np.array(col, dtype=float) for col in columns))
        except OverflowError:
            pass
        else:
            _check_user_values(arrays)
            return arrays
    if rows is None:
        rows = [dict(zip(_USER_KEYS, values)) for values in zip(*columns)]
    columns = ([], [], [])
    for i, raw in enumerate(rows):
        for key, col in zip(_USER_KEYS, columns):
            col.append(_number(raw, key, f"users[{i}]"))
        _check_energy(i, columns[2][-1])
    return UserArrays(*(np.array(col, dtype=float) for col in columns))


def _record(cls, doc: dict, key: str):
    """A `cls` from the object at `doc[key]`, one number per field of `cls`."""
    raw = _require(doc, key, "")
    return cls(**{f.name: _number(raw, f.name, key) for f in dataclasses.fields(cls)})


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    seed = doc.get("seed")
    if seed is not None:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ParseError(f"field 'seed' must be an integer or null, got {seed!r}")
        check_seed(seed)
    users = _user_columns(_require(doc, "users", ""))
    rf = _record(RfParams, doc, "rf")
    bounds = _record(AreaBounds, doc, "bounds")
    return Scenario(users=users, rf=rf, bounds=bounds, seed=seed)


def save(scenario: Scenario, path: str | Path) -> None:
    """Write `scenario_to_dict(scenario)` as `json.dumps(..., indent=2)`
    lays it out, plus a newline, except that each user column is one line:
    `"x": [x0, x1, ...]`. The columns are formatted straight from the arrays
    with repr, the float format json uses; only the head and tail go through
    json.dumps."""
    head, tail = json.dumps(_document(scenario, {}), indent=2).split('"users": {}')
    columns = ",\n".join(
        f'    "{key}": [{", ".join(map(repr, a.tolist()))}]'
        for key, a in zip(_USER_KEYS, scenario.users.arrays)
    )
    Path(path).write_text(f'{head}"users": {{\n{columns}\n  }}{tail}\n')


def load(path: str | Path) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} nests arrays or objects too deeply to parse") from exc
    return scenario_from_dict(doc)

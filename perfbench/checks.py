"""Answer checks, references and instance validity, all outside the timed phases.

A command fails on a wrong exit code, missing expected output, a placement
outside the feasible set, or a reported objective that differs from
``value(placement)``. Solve answers are also compared with a reference that
shares no code with the solver: a damped Newton ascent on the public
``gradient``/``hessian`` for the concave box instances, and a refined
vectorized grid, with range disks derived here from the radio parameters,
for the binding-region instances.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from uavlift import region as region_mod
from uavlift.channel import SPEED_OF_LIGHT
from uavlift.objective import gradient, hessian, value
from uavlift.oracle import GridSpec
from uavlift.scenario import Scenario

from workloads import Command, Workload

FEASIBILITY_TOL = 1e-7    # metres of slack for a reported placement
OBJECTIVE_RTOL = 1e-9     # reported objective vs value(placement)
ACTIVE_TOL = 1e-3         # metres: a disk is active when the reference is this close to its rim
DISTINCT_M = 0.1          # region and box answers must be at least this far apart

_GRID_LINE = re.compile(
    r"best \(([^,]+), ([^)]+)\) value (\S+) J/m\^2 \((\d+) nodes evaluated\)"
)


@dataclass(frozen=True)
class Reference:
    point: tuple[float, float]
    value: float


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str | None
    fingerprint: tuple
    gap: float | None = None      # (ref - objective)/ref, floored at 0, for solve answers


@dataclass(frozen=True)
class Validity:
    instance: str
    check: str
    ok: bool
    detail: str


def range_disks(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Disk centres and radii at z_min from the radio parameters; None when some
    device cannot reach the altitude at all."""
    rf = scenario.rf
    n = len(scenario.users)
    k = (2.0 ** (rf.rate * n / rf.bandwidth) - 1.0) * rf.noise * (
        4.0 * math.pi * rf.frequency / SPEED_OF_LIGHT
    ) ** 2
    z = scenario.bounds.z_min
    es = np.array([u.energy for u in scenario.users])
    d_limit = np.minimum(math.sqrt(rf.p_max / k), np.sqrt(es / (rf.tau_th * k)))
    if np.any(d_limit <= z):
        return None
    cx = np.array([u.x for u in scenario.users])
    cy = np.array([u.y for u in scenario.users])
    return cx, cy, np.sqrt(d_limit**2 - z * z)


def _objective_many(scenario: Scenario, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    xs = np.array([u.x for u in scenario.users])
    ys = np.array([u.y for u in scenario.users])
    es = np.array([u.energy for u in scenario.users])
    z2 = scenario.bounds.z_min ** 2
    out = np.empty(len(px))
    for lo in range(0, len(px), 4096):
        sx, sy = px[lo:lo + 4096, None], py[lo:lo + 4096, None]
        out[lo:lo + 4096] = np.sum(es / ((sx - xs) ** 2 + (sy - ys) ** 2 + z2), axis=1)
    return out


def grid_reference(scenario: Scenario, disks=None, spacing: float = 0.5) -> Reference:
    """Best point of a 0.5 m grid over the box (restricted to the disks when
    given), refined three times by a factor of 25 around the incumbent."""
    b = scenario.bounds
    window = (b.x_min, b.x_max, b.y_min, b.y_max)
    best = None
    step = spacing
    for _level in range(4):
        nx = int(round((window[1] - window[0]) / step)) + 1
        ny = int(round((window[3] - window[2]) / step)) + 1
        gx, gy = np.meshgrid(
            np.linspace(window[0], window[1], nx), np.linspace(window[2], window[3], ny),
            indexing="ij",
        )
        px, py = gx.ravel(), gy.ravel()
        if disks is not None:
            cx, cy, r = disks
            keep = np.all((px[:, None] - cx) ** 2 + (py[:, None] - cy) ** 2 <= r**2, axis=1)
            px, py = px[keep], py[keep]
        if len(px) == 0:
            break
        vals = _objective_many(scenario, px, py)
        i = int(np.argmax(vals))
        if best is None or vals[i] >= best.value:
            best = Reference((float(px[i]), float(py[i])), float(vals[i]))
        x, y = best.point
        window = (
            max(b.x_min, x - 2 * step), min(b.x_max, x + 2 * step),
            max(b.y_min, y - 2 * step), min(b.y_max, y + 2 * step),
        )
        step /= 25.0
    if best is None:
        raise ValueError("reference grid found no feasible point")
    return best


def newton_box_reference(scenario: Scenario) -> Reference:
    """Damped Newton ascent from the box centre, clipped to the box. Valid for
    instances whose concavity certificate holds, where it finds the optimum."""
    users, z, b = scenario.users, scenario.bounds.z_min, scenario.bounds
    p = (0.5 * (b.x_min + b.x_max), 0.5 * (b.y_min + b.y_max))
    f = value(users, z, p)
    for _ in range(100):
        gx, gy = gradient(users, z, p)
        (hxx, hxy), (_, hyy) = hessian(users, z, p)
        det = hxx * hyy - hxy * hxy
        if not (hxx < 0 and det > 0):
            raise ValueError("Newton reference needs a negative-definite Hessian")
        dx = -(hyy * gx - hxy * gy) / det
        dy = -(hxx * gy - hxy * gx) / det
        t = 1.0
        while True:
            q = (min(max(p[0] + t * dx, b.x_min), b.x_max), min(max(p[1] + t * dy, b.y_min), b.y_max))
            fq = value(users, z, q)
            if fq >= f or t < 1e-12:
                break
            t *= 0.5
        moved = math.hypot(q[0] - p[0], q[1] - p[1])
        if fq < f:
            break
        p, f = q, fq
        if moved < 1e-10:
            break
    return Reference(p, f)


def _crc(data: str | bytes) -> int:
    return zlib.crc32(data.encode() if isinstance(data, str) else data)


class Answers:
    """References, feasible regions and validity checks for one workload."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.regions: dict[str, region_mod.FeasibleRegion] = {}
        self.references: dict[tuple[str, str], Reference] = {}
        self.validity: list[Validity] = []
        for cmd in wl.commands:
            if cmd.mode is not None and cmd.scenario is not None:
                self.reference(cmd.scenario, cmd.mode)
        for name in wl.binding:
            self._check_binding(name)
        for name in wl.empty:
            self._check_empty(name)

    def region(self, name: str) -> region_mod.FeasibleRegion:
        if name not in self.regions:
            self.regions[name] = region_mod.build(self.wl.scenarios[name])
        return self.regions[name]

    def reference(self, name: str, mode: str) -> Reference:
        key = (name, mode)
        if key not in self.references:
            scenario = self.wl.scenarios[name]
            if mode == "region":
                self.references[key] = grid_reference(scenario, range_disks(scenario))
            elif name in self.wl.binding:
                self.references[key] = grid_reference(scenario)
            else:
                self.references[key] = newton_box_reference(scenario)
        return self.references[key]

    def _record(self, instance: str, check: str, ok: bool, detail: str) -> None:
        self.validity.append(Validity(instance, check, bool(ok), detail))

    def _check_binding(self, name: str) -> None:
        scenario = self.wl.scenarios[name]
        b = scenario.bounds
        cx, cy, r = range_disks(scenario)
        corners = [(b.x_min, b.y_min), (b.x_min, b.y_max), (b.x_max, b.y_min), (b.x_max, b.y_max)]
        cut = sum(
            1 for x, y in corners if np.any((x - cx) ** 2 + (y - cy) ** 2 > r**2)
        )
        self._record(name, "region differs from box", cut > 0,
                     f"{cut} of 4 box corners lie outside some disk")
        ref = self.reference(name, "region")
        slack = r - np.hypot(ref.point[0] - cx, ref.point[1] - cy)
        j = int(np.argmin(slack))
        self._record(name, "disk active at reference optimum", slack[j] <= ACTIVE_TOL,
                     f"user {j} rim is {slack[j]:.3g} m from ({ref.point[0]:.4f}, {ref.point[1]:.4f})")
        box = self.reference(name, "box")
        apart = math.hypot(box.point[0] - ref.point[0], box.point[1] - ref.point[1])
        self._record(name, "region answer differs from box answer",
                     apart > DISTINCT_M and ref.value < box.value,
                     f"region {ref.value:.6f} at {apart:.2f} m from box {box.value:.6f}")

    def _check_empty(self, name: str) -> None:
        scenario = self.wl.scenarios[name]
        disks = range_disks(scenario)
        self._record(name, "every range reaches the altitude", disks is not None,
                     "empty by geometry, not by range" if disks else "some range is below z_min")
        if disks is None:
            return
        cx, cy, r = disks
        pairs_overlap = all(
            math.hypot(cx[i] - cx[j], cy[i] - cy[j]) < r[i] + r[j]
            for i, j in itertools.combinations(range(len(r)), 2)
        )
        self._record(name, "disks overlap pairwise", pairs_overlap, f"{len(r)} disks")
        feas = self.region(name)
        geometric = feas.empty and "disk intersection is empty" in (feas.empty_reason or "")
        self._record(name, "region empty by geometry", geometric, feas.empty_reason or "non-empty")

    # -- per-command answers -------------------------------------------------

    def check(self, cmd: Command, rc: int | None, stdout: str) -> Outcome:
        if rc != cmd.expect_exit:
            return Outcome(False, f"exit {rc}, expected {cmd.expect_exit}", (rc,))
        if cmd.expect_text is not None and cmd.expect_text not in stdout:
            return Outcome(False, f"output lacks {cmd.expect_text!r}", (rc, _crc(stdout)))
        if cmd.kind == "reproduce" and ("FAIL " in stdout or "PASS " not in stdout):
            return Outcome(False, "reproduction verdict is not PASS", (rc, _crc(stdout)))
        if cmd.kind.startswith("solve"):
            return self._check_solve(cmd, rc)
        if cmd.kind == "grid":
            return self._check_grid(cmd, rc, stdout)
        if cmd.kind == "surface":
            return self._check_surface(cmd, rc)
        return Outcome(True, None, (rc, _crc(stdout)))

    def _feasible(self, name: str, mode: str, point: tuple[float, float]) -> bool:
        if mode == "region":
            return region_mod.contains(self.region(name), point, tol=FEASIBILITY_TOL)
        b = self.wl.scenarios[name].bounds
        return (b.x_min - FEASIBILITY_TOL <= point[0] <= b.x_max + FEASIBILITY_TOL
                and b.y_min - FEASIBILITY_TOL <= point[1] <= b.y_max + FEASIBILITY_TOL)

    def _check_solve(self, cmd: Command, rc: int) -> Outcome:
        try:
            report = json.loads(Path(cmd.output).read_text())
        except (OSError, ValueError) as exc:
            return Outcome(False, f"report unreadable: {exc}", (rc,))
        if report.get("placement") is None:
            return Outcome(False, f"no placement: {report.get('infeasible')}", (rc,))
        x, y, _z = report["placement"]
        objective = report["objective"]
        fingerprint = (rc, objective, x, y, report["iterations"], report["converged"])
        if not self._feasible(cmd.scenario, cmd.mode, (x, y)):
            return Outcome(False, f"placement ({x}, {y}) is outside the {cmd.mode}", fingerprint)
        scenario = self.wl.scenarios[cmd.scenario]
        exact = value(scenario.users, scenario.bounds.z_min, (x, y))
        if not math.isclose(objective, exact, rel_tol=OBJECTIVE_RTOL):
            return Outcome(False, f"objective {objective!r} != value(placement) {exact!r}", fingerprint)
        ref = self.reference(cmd.scenario, cmd.mode)
        gap = max(0.0, (ref.value - objective) / ref.value)
        return Outcome(True, None, fingerprint, gap)

    def _check_grid(self, cmd: Command, rc: int, stdout: str) -> Outcome:
        match = _GRID_LINE.search(stdout)
        if match is None:
            return Outcome(False, "grid output not recognised", (rc, _crc(stdout)))
        x, y, reported = float(match[1]), float(match[2]), float(match[3])
        fingerprint = (rc, x, y, reported, int(match[4]))
        if not self._feasible(cmd.scenario, cmd.mode, (x, y)):
            return Outcome(False, f"grid node ({x}, {y}) is outside the {cmd.mode}", fingerprint)
        scenario = self.wl.scenarios[cmd.scenario]
        exact = value(scenario.users, scenario.bounds.z_min, (x, y))
        if abs(reported - exact) > 1e-6 * max(1.0, abs(exact)):  # printed with 6 decimals
            return Outcome(False, f"grid value {reported} != value(node) {exact!r}", fingerprint)
        ref = self.reference(cmd.scenario, cmd.mode)
        if exact > ref.value * (1.0 + 1e-7):
            return Outcome(False, f"grid node beats the reference optimum {ref.value!r}", fingerprint)
        return Outcome(True, None, fingerprint)

    def _check_surface(self, cmd: Command, rc: int) -> Outcome:
        path = Path(cmd.output)
        try:
            text = path.read_text()
        except OSError as exc:
            return Outcome(False, f"surface file unreadable: {exc}", (rc,))
        fingerprint = (rc, len(text), _crc(text))
        scenario = self.wl.scenarios[cmd.scenario]
        spacing = float(cmd.argv[cmd.argv.index("--spacing") + 1])
        grid = GridSpec(spacing=spacing, bounds=scenario.bounds)
        nodes = len(grid.xs()) * len(grid.ys())
        if path.suffix == ".svg":
            ok = text.startswith("<svg") and text.rstrip().endswith("</svg>")
            cells = text.count("<rect ") - 1  # minus the background
            if not ok or cells != nodes:
                return Outcome(False, f"svg has {cells} cells, expected {nodes}", fingerprint)
            return Outcome(True, None, fingerprint)
        lines = text.splitlines()
        if len(lines) != nodes + 1 or lines[0] != "x,y,value":
            return Outcome(False, f"csv has {len(lines) - 1} rows, expected {nodes}", fingerprint)
        x, y, v = (float(t) for t in lines[1].split(","))
        exact = value(scenario.users, scenario.bounds.z_min, (x, y))
        if not math.isclose(v, exact, rel_tol=OBJECTIVE_RTOL):
            return Outcome(False, f"csv value {v!r} at ({x}, {y}) != {exact!r}", fingerprint)
        return Outcome(True, None, fingerprint)

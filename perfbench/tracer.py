"""Span tracer for the traced run, installed from the benchmark's side only.

Each hook replaces a layer function at the module attribute its caller looks
up, so ``uavlift.solver.value`` is wrapped rather than
``uavlift.objective.value``, because the solver imported the name. Spans
(name, start, end, parent span, command id) stay in memory and are written
out at the end of the run. A hook whose target is gone is recorded as
missing; the figures it feeds are left out and the run goes on.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median

LAYERS = ("scenario", "channel", "region", "objective", "solver", "oracle", "surface", "cli")

# (module, attribute, span name); the layer is the span name's first part.
HOOKS = (
    ("uavlift.cli", "main", "cli.main"),
    ("uavlift.cli", "load", "scenario.load"),
    ("uavlift.cli", "generate_uniform", "scenario.generate"),
    ("uavlift.cli", "generate_clustered", "scenario.generate"),
    ("uavlift.solver", "system_constant", "channel.system_constant"),
    ("uavlift.region", "system_constant", "channel.system_constant"),
    ("uavlift.cli", "build_region", "region.build"),
    ("uavlift.region", "build", "region.build"),
    ("uavlift.region", "check_empty", "region.check_empty"),
    ("uavlift.region", "project", "region.project"),
    ("uavlift.solver", "value", "objective.value"),
    ("uavlift.solver", "gradient", "objective.gradient"),
    ("uavlift.solver", "concavity_certificate", "objective.concavity_certificate"),
    ("uavlift.cli", "concavity_certificate", "objective.concavity_certificate"),
    ("uavlift.cli", "nsd_scan", "objective.nsd_scan"),
    ("uavlift.objective", "user_arrays", "objective.user_arrays"),
    ("uavlift.oracle", "user_arrays", "objective.user_arrays"),
    ("uavlift.surface", "user_arrays", "objective.user_arrays"),
    ("uavlift.solver", "solve", "solver.solve"),
    ("uavlift.cli", "grid_search", "oracle.grid_search"),
    ("uavlift.surface", "surface_grid", "surface.surface_grid"),
    ("uavlift.surface", "write_surface_csv", "surface.write"),
    ("uavlift.surface", "write_surface_svg", "surface.write"),
)
# Read, not wrapped: decides whether a projection's input was already feasible.
CONTAINS = ("uavlift.region", "contains", "region.contains")


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Records spans while installed; ``uninstall`` restores every target.

    Span times run on `clock`; the benchmark passes the calibration clock,
    which leaves out kernel samples. They also leave out the time the tracer
    spends reading counters off a call, so that bookkeeping lands in no
    layer's self time. It still shows in the measured round time, and so in
    ``trace.overhead_ratio``.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.command: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._paused = 0.0
        self._contains = None
        self._base_clock = clock

    def _clock(self) -> float:
        return self._base_clock() - self._paused

    def _note(self, name: str, args: tuple, result) -> None:
        """Counters read off a call's arguments and result."""
        c = self.counters
        if name == "scenario.load":
            c["scenario.bytes_read"] += _size(args[0])
        elif name == "region.project":
            if self._contains is not None:
                c["region.project_noop"] += bool(self._contains(args[0], args[1], tol=0.0))
        elif name == "solver.solve":
            if result.placement is not None:
                c["solver.iterations"] += result.iterations
                c["solver.feasible_solves"] += 1
                c["solver.converged"] += bool(result.converged)
        elif name == "oracle.grid_search":
            scenario, grid = args[0], args[1]
            c["oracle.nodes_evaluated"] += result.evaluated
            c["oracle.nodes_total"] += len(grid.xs()) * len(grid.ys())
            c["oracle.node_users"] += result.evaluated * len(scenario.users)
        elif name == "surface.surface_grid":
            users, xs, ys = args[0], result[0], result[1]
            c["surface.node_users"] += len(xs) * len(ys) * len(users)
        elif name == "surface.write":
            c["surface.bytes_written"] += _size(args[0])

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.command is None:  # outside a benchmarked command, e.g. an answer check
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.command)
            paused = self._clock()
            self._note(name, args, result)
            self._paused += self._clock() - paused
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name)
            setattr(module, attr, wrapper)
            self._undo.append((module, attr, original))
        module_name, attr, name = CONTAINS
        self._contains = getattr(importlib.import_module(module_name), attr, None)
        if self._contains is None:
            self.missing.append(name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                name, start, end, parent, command = span
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "command": command,
                }) + "\n")


def self_times(spans, commands: set[int]) -> dict[str, float]:
    """Per-layer self time in seconds over the given command ids: each span's
    duration minus the time its direct children cover."""
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, command in spans:
        if parent is not None and command in commands:
            child_time[parent] += end - start
    totals = {layer: 0.0 for layer in LAYERS}
    for sid, (name, start, end, parent, command) in enumerate(spans):
        if command in commands:
            layer = name.split(".", 1)[0]
            totals[layer] += (end - start) - child_time.get(sid, 0.0)
    return totals


@dataclass
class RoundSpans:
    """One traced round's span totals, the input of every figure."""

    ms: dict[str, float]        # total span time per span name
    calls: dict[str, int]
    longest: dict[str, float]   # slowest single span per span name, ms
    self_s: dict[str, float]    # self time per layer
    counters: dict[str, float]
    round_s: float              # the round's measured command time


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def _share(layer: str):
    return lambda r: r.self_s[layer] / r.round_s


# Every per-round figure: name -> (unit, span names it is read from, value).
# A figure is left out when one of its spans was not hooked.
FIGURES = {
    "scenario.load_ms": ("ms", ("scenario.load",), lambda r: r.ms["scenario.load"]),
    "scenario.load_calls": ("count", ("scenario.load",), lambda r: r.calls["scenario.load"]),
    "scenario.bytes_read": ("bytes", ("scenario.load",), lambda r: r.counters["scenario.bytes_read"]),
    "channel.system_constant_ms": (
        "ms", ("channel.system_constant",), lambda r: r.ms["channel.system_constant"]),
    "channel.system_constant_calls": (
        "count", ("channel.system_constant",), lambda r: r.calls["channel.system_constant"]),
    "region.build_ms": ("ms", ("region.build",), lambda r: r.ms["region.build"]),
    "region.build_calls": ("count", ("region.build",), lambda r: r.calls["region.build"]),
    "region.check_empty_ms": ("ms", ("region.check_empty",), lambda r: r.ms["region.check_empty"]),
    "region.check_empty_calls": (
        "count", ("region.check_empty",), lambda r: r.calls["region.check_empty"]),
    "region.project_ms": ("ms", ("region.project",), lambda r: r.ms["region.project"]),
    "region.project_calls": ("count", ("region.project",), lambda r: r.calls["region.project"]),
    "region.project_ms.max": ("ms", ("region.project",), lambda r: r.longest["region.project"]),
    "region.project_noop_ratio": (
        "ratio", ("region.project", "region.contains"),
        lambda r: _per(r.counters["region.project_noop"], r.calls["region.project"])),
    "objective.value_ms": ("ms", ("objective.value",), lambda r: r.ms["objective.value"]),
    "objective.value_calls": ("count", ("objective.value",), lambda r: r.calls["objective.value"]),
    "objective.gradient_ms": ("ms", ("objective.gradient",), lambda r: r.ms["objective.gradient"]),
    "objective.gradient_calls": (
        "count", ("objective.gradient",), lambda r: r.calls["objective.gradient"]),
    "objective.user_arrays_ms": (
        "ms", ("objective.user_arrays",), lambda r: r.ms["objective.user_arrays"]),
    "objective.nsd_scan_ms": ("ms", ("objective.nsd_scan",), lambda r: r.ms["objective.nsd_scan"]),
    "solver.solve_ms": ("ms", ("solver.solve",), lambda r: r.ms["solver.solve"]),
    "solver.self_ms": ("ms", ("solver.solve",), lambda r: r.self_s["solver"] * 1e3),
    "solver.iterations": ("count", ("solver.solve",), lambda r: r.counters["solver.iterations"]),
    # One value call per iteration is the floor; the excess is line-search halvings.
    "solver.value_calls_per_iter": (
        "ratio", ("solver.solve", "objective.value"),
        lambda r: _per(r.calls["objective.value"], r.counters["solver.iterations"])),
    "solver.converged_ratio": (
        "ratio", ("solver.solve",),
        lambda r: _per(r.counters["solver.converged"], r.counters["solver.feasible_solves"])),
    "oracle.grid_search_ms": ("ms", ("oracle.grid_search",), lambda r: r.ms["oracle.grid_search"]),
    "oracle.nodes_evaluated": (
        "count", ("oracle.grid_search",), lambda r: r.counters["oracle.nodes_evaluated"]),
    "oracle.node_users_per_s": (
        "1/s", ("oracle.grid_search",),
        lambda r: _per(r.counters["oracle.node_users"], r.ms["oracle.grid_search"] / 1e3)),
    "oracle.feasible_node_ratio": (
        "ratio", ("oracle.grid_search",),
        lambda r: _per(r.counters["oracle.nodes_evaluated"], r.counters["oracle.nodes_total"])),
    "surface.surface_grid_ms": (
        "ms", ("surface.surface_grid",), lambda r: r.ms["surface.surface_grid"]),
    "surface.node_users_per_s": (
        "1/s", ("surface.surface_grid",),
        lambda r: _per(r.counters["surface.node_users"], r.ms["surface.surface_grid"] / 1e3)),
    "surface.write_ms": ("ms", ("surface.write",), lambda r: r.ms["surface.write"]),
    "surface.bytes_written": (
        "bytes", ("surface.write",), lambda r: r.counters["surface.bytes_written"]),
    "cli.self_ms": ("ms", ("cli.main",), lambda r: r.self_s["cli"] * 1e3),
    "cli.commands": ("count", ("cli.main",), lambda r: r.calls["cli.main"]),
    # Self time over the measured round time. The shares sum to a little
    # under 1; the rest is time outside every span, mostly the hooks' own.
    **{f"{layer}.self_share": ("ratio", ("cli.main",), _share(layer)) for layer in LAYERS},
}


def round_figures(
    tracer: Tracer, commands: set[int], counters: dict[str, float], round_s: float
) -> dict[str, float]:
    """Per-layer figures for one traced round whose commands took `round_s`."""
    ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    longest: dict[str, float] = defaultdict(float)
    for name, start, end, parent, command in tracer.spans:
        if command in commands:
            ms[name] += (end - start) * 1e3
            calls[name] += 1
            longest[name] = max(longest[name], (end - start) * 1e3)
    r = RoundSpans(ms, calls, longest, self_times(tracer.spans, commands),
                   defaultdict(float, counters), round_s)
    return {
        name: float(value(r))
        for name, (_unit, sources, value) in FIGURES.items()
        if not set(sources) & set(tracer.missing)
    }


def median_figures(per_round: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced rounds of each figure."""
    return {key: median(r[key] for r in per_round) for key in per_round[0]}

"""Gradient projection ascent over the feasible region or the bare box.

Each step moves along the analytic gradient and projects back onto the
feasible convex set; iteration stops when the iterate moves less than the
step tolerance. Because the printed parameter set of the bundled
reproduction cases makes the full region empty at 650 m, `box` mode runs
the same ascent with only the rectangle constraints; an empty region in
`region` mode is reported, never raised.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

from . import region as region_mod
from .channel import SPEED_OF_LIGHT, system_constant
from .errors import NumericalError, ValidationError
from .objective import ConcavityCertificate, concavity_certificate, gradient, user_arrays, value
from .rng import SplitMix64
from .scenario import Scenario

_STEP_FLOOR = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the ascent.

    step_size None means auto: 0.1 / |gradient at the start point|, so the
    first step moves 0.1 m regardless of problem scale. Backtracking then
    halves the step whenever it would not increase the objective, down to a
    floor of 1e-12. `init` is "centroid", "random", or an explicit (x, y).
    """

    step_size: float | None = None
    tolerance: float = 1e-3
    max_iters: int = 100
    mode: str = "region"
    init: str | tuple[float, float] = "centroid"
    line_search: bool = True
    init_seed: int = 0

    def __post_init__(self):
        if self.step_size is not None and not 0 < self.step_size < math.inf:
            raise ValidationError(f"step_size must be positive and finite, got {self.step_size}")
        if not self.tolerance > 0:
            raise ValidationError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.mode not in ("region", "box"):
            raise ValidationError(f"mode must be 'region' or 'box', got {self.mode!r}")
        if isinstance(self.init, str):
            if self.init not in ("centroid", "random"):
                raise ValidationError(f"init must be 'centroid', 'random' or (x, y), got {self.init!r}")
        else:
            init = (float(self.init[0]), float(self.init[1]))
            if not all(map(math.isfinite, init)):
                raise ValidationError(f"init coordinates must be finite, got {init}")
            object.__setattr__(self, "init", init)


@dataclass(frozen=True)
class SolveReport:
    """Everything a run produced; placement fields are None when infeasible."""

    placement: tuple[float, float, float] | None
    objective: float | None
    lifetime_seconds: float | None
    iterations: int
    converged: bool
    trajectory: tuple[tuple[float, float, float], ...]  # (x, y, objective)
    certificate: ConcavityCertificate
    k: float
    infeasible: str | None = None
    step_size_final: float | None = None


def _initial_point(scenario: Scenario, config: SolverConfig) -> tuple[float, float]:
    b = scenario.bounds
    if config.init == "centroid":
        return (0.5 * (b.x_min + b.x_max), 0.5 * (b.y_min + b.y_max))
    if config.init == "random":
        gen = SplitMix64(config.init_seed)
        return (gen.uniform(b.x_min, b.x_max), gen.uniform(b.y_min, b.y_max))
    return config.init


def solve(
    scenario: Scenario,
    config: SolverConfig | None = None,
    c: float = SPEED_OF_LIGHT,
) -> SolveReport:
    """Run projected gradient ascent and report the trajectory.

    With line search enabled the objective is non-decreasing along the
    trajectory; without it the fixed step replays the plain update rule.
    """
    config = config or SolverConfig()
    k = system_constant(scenario.rf, len(scenario.users), c)
    cert = concavity_certificate(scenario.bounds)
    if not cert.holds:
        warnings.warn(
            f"objective may be non-concave: z_min = {cert.z_min:g} m does not exceed "
            f"sqrt(3)*d_max = {cert.threshold:.2f} m; the ascent finds a local optimum",
            RuntimeWarning,
            stacklevel=2,
        )

    if config.mode == "region":
        feas = region_mod.build(scenario, c)
        if feas.empty:
            return SolveReport(
                placement=None,
                objective=None,
                lifetime_seconds=None,
                iterations=0,
                converged=False,
                trajectory=(),
                certificate=cert,
                k=k.k,
                infeasible=feas.empty_reason,
            )

        def project(p):
            return region_mod.project(feas, p)

    else:
        b = scenario.bounds

        def project(p):
            return (
                min(max(p[0], b.x_min), b.x_max),
                min(max(p[1], b.y_min), b.y_max),
            )

    users = user_arrays(scenario.users)  # built once for the whole ascent
    z = scenario.bounds.z_min
    p = project(_initial_point(scenario, config))
    f_p = value(users, z, p)
    trajectory = [(p[0], p[1], f_p)]

    g = gradient(users, z, p)
    grad_norm = math.hypot(*g)
    base_step = config.step_size if config.step_size is not None else (
        0.1 / grad_norm if grad_norm > 0 else 1.0
    )

    converged = False
    iterations = 0
    step = base_step
    for _n in range(config.max_iters):
        if not (math.isfinite(g[0]) and math.isfinite(g[1])):
            raise NumericalError(f"gradient is not finite at {p}")
        step = base_step
        trial = project((p[0] + step * g[0], p[1] + step * g[1]))
        f_trial = value(users, z, trial)
        if config.line_search:
            while f_trial < f_p and step > _STEP_FLOOR:
                step *= 0.5
                trial = project((p[0] + step * g[0], p[1] + step * g[1]))
                f_trial = value(users, z, trial)
        movement = math.hypot(trial[0] - p[0], trial[1] - p[1])
        p, f_p = trial, f_trial
        iterations += 1
        trajectory.append((p[0], p[1], f_p))
        if movement < config.tolerance:
            converged = True
            break
        g = gradient(users, z, p)

    return SolveReport(
        placement=(p[0], p[1], z),
        objective=f_p,
        lifetime_seconds=f_p / k.k,
        iterations=iterations,
        converged=converged,
        trajectory=tuple(trajectory),
        certificate=cert,
        k=k.k,
        step_size_final=step,
    )


# ---------------------------------------------------------------------------
# Report serialization: same JSON family as scenario files, plus a CSV
# export of the trajectory for convergence plots.
# ---------------------------------------------------------------------------


def report_to_dict(report: SolveReport) -> dict:
    return {
        "placement": list(report.placement) if report.placement else None,
        "objective": report.objective,
        "lifetime_seconds": report.lifetime_seconds,
        "iterations": report.iterations,
        "converged": report.converged,
        "infeasible": report.infeasible,
        "k": report.k,
        "certificate": {
            "z_min": report.certificate.z_min,
            "d_max": report.certificate.d_max,
            "threshold": report.certificate.threshold,
            "holds": report.certificate.holds,
        },
        "trajectory": [list(row) for row in report.trajectory],
    }


def save_report(report: SolveReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report_to_dict(report), indent=2) + "\n")


def write_trajectory_csv(report: SolveReport, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "x", "y", "objective"])
        for i, (x, y, f) in enumerate(report.trajectory):
            writer.writerow([i, repr(x), repr(y), repr(f)])

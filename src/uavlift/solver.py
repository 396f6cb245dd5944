"""Gradient projection ascent over the feasible set of a mode.

Each step moves along the analytic gradient and projects back onto the
feasible convex set, `region.feasible_set`: the box cut by the range disks,
or in `box` mode the box alone. The step starts at 1/L, where L = -lo from
`objective.curvature_bounds` bounds the curvature of the objective
everywhere at altitude z, concave or not. A trial step t is accepted once
the descent lemma holds for it, f(p+) >= f(p) + g.(p+ - p) - |p+ - p|^2 / (2t),
and halved otherwise; every accepted step doubles the next one (the
backtracking rule of Beck & Teboulle, 2009, and Nesterov, 2013), except
that a trial of at most 1/L, for which the lemma holds anyway, is accepted
untested. This is the only step rule; it has no absolute constant, so
scaling every energy by a power of two changes no step t*g. A step whose
trial would reach more than TRIAL_DIAGONALS box diagonals D from p is cut
to reach that far, the one far point the ascent makes, so every trial lies
within `region.REACH`. Each user adds at most 2E D/z^4 to |g|, so
|g| <= L D and a cut step is still at least 2^10/L. Halving stops at a
step of at most 1/L, so no accepted step falls below 1/(2L). The ascent
stops when a step moves the iterate less than the tolerance eps, a
stationarity test on the projected gradient: it bounds
|P(p + t*g) - p| / t by eps/t <= 2L*eps. That threshold grows as z^-4, so
at a low altitude the ascent can stop after one short step far from the
optimum.

The same bounds over the box, `objective.box_curvature_bounds`, decide
concavity once. Where mu = -hi > 0 the objective is strongly concave on
the box with modulus mu, and the report carries a proven bound on the
optimality gap; elsewhere the solver warns, and the report gives the norm
of the projected gradient: the point is stationary, not proven optimal.
The paper's condition z > sqrt(3)*d_max, the report's `certificate`,
implies mu > 0, which also holds lower down.

Because the printed parameter set of the bundled reproduction cases makes
the full region empty at 650 m, those cases run in `box` mode; an empty
region in `region` mode is reported, never raised. A region is empty when
no point meets the box and every disk up to rounding (`region.check_empty`),
so the ascent projects onto the feasible set itself, and every iterate
meets every constraint up to rounding.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

from . import region as region_mod
from .channel import system_constant
from .errors import ValidationError
from .objective import (
    ConcavityCertificate,
    box_curvature_bounds,
    concavity_certificate,
    gradient,
    user_arrays,
    value,
)
from .scenario import Scenario, check_coordinate

# A trial p + t*g reaches at most this many box diagonals from p.
TRIAL_DIAGONALS = 2**10


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the ascent; its steps come from the problem.

    tolerance is the movement in metres below which a step stops the
    ascent. `init` is "centroid", the centre of the box, or an explicit
    (x, y) within the input domain's COORD_LIMIT (see `scenario`).
    """

    tolerance: float = 1e-3
    max_iters: int = 100
    mode: str = "region"
    init: str | tuple[float, float] = "centroid"

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValidationError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        region_mod.check_mode(self.mode)
        if isinstance(self.init, str):
            if self.init != "centroid":
                raise ValidationError(f"init must be 'centroid' or (x, y), got {self.init!r}")
        else:
            init = tuple(check_coordinate(float(v), f"init.{axis}") for v, axis in zip(self.init, "xy"))
            object.__setattr__(self, "init", init)


@dataclass(frozen=True)
class SolveReport:
    """Everything a run produced; placement fields are None when infeasible.

    gap_bound is a proven upper bound on f* - objective in J/m^2, set when
    the per-user box bound proves the objective concave (mu > 0).
    projected_gradient, set when it does not, is L * |P(p + g/L) - p| in
    J/m^3 at the placement p: near zero at a stationary point, which is all
    a run without that proof can claim. `certificate` is the paper's
    condition, which implies the proof but is not needed for it.
    """

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
    gap_bound: float | None = None
    projected_gradient: float | None = None


def _initial_point(scenario: Scenario, config: SolverConfig) -> tuple[float, float]:
    b = scenario.bounds
    if config.init == "centroid":
        return (0.5 * (b.x_min + b.x_max), 0.5 * (b.y_min + b.y_max))
    return config.init


def solve(scenario: Scenario, config: SolverConfig | None = None) -> SolveReport:
    """Run projected gradient ascent and report the trajectory.

    The objective is non-decreasing along the trajectory. Within the input
    domain (see `scenario`) L and 1/L are finite and positive; a system
    constant so small that the lifetime overflows is a ValidationError.
    """
    config = config or SolverConfig()
    users = user_arrays(scenario.users)  # built once for the whole ascent
    b = scenario.bounds
    z = b.z_min
    cert = concavity_certificate(b)
    lo, hi = box_curvature_bounds(users, z, b)
    lipschitz, mu = -lo, -hi
    safe_step = 1.0 / lipschitz  # the lemma holds up to 1/L
    k = system_constant(scenario.rf, len(scenario.users))
    if not mu > 0:
        warnings.warn(
            f"objective may be non-concave: z_min = {cert.z_min:g} m does not exceed "
            f"sqrt(3)*d_max = {cert.threshold:.2f} m; the ascent finds a local optimum",
            RuntimeWarning,
            stacklevel=2,
        )

    feas = region_mod.feasible_set(scenario, config.mode)
    if feas.empty:
        return SolveReport(
            placement=None,
            objective=None,
            lifetime_seconds=None,
            iterations=0,
            converged=False,
            trajectory=(),
            certificate=cert,
            k=k,
            infeasible=feas.empty_reason,
        )

    # every point of the box lies within `diameter` of every other
    diameter = math.hypot(b.x_max - b.x_min, b.y_max - b.y_min)
    reach = TRIAL_DIAGONALS * diameter
    p = region_mod.project(feas, _initial_point(scenario, config))
    f_p = value(users, z, p)
    trajectory = [(p[0], p[1], f_p)]
    g = gradient(users, z, p)

    converged = False
    iterations = 0
    step = safe_step
    for _n in range(config.max_iters):
        norm = math.hypot(*g)
        if step * norm > reach:
            step = reach / norm
        while True:
            trial = region_mod.project(feas, (p[0] + step * g[0], p[1] + step * g[1]))
            f_trial = value(users, z, trial)
            dx, dy = trial[0] - p[0], trial[1] - p[1]
            if step <= safe_step or (
                f_trial >= f_p + g[0] * dx + g[1] * dy - (dx * dx + dy * dy) / (2.0 * step)
            ):
                break
            step *= 0.5
        p, f_p = trial, f_trial
        iterations += 1
        trajectory.append((p[0], p[1], f_p))
        g = gradient(users, z, p)
        if math.hypot(dx, dy) < config.tolerance:
            converged = True
            break
        step = min(2.0 * step, sys.float_info.max)  # finite, so a step * norm is never NaN

    gap_bound = projected_gradient = None
    if mu > 0:
        # f(p + s) <= f(p) + g.s - mu/2 |s|^2 on the box, so over the
        # feasible set f* - f(p) is at most that model's maximum, taken at
        # s = P(p + g/mu) - p. Where g/mu reaches beyond `reach`, s is
        # P(p + t*g) - p for t = reach/|g| < 1/mu instead; the projection's
        # optimality condition then bounds the maximum by the model at s plus
        # (1/t - mu) |s| diameter.
        norm = math.hypot(*g)
        if norm <= mu * reach:
            y, excess = region_mod.project(feas, (p[0] + g[0] / mu, p[1] + g[1] / mu)), 0.0
        else:
            t = reach / norm
            y = region_mod.project(feas, (p[0] + t * g[0], p[1] + t * g[1]))
            excess = (norm / reach - mu) * math.hypot(y[0] - p[0], y[1] - p[1]) * diameter
        sx, sy = y[0] - p[0], y[1] - p[1]
        gap_bound = max(0.0, g[0] * sx + g[1] * sy - 0.5 * mu * (sx * sx + sy * sy) + excess)
    else:
        # |g| <= L diameter, so p + g/L lies within `region.REACH`
        y = region_mod.project(feas, (p[0] + g[0] / lipschitz, p[1] + g[1] / lipschitz))
        projected_gradient = lipschitz * math.hypot(y[0] - p[0], y[1] - p[1])

    lifetime_seconds = f_p / k
    if not math.isfinite(lifetime_seconds):
        raise ValidationError(f"lifetime overflows: {f_p:g} J/m^2 over the system constant K = {k:g} W/m^2")
    return SolveReport(
        placement=(p[0], p[1], z),
        objective=f_p,
        lifetime_seconds=lifetime_seconds,
        iterations=iterations,
        converged=converged,
        trajectory=tuple(trajectory),
        certificate=cert,
        k=k,
        step_size_final=step,
        gap_bound=gap_bound,
        projected_gradient=projected_gradient,
    )


# ---------------------------------------------------------------------------
# Report serialization: same JSON family as scenario files; the trajectory
# is the report's list of [x, y, objective] rows.
# ---------------------------------------------------------------------------


def report_to_dict(report: SolveReport) -> dict:
    return {
        "placement": list(report.placement) if report.placement else None,
        "objective": report.objective,
        "lifetime_seconds": report.lifetime_seconds,
        "iterations": report.iterations,
        "converged": report.converged,
        "gap_bound": report.gap_bound,
        "projected_gradient": report.projected_gradient,
        "infeasible": report.infeasible,
        "k": report.k,
        "certificate": asdict(report.certificate),
        "trajectory": [list(row) for row in report.trajectory],
    }


def save_report(report: SolveReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report_to_dict(report), indent=2) + "\n")

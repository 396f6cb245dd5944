"""Command-line front end.

Subcommands: generate, check, solve, grid, surface, reproduce. Exit codes
are 0 on success, 2 for usage or input errors, 3 when the feasible region
is empty, 4 on numerical failure. Every command is deterministic given its
flags; all randomness comes from explicit seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import warnings

from . import cases
from . import solver as solver_mod
from . import surface as surface_mod
from .errors import EmptyRegionError, NumericalError, ParseError, ValidationError, format_number
from .objective import NsdScan, concavity_certificate, nsd_scan
from .oracle import GridSpec, grid_search
from .region import MODES, cut_radii, disk_radius
from .region import build as build_region
from .scenario import (
    DEFAULT_RF,
    AreaBounds,
    ClusterSpec,
    RfParams,
    generate_clustered,
    generate_uniform,
    load,
    save,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


def _positive_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0 < v < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return v


def _area(text: str) -> tuple[float, float]:
    try:
        w, h = text.lower().split("x")
        return (float(w), float(h))
    except ValueError:
        raise argparse.ArgumentTypeError(f"area must look like 250x250, got {text!r}")


def _clusters(text: str) -> list[ClusterSpec]:
    fields = dataclasses.fields(ClusterSpec)
    specs = []
    for i, chunk in enumerate(text.split(";")):
        values = chunk.split(",")
        if len(values) != len(fields):
            raise argparse.ArgumentTypeError(
                f"cluster {i} must be {','.join(f.name for f in fields)}, got {chunk!r}"
            )
        try:  # a field's type is its annotation's name: scenario postpones annotations
            specs.append(ClusterSpec(*(int(v) if f.type == "int" else float(v)
                                       for f, v in zip(fields, values))))
        except (ValueError, ValidationError) as exc:
            raise argparse.ArgumentTypeError(f"bad cluster {chunk!r}: {exc}")
    return specs


def _init_spec(text: str):
    if text == "centroid":
        return text
    try:
        x, y = (float(v) for v in text.split(","))
        if math.isfinite(x) and math.isfinite(y):
            return (x, y)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"init must be centroid or finite x,y coordinates, got {text!r}"
    )


@functools.cache  # one parser per process: building it costs about 1 ms
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavlift",
        description="Place a single aerial base station to maximize total uplink lifetime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each flag matches only in full, so a removed flag such as `reproduce
    # --c` is refused, not read as an abbreviation of another (`--case`)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("generate", help="write a scenario file")
    layout = p.add_mutually_exclusive_group(required=True)
    layout.add_argument("--count", type=int, help="number of uniformly placed ground users")
    layout.add_argument("--clusters", type=_clusters,
                        help="x,y,std,count,elow,ehigh[;...] for a non-uniform layout")
    b = cases.BOUNDS
    p.add_argument("--area", type=_area, default=(b.x_max - b.x_min, b.y_max - b.y_min),
                   help="WxH rectangle in meters")
    # None when not given and positive when given, so that --clusters, whose
    # clusters carry their own energy intervals, can refuse them
    low, high = cases.ENERGY
    p.add_argument("--energy-low", type=_positive_float, help=f"with --count only, default {low:g} J")
    p.add_argument("--energy-high", type=_positive_float, help=f"with --count only, default {high:g} J")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--z-min", type=_positive_float, default=b.z_min)
    for f in dataclasses.fields(RfParams):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=_positive_float,
                       default=getattr(DEFAULT_RF, f.name))
    p.add_argument("--out", default="scenario.json")

    p = add_parser("check", help="feasibility and concavity report")
    p.add_argument("scenario")

    p = add_parser("solve", help="gradient projection ascent")
    p.add_argument("scenario")
    config = solver_mod.SolverConfig()
    p.add_argument("--mode", choices=MODES, default=config.mode)
    # each flag's dest is a SolverConfig field
    p.add_argument("--eps", dest="tolerance", metavar="EPS", type=_positive_float,
                   default=config.tolerance, help="movement stop threshold, m")
    p.add_argument("--max-iters", type=int, default=config.max_iters)
    p.add_argument("--init", type=_init_spec, default=config.init)
    p.add_argument("--report", default=None, help="write the full report JSON here")

    p = add_parser("grid", help="best grid node, exact (oracle; evaluates only tiles that can hold it)")
    p.add_argument("scenario")
    p.add_argument("--spacing", type=_positive_float, default=1.0)
    p.add_argument("--mode", choices=MODES, default="box")

    p = add_parser("surface", help="objective surface as CSV or SVG")
    p.add_argument("scenario")
    p.add_argument("--z", type=_positive_float, default=None, help="altitude override, m")
    p.add_argument("--spacing", type=_positive_float, default=5.0)
    p.add_argument("--out", required=True, help="output path ending in .csv or .svg")

    p = add_parser("reproduce",
                   help="rerun a bundled case against its reference numbers, at their c = 3e8 m/s")
    p.add_argument("--case", choices=_CASES, required=True)
    p.add_argument("--seed", type=int, default=cases.SEED)
    return parser


def _cmd_generate(args) -> int:
    width, height = args.area
    bounds = AreaBounds(0.0, width, 0.0, height, args.z_min, args.z_min)
    rf = RfParams(**{f.name: getattr(args, f.name) for f in dataclasses.fields(RfParams)})
    if args.clusters is None:
        energy = (args.energy_low or cases.ENERGY[0], args.energy_high or cases.ENERGY[1])
        scenario = generate_uniform(args.count, bounds, *energy, args.seed, rf=rf)
    elif args.energy_low or args.energy_high:
        raise ValidationError("--energy-low and --energy-high go with --count; each cluster gives its own")
    else:
        scenario = generate_clustered(args.clusters, bounds, args.seed, rf=rf)
    save(scenario, args.out)
    print(f"wrote {args.out}: {len(scenario.users)} users, seed {args.seed}")
    return EXIT_OK


def _column(v: float) -> str:
    """`v` right-aligned in a 12-character column, as `format_number` gives it."""
    return f"{format_number(v, 2):>12}"


def _coordinate(v: float) -> str:
    """`v` as `:g` prints it, or with as many more significant digits as
    reading the text back as a float needs to give `v`."""
    texts = (f"{v:.{digits}g}" for digits in range(6, 18))
    return next(text for text in texts if float(text) == v)


def _cmd_check(args) -> int:
    scenario = load(args.scenario)
    feas = build_region(scenario)
    print(f"{'user':>5} {'d_power(m)':>12} {'d_energy(m)':>12} {'d_limit(m)':>12} {'radius2d(m)':>12}")
    z = scenario.bounds.z_min
    limits = feas.limits
    # each user's disk at z, its radius cut as the region cuts it, also
    # where the region is empty by range and keeps no disks
    xs, ys, _ = scenario.users.arrays
    radii = cut_radii(xs, ys, disk_radius(limits.d_limit, z), scenario.bounds)
    d_power = _column(limits.d_power)
    for i, (d_energy, d_limit, radius) in enumerate(
        zip(limits.d_energy.tolist(), limits.d_limit.tolist(), radii.tolist())
    ):
        radius = _column(radius) if d_limit > z else f"{'-':>12}"
        print(f"{i:>5} {d_power} {_column(d_energy)} {_column(d_limit)} {radius}")
    cert = concavity_certificate(scenario.bounds)
    verdict = "holds" if cert.holds else "fails"
    print(
        f"concavity certificate: z_min {cert.z_min:g} m vs sqrt(3)*d_max "
        f"{cert.threshold:.2f} m (d_max {cert.d_max:.2f} m): {verdict}"
    )
    if feas.empty:
        print(f"region: EMPTY ({feas.empty_reason})")
        return EXIT_INFEASIBLE
    print(f"region: non-empty ({len(feas.table.r)} disks intersected with the box)")
    return EXIT_OK


def _cmd_solve(args) -> int:
    scenario = load(args.scenario)
    fields = dataclasses.fields(solver_mod.SolverConfig)
    config = solver_mod.SolverConfig(**{f.name: getattr(args, f.name) for f in fields})
    report = solver_mod.solve(scenario, config)
    if args.report:
        solver_mod.save_report(report, args.report)
    if report.infeasible:
        print(f"infeasible: {report.infeasible}")
        return EXIT_INFEASIBLE
    x, y, z = report.placement
    print(
        f"placement ({x:.2f}, {y:.2f}, {z:g}) m | objective {format_number(report.objective, 4)} J/m^2 | "
        f"lifetime {format_number(report.lifetime_seconds, 0)} s | iterations {report.iterations} | "
        f"converged {str(report.converged).lower()}"
    )
    return EXIT_OK


def _cmd_grid(args) -> int:
    scenario = load(args.scenario)
    result = grid_search(scenario, GridSpec(spacing=args.spacing, bounds=scenario.bounds), mode=args.mode)
    print(
        f"best ({_coordinate(result.point[0])}, {_coordinate(result.point[1])}) "
        f"value {format_number(result.value, 6)} J/m^2 "
        f"({result.evaluated} nodes evaluated)"
    )
    return EXIT_OK


def _cmd_surface(args) -> int:
    if not args.out.endswith((".csv", ".svg")):
        raise ValidationError(f"--out must end in .csv or .svg, got {args.out!r}")
    scenario = load(args.scenario)
    z = args.z if args.z is not None else scenario.bounds.z_min
    grid = GridSpec(spacing=args.spacing, bounds=scenario.bounds)
    xs, ys, values = surface_mod.surface_grid(scenario.users, z, grid)
    if args.out.endswith(".csv"):
        surface_mod.write_surface_csv(args.out, xs, ys, values)
    else:
        surface_mod.write_surface_svg(args.out, xs, ys, values)
    print(f"wrote {args.out}: {len(xs)}x{len(ys)} nodes at z = {z:g} m")
    return EXIT_OK


def _verdicts(verdicts: list[tuple[str, bool]]) -> int:
    for label, ok in verdicts:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return EXIT_OK if all(ok for _, ok in verdicts) else 1


def _repro_uniform(seed: int) -> int:
    report = solver_mod.solve(cases.uniform(seed), cases.UNIFORM_CONFIG)
    x, y, z = report.placement
    ref = cases.REFERENCE_UNIFORM
    print(f"case uniform: {cases.UNIFORM_TITLE}, seed {seed}")
    print(f"  placement ({x:.1f}, {y:.1f}, {z:g})   reference {ref['placement']}")
    print(f"  objective {report.objective:.4f} J/m^2   reference {ref['cost']}")
    print(f"  lifetime  {report.lifetime_seconds:.0f} s    reference {ref['lifetime']:.0f}")
    return _verdicts(cases.uniform_verdicts(report))


def _repro_nonuniform(seed: int) -> int:
    scenario = cases.nonuniform(seed)
    report = solver_mod.solve(scenario, cases.NONUNIFORM_CONFIG)
    x, y, z = report.placement
    (cd, d_dense), (cs, d_sparse) = cases.cluster_distances(scenario, (x, y))
    ref = cases.REFERENCE_NONUNIFORM
    print(f"case nonuniform: {cases.NONUNIFORM_TITLE}, seed {seed}")
    print(f"  placement ({x:.1f}, {y:.1f}, {z:g})   reference {ref['placement']}")
    print(f"  objective {report.objective:.4f} J/m^2   reference {ref['cost']}")
    print(f"  dense centroid ({cd[0]:.1f}, {cd[1]:.1f}) at {d_dense:.1f} m; "
          f"sparse centroid ({cs[0]:.1f}, {cs[1]:.1f}) at {d_sparse:.1f} m")
    return _verdicts(cases.nonuniform_verdicts(d_dense, d_sparse))


def _describe_scan(scan: NsdScan) -> str:
    if scan.outcome == "proven":
        return f"concavity proven, per-user curvature bound {scan.hi:.3e}"
    if scan.outcome == "refuted":
        x, y = scan.witness
        return f"concavity refuted, eigenvalue {scan.eigenvalue:.3e} at ({x:.1f}, {y:.1f})"
    return f"concavity undecided, per-user curvature bound {scan.hi:.3e} and no witness"


def _repro_concavity(seed: int) -> int:
    scenario = cases.uniform(seed)
    cert = concavity_certificate(cases.BOUNDS)
    print(f"case concavity: seed {seed}, d_max {cert.d_max:.2f} m, threshold {cert.threshold:.2f} m")
    high, low = (
        nsd_scan(scenario.users, z, cases.BOUNDS, samples=cases.SCAN_SAMPLES, seed=seed)
        for z in cases.SCAN_ALTITUDES
    )
    high_z, low_z = cases.SCAN_ALTITUDES
    print(f"  z {high_z:g} m: certificate holds={cert.holds}; {_describe_scan(high)}")
    print(f"  z {low_z:g} m: {_describe_scan(low)}")
    return _verdicts(cases.concavity_verdicts(cert, high, low))


_CASES = {"uniform": _repro_uniform, "nonuniform": _repro_nonuniform, "concavity": _repro_concavity}


def _cmd_reproduce(args) -> int:
    return _CASES[args.case](args.seed)


_COMMANDS = {
    "generate": _cmd_generate,
    "check": _cmd_check,
    "solve": _cmd_solve,
    "grid": _cmd_grid,
    "surface": _cmd_surface,
    "reproduce": _cmd_reproduce,
}


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        # a library warning is one line on stderr, without a source location
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return _COMMANDS[args.command](args)
    except (ValidationError, ParseError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EmptyRegionError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Warning as exc:  # a library warning raised as an error, as under -W error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

"""The three canned reproduction cases, each defined once.

`uavlift reproduce` and the acceptance tests both read from here: the
layouts, the canned seed, the solver settings, the concavity altitudes, the
published reference numbers and the PASS bands the results are judged by.
"""

from __future__ import annotations

import math

from .objective import ConcavityCertificate, NsdScan
from .scenario import DEFAULT_ENERGY_HIGH, DEFAULT_ENERGY_LOW, AreaBounds, ClusterSpec, Scenario
from .solver import SolveReport, SolverConfig

# The reference numbers assume the rounded speed of light.
C_ROUNDED = 3e8
# Canned seed, chosen once so the outputs are stable and land inside the bands.
SEED = 9
# Every case uses the paper's deployment: a 250 m square, station at 650 m.
BOUNDS = AreaBounds(0.0, 250.0, 0.0, 250.0, 650.0, 650.0)
ENERGY = (DEFAULT_ENERGY_LOW, DEFAULT_ENERGY_HIGH)

# uniform: users spread over the whole square.
UNIFORM_USERS = 200
UNIFORM_TITLE = "200 users on [0,250]^2, z 650 m, box mode"
UNIFORM_CONFIG = SolverConfig(mode="box", max_iters=100)
REFERENCE_UNIFORM = {"placement": (131.0, 128.0, 650.0), "cost": 5.19, "lifetime": 282096.0}

# nonuniform: a dense and a sparse cluster, emitted in this order.
DENSE = ClusterSpec(75.0, 150.0, 25.0, 150, *ENERGY)
SPARSE = ClusterSpec(200.0, 60.0, 25.0, 50, *ENERGY)
NONUNIFORM_TITLE = "clusters 150:50 (3:1 density), z 650 m, box mode"
# No iteration band applies here; run to convergence so the printed
# placement is the actual optimum, not a truncated path point.
NONUNIFORM_CONFIG = SolverConfig(mode="box", max_iters=3000, tolerance=1e-4)
REFERENCE_NONUNIFORM = {"placement": (92.0, 156.0, 650.0), "cost": 5.22, "lifetime": 283727.0}

# concavity: the uniform layout's concavity proven by the per-user curvature
# bound at the paper's altitude, where the certificate holds, and refuted by a
# sampled witness at a low one, where it fails.
SCAN_ALTITUDES = (650.0, 30.0)
SCAN_SAMPLES = 1000


def uniform_verdicts(report: SolveReport) -> list[tuple[str, bool]]:
    """The uniform case's PASS bands as (label, passed) pairs."""
    x, y, _ = report.placement
    return [
        ("objective in [5.0, 5.4] J/m^2", 5.0 <= report.objective <= 5.4),
        ("lifetime in [2.70e5, 2.95e5] s", 2.70e5 <= report.lifetime_seconds <= 2.95e5),
        ("placement within 15 m of (125, 125)", math.hypot(x - 125.0, y - 125.0) <= 15.0),
        ("iterations <= 100", report.iterations <= 100),
    ]


def cluster_distances(
    scenario: Scenario, point: tuple[float, float]
) -> list[tuple[tuple[float, float], float]]:
    """(centroid, distance from `point`) of the dense, then the sparse cluster;
    the generator emits users cluster by cluster, so slices recover them.
    The centroids use Python's sum, whose rounding the printed output pins."""
    xs, ys, _ = scenario.users.arrays
    result = []
    for part in (slice(None, DENSE.count), slice(DENSE.count, None)):
        cx, cy = xs[part].tolist(), ys[part].tolist()
        c = (sum(cx) / len(cx), sum(cy) / len(cy))
        result.append((c, math.hypot(point[0] - c[0], point[1] - c[1])))
    return result


def nonuniform_verdicts(d_dense: float, d_sparse: float) -> list[tuple[str, bool]]:
    return [("placement strictly closer to the dense cluster centroid", d_dense < d_sparse)]


def concavity_verdicts(
    cert: ConcavityCertificate, high: NsdScan, low: NsdScan
) -> list[tuple[str, bool]]:
    return [
        (
            "certificate holds at z=650 and the per-user bound proves concavity",
            cert.holds and high.outcome == "proven",
        ),
        ("z=30 has a positive-eigenvalue witness", low.outcome == "refuted"),
    ]

"""Acceptance gate: every criterion at its stated tolerance, one PASS line
per criterion (visible with pytest -s or in failure output)."""

import math

import numpy as np
import pytest
from finite_differences import fd_gradient, fd_hessian
from region_layouts import project_each, random_region

from uavlift import cases
from uavlift.channel import system_constant
from uavlift.cli import main
from uavlift.objective import concavity_certificate, gradient, hessian, nsd_scan
from uavlift.oracle import GridSpec, grid_search
from uavlift.region import contains, project
from uavlift.rng import SplitMix64
from uavlift.scenario import (
    DEFAULT_RF,
    AreaBounds,
    UserDevice,
    generate_clustered,
    generate_uniform,
)
from uavlift.solver import SolverConfig, solve


def test_criterion_1_system_constant_cross_check():
    k = system_constant(DEFAULT_RF, cases.UNIFORM_USERS, c=cases.C_ROUNDED)
    implied = cases.REFERENCE_UNIFORM["cost"] / cases.REFERENCE_UNIFORM["lifetime"]
    rel = abs(k - implied) / implied
    assert rel < 0.005
    print(f"ACCEPTANCE 1 PASS: K = {k:.6e} vs implied {implied:.6e} (rel {rel:.2e} < 0.5%)")


def test_criterion_2_uniform_case_reproduction():
    scenario = generate_uniform(cases.UNIFORM_USERS, cases.BOUNDS, *cases.ENERGY, cases.SEED)
    report = solve(scenario, cases.UNIFORM_CONFIG, c=cases.C_ROUNDED)
    assert [label for label, ok in cases.uniform_verdicts(report) if not ok] == []
    x, y, _ = report.placement
    print(
        f"ACCEPTANCE 2 PASS: objective {report.objective:.4f} J/m^2, lifetime "
        f"{report.lifetime_seconds:.0f} s, placement ({x:.1f}, {y:.1f}), "
        f"{report.iterations} iterations"
    )


def test_criterion_3_nonuniform_case_density_pull():
    scenario = generate_clustered((cases.DENSE, cases.SPARSE), cases.BOUNDS, cases.SEED)
    report = solve(scenario, cases.NONUNIFORM_CONFIG, c=cases.C_ROUNDED)
    x, y, _ = report.placement
    (_, d_dense), (_, d_sparse) = cases.cluster_distances(scenario, (x, y))
    assert [label for label, ok in cases.nonuniform_verdicts(d_dense, d_sparse) if not ok] == []
    print(
        f"ACCEPTANCE 3 PASS: placement ({x:.1f}, {y:.1f}) is {d_dense:.1f} m from the dense "
        f"centroid vs {d_sparse:.1f} m from the sparse one"
    )


def test_criterion_4_concavity_contrast():
    scenario = generate_uniform(cases.UNIFORM_USERS, cases.BOUNDS, *cases.ENERGY, cases.SEED)
    cert = concavity_certificate(cases.BOUNDS)
    assert cert.threshold == pytest.approx(612.37, abs=0.01)
    high, low = (
        nsd_scan(scenario.users, z, cases.BOUNDS, samples=cases.SCAN_SAMPLES, seed=cases.SEED)
        for z in cases.SCAN_ALTITUDES
    )
    assert [label for label, ok in cases.concavity_verdicts(cert, high, low) if not ok] == []
    print(
        f"ACCEPTANCE 4 PASS: z=650 concavity proven on the whole box, per-user curvature bound "
        f"{high.hi:.3e} (threshold {cert.threshold:.1f} m); z=30 witness eigenvalue "
        f"{low.eigenvalue:.3e} at ({low.witness[0]:.1f}, {low.witness[1]:.1f})"
    )


def test_criterion_5_oracle_equivalence_on_concave_instances():
    worst_gap_ratio = 0.0
    worst_dist = 0.0
    for seed in range(20):
        bounds = AreaBounds(0, 50, 0, 50, 130, 130)
        scenario = generate_uniform(30, bounds, 4500, 18000, seed=1000 + seed)
        assert concavity_certificate(bounds).holds
        grid = GridSpec(1.0, bounds)
        best = grid_search(scenario, grid, mode="region")
        report = solve(
            scenario,
            SolverConfig(mode="region", tolerance=1e-5, max_iters=2000),
        )
        assert report.infeasible is None
        z = bounds.z_min
        tol = grid.spacing * max(
            math.hypot(*gradient(scenario.users, z, (x, y))) for x in grid.xs() for y in grid.ys()
        )
        gap = abs(report.objective - best.value)
        dist = math.hypot(
            report.placement[0] - best.point[0], report.placement[1] - best.point[1]
        )
        assert gap <= tol
        assert dist <= math.sqrt(2.0)
        worst_gap_ratio = max(worst_gap_ratio, gap / tol)
        worst_dist = max(worst_dist, dist)
    print(
        f"ACCEPTANCE 5 PASS: 20 concave instances, worst gap {worst_gap_ratio:.1%} of the "
        f"Lipschitz budget, worst node distance {worst_dist:.2f} m (<= sqrt(2))"
    )


def test_criterion_6_derivative_correctness():
    gen = SplitMix64(600)
    worst_grad = worst_hess = worst_det = 0.0
    for trial in range(100):
        n = 5 + int(gen.uniform(0, 26))
        span = gen.uniform(50, 250)
        z = gen.uniform(5, 60) if trial % 2 == 0 else gen.uniform(100, 800)
        users = [
            UserDevice(gen.uniform(0, span), gen.uniform(0, span), gen.uniform(1, 2e4))
            for _ in range(n)
        ]
        point = (gen.uniform(-0.2 * span, 1.2 * span), gen.uniform(-0.2 * span, 1.2 * span))

        g = gradient(users, z, point)
        fd_g = fd_gradient(users, z, point, h=1e-4)
        rel_g = math.hypot(g[0] - fd_g[0], g[1] - fd_g[1]) / max(
            math.hypot(*g), math.hypot(*fd_g), 1e-300
        )
        worst_grad = max(worst_grad, rel_g)

        h_analytic = np.array(hessian(users, z, point))
        h_fd = np.array(fd_hessian(users, z, point, h=1e-3 * z))
        rel_h = np.linalg.norm(h_analytic - h_fd) / np.linalg.norm(h_analytic)
        worst_hess = max(worst_hess, float(rel_h))

        dx = point[0] - users[0].x
        dy = point[1] - users[0].y
        hu = np.array(hessian(users[:1], z, point)) / users[0].energy
        lhs = hu[0, 0] * hu[1, 1] - hu[0, 1] ** 2
        d = dx * dx + dy * dy + z * z
        rhs = (-12 * dx * dx - 12 * dy * dy + 4 * z * z) / d**5
        scale = max(abs(hu[0, 0] * hu[1, 1]), hu[0, 1] ** 2, abs(rhs), 1e-300)
        worst_det = max(worst_det, abs(lhs - rhs) / scale)

    assert worst_grad < 1e-6
    assert worst_hess < 1e-4
    assert worst_det < 1e-10
    print(
        f"ACCEPTANCE 6 PASS: 100 random pairs, gradient rel {worst_grad:.2e} < 1e-6, "
        f"Hessian rel {worst_hess:.2e} < 1e-4, determinant identity rel {worst_det:.2e} < 1e-10"
    )


def test_criterion_7_projection_correctness():
    gen = SplitMix64(700)

    # idempotence to 1e-8 over 10 regions x 20 points
    worst_idem = 0.0
    for seed in range(10):
        region = random_region(seed)
        pts = np.array([[gen.uniform(-15, 25), gen.uniform(-15, 25)] for _ in range(20)])
        once = project_each(region, pts)
        twice = project_each(region, once)
        worst_idem = max(worst_idem, float(np.max(np.hypot(*(twice - once).T))))
    assert worst_idem <= 1e-8

    # non-expansiveness over 1000 random pairs
    worst_expansion = -math.inf
    for seed in range(10):
        region = random_region(seed)
        a = np.array([[gen.uniform(-15, 25), gen.uniform(-15, 25)] for _ in range(100)])
        b = np.array([[gen.uniform(-15, 25), gen.uniform(-15, 25)] for _ in range(100)])
        pa, pb = project_each(region, a), project_each(region, b)
        expansion = np.hypot(*(pa - pb).T) - np.hypot(*(a - b).T)
        worst_expansion = max(worst_expansion, float(np.max(expansion)))
    assert worst_expansion <= 2e-8

    # minimality against dense boundary sampling (plus box edges)
    worst_slack = -math.inf
    for seed in range(5):
        region = random_region(seed)
        table = region.table
        disks = list(zip(table.cx.tolist(), table.cy.tolist(), table.r.tolist()))
        theta = np.linspace(0.0, 2.0 * math.pi, 8001)
        samples = [
            np.column_stack((x + r * np.cos(theta), y + r * np.sin(theta)))
            for x, y, r in disks
        ]
        edge = np.linspace(0.0, 10.0, 4001)
        samples.append(np.column_stack((edge, np.zeros_like(edge))))
        samples.append(np.column_stack((edge, np.full_like(edge, 10.0))))
        samples.append(np.column_stack((np.zeros_like(edge), edge)))
        samples.append(np.column_stack((np.full_like(edge, 10.0), edge)))
        pts = np.vstack(samples)
        feasible = (pts[:, 0] >= -1e-9) & (pts[:, 0] <= 10 + 1e-9)
        feasible &= (pts[:, 1] >= -1e-9) & (pts[:, 1] <= 10 + 1e-9)
        for x, y, r in disks:
            feasible &= np.hypot(pts[:, 0] - x, pts[:, 1] - y) <= r + 1e-9
        boundary = pts[feasible]
        assert len(boundary) > 100
        for _ in range(4):
            q = (gen.uniform(-15, 25), gen.uniform(-15, 25))
            if contains(region, q):
                continue
            proj = project(region, q)
            proj_dist = math.hypot(proj[0] - q[0], proj[1] - q[1])
            sample_dist = float(np.min(np.hypot(boundary[:, 0] - q[0], boundary[:, 1] - q[1])))
            worst_slack = max(worst_slack, proj_dist - sample_dist)
    assert worst_slack <= 1e-6
    print(
        f"ACCEPTANCE 7 PASS: idempotence {worst_idem:.2e} m <= 1e-8, max expansion "
        f"{worst_expansion:.2e} m, minimality slack {worst_slack:.2e} m <= 1e-6"
    )


def test_criterion_8_infeasibility_surfacing(tmp_path, capsys):
    path = tmp_path / "reference.json"
    rc = main([
        "generate", "--count", "200", "--area", "250x250",
        "--energy-low", "4500", "--energy-high", "18000",
        "--seed", str(cases.SEED), "--out", str(path),
    ])
    assert rc == 0
    rc = main(["solve", str(path), "--mode", "region", "--c", "3e8"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "power" in out
    assert "164.8" in out  # sqrt(p_max/K) = 164.85 m
    assert "650" in out
    print("ACCEPTANCE 8 PASS: region mode exits 3 naming the power constraint "
          "(d_limit 164.85 m < z_min 650 m)")

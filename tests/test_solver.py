import math
import warnings

import pytest

from uavlift import objective
from uavlift import solver as solver_mod
from uavlift.objective import UserArrays, gradient
from uavlift.region import build, contains
from uavlift.scenario import (
    AreaBounds,
    RfParams,
    Scenario,
    UserDevice,
    generate_uniform,
)
from uavlift.solver import SolverConfig, solve

RF = RfParams(rate=4e6, bandwidth=50e6, noise=1e-14, frequency=4e9, p_max=0.5, tau_th=900)


def reference_scenario(seed=9):
    bounds = AreaBounds(0, 250, 0, 250, 650, 650)
    return generate_uniform(200, bounds, 4500, 18000, seed=seed)


def relaxed_scenario(seed=5, n=30):
    # 50 x 50 box at 130 m: the certificate holds and every range limit
    # dwarfs the box, so the feasible region is the whole rectangle.
    bounds = AreaBounds(0, 50, 0, 50, 130, 130)
    return generate_uniform(n, bounds, 4500, 18000, seed=seed)


class TestSolveBasics:
    def test_single_user_box_mode_converges_to_the_user(self):
        bounds = AreaBounds(0, 250, 0, 250, 650, 650)
        s = Scenario(users=(UserDevice(50, 50, 9000.0),), rf=RF, bounds=bounds)
        # step near the inverse curvature z^4 / 2E makes the ascent fast
        config = SolverConfig(mode="box", step_size=1e7, tolerance=1e-6, max_iters=300)
        report = solve(s, config)
        x, y, z = report.placement
        assert report.converged
        assert math.hypot(x - 50.0, y - 50.0) < 1e-2
        assert z == 650.0

    def test_lifetime_consistent_with_objective(self):
        report = solve(reference_scenario(), SolverConfig(mode="box"), c=3e8)
        assert report.lifetime_seconds * report.k == pytest.approx(report.objective, rel=1e-9)

    def test_honest_convergence_flag(self):
        report = solve(reference_scenario(), SolverConfig(mode="box", max_iters=1), c=3e8)
        assert report.iterations == 1
        assert not report.converged

    def test_deterministic(self):
        config = SolverConfig(mode="box", max_iters=40)
        a = solve(reference_scenario(), config, c=3e8)
        b = solve(reference_scenario(), config, c=3e8)
        assert a == b

    def test_random_init_is_seeded(self):
        config = SolverConfig(mode="box", init="random", init_seed=77, max_iters=5)
        a = solve(relaxed_scenario(), config)
        b = solve(relaxed_scenario(), config)
        assert a.trajectory[0] == b.trajectory[0]
        other = solve(relaxed_scenario(), SolverConfig(mode="box", init="random", init_seed=78, max_iters=5))
        assert a.trajectory[0] != other.trajectory[0]

    def test_config_validation(self):
        from uavlift.errors import ValidationError

        with pytest.raises(ValidationError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(ValidationError):
            SolverConfig(mode="sideways")
        with pytest.raises(ValidationError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValidationError):
            SolverConfig(step_size=math.inf)  # would never leave the backtracking loop
        with pytest.raises(ValidationError):
            SolverConfig(init=(math.nan, 0.0))

    def test_box_solve_builds_the_user_arrays_once(self, monkeypatch):
        built = []
        real = objective.user_arrays

        def counting(users):
            if not isinstance(users, UserArrays):
                built.append(len(users))
            return real(users)

        monkeypatch.setattr(objective, "user_arrays", counting)
        monkeypatch.setattr(solver_mod, "user_arrays", counting)
        report = solve(reference_scenario(), SolverConfig(mode="box", max_iters=100))
        assert report.iterations > 1
        assert built == [200]


class TestMonotoneAscent:
    def test_line_search_never_decreases_objective(self):
        report = solve(reference_scenario(), SolverConfig(mode="box", max_iters=100), c=3e8)
        values = [f for _, _, f in report.trajectory]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_fixed_step_mode_reports_what_happened(self):
        # An aggressive fixed step may oscillate; the trajectory must simply
        # record it without doctoring.
        config = SolverConfig(mode="box", step_size=1e6, line_search=False, max_iters=30)
        report = solve(reference_scenario(), config, c=3e8)
        assert len(report.trajectory) == report.iterations + 1


class TestRegionMode:
    def test_reference_setup_returns_infeasible_report(self):
        report = solve(reference_scenario(), SolverConfig(mode="region"), c=3e8)
        assert report.infeasible is not None
        assert "power" in report.infeasible
        assert report.placement is None
        assert not report.converged
        assert report.iterations == 0

    def test_feasible_region_solve_matches_box_when_region_is_the_box(self):
        s = relaxed_scenario()
        config = SolverConfig(tolerance=1e-5, max_iters=1000)
        region_report = solve(s, SolverConfig(mode="region", tolerance=1e-5, max_iters=1000))
        box_report = solve(s, SolverConfig(mode="box", tolerance=1e-5, max_iters=1000))
        assert region_report.objective == pytest.approx(box_report.objective, rel=1e-9)

    def test_iterates_stay_feasible_with_binding_disks(self):
        # Three devices with small energy-limited ranges: the disks clip the
        # box, and every iterate must stay inside the lens.
        bounds = AreaBounds(0, 40, 0, 40, 10, 10)
        # system constant 1 for three devices: exponent 3/3 = 1, unit noise
        rf = RfParams(
            rate=1.0, bandwidth=3.0, noise=1.0,
            frequency=299792458.0 / (4.0 * math.pi), p_max=1e6, tau_th=1.0,
        )
        users = (
            UserDevice(10, 10, 625.0),   # d_limit 25, radius ~22.9
            UserDevice(30, 12, 625.0),
            UserDevice(20, 30, 625.0),
        )
        s = Scenario(users=users, rf=rf, bounds=bounds)
        feas = build(s)
        assert not feas.empty and len(feas.disks) == 3
        config = SolverConfig(mode="region", init=(0.5, 0.5), tolerance=1e-6, max_iters=400)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # low altitude: no certificate
            report = solve(s, config)
        for x, y, _f in report.trajectory:
            assert contains(feas, (x, y), tol=1e-7)

    def test_interior_fixed_point_is_stationary(self):
        s = relaxed_scenario()
        config = SolverConfig(mode="box", tolerance=1e-6, max_iters=5000)
        report = solve(s, config)
        assert report.converged
        x, y, _ = report.placement
        b = s.bounds
        assert b.x_min < x < b.x_max and b.y_min < y < b.y_max  # interior
        grad_norm = math.hypot(*gradient(s.users, s.bounds.z_min, (x, y)))
        assert grad_norm <= config.tolerance / report.step_size_final + 1e-12


class TestNonConcaveWarning:
    def test_warns_when_certificate_fails(self):
        bounds = AreaBounds(0, 250, 0, 250, 30, 30)
        s = generate_uniform(50, bounds, 4500, 18000, seed=3)
        with pytest.warns(RuntimeWarning, match="non-concave"):
            solve(s, SolverConfig(mode="box", max_iters=5))


class TestReportSerialization:
    def test_report_round_trip_fields(self, tmp_path):
        import json

        from uavlift.solver import report_to_dict, save_report, write_trajectory_csv

        report = solve(relaxed_scenario(), SolverConfig(mode="box", max_iters=50))
        path = tmp_path / "report.json"
        save_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["placement"] == list(report.placement)
        assert doc["objective"] == report.objective
        assert doc["converged"] == report.converged
        assert len(doc["trajectory"]) == len(report.trajectory)

        csv_path = tmp_path / "trajectory.csv"
        write_trajectory_csv(report, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "iteration,x,y,objective"
        assert len(lines) == len(report.trajectory) + 1

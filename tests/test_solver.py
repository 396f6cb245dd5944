import hashlib
import math
import sys
import warnings

import numpy as np
import pytest
from region_layouts import binding_scenario, unit_scenario

from uavlift import cases, objective
from uavlift import region as region_mod
from uavlift import solver as solver_mod
from uavlift.channel import SPEED_OF_LIGHT
from uavlift.errors import ValidationError
from uavlift.objective import (
    UserArrays,
    box_curvature_bounds,
    concavity_certificate,
    curvature_bounds,
    gradient,
    hessian,
    nsd_scan,
    value,
)
from uavlift.oracle import GridSpec, grid_search
from uavlift.region import build, contains
from uavlift.rng import SplitMix64
from uavlift.scenario import (
    ALTITUDE_LIMITS,
    COORD_LIMIT,
    ENERGY_LIMITS,
    AreaBounds,
    RfParams,
    Scenario,
    UserDevice,
    generate_clustered,
    generate_uniform,
)
from uavlift.solver import SolverConfig, report_to_dict, solve

RF = RfParams(rate=4e6, bandwidth=50e6, noise=1e-14, frequency=4e9, p_max=0.5, tau_th=900)


def reference_scenario(seed=9):
    bounds = AreaBounds(0, 250, 0, 250, 650, 650)
    return generate_uniform(200, bounds, 4500, 18000, seed=seed)


def relaxed_scenario(seed=5, n=30):
    # 50 x 50 box at 130 m: the certificate holds and every range limit
    # dwarfs the box, so the feasible region is the whole rectangle.
    bounds = AreaBounds(0, 50, 0, 50, 130, 130)
    return generate_uniform(n, bounds, 4500, 18000, seed=seed)


def canned_uniform():
    return generate_uniform(cases.UNIFORM_USERS, cases.BOUNDS, *cases.ENERGY, cases.SEED)


def canned_uniform_at(z):
    """The canned uniform layout with the station at altitude z."""
    bounds = AreaBounds(0, 250, 0, 250, z, z)
    return generate_uniform(cases.UNIFORM_USERS, bounds, *cases.ENERGY, cases.SEED)


def canned_nonuniform():
    return generate_clustered((cases.DENSE, cases.SPARSE), cases.BOUNDS, cases.SEED)


def newton_optimum(scenario, p=(125.0, 125.0), steps=30):
    """Plain Newton iteration on the analytic gradient and Hessian: the
    interior optimum of a concave instance, independent of the step rule."""
    z = scenario.bounds.z_min
    for _ in range(steps):
        gx, gy = gradient(scenario.users, z, p)
        (a, b), (_, d) = hessian(scenario.users, z, p)
        det = a * d - b * b
        p = (p[0] - (d * gx - b * gy) / det, p[1] - (a * gy - b * gx) / det)
    return p


def lipschitz(scenario) -> float:
    return 2.0 * sum(u.energy for u in scenario.users) / scenario.bounds.z_min**4


def first_step(monkeypatch, step):
    """Make the ascent's first step `step`: the solver's curvature bound
    L = -lo becomes 1/step, its concavity modulus stays."""
    real = solver_mod.box_curvature_bounds
    monkeypatch.setattr(solver_mod, "box_curvature_bounds", lambda users, z, box: (-1.0 / step, real(users, z, box)[1]))


@pytest.fixture()
def value_calls(monkeypatch):
    """Counts objective evaluations through the solver's own module name."""
    calls = []
    real = solver_mod.value

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver_mod, "value", counting)
    return calls


class TestSolveBasics:
    def test_single_user_box_mode_converges_to_the_user(self):
        bounds = AreaBounds(0, 250, 0, 250, 650, 650)
        s = Scenario(users=(UserDevice(50, 50, 9000.0),), rf=RF, bounds=bounds)
        # the first step, 1/L = z^4 / 2E, is the inverse curvature under the user
        config = SolverConfig(mode="box", tolerance=1e-6, max_iters=300)
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

    def test_config_validation(self):
        from uavlift.errors import ValidationError

        with pytest.raises(ValidationError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(ValidationError):
            SolverConfig(mode="sideways")
        with pytest.raises(ValidationError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValidationError):
            SolverConfig(init=(math.nan, 0.0))
        with pytest.raises(ValidationError, match="^init must be 'centroid' or"):
            SolverConfig(init="random")

    def test_start_at_the_edge_of_the_input_domain(self):
        # a start within 2^24 m of the origin is taken; the next double out is
        # refused, naming the coordinate
        edge = COORD_LIMIT
        report = solve(relaxed_scenario(), SolverConfig(mode="box", init=(edge, -edge)))
        assert report.converged
        for init, axis in (((math.nextafter(edge, math.inf), 0.0), "x"), ((0.0, -math.nextafter(edge, math.inf)), "y")):
            with pytest.raises(ValidationError, match=rf"^init\.{axis} must lie in "):
                SolverConfig(init=init)

    def test_every_mode_check_gives_one_message(self):
        from uavlift.errors import ValidationError

        scenario = relaxed_scenario()
        config = SolverConfig()
        object.__setattr__(config, "mode", "sideways")  # past the config's own check
        calls = (
            lambda: SolverConfig(mode="sideways"),
            lambda: solve(scenario, config),
            lambda: grid_search(scenario, GridSpec(5.0, scenario.bounds), mode="sideways"),
        )
        for call in calls:
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == "mode must be 'box' or 'region', got 'sideways'"

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


def z30_scenario():
    # 250 m box at 30 m: no certificate, so the report carries the projected gradient
    return generate_uniform(50, AreaBounds(0, 250, 0, 250, 30, 30), 4500, 18000, seed=3)


# Each solve's report as float.hex: placement, objective, step_size_final,
# gap_bound, projected_gradient, then iterations, converged and the sha256 of
# the trajectory's hex. A change of step rule or summation order shows here.
PINNED_SOLVES = {
    "uniform": (
        canned_uniform, cases.UNIFORM_CONFIG, cases.C_ROUNDED,
        ("0x1.0479666f7e690p+7", "0x1.fa3546ec77d29p+6", "0x1.4500000000000p+9"),
        "0x1.4d0b09d3aea98p+2", "0x1.35db7591e9e48p+15", "0x1.1d2871184ee40p-45", None, 5, True,
        "04da25844dad40cd1622aaf90eba55f9e714a96f022e283a2a6607e877a6c279",
    ),
    "nonuniform": (
        canned_nonuniform, cases.NONUNIFORM_CONFIG, cases.C_ROUNDED,
        ("0x1.a6d9a04e9d8b4p+6", "0x1.f955381c331c6p+6", "0x1.4500000000000p+9"),
        "0x1.52055c3f88c19p+2", "0x1.345af188f678ap+15", "0x1.49265b007f260p-53", None, 6, True,
        "fe5c1888fb631542fd5d4dfee8da3244a8e9e3445de23a701046f0b652c00a75",
    ),
    "u2000-corner": (
        lambda: generate_uniform(2000, cases.BOUNDS, *cases.ENERGY, cases.SEED),
        SolverConfig(mode="box", init=(0.0, 0.0)), cases.C_ROUNDED,
        ("0x1.ee69946a06c65p+6", "0x1.f93d85f8b0888p+6", "0x1.4500000000000p+9"),
        "0x1.9f75c14806652p+5", "0x1.f04d1e3c6601ep+11", "0x1.688bb6b324633p-43", None, 7, True,
        "b8145d6bde75009ec30492ee14b8fa82ef3d0aec7c0661949de155e980c01c00",
    ),
    "b20-centroid": (
        lambda: binding_scenario(20), SolverConfig(mode="region"), SPEED_OF_LIGHT,
        ("0x1.64d601ad70ba1p+5", "0x1.dea9cc6def43ep+5", "0x1.4000000000000p+3"),
        "0x1.e48d55cc9a3bbp+5", "0x1.7a39a2e0b3da1p+4", None, "0x0.0p+0", 10, True,
        "809d4b0734fdd20de9604a4ce0055430f9802b5b472735f991c3729874ac7dda",
    ),
    "b20-corner": (
        lambda: binding_scenario(20), SolverConfig(mode="region", init=(0.0, 0.0)), SPEED_OF_LIGHT,
        ("0x1.64d601ad70ba1p+5", "0x1.dea9cc6def43ep+5", "0x1.4000000000000p+3"),
        "0x1.e48d55cc9a3bbp+5", "0x1.7a39a2e0b3da1p+4", None, "0x0.0p+0", 10, True,
        "40572da142f67f6ea883784f6fd8f837ece1049d3c85c5849423ab26b0292a16",
    ),
    "b50-centroid": (
        lambda: binding_scenario(50), SolverConfig(mode="region"), SPEED_OF_LIGHT,
        ("0x1.654919934d900p+5", "0x1.e12f69e47ee73p+5", "0x1.4000000000000p+3"),
        "0x1.cc5d9ed7a5df0p+6", "0x1.f16cbbaed2cecp+9", None, "0x0.0p+0", 16, True,
        "78179f66c7099f4835837eb877a16557cd98541964e1a274e44afa3d205a70ac",
    ),
    "b50-corner": (
        lambda: binding_scenario(50), SolverConfig(mode="region", init=(0.0, 0.0)), SPEED_OF_LIGHT,
        ("0x1.654919934d900p+5", "0x1.e12f69e47ee73p+5", "0x1.4000000000000p+3"),
        "0x1.cc5d9ed7a5df0p+6", "0x1.f16cbbaed2cecp+9", None, "0x0.0p+0", 16, True,
        "46646b7f0a2026a6f5fa5e34e1d640be32edfb7a618f9e7670fd67c406185b5f",
    ),
    "z30-box": (
        z30_scenario, SolverConfig(mode="box"), SPEED_OF_LIGHT,
        ("0x1.6c3cf49fc88e3p+6", "0x1.22566fb5d7b09p+6", "0x1.e000000000000p+4"),
        "0x1.98b902655a140p+6", "0x1.7e573c1bc33ebp+4", None, "0x1.c9331f1d8c79ap-17", 20, True,
        "0f10696e7deaaa1daf9b5a0c098f19731bdb0b157d39c160132d740ed43c882c",
    ),
}


@pytest.mark.parametrize("name", PINNED_SOLVES)
def test_pinned_solve_reports(name):
    make, config, c, *want = PINNED_SOLVES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # binding and z = 30 m: no certificate
        r = solve(make(), config, c=c)

    def hexed(v):
        return None if v is None else float.hex(v)

    rows = repr([tuple(map(float.hex, row)) for row in r.trajectory]).encode()
    got = [
        tuple(map(float.hex, r.placement)), hexed(r.objective), hexed(r.step_size_final),
        hexed(r.gap_bound), hexed(r.projected_gradient), r.iterations, r.converged,
        hashlib.sha256(rows).hexdigest(),
    ]
    assert got == want


@pytest.mark.parametrize("name", PINNED_SOLVES)
def test_no_accepted_step_falls_below_half_of_one_over_l(name, monkeypatch):
    # Halving stops at a step of at most 1/L, and a trial cut to the cap is
    # still at least 2^10/L, so the stop test only ever meets a step t of at
    # least 1/(2L). t is read back from each accepted trial p + t*g: the
    # first one that projects onto the next iterate.
    make, config, c, *_ = PINNED_SOLVES[name]
    scenario = make()
    calls = []
    real = region_mod.project

    def recording(region, point):
        calls.append((point, real(region, point)))
        return calls[-1][1]

    monkeypatch.setattr(region_mod, "project", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # binding and z = 30 m: no certificate
        report = solve(scenario, config, c=c)
    z = scenario.bounds.z_min
    big_l = -box_curvature_bounds(scenario.users, z, scenario.bounds)[0]
    i = 1
    for (x0, y0, _), (x1, y1, _) in zip(report.trajectory, report.trajectory[1:]):
        while calls[i][1] != (x1, y1):
            i += 1
        (tx, ty), _ = calls[i]
        t = math.hypot(tx - x0, ty - y0) / math.hypot(*gradient(scenario.users, z, (x0, y0)))
        assert t >= 0.5 / big_l * (1 - 1e-9)
        i += 1
    assert report.step_size_final >= 1.0 / big_l


class TestStepRule:
    def test_canned_uniform_case_converges_to_the_newton_optimum(self, value_calls):
        scenario = canned_uniform()
        report = solve(scenario, cases.UNIFORM_CONFIG, c=cases.C_ROUNDED)
        ref = newton_optimum(scenario)
        assert report.converged
        assert report.iterations <= 20
        assert math.dist(report.placement[:2], ref) <= 1e-3
        assert len(value_calls) <= 3 * report.iterations + 1

    def test_canned_nonuniform_case_converges_in_a_few_iterations(self, value_calls):
        scenario = canned_nonuniform()
        report = solve(scenario, cases.NONUNIFORM_CONFIG, c=cases.C_ROUNDED)
        assert report.converged
        assert report.iterations <= 20
        assert math.dist(report.placement[:2], newton_optimum(scenario)) <= 1e-3
        assert len(value_calls) <= 3 * report.iterations + 1

    def test_first_accepted_step_is_one_over_lipschitz(self):
        scenario = canned_uniform()
        config = SolverConfig(mode="box", max_iters=1)
        report = solve(scenario, config, c=cases.C_ROUNDED)
        z = scenario.bounds.z_min
        step = 1.0 / (2.0 * float(scenario.users.arrays.es.sum()) / z**4)  # the solver's 1/L
        (x0, y0, _), (x1, y1, _) = report.trajectory
        gx, gy = gradient(scenario.users, z, (x0, y0))  # interior: no clamping
        assert (x1, y1) == (x0 + step * gx, y0 + step * gy)
        assert report.step_size_final == 2.0 * step  # an accepted step doubles the next

    def test_a_step_beyond_the_trial_cap_is_cut_to_it(self, monkeypatch):
        # From the corner (0, 0) of the 50 m box the first step 1/L reaches
        # 0.38 box diagonals. Under a cap of 1/8 diagonal it is cut so that
        # the trial lies that far from p, as is every later trial, and the
        # ascent still ends where the uncut one does.
        scenario, config = relaxed_scenario(), SolverConfig(mode="region", init=(0.0, 0.0))
        uncut = solve(scenario, config)
        trials = []
        real = region_mod.project

        def recording(region, point):
            trials.append(point)
            return real(region, point)

        monkeypatch.setattr(region_mod, "project", recording)
        monkeypatch.setattr(solver_mod, "TRIAL_DIAGONALS", 0.125)
        report = solve(scenario, config)
        assert report.converged and report.iterations > uncut.iterations
        assert math.dist(report.placement[:2], uncut.placement[:2]) <= 1e-3
        assert contains(build(scenario), report.placement[:2])
        values = [f for _, _, f in report.trajectory]
        assert all(b >= a for a, b in zip(values, values[1:]))
        cap = 0.125 * math.hypot(50, 50)
        assert math.dist(trials[1], (0.0, 0.0)) == pytest.approx(cap)
        for trial in trials[1:]:  # each from the iterate it steps from
            assert min(math.dist(trial, row[:2]) for row in report.trajectory) <= cap * (1 + 1e-12)

    @pytest.mark.parametrize("z", [650.0, 30.0])
    def test_scaling_every_energy_by_a_power_of_two_changes_no_bit(self, z):
        # f, g and L scale by 2^k together, so every step t*g stays the same:
        # the step rule has no absolute constant, from a total energy near
        # the input domain's floor, 2^-900 J, to one near its ceiling, 2^900 J
        base = generate_uniform(20, AreaBounds(0, 250, 0, 250, z, z), 4500, 18000, seed=4)
        xs, ys, es = base.users.arrays
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # z = 30 m: no certificate
            reports = [
                solve(Scenario(UserArrays(xs, ys, es * 2.0**k), base.rf, base.bounds), SolverConfig(mode="box"))
                for k in (0, -900, -300, 64, 100, 300, 600, 881)
            ]
        for k in (-919, 883):  # a total beyond the domain
            with pytest.raises(ValidationError, match="^the users' total energy must lie in "):
                Scenario(UserArrays(xs, ys, es * 2.0**k), base.rf, base.bounds)
        want = reports[0]
        assert want.converged
        for r in reports[1:]:
            assert [row[:2] for row in r.trajectory] == [row[:2] for row in want.trajectory]
            assert r.placement == want.placement
            assert (r.iterations, r.converged) == (want.iterations, want.converged)

    def test_doubling_keeps_the_step_finite(self, monkeypatch):
        # Under a curvature bound of 1e-308, 1/L is 1e308. From (1e-308, 0),
        # where |g| is 1.8e-304, that step reaches 1.8e4 m, within the trial
        # cap, and ends clamped on the user at the corner, a move of 1e-308 m
        # that a tolerance of 1e-320 m does not stop; doubled, the step would
        # be infinite, and inf * 0 at the user a NaN trial that no halving
        # could shorten.
        first_step(monkeypatch, 1e308)
        s = Scenario(users=(UserDevice(0.0, 0.0, 9000.0),), rf=RF, bounds=AreaBounds(0, 100, 0, 100, 1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # z = 1 m: no certificate
            report = solve(s, SolverConfig(mode="box", init=(1e-308, 0.0), tolerance=1e-320))
        assert report.converged
        assert report.placement == (0.0, 0.0, 1.0)
        assert report.step_size_final == sys.float_info.max

    @pytest.mark.parametrize("m", [5, 20, 50])
    def test_binding_region_solves_agree_from_both_starts(self, m, value_calls):
        scenario = binding_scenario(m)
        feas = build(scenario)
        big_l = lipschitz(scenario)
        reports = []
        for init in ("centroid", (0.0, 0.0)):
            value_calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # z = 10 m: no certificate
                report = solve(scenario, SolverConfig(mode="region", init=init))
            assert report.converged
            assert report.iterations <= 20
            assert len(value_calls) <= 3 * report.iterations + 1
            # an accepted step satisfies the descent lemma, which 1/L always does
            assert report.step_size_final >= 0.5 / big_l
            assert report.gap_bound is None
            assert report.projected_gradient <= 2.0 * big_l * 1e-3
            assert contains(feas, report.placement[:2], tol=1e-9)
            reports.append(report)
        a, b = (r.placement[:2] for r in reports)
        assert math.dist(a, b) <= 1e-3

        # No feasible node of a 0.5 m grid within 3 m does better. Without the
        # certificate the answer is a stationary point, not a proven global
        # optimum: on this layout at m = 20 and 50 the ascent stops at a
        # local maximum on a vertex of the region, below the grid's best.
        spacing = 0.5
        x, y = a
        near = [
            (i * spacing, j * spacing)
            for i in range(math.ceil((x - 3.0) / spacing), math.floor((x + 3.0) / spacing) + 1)
            for j in range(math.ceil((y - 3.0) / spacing), math.floor((y + 3.0) / spacing) + 1)
        ]
        near = [q for q in near if contains(feas, q, tol=0.0)]
        assert near
        z = scenario.bounds.z_min
        assert reports[0].objective >= max(value(scenario.users, z, q) for q in near)
        if m == 5:
            best = grid_search(scenario, GridSpec(spacing, scenario.bounds), mode="region")
            assert reports[0].objective >= best.value
            assert math.dist(a, best.point) <= math.sqrt(2.0) * spacing


class TestGapBound:
    @pytest.mark.parametrize("make, config", [
        (canned_uniform, cases.UNIFORM_CONFIG),
        (canned_nonuniform, cases.NONUNIFORM_CONFIG),
    ], ids=["uniform", "nonuniform"])
    def test_bound_covers_the_true_gap(self, make, config):
        scenario = make()
        z = scenario.bounds.z_min
        f_star = value(scenario.users, z, newton_optimum(scenario))
        for max_iters in (1, 2, 3, config.max_iters):
            cfg = SolverConfig(mode="box", max_iters=max_iters, tolerance=config.tolerance)
            report = solve(scenario, cfg, c=cases.C_ROUNDED)
            gap = f_star - report.objective
            assert report.projected_gradient is None
            # the objective is about 5 J/m^2: allow a few ulps of rounding
            assert report.gap_bound >= gap - 1e-14
            if report.iterations < 4:
                assert gap > 1e-12  # a truncated ascent leaves a measurable gap
                assert report.gap_bound <= 50.0 * gap

    @pytest.mark.parametrize("delta", [1e-6, 1e-10])
    def test_bound_covers_the_true_gap_where_g_over_mu_passes_the_trial_cap(self, delta, monkeypatch):
        # Two unit-K users at opposite corners, the far one's 50 m disk the
        # region, at a relative delta above the altitude from which the box
        # bound proves concavity: mu is so small that p + g/mu lies 7.5e7 m or
        # 7.5e11 m out, the latter beyond REACH. The bound projects the point
        # at the trial cap instead and adds what the projection's optimality
        # allows. One step of 1/L, about 1700, from (100, 100) lands on the
        # optimum; one of 1e3, under a curvature bound of 1e-3, stops short.
        z = math.hypot(100, 100) * math.sqrt(3) * (1 + delta)
        users = [UserDevice(0.0, 0.0, 1e6), UserDevice(100.0, 100.0, 50.0**2 + z * z)]
        scenario = unit_scenario(users, AreaBounds(0, 100, 0, 100, z, z), p_max=1e12)
        best = solve(scenario, SolverConfig(mode="region"))
        assert best.converged and best.gap_bound <= 1e-15
        for step, gap in ((None, 0.0), (1e3, 0.2219)):
            if step is not None:
                first_step(monkeypatch, step)
            report = solve(scenario, SolverConfig(mode="region", max_iters=1, init=(100.0, 100.0)))
            p, g = report.placement[:2], gradient(scenario.users, z, report.placement[:2])
            mu = -box_curvature_bounds(scenario.users, z, scenario.bounds)[1]
            assert math.hypot(*g) / mu > solver_mod.TRIAL_DIAGONALS * math.hypot(100, 100)
            assert best.objective - report.objective == pytest.approx(gap, abs=1e-4)
            assert best.objective - report.objective <= report.gap_bound <= 1.02 * gap + 1e-15, p

    @pytest.mark.parametrize("z", [2.0, 10.0, 30.0, 650.0])
    def test_modulus_bounds_every_hessian_on_the_box(self, z):
        scenario = canned_uniform()
        b = scenario.bounds
        d_max = math.hypot(b.x_max - b.x_min, b.y_max - b.y_min)
        lo, hi = curvature_bounds(scenario.users, z, d_max)
        assert lo < 0
        assert (hi < 0) == (z > math.sqrt(3.0) * d_max)  # a modulus exactly under the certificate
        gen = SplitMix64(4)
        for _ in range(200):
            p = (gen.uniform(b.x_min, b.x_max), gen.uniform(b.y_min, b.y_max))
            eigenvalues = np.linalg.eigvalsh(hessian(scenario.users, z, p))
            assert lo <= eigenvalues.min() and eigenvalues.max() <= hi

    def test_modulus_is_attained_by_one_user_across_the_diagonal(self):
        bounds = cases.BOUNDS
        s = Scenario(users=(UserDevice(0.0, 0.0, 9000.0),), rf=RF, bounds=bounds)
        _, hi = curvature_bounds(s.users, bounds.z_min, math.hypot(250.0, 250.0))
        top = np.linalg.eigvalsh(hessian(s.users, bounds.z_min, (250.0, 250.0))).max()
        assert top == pytest.approx(hi, rel=1e-12)

    @pytest.mark.parametrize("z", [2.0, 30.0, 650.0])
    def test_one_user_attains_each_bound(self, z):
        users = (UserDevice(0.0, 0.0, 9000.0),)
        lo, hi = curvature_bounds(users, z)
        assert np.linalg.eigvalsh(hessian(users, z, (0.0, 0.0))) == pytest.approx([lo, lo], rel=1e-12)
        assert np.linalg.eigvalsh(hessian(users, z, (z, 0.0))).max() == pytest.approx(hi, rel=1e-12)
        # an eigenvalue above hi at some r != z would break the bound
        for r in (0.5 * z, 0.9 * z, 1.1 * z, 3.0 * z):
            assert np.linalg.eigvalsh(hessian(users, z, (0.0, r))).max() < hi
        # within a reach below z the radial eigenvalue peaks at the reach
        _, hi_near = curvature_bounds(users, z, 0.5 * z)
        assert hi_near < hi
        top = np.linalg.eigvalsh(hessian(users, z, (0.3 * z, 0.4 * z))).max()
        assert top == pytest.approx(hi_near, rel=1e-12)
        assert curvature_bounds(users, z, z) == (lo, hi)

    def test_bound_is_near_tight_for_one_user_across_the_diagonal(self, monkeypatch):
        # The optimum is the user's own corner. From the far corner the
        # model's maximiser lies beyond the box, so the bound depends on the
        # projection; here it is within 1.5x of the true gap. A first step
        # of 1e-9, under a curvature bound of 1e9, keeps p at the corner.
        first_step(monkeypatch, 1e-9)
        bounds = cases.BOUNDS
        s = Scenario(users=(UserDevice(0.0, 0.0, 9000.0),), rf=RF, bounds=bounds)
        config = SolverConfig(mode="box", init=(250.0, 250.0), max_iters=1)
        report = solve(s, config)
        gap = 9000.0 / bounds.z_min**2 - report.objective
        assert gap <= report.gap_bound <= 1.5 * gap

    @pytest.mark.parametrize("z", [448.0, 500.0, 600.0])
    def test_per_user_bound_gives_a_gap_below_the_certificate(self, z):
        # The paper's condition needs z > 612 m; each user's curvature within
        # its own farthest box corner proves concavity from about 448 m.
        scenario = canned_uniform_at(z)
        assert not concavity_certificate(scenario.bounds).holds
        f_star = value(scenario.users, z, newton_optimum(scenario))
        for max_iters in (1, 2, cases.UNIFORM_CONFIG.max_iters):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                report = solve(scenario, SolverConfig(mode="box", max_iters=max_iters), c=cases.C_ROUNDED)
            assert report.projected_gradient is None
            assert report.gap_bound >= f_star - report.objective - 1e-14

    def test_warns_where_the_per_user_bound_proves_nothing(self):
        scenario = canned_uniform_at(440.0)
        with pytest.warns(RuntimeWarning, match="non-concave"):
            report = solve(scenario, cases.UNIFORM_CONFIG, c=cases.C_ROUNDED)
        assert report.gap_bound is None
        assert report.projected_gradient >= 0.0

    def test_gap_bound_exactly_where_the_scan_proves_concavity(self):
        # the box bound changes sign between 447.95884314881016 m and the next double up
        outcomes = set()
        for z in (30.0, 440.0, 447.95884314881016, 447.9588431488102, 448.0, 612.0, 650.0, 1e4):
            scenario = canned_uniform_at(z)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                report = solve(scenario, SolverConfig(mode="box", max_iters=3), c=cases.C_ROUNDED)
            proven = nsd_scan(scenario.users, z, scenario.bounds, samples=1).outcome == "proven"
            assert (report.gap_bound is not None) == proven, z
            assert (report.projected_gradient is None) == proven, z
            outcomes.add(proven)
        assert outcomes == {True, False}

    def test_no_gap_without_the_certificate(self):
        s = z30_scenario()
        b = s.bounds
        assert box_curvature_bounds(s.users, b.z_min, b)[1] >= 0
        with pytest.warns(RuntimeWarning, match="non-concave"):
            report = solve(s, SolverConfig(mode="box"))
        assert report.gap_bound is None
        assert report.projected_gradient >= 0.0
        doc = report_to_dict(report)
        assert doc["gap_bound"] is None
        assert doc["projected_gradient"] == report.projected_gradient


class TestMonotoneAscent:
    def test_line_search_never_decreases_objective(self):
        report = solve(reference_scenario(), SolverConfig(mode="box", max_iters=100), c=3e8)
        values = [f for _, _, f in report.trajectory]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert len(report.trajectory) == report.iterations + 1


    def test_objective_never_falls_near_the_largest_double(self):
        # 2^899 and 2^898 J at 650 m, near the input domain's ceiling of
        # 2^900 J: 1/L is about 1e-260. 1e300 J lies beyond it.
        with pytest.raises(ValidationError, match="^the users' total energy must lie in "):
            Scenario(users=(UserDevice(100.0, 100.0, 1e300),), rf=RF, bounds=AreaBounds(0, 250, 0, 250, 650, 650))
        users = (UserDevice(100.0, 100.0, 2.0**899), UserDevice(150.0, 120.0, 2.0**898))
        s = Scenario(users=users, rf=RF, bounds=AreaBounds(0, 250, 0, 250, 650, 650))
        report = solve(s, SolverConfig(mode="box"), c=3e8)
        values = [f for _, _, f in report.trajectory]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert report.converged
        assert report.gap_bound is not None

    def test_a_curvature_bound_without_a_finite_step_is_an_input_error(self):
        # At z = 1e75 m and 1e-15 J, 2*sum(E)/z^4 = 2e-315 and 1/L overflowed:
        # that altitude lies beyond the input domain. At its corner, the
        # highest altitude, 2^24 m, and the least total energy, 2^-900 J,
        # 1/L = z^4/(2 sum(E)) is 2^995, and the ascent runs. One double
        # beyond either edge is an input error.
        with pytest.raises(ValidationError, match=r"^bounds\.z_min must lie in "):
            AreaBounds(0, 250, 0, 250, 1e75, 1e75)
        z, energy = ALTITUDE_LIMITS[1], ENERGY_LIMITS[0]
        bounds = AreaBounds(0, 250, 0, 250, z, z)
        s = Scenario(users=(UserDevice(125.0, 125.0, energy),), rf=RF, bounds=bounds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(s, SolverConfig(mode="box", init=(0.0, 0.0)))
        assert report.converged and math.dist(report.placement[:2], (125.0, 125.0)) < 1e-3
        assert lipschitz(s) == 2.0**-995
        with pytest.raises(ValidationError, match=r"^bounds\.z_min must lie in "):
            AreaBounds(0, 250, 0, 250, math.nextafter(z, math.inf), math.nextafter(z, math.inf))
        with pytest.raises(ValidationError, match="^the users' total energy must lie in "):
            Scenario(users=(UserDevice(125.0, 125.0, math.nextafter(energy, 0.0)),), rf=RF, bounds=bounds)


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
        assert not feas.empty and len(feas.table.r) == 3
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
        s = z30_scenario()
        with pytest.warns(RuntimeWarning, match="non-concave"):
            solve(s, SolverConfig(mode="box", max_iters=5))


class TestReportSerialization:
    def test_report_round_trip_fields(self, tmp_path):
        import json

        from uavlift.solver import save_report

        report = solve(relaxed_scenario(), SolverConfig(mode="box", max_iters=50))
        path = tmp_path / "report.json"
        save_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["placement"] == list(report.placement)
        assert doc["objective"] == report.objective
        assert doc["converged"] == report.converged
        assert report.gap_bound is not None  # the certificate holds at 130 m over 50 m
        assert doc["gap_bound"] == report.gap_bound
        assert doc["projected_gradient"] is None
        # every (x, y, objective) row keeps its bits
        assert [[float.hex(v) for v in row] for row in doc["trajectory"]] == [
            [float.hex(v) for v in row] for row in report.trajectory
        ]
